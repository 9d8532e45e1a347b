from fractions import Fraction

import pytest

import cliffordops as co
from lgmirror import cli
from lgmirror import clifford as cl
from lgmirror import grouprep as gr
from lgmirror import partitions as pt
from lgmirror import superpotential as sp
from lgmirror import weyl as wy
from lgmirror.scalars import EXACT, QSqrt2

ring = EXACT


# -- the dense oracle: u2bar as a product of truncated exponentials --------------


def mat_zero(n):
    return [[ring.zero] * n for _ in range(n)]


def mat_identity(n):
    out = mat_zero(n)
    for i in range(n):
        out[i][i] = ring.one
    return out


def mat_mul(a, b):
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def one_param_y(i, a, m):
    """y_i(a) = exp(a f_i) = I + a f_i + (a^2/2) f_i^2, computed densely."""
    f = gr.chevalley_f(i, m)
    f2 = mat_mul(f, f)
    scale2 = a * a * ring.from_fraction(Fraction(1, 2))
    n = len(f)
    return [[(ring.one if r == c else ring.zero) + a * f[r][c] + scale2 * f2[r][c] for c in range(n)] for r in range(n)]


def dense_u2bar(b, m):
    """y_{i_N}(b_N) ... y_{i_1}(b_1) by N dense matrix products."""
    word = wy.canonical_wp_word(m)
    out = mat_identity(2 * m + 1)
    for k in range(len(word), 0, -1):
        out = mat_mul(out, one_param_y(word[k - 1], b[k - 1], m))
    return out


def spin_factors(b, m):
    """The parts b_k F_{i_k} of the factors I + b_k F_{i_k} of u2bar on
    V_Spin, leftmost first, as apply_factors reads them: each move (row,
    col) of F_{i_k} is the entry b_k at (row, col)."""
    word = wy.canonical_wp_word(m)
    return [{col: [(row, b[k - 1])] for row, col in gr.spin_f_moves(word[k - 1], m)} for k in range(len(word), 0, -1)]


def build_u2bar_spin(b, m):
    """u2bar acting on V_Spin, as a sparse 2^m x 2^m matrix over Q(sqrt2),
    column by column through the spin factors."""
    factors = spin_factors(b, m)
    out = cl.EndSpin(m)
    for col in pt.all_subsets(m):
        for row, c in gr.apply_factors(factors, {col: ring.one}).items():
            out.add_term((row, col), c)
    return out


def test_chevalley_generator_shapes():
    m = 3
    for i in range(1, m):
        e = gr.chevalley_e(i, m)
        assert e[i - 1][i] == QSqrt2(1)
        assert e[2 * m - i][2 * m + 1 - i] == QSqrt2(1)
        assert sum(1 for row in e for c in row if c) == 2
    em = gr.chevalley_e(m, m)
    assert em[m - 1][m] == QSqrt2(0, 1)
    assert em[m][m + 1] == QSqrt2(0, 1)


def test_f_is_transpose_of_e():
    for m in (2, 3):
        for i in range(1, m + 1):
            assert gr.chevalley_f(i, m) == gr.mat_transpose(gr.chevalley_e(i, m))


def test_nilpotency():
    m = 3
    em = gr.chevalley_e(m, m)
    sq = mat_mul(em, em)
    assert sq[m - 1][m + 1] == QSqrt2(2)
    assert sum(1 for row in sq for c in row if c) == 1
    cube = mat_mul(sq, em)
    assert all(not c for row in cube for c in row)
    for i in range(1, m):
        e = gr.chevalley_e(i, m)
        assert all(not c for row in mat_mul(e, e) for c in row)


def test_vector_factor_tables():
    """The table of y_i(b) - I holds f_i at power 1 and f_i^2/2 at power 2,
    and f_i^2 = 0 for i < m."""
    half = QSqrt2(Fraction(1, 2))
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            f = gr.chevalley_f(i, m)
            table = gr._vector_f_table(i, m)
            for power, mat, scale in ((1, f, QSqrt2(1)), (2, mat_mul(f, f), half)):
                dense = {(r, c): x * scale for r, row in enumerate(mat) for c, x in enumerate(row) if x}
                assert {(r, c): x for r, c, pw, x in table if pw == power} == dense, (m, i, power)
            assert any(pw == 2 for _, _, pw, _ in table) == (i == m)
    assert [entry for entry in gr._vector_f_table(2, 2) if entry[2] == 2] == [(3, 1, 2, QSqrt2(1))]


def test_one_param_subgroup():
    m = 2
    a = ring.from_fraction(Fraction(3, 5))
    b = ring.from_fraction(Fraction(-2, 7))
    ab = ring.from_fraction(Fraction(3, 5) - Fraction(2, 7))
    assert one_param_y(1, ring.zero, m) == mat_identity(5)
    lhs = mat_mul(one_param_y(2, a, m), one_param_y(2, b, m))
    assert lhs == one_param_y(2, ab, m)
    y = one_param_y(m, a, m)
    assert y[m][m - 1] == a * QSqrt2.sqrt2()
    assert y[m + 1][m - 1] == a * a
    # one nonzero coordinate b_k: the factor route gives y_{i_k}(b_k) itself
    word = wy.canonical_wp_word(m)
    for k, letter in enumerate(word):
        for x in (a, b, ab):
            coords = [ring.zero] * len(word)
            coords[k] = x
            assert gr.build_u2bar(coords, m) == one_param_y(letter, x, m), (k, x)


def test_u2bar_factorization_and_shape():
    m = 2
    b = sp.ring_vector([1, 2, 3], ring)
    u2 = gr.build_u2bar(b, m)
    explicit = mat_mul(mat_mul(one_param_y(2, b[2], m), one_param_y(1, b[1], m)), one_param_y(2, b[0], m))
    assert u2 == explicit
    assert u2[1][0] == b[1]  # the unique f_1 coefficient
    n = 2 * m + 1
    for i in range(n):
        assert u2[i][i] == ring.one
        for j in range(i + 1, n):
            assert not u2[i][j]
    zeros = gr.build_u2bar([ring.zero] * 3, m)
    assert zeros == mat_identity(5)
    with pytest.raises(ValueError):
        gr.build_u2bar(b[:2], m)
    with pytest.raises(ValueError):
        gr.spin_row_sweep(b[:2], m)


def test_u2bar_matches_dense_product():
    """The column route equals the dense product of truncated exponentials."""
    for m in (2, 3, 4, 5):
        stream = cli.rational_stream(17 + m)
        for _ in range(3):
            b = sp.ring_vector(cli.sample_b(m, stream), ring)
            assert gr.build_u2bar(b, m) == dense_u2bar(b, m), m


def gram_matrix(m):
    """The bilinear form: <v_i, v_{2m+2-j}> = (-1)^{m+1-i} delta_{ij}."""
    out = mat_zero(2 * m + 1)
    for i in range(1, 2 * m + 2):
        out[i - 1][2 * m + 1 - i] = QSqrt2(cl.epsilon(i, m))
    return out


def test_u2bar_preserves_bilinear_form():
    for m in (2, 3):
        stream = cli.rational_stream(21)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            u2 = gr.build_u2bar(sp.ring_vector(bs, ring), m)
            g = gram_matrix(m)
            assert mat_mul(gr.mat_transpose(u2), mat_mul(g, u2)) == g


def test_generators_in_orthogonal_lie_algebra():
    for m in (2, 3):
        g = gram_matrix(m)
        for i in range(1, m + 1):
            for mat in (gr.chevalley_e(i, m), gr.chevalley_f(i, m)):
                xtg = mat_mul(gr.mat_transpose(mat), g)
                gx = mat_mul(g, mat)
                assert all(
                    not (xtg[r][c] + gx[r][c]) for r in range(2 * m + 1) for c in range(2 * m + 1)
                )


def test_vector_action_matches_clifford_commutator():
    """The wedge^2 images act on V exactly as the explicit matrices."""
    for m in (2, 3):
        for i in range(1, m + 1):
            for kind, mat in (("e", gr.chevalley_e(i, m)), ("f", gr.chevalley_f(i, m))):
                cols = co.vector_action(cl.generator_clifford(i, kind, m), m)
                dense = mat_zero(2 * m + 1)
                for k, col in cols.items():
                    for j, c in col.items():
                        dense[j - 1][k - 1] = c
                assert dense == mat, (m, i, kind)


def cofactor_det(a, ring):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = ring.zero
    for c in range(n):
        sub = [row[:c] + row[c + 1:] for row in a[1:]]
        term = a[0][c] * cofactor_det(sub, ring)
        total = total + term if c % 2 == 0 else total - term
    return total


def test_minor_against_cofactor_expansion():
    m = 2
    b = sp.ring_vector([Fraction(1, 2), Fraction(3), Fraction(-2, 5)], ring)
    u2 = gr.build_u2bar(b, m)
    for rows, cols in [([3, 4, 5], [2, 3, 4]), ([1, 2, 3], [1, 2, 3]), ([2, 3, 4, 5], [1, 2, 3, 4])]:
        sub = [[u2[r - 1][c - 1] for c in cols] for r in rows]
        assert gr.minor(u2, rows, cols) == cofactor_det(sub, ring)
    assert gr.minor(mat_identity(5), [1, 3], [1, 3]) == ring.one
    with pytest.raises(ValueError):
        gr.minor(u2, [1, 2], [1])


def test_frozen_minor_value():
    b = sp.ring_vector([1, 2, 3], ring)
    u2 = gr.build_u2bar(b, 2)
    assert gr.minor(u2, [3, 4, 5], [2, 3, 4]) == QSqrt2(18)


def test_extract_f_coeff():
    m = 2
    b = sp.ring_vector([1, 2, 3], ring)
    u2 = gr.build_u2bar(b, m)
    assert gr.extract_f_coeff(u2, 1) == QSqrt2(2)
    assert gr.extract_f_coeff(u2, 2) == QSqrt2(4)
    for m in (3, 4):
        word = wy.canonical_wp_word(m)
        stream = cli.rational_stream(5)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            bv = sp.ring_vector(bs, ring)
            u2 = gr.build_u2bar(bv, m)
            for j in range(1, m + 1):
                expected = ring.zero
                for k, letter in enumerate(word, start=1):
                    if letter == j:
                        expected = expected + bv[k - 1]
                assert gr.extract_f_coeff(u2, j) == expected


def test_u2bar_spin_unitriangular():
    for m in (2, 3):
        stream = cli.rational_stream(9)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            mat = build_u2bar_spin(sp.ring_vector(bs, ring), m)
            for s in pt.all_subsets(m):
                assert mat.coeffs.get((s, s)) == ring.one
            # strictly triangular w.r.t. the weight filtration by |I|
            for (r, c), v in mat.coeffs.items():
                assert len(r) <= len(c)


def test_row_sweep_is_the_empty_row_of_the_spin_matrix():
    """spin_row_sweep, the transposed moves through apply_factors, equals
    the w_empty row of the spin matrix built column by column, and keeps no
    zero entry, also where a coordinate is 0 or two paths cancel."""
    for m in (2, 3, 4, 5):
        stream = cli.rational_stream(41 + m)
        n = m * (m + 1) // 2
        draws = [cli.sample_b(m, stream), [0] + cli.sample_b(m, stream)[1:], [1, 1, -1] + [1] * (n - 3)]
        for bs in draws:
            b = sp.ring_vector(bs, ring)
            row = gr.spin_row_sweep(b, m)
            want = {col: c for (r, col), c in build_u2bar_spin(b, m).coeffs.items() if r == ()}
            assert row == want and all(row.values()), (m, bs)


def test_u2bar_spin_corner_coefficients():
    for m in (2, 3):
        stream = cli.rational_stream(13)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            bv = sp.ring_vector(bs, ring)
            factors = spin_factors(bv, m)
            img = gr.apply_factors(factors, {(): ring.one})
            assert img.get(()) == ring.one  # p_empty = 1
            top = gr.apply_factors(factors, {tuple(range(1, m + 1)): ring.one})
            prod = ring.one
            for x in bv:
                prod = prod * x
            assert top.get(()) == prod  # p_{rho_m} = prod b_j


def test_u2bar_spin_matches_product_of_generator_matrices():
    """The column route on V_Spin equals prod_k (I + b_k F_{i_k}) composed as
    sparse matrices, F_i the spin matrix of f_i from its Clifford image."""
    for m in (2, 3):
        word = wy.canonical_wp_word(m)
        stream = cli.rational_stream(31)
        for _ in range(2):
            bv = sp.ring_vector(cli.sample_b(m, stream), ring)
            product = co.end_identity(m)
            for k in range(len(word), 0, -1):
                factor = co.end_identity(m) + cl.spin_generator_matrix(word[k - 1], "f", m).scale(bv[k - 1])
                product = product.compose(factor)
            assert build_u2bar_spin(bv, m) == product, m


def test_spin_moves_are_entries_one_without_repeats():
    """Every spin matrix F_i has only entries 1, at most one per row and
    per column, for m <= 8."""
    for m in range(1, 9):
        for i in range(1, m + 1):
            moves = gr.spin_f_moves(i, m)
            entries = cl.spin_generator_matrix(i, "f", m).coeffs
            assert entries == {move: QSqrt2(1) for move in moves}, (m, i)
            rows, cols = zip(*moves)
            assert len(set(rows)) == len(set(cols)) == len(moves) == 2 ** (m - 1 if i == m else m - 2), (m, i)


def test_spin_moves_reject_an_entry_other_than_one_and_a_repeated_column(monkeypatch):
    """An entry 2, or a second entry in one column, raises on building."""
    spin_generator_matrix = cl.spin_generator_matrix
    monkeypatch.setattr(cl, "spin_generator_matrix", lambda *args: spin_generator_matrix(*args).scale(QSqrt2(2)))
    with pytest.raises(ArithmeticError, match="not 1"):
        gr.spin_f_moves.__wrapped__(1, 2)

    def repeated_column(*args):
        mat = spin_generator_matrix(*args)
        (row, col), *_ = mat.coeffs
        mat.add_term(((), col) if row else ((1,), col), QSqrt2(1))
        return mat

    monkeypatch.setattr(cl, "spin_generator_matrix", repeated_column)
    with pytest.raises(ArithmeticError, match="row or column"):
        gr.spin_f_moves.__wrapped__(1, 2)
