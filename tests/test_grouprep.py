import math
from fractions import Fraction

import pytest

import cliffordops as co
import fractionwindows as fw
import sweeps
from subsetmaps import from_subset
from lgmirror import cli
from lgmirror import clifford as cl
from lgmirror import grouprep as gr
from lgmirror import partitions as pt
from lgmirror import superpotential as sp
from lgmirror import weyl as wy
from lgmirror.scalars import EXACT, Laurent, QSqrt2, lift, splitmix64

ring = EXACT


# -- the dense oracle: u2bar in the sqrt2 basis, a product of truncated exponentials


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


def mat_transpose(a):
    return [list(row) for row in zip(*a)]


def chevalley_e(i, m):
    """e_i in the sqrt2 basis: E_{i,i+1} + E_{2m+1-i,2m+2-i} for i < m,
    sqrt2 E_{m,m+1} + sqrt2 E_{m+1,m+2} for i = m."""
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range for m={m}")
    n = 2 * m + 1
    out = mat_zero(n)
    if i < m:
        out[i - 1][i] = ring.one
        out[2 * m - i][2 * m + 1 - i] = ring.one
    else:
        out[m - 1][m] = QSqrt2.sqrt2()
        out[m][m + 1] = QSqrt2.sqrt2()
    return out


def chevalley_f(i, m):
    return mat_transpose(chevalley_e(i, m))


def integral(x, m):
    """S^-1 X S, S = diag(1, ..., sqrt2, ..., 1) with sqrt2 at m+1: a matrix
    of the sqrt2 basis in the integral basis of grouprep.build_u2bar."""
    n = len(x)
    s = [QSqrt2.sqrt2() if k == m else ring.one for k in range(n)]
    return [[x[r][c] * s[c] / s[r] for c in range(n)] for r in range(n)]


def graded(u2):
    """The entries of u2bar at b from build_u2bar's (g, D): g_rc / D^(r-c)."""
    g, d = u2
    return [[x * Fraction(d) ** (c - r) for c, x in enumerate(row)] for r, row in enumerate(g)]


def one_param_y(i, a, m):
    """y_i(a) = exp(a f_i) = I + a f_i + (a^2/2) f_i^2 in the sqrt2 basis,
    computed densely."""
    f = chevalley_f(i, m)
    f2 = mat_mul(f, f)
    scale2 = a * a * ring.from_fraction(Fraction(1, 2))
    n = len(f)
    return [[(ring.one if r == c else ring.zero) + a * f[r][c] + scale2 * f2[r][c] for c in range(n)] for r in range(n)]


def dense_u2bar(b, m):
    """y_{i_N}(b_N) ... y_{i_1}(b_1) in the sqrt2 basis by N dense matrix products."""
    word = wy.canonical_wp_word(m)
    out = mat_identity(2 * m + 1)
    for k in range(len(word), 0, -1):
        out = mat_mul(out, one_param_y(word[k - 1], b[k - 1], m))
    return out


def build_u2bar_spin(b, m):
    """u2bar acting on V_Spin, as a sparse 2^m x 2^m matrix over the ring of b:
    prod_k (I + b_k F_{i_k}), leftmost (k = N) first, composed as sparse
    matrices, F_i the spin matrix of f_i from its Clifford image."""
    word = wy.canonical_wp_word(m)
    out = co.end_identity(m)
    for k in range(len(word), 0, -1):
        factor = co.end_identity(m) + cl.spin_generator_matrix(word[k - 1], "f", m).scale(b[k - 1])
        out = co.end_compose(out, factor)
    return out


def test_chevalley_generator_shapes():
    m = 3
    for i in range(1, m):
        e = chevalley_e(i, m)
        assert e[i - 1][i] == QSqrt2(1)
        assert e[2 * m - i][2 * m + 1 - i] == QSqrt2(1)
        assert sum(1 for row in e for c in row if c) == 2
    em = chevalley_e(m, m)
    assert em[m - 1][m] == QSqrt2(0, 1)
    assert em[m][m + 1] == QSqrt2(0, 1)


def test_f_is_transpose_of_e():
    for m in (2, 3):
        for i in range(1, m + 1):
            assert chevalley_f(i, m) == mat_transpose(chevalley_e(i, m))


def test_nilpotency():
    m = 3
    em = chevalley_e(m, m)
    sq = mat_mul(em, em)
    assert sq[m - 1][m + 1] == QSqrt2(2)
    assert sum(1 for row in sq for c in row if c) == 1
    cube = mat_mul(sq, em)
    assert all(not c for row in cube for c in row)
    for i in range(1, m):
        e = chevalley_e(i, m)
        assert all(not c for row in mat_mul(e, e) for c in row)


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
        for x in (Fraction(3, 5), Fraction(-2, 7), Fraction(11, 35)):
            coords = [0] * len(word)
            coords[k] = x
            assert graded(gr.build_u2bar(lift(coords), m)) == integral(one_param_y(letter, ring.from_fraction(x), m), m), (k, x)


def test_u2bar_factorization_and_shape():
    m = 2
    b = [1, 2, 3]
    bq = sp.ring_vector(b, ring)
    u2 = graded(gr.build_u2bar(lift(b), m))
    explicit = mat_mul(mat_mul(one_param_y(2, bq[2], m), one_param_y(1, bq[1], m)), one_param_y(2, bq[0], m))
    assert u2 == integral(explicit, m)
    assert u2[1][0] == b[1]  # the unique f_1 coefficient
    n = 2 * m + 1
    for i in range(n):
        assert u2[i][i] == 1
        for j in range(i + 1, n):
            assert not u2[i][j]
    assert gr.build_u2bar(lift([0] * 3), m) == ([[int(r == c) for c in range(n)] for r in range(n)], 1)
    with pytest.raises(ValueError):
        gr.build_u2bar(lift(b[:2]), m)
    with pytest.raises(ValueError):
        gr.spin_row_sweep(b[:2], m)


def test_u2bar_matches_dense_product():
    """The row operations, read by the grading, equal the dense product of
    truncated exponentials moved to the integral basis; D is the lcm of the
    denominators of b, 1 at integer b."""
    gen = splitmix64(17)
    for m in (2, 3, 4, 5):
        stream = cli.rational_stream(17 + m)
        draws = [cli.sample_b(m, stream) for _ in range(3)]
        draws.append([next(gen) % 11 - 5 for _ in wy.canonical_wp_word(m)])
        for b in draws:
            u2 = gr.build_u2bar(lift(b), m)
            assert graded(u2) == integral(dense_u2bar(sp.ring_vector(b, ring), m), m), (m, b)
            assert u2[1] == math.lcm(*(Fraction(x).denominator for x in b)), (m, b)
            assert all(type(x) is int for row in u2[0] for x in row), (m, b)


def test_quasi_homogeneity_of_u2bar_pluecker_and_w():
    """The grading, m = 2..6 at a seeded b and t in {2, -3/7}: entry (r, c)
    of the sqrt2-basis oracle at t b is t^(r-c) times the entry at b; both
    Pluecker routes give p_lambda(t b) = t^|lambda| p_lambda(b); and
    W(p(t b); t^(m+1) q) = t W(p(b); q)."""
    for m in range(2, 7):
        stream = cli.rational_stream(61 + m)
        b = cli.sample_b(m, stream)
        q = ring.from_fraction(next(stream))
        bq = sp.ring_vector(b, ring)
        u2 = dense_u2bar(bq, m)
        routes = (sp.plucker_vector, sp.plucker_subword_vector)
        ps = [route(bq, m) for route in routes]
        w = sp.eval_W(q, ps[0], m)
        for t in (Fraction(2), Fraction(-3, 7)):
            tq = ring.from_fraction(t)
            tb = sp.ring_vector([t * x for x in b], ring)
            scaled = dense_u2bar(tb, m)
            n = 2 * m + 1
            for r in range(n):
                for c in range(n):
                    assert scaled[r][c] == tq ** (r - c) * u2[r][c], (m, t, r, c)
            p_scaled = [route(tb, m) for route in routes]
            for route, p, ps_t in zip(routes, ps, p_scaled):
                for lam, value in p.items():
                    assert ps_t[lam] == tq ** sum(lam.parts) * value, (m, t, route.__name__, lam)
            assert sp.eval_W(tq ** (m + 1) * q, p_scaled[0], m) == tq * w, (m, t)


def gram_matrix(m):
    """The bilinear form: <v_i, v_{2m+2-j}> = (-1)^{m+1-i} delta_{ij}."""
    out = mat_zero(2 * m + 1)
    for i in range(1, 2 * m + 2):
        out[i - 1][2 * m + 1 - i] = QSqrt2(cl.epsilon(i, m))
    return out


def test_u2bar_preserves_bilinear_form():
    """u2bar^T B u2bar = B in the sqrt2 basis; in the integral basis the form
    is D B D, with <v_{m+1}, v_{m+1}> = 2."""
    for m in (2, 3):
        stream = cli.rational_stream(21)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            u2 = [[ring.from_fraction(x) for x in row] for row in graded(gr.build_u2bar(lift(bs), m))]
            g = gram_matrix(m)
            g[m][m] = g[m][m] * QSqrt2(2)
            assert mat_mul(mat_transpose(u2), mat_mul(g, u2)) == g


def test_generators_in_orthogonal_lie_algebra():
    for m in (2, 3):
        g = gram_matrix(m)
        for i in range(1, m + 1):
            for mat in (chevalley_e(i, m), chevalley_f(i, m)):
                xtg = mat_mul(mat_transpose(mat), g)
                gx = mat_mul(g, mat)
                assert all(
                    not (xtg[r][c] + gx[r][c]) for r in range(2 * m + 1) for c in range(2 * m + 1)
                )


def test_vector_action_matches_clifford_commutator():
    """The wedge^2 images act on V exactly as the explicit matrices, in the
    integral basis u = sqrt2 v_{m+1} of both."""
    for m in (2, 3):
        for i in range(1, m + 1):
            for kind, mat in (("e", chevalley_e(i, m)), ("f", chevalley_f(i, m))):
                mat = integral(mat, m)
                cols = co.vector_action(cl.generator_clifford(i, kind, m), m)
                dense = mat_zero(2 * m + 1)
                for k, col in cols.items():
                    for j, c in col.items():
                        dense[j - 1][k - 1] = c
                assert dense == mat, (m, i, kind)


def cofactor_det(a):
    """The cofactor expansion along the first row, over ints or Fractions."""
    n = len(a)
    if n == 0:
        return 1
    total = 0
    for c in range(n):
        if not a[0][c]:
            continue
        sub = [row[:c] + row[c + 1:] for row in a[1:]]
        term = a[0][c] * cofactor_det(sub)
        total = total + term if c % 2 == 0 else total - term
    return total


def gaussian_determinant(a):
    """Gaussian elimination over QSqrt2 objects, entries given as QSqrt2,
    ints or Fractions: the oracle of the fraction-free grouprep.determinant."""
    n = len(a)
    a = [[x if isinstance(x, QSqrt2) else ring.from_fraction(x) for x in row] for row in a]
    det = ring.one
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return ring.zero
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if not factor:
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def test_minor_against_cofactor_expansion():
    """Minors by the grading against the cofactor expansion of u2bar's
    entries, also where the rows sum to less than the columns."""
    m = 2
    u2 = gr.build_u2bar(lift([Fraction(1, 2), Fraction(3), Fraction(-2, 5)]), m)
    entries = graded(u2)
    for rows, cols in [([3, 4, 5], [2, 3, 4]), ([1, 2, 3], [1, 2, 3]), ([2, 3, 4, 5], [1, 2, 3, 4]), ([4, 5], [1, 3]), ([2, 3], [3, 4])]:
        sub = [[entries[r - 1][c - 1] for c in cols] for r in rows]
        assert fw.minor_at_b(u2, rows, cols) == cofactor_det(sub), (rows, cols)
        assert gr.minor(u2, rows, cols) == cofactor_det([[u2[0][r - 1][c - 1] for c in cols] for r in rows])
    assert fw.minor_at_b(([[int(r == c) for c in range(5)] for r in range(5)], 7), [1, 3], [1, 3]) == 1
    with pytest.raises(ValueError):
        fw.minor_at_b(u2, [1, 2], [1])
    with pytest.raises(ValueError):
        gr.minor(u2, [1, 2], [1])


def window_cols(j, m):
    """The D and N column windows of `grouprep.window_minors` at j."""
    cols = list(range(j, j + m + 1))
    return cols, [j - 1] + cols[1:]


def recorder(monkeypatch, name, seen):
    """Replace gr.<name> by a wrapper appending (args, result) to `seen`."""
    real = getattr(gr, name)

    def recording(*args):
        out = real(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(gr, name, recording)
    return real


def test_determinant_matches_both_oracles_on_the_verified_minors(monkeypatch):
    """Every minor that `verify minors` and `verify fj` read, m = 2..5 at
    three seeds, and the checks pass: each window minor of the shared
    elimination, read at b, equals Gaussian elimination and the cofactor expansion on
    u2bar's entries at b, and so does the fraction-free determinant of each
    vanishing minor, the only minors `determinant` still takes, m - 1 per
    point."""
    seen, windows = [], []
    recorder(monkeypatch, "determinant", seen)
    recorder(monkeypatch, "window_minors", windows)
    points = 0
    for m in (2, 3, 4, 5):
        for seed in (1, 7, 23):
            stream = cli.rational_stream(seed + 100 * m)
            for _ in range(2):
                b = cli.sample_b(m, stream)
                u2 = gr.build_u2bar(lift(b), m)
                p = sp.plucker_vector(lift(b)[0], m)
                reports = sp.verify_sym_to_minors(m, p, u2) + sp.verify_fj_minors(m, u2)
                assert len(reports) == 2 * (m - 1) and all(rep.ok for _, rep in reports), (m, seed)
                points += 1
    assert len(seen) == 3 * 2 * sum(m - 1 for m in (2, 3, 4, 5))
    for (a,), det in seen:
        assert det == gaussian_determinant(a) == cofactor_det(a), a
    assert len(windows) == 2 * points
    for ((u2,), out), ((again,), same) in zip(windows[::2], windows[1::2]):
        assert again is u2 and same == out
        m, entries = len(u2[0]) // 2, graded(u2)
        assert sorted(out) == list(range(2, m + 1))
        for j, values in fw.windows_at_b(u2, out).items():
            for cols, value in zip(window_cols(j, m), values):
                sub = [[entries[r - 1][c - 1] for c in cols] for r in range(m + 1, 2 * m + 2)]
                assert value == gaussian_determinant(sub) == cofactor_det(sub), (m, j, cols)


def test_integral_basis_minors_and_f_coefficients_match_the_sqrt2_oracle(monkeypatch):
    """Every minor that `verify minors` and `verify fj` read, m = 2..5 at
    three seeds: the D and N windows of the shared elimination at j = 2..m
    and the m - 1 vanishing minors (`grouprep.minor`), 3(m - 1) index sets,
    each with m+1 in its row set and its column set, read at b, equal the
    same minors of the sqrt2-basis product of truncated exponentials by
    Gaussian elimination; f_j* (entry
    (j+1, j)) equals the oracle's entry for j < m and the oracle's entry over
    sqrt2 for j = m."""
    seen, windows = [], []
    recorder(monkeypatch, "minor", seen)
    recorder(monkeypatch, "window_minors", windows)
    for m in (2, 3, 4, 5):
        rows = list(range(m + 1, 2 * m + 2))
        for seed in (2, 9, 31):
            stream = cli.rational_stream(seed + 100 * m)
            b = cli.sample_b(m, stream)
            bq = sp.ring_vector(b, ring)
            u2, oracle = gr.build_u2bar(lift(b), m), dense_u2bar(bq, m)
            seen.clear()
            windows.clear()
            p = sp.plucker_vector(lift(b)[0], m)
            sp.verify_sym_to_minors(m, p, u2)
            sp.verify_fj_minors(m, u2)
            assert len(seen) == m - 1 and len(windows) == 2, (m, seed)
            at_b = fw.windows_at_b(u2, windows[0][1])
            read = [((rows, cols), value) for j, values in at_b.items() for cols, value in zip(window_cols(j, m), values)]
            read += [((r, c), Fraction(value, u2[1] ** (sum(r) - sum(c)))) for (_, r, c), value in seen]
            assert len({(tuple(r), tuple(c)) for (r, c), _ in read}) == 3 * (m - 1), (m, seed)
            for (r, c), value in read:
                assert m + 1 in r and m + 1 in c, (m, r, c)
                sub = [[oracle[i - 1][k - 1] for k in c] for i in r]
                assert value == fw.minor_at_b(u2, r, c) == gaussian_determinant(sub), (m, seed, r, c)
            for j in range(1, m):
                assert gr.extract_f_coeff(u2, j) == oracle[j][j - 1], (m, seed, j)
            assert gr.extract_f_coeff(u2, m) == oracle[m][m - 1] / QSqrt2.sqrt2(), (m, seed)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_window_minors_match_minor_and_the_sqrt2_oracle(monkeypatch, m):
    """At seeded torus points every window minor of the shared elimination
    is an int, and read at b equals `fractionwindows.minor_at_b` (a
    determinant per window) and the same minor of the sqrt2-basis product
    by Gaussian elimination, with no fallback to `grouprep.minor`."""
    fallback = []
    recorder(monkeypatch, "minor", fallback)
    stream = cli.rational_stream(700 + m)
    rows = list(range(m + 1, 2 * m + 2))
    for _ in range(2 if m < 7 else 1):
        b = cli.sample_b(m, stream)
        u2, oracle = gr.build_u2bar(lift(b), m), dense_u2bar(sp.ring_vector(b, ring), m)
        fallback.clear()
        out = gr.window_minors(u2)
        assert sorted(out) == list(range(2, m + 1)) and not fallback
        assert all(type(x) is int for values in out.values() for x in values)
        for j, values in fw.windows_at_b(u2, out).items():
            for cols, value in zip(window_cols(j, m), values):
                sub = [[oracle[r - 1][c - 1] for c in cols] for r in rows]
                assert value == fw.minor_at_b(u2, rows, cols) == gaussian_determinant(sub), (m, j, cols)


def test_window_minors_take_minor_past_a_zero_pivot(monkeypatch):
    """Off the torus, with every third coordinate of b set to 0, a pivot of
    the shared elimination can vanish; the remaining windows then come from
    `grouprep.minor`, which some call of `window_minors` here makes, and
    every window, read at b, still equals `fractionwindows.minor_at_b` on
    its own.  Only the calls made inside `window_minors` are counted."""
    fallback, took = [], 0
    recorder(monkeypatch, "minor", fallback)
    for m in (2, 3, 4, 5, 6):
        stream = cli.rational_stream(900 + m)
        rows = list(range(m + 1, 2 * m + 2))
        for _ in range(3):
            b = [Fraction(0) if k % 3 == 0 else x for k, x in enumerate(cli.sample_b(m, stream))]
            u2 = gr.build_u2bar(lift(b), m)
            before = len(fallback)
            out = gr.window_minors(u2)
            took += len(fallback) > before
            for j, values in fw.windows_at_b(u2, out).items():
                assert list(values) == [fw.minor_at_b(u2, rows, cols) for cols in window_cols(j, m)], (m, b, j)
    assert took


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_integer_windows_read_at_b_are_the_fraction_windows(monkeypatch, m):
    """The integer windows of `window_minors`, read at b, equal the
    Fraction-valued windows of the oracle, window for window: at seeded
    torus points, and at points with every second or third coordinate 0,
    where for m >= 3 a pivot vanishes and `grouprep.minor` takes the
    remaining windows.  Only the calls of `grouprep.minor` made inside
    `window_minors` are counted, not those of the oracle."""
    fallback, took = [], 0
    recorder(monkeypatch, "minor", fallback)
    stream = cli.rational_stream(1100 + m)
    for zeros in (None, 3, 2):
        for _ in range(3 if m < 7 else 1):
            b = cli.sample_b(m, stream)
            if zeros:
                b = [Fraction(0) if k % zeros == 0 else x for k, x in enumerate(b)]
            u2 = gr.build_u2bar(lift(b), m)
            before = len(fallback)
            out = gr.window_minors(u2)
            took += len(fallback) > before
            assert all(type(x) is int for values in out.values() for x in values), (m, b)
            assert fw.windows_at_b(u2, out) == fw.fraction_window_minors(u2), (m, b)
        if zeros is None:
            assert not took, m
    assert bool(took) == (m >= 3), m


def test_window_minors_raise_on_a_block_that_is_not_unitriangular():
    """Columns m+1..2m+1 of rows m+1..2m+1 must be lower unitriangular: a
    diagonal entry 2 or an entry above the diagonal raises ArithmeticError."""
    m = 3
    g, d = gr.build_u2bar(lift([Fraction(k, 2) for k in range(1, 7)]), m)
    assert gr.window_minors((g, d))
    for r, c, x in ((m + 1, m + 1, 2), (m, m + 2, 1), (2 * m, 2 * m, -1)):
        bad = [list(row) for row in g]
        bad[r][c] = x
        with pytest.raises(ArithmeticError, match="not unitriangular"):
            gr.window_minors((bad, d))


def random_integer_matrix(n, gen):
    """An n x n matrix of seeded integer entries in [-9, 9], about a third
    of them 0."""
    return [[0 if next(gen) % 3 == 0 else next(gen) % 19 - 9 for _ in range(n)] for _ in range(n)]


def unit_cases(a, gen):
    """Copies of the square matrix a (n >= 2) rich in +-1 entries, as the
    squares of a unitriangular g are: +-1 entries away from (0, 0),
    several rows holding a unit, an all +-1 matrix, and last a unit in a
    row of a matrix with a zero column."""
    n = len(a)
    away = [list(row) for row in a]
    away[0][0] = away[0][0] if abs(away[0][0]) != 1 else 4
    away[n - 1][n // 2], away[n // 2][n - 1] = -1, 1
    several = [list(row) for row in a]
    for r in range(n):
        several[r][(3 * r + 1) % n] = 1 if next(gen) % 2 else -1
    signs = [[1 if next(gen) % 2 else -1 for _ in range(n)] for _ in range(n)]
    zero_column = [list(row) for row in away]
    for row in zero_column:
        row[n // 2 - 1] = 0
    return [away, several, signs, zero_column]


def test_determinant_matches_both_oracles_on_random_matrices():
    """Seeded random integer matrices of size 0 to 8: generic ones, a zero
    leading entry that forces a swap, a zero pivot after one step, a
    repeated row, a zero column, a row that is an integer combination of
    two others, and the unit cases (+-1 entries away from (0, 0), several
    unit rows, all +-1 entries, a unit beside a zero column); then the
    vanishing-minor squares of `verify fj` for m = 2..7."""
    gen = splitmix64(2024)
    c1, c2 = 3, -5
    for n in range(9):
        for trial in range(4 if n <= 6 else 1):
            a = random_integer_matrix(n, gen)
            cases = [a]
            if n >= 2:
                swap = [list(row) for row in a]
                swap[0][0] = 0
                swap[1][0] = swap[1][0] or 5
                step = [list(row) for row in a]
                step[0][0] = step[0][0] or 2
                step[1][:2] = [c1 * step[0][0], c1 * step[0][1]]
                repeated = [list(row) for row in a]
                repeated[-1] = list(repeated[0])
                column = [row[:-1] + [0] for row in a]
                units = unit_cases(a, gen)
                cases += [swap, step, repeated, column, *units]
            if n >= 3:
                combined = [list(row) for row in a]
                combined[2] = [x * c1 - y * c2 for x, y in zip(a[0], a[1])]
                cases.append(combined)
            for case in cases:
                det = gr.determinant(case)
                assert det == gaussian_determinant(case) == cofactor_det(case), (n, trial, case)
            if n >= 2:
                assert not gr.determinant(repeated) and not gr.determinant(column) and not gr.determinant(units[-1])
    assert gr.determinant([]) == 1
    assert gr.determinant([[-3]]) == -3
    assert gr.determinant([[1]]) == 1 and gr.determinant([[-1]]) == -1
    anti = [[0, 1], [1, 0]]
    assert gr.determinant(anti) == -1
    assert gr.determinant([[0, 0, -1], [0, 1, 0], [1, 0, 0]]) == 1
    # the squares of the vanishing minors of `verify fj` (rows j+1 and
    # m+1..2m+1, columns j..j+m+1 of g) at seeded torus points are 0; with
    # row j+1 swapped for the last row of the identity each is +-1 times
    # the D window at j, a monomial at a torus point, not 0
    for m in range(2, 8):
        u2 = gr.build_u2bar(lift(cli.sample_b(m, cli.rational_stream(1300 + m))), m)
        g, windows = u2[0], gr.window_minors(u2)
        for j in range(1, m):
            square = [row[j - 1:j + m + 1] for row in (g[j], *g[m:])]
            assert gr.determinant(square) == gaussian_determinant(square) == cofactor_det(square) == 0, (m, j)
            moved = [[0] * (m + 1) + [1]] + square[1:]
            det = gr.determinant(moved)
            assert det == gaussian_determinant(moved) == cofactor_det(moved), (m, j)
            if j > 1:
                assert abs(det) == abs(windows[j][0]) != 0, (m, j)


def test_determinant_raises_on_a_division_that_is_not_exact():
    """A Bareiss step whose division leaves a remainder, from an entry that
    is not an integer or from a wrong previous pivot, raises
    ArithmeticError rather than rounding."""
    with pytest.raises(ArithmeticError, match="not a multiple"):
        gr.determinant([[1, 1], [1, Fraction(1, 2)]])
    with pytest.raises(ArithmeticError, match="not a multiple"):
        gr._bareiss_step([[2, 3], [5, 4]], 3)


def test_frozen_minor_value():
    u2 = gr.build_u2bar(lift([1, 2, 3]), 2)
    assert fw.minor_at_b(u2, [3, 4, 5], [2, 3, 4]) == 18


def test_extract_f_coeff():
    m = 2
    u2 = gr.build_u2bar(lift([1, 2, 3]), m)
    assert gr.extract_f_coeff(u2, 1) == 2
    assert gr.extract_f_coeff(u2, 2) == 4
    for m in (3, 4):
        word = wy.canonical_wp_word(m)
        stream = cli.rational_stream(5)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            u2 = gr.build_u2bar(lift(bs), m)
            for j in range(1, m + 1):
                expected = sum(x for x, letter in zip(bs, word) if letter == j)
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
    """spin_row_sweep, the moves run on the row w_empty^T, equals the
    w_empty row of the composed spin matrix, in all_subsets order, and
    reads the int 0 where an entry vanishes, also where a coordinate is 0
    or two paths cancel."""
    for m in (2, 3, 4, 5):
        stream = cli.rational_stream(41 + m)
        n = m * (m + 1) // 2
        draws = [cli.sample_b(m, stream), [0] + cli.sample_b(m, stream)[1:], [1, 1, -1] + [1] * (n - 3)]
        for bs in draws:
            b = sp.ring_vector(bs, ring)
            row = gr.spin_row_sweep(b, m)
            entries = build_u2bar_spin(b, m).coeffs
            assert row == [entries.get(((), col), 0) for col in pt.all_subsets(m)], (m, bs)
            assert all(x or type(x) is int for x in row), (m, bs)


def sweep_points(m: int) -> list[list]:
    """Points for the sweep oracles at m: two seeded Fraction points, the
    first with b_1 = 0, and (1, 1, -1, 1, ..., 1), on which two paths
    cancel; then the four lifted to integers."""
    stream = cli.rational_stream(500 + m)
    b = cli.sample_b(m, stream)
    n = m * (m + 1) // 2
    draws = [b, cli.sample_b(m, stream), [0] + b[1:], [Fraction(x) for x in [1, 1, -1] + [1] * (n - 3)]]
    return draws + [lift(b)[0] for b in draws]


@pytest.mark.parametrize("m", range(2, 8))
def test_row_sweep_is_the_dict_sweep(m):
    """The list sweep equals the dict-keyed sweep it replaced, value and
    type for value and type, in all_subsets order: a column the dict has
    no entry for, because it vanishes or is never reached, reads the int 0.
    Over the variables b_k (m <= 5) the two give the same polynomials."""
    points = sweep_points(m)
    zero, cancel = (gr.spin_row_sweep(b, m) for b in points[2:4])
    assert zero[-1] == 0 and 0 in cancel  # p_(m, ..., 1) = b_1 ... b_N; two paths cancel
    if m <= 5:
        points.append(Laurent.variables(m * (m + 1) // 2))
    for b in points:
        row, old = gr.spin_row_sweep(b, m), sweeps.dict_spin_row_sweep(b, m)
        want = [old.get(s, 0) for s in pt.all_subsets(m)]
        assert row == want and list(map(type, row)) == list(map(type, want)), (m, b)


def test_u2bar_spin_corner_coefficients():
    for m in (2, 3):
        stream = cli.rational_stream(13)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            bv = sp.ring_vector(bs, ring)
            mat = build_u2bar_spin(bv, m)
            assert mat.coeffs.get(((), ())) == ring.one  # p_empty = 1
            prod = ring.one
            for x in bv:
                prod = prod * x
            assert mat.coeffs.get(((), tuple(range(1, m + 1)))) == prod  # p_{rho_m} = prod b_j


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
    with pytest.raises(ArithmeticError, match="not the move rule"):
        gr.spin_f_moves.__wrapped__(1, 2)

    def repeated_column(*args):
        mat = spin_generator_matrix(*args)
        (row, col), *_ = mat.coeffs
        mat.add_term(((), col) if row else ((1,), col), QSqrt2(1))
        return mat

    monkeypatch.setattr(cl, "spin_generator_matrix", repeated_column)
    with pytest.raises(ArithmeticError, match="not the move rule"):
        gr.spin_f_moves.__wrapped__(1, 2)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_spin_moves_reject_a_move_that_is_not_one_box_down(monkeypatch, i):
    """The row sweep is graded because each move of F_i takes a partition to
    one with one box fewer: the transposed matrix (entries 1, no repeats,
    each move one box up) raises on building."""
    m = 3
    assert all(
        from_subset(col, m).size == from_subset(row, m).size + 1 for row, col in gr.spin_f_moves(i, m)
    )
    spin_generator_matrix = cl.spin_generator_matrix

    def transposed(*args):
        mat = spin_generator_matrix(*args)
        return mat._with({(col, row): c for (row, col), c in mat.coeffs.items()})

    monkeypatch.setattr(cl, "spin_generator_matrix", transposed)
    with pytest.raises(ArithmeticError, match="not the move rule"):
        gr.spin_f_moves.__wrapped__(i, m)


def test_spin_moves_reject_two_moves_with_swapped_targets(monkeypatch):
    """F_5 at m = 5 with the targets of w_{1,5} and w_{3,4,5} swapped:
    entries 1, no row or column twice and every move one box down, since
    (5,1) and (3,2,1) both have 6 boxes; only the move rule rejects it."""
    m, swap = 5, {((1,), (1, 5)): ((3, 4), (1, 5)), ((3, 4), (3, 4, 5)): ((1,), (3, 4, 5))}
    spin_generator_matrix = cl.spin_generator_matrix

    def swapped(*args):
        mat = spin_generator_matrix(*args)
        return mat._with({swap.get(move, move): c for move, c in mat.coeffs.items()})

    monkeypatch.setattr(cl, "spin_generator_matrix", swapped)
    mat = cl.spin_generator_matrix(m, "f", m)
    rows, cols = zip(*mat.coeffs)
    assert set(mat.coeffs.values()) == {QSqrt2(1)} and len(set(rows)) == len(set(cols)) == len(rows)
    assert all(from_subset(col, m).size == from_subset(row, m).size + 1 for row, col in mat.coeffs)
    with pytest.raises(ArithmeticError, match="not the move rule"):
        gr.spin_f_moves.__wrapped__(m, m)


def test_spin_moves_are_the_wp_covers_read_backwards():
    """For m <= 8 the moves of F_i are the pairs (s, t) with t the W^P
    element s_i adds a box to (`weyl.wp_transitions`).  The spin route
    reads F_i from the Clifford image instead of building it from this
    table, so that `verify subword` tests the spin representation against
    the subword programme."""
    for m in range(1, 9):
        covers = wy.wp_transitions(m)
        for i in range(1, m + 1):
            backwards = {(s, row[i - 1]) for s, row in covers.items() if row[i - 1] is not None}
            assert set(gr.spin_f_moves(i, m)) == backwards, (m, i)
