from fractions import Fraction

import pytest

from lgmirror import cli
from lgmirror import clifford as cl
from lgmirror import grouprep as gr
from lgmirror import partitions as pt
from lgmirror import superpotential as sp
from lgmirror.scalars import EXACT, QSqrt2

ring = EXACT


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
    sq = gr.mat_mul(em, em, ring)
    assert sq[m - 1][m + 1] == QSqrt2(2)
    assert sum(1 for row in sq for c in row if c) == 1
    cube = gr.mat_mul(sq, em, ring)
    assert all(not c for row in cube for c in row)
    for i in range(1, m):
        e = gr.chevalley_e(i, m)
        assert all(not c for row in gr.mat_mul(e, e, ring) for c in row)


def test_one_param_subgroup():
    m = 2
    a = ring.from_fraction(Fraction(3, 5))
    b = ring.from_fraction(Fraction(-2, 7))
    ab = ring.from_fraction(Fraction(3, 5) - Fraction(2, 7))
    assert gr.one_param_y(1, ring.zero, m) == gr.mat_identity(5, ring)
    lhs = gr.mat_mul(gr.one_param_y(2, a, m), gr.one_param_y(2, b, m), ring)
    assert lhs == gr.one_param_y(2, ab, m)
    y = gr.one_param_y(m, a, m)
    assert y[m][m - 1] == a * ring.sqrt2
    assert y[m + 1][m - 1] == a * a


def test_u2bar_factorization_and_shape():
    m = 2
    b = sp.ring_vector([1, 2, 3], ring)
    u2 = gr.build_u2bar(b, m, ring)
    explicit = gr.mat_mul(
        gr.mat_mul(gr.one_param_y(2, b[2], m), gr.one_param_y(1, b[1], m), ring),
        gr.one_param_y(2, b[0], m),
        ring,
    )
    assert u2 == explicit
    assert u2[1][0] == b[1]  # the unique f_1 coefficient
    n = 2 * m + 1
    for i in range(n):
        assert u2[i][i] == ring.one
        for j in range(i + 1, n):
            assert not u2[i][j]
    zeros = gr.build_u2bar([ring.zero] * 3, m, ring)
    assert zeros == gr.mat_identity(5, ring)
    with pytest.raises(ValueError):
        gr.build_u2bar(b[:2], m, ring)


def test_u2bar_preserves_bilinear_form():
    for m in (2, 3):
        stream = cli.rational_stream(21)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            u2 = gr.build_u2bar(sp.ring_vector(bs, ring), m, ring)
            g = gr.gram_matrix(m, ring)
            assert gr.mat_mul(gr.mat_transpose(u2), gr.mat_mul(g, u2, ring), ring) == g


def test_generators_in_orthogonal_lie_algebra():
    for m in (2, 3):
        g = gr.gram_matrix(m, ring)
        for i in range(1, m + 1):
            for mat in (gr.chevalley_e(i, m), gr.chevalley_f(i, m)):
                xtg = gr.mat_mul(gr.mat_transpose(mat), g, ring)
                gx = gr.mat_mul(g, mat, ring)
                assert all(
                    not (xtg[r][c] + gx[r][c]) for r in range(2 * m + 1) for c in range(2 * m + 1)
                )


def test_vector_action_matches_clifford_commutator():
    """The wedge^2 images act on V exactly as the explicit matrices."""
    for m in (2, 3):
        for i in range(1, m + 1):
            for kind, mat in (("e", gr.chevalley_e(i, m)), ("f", gr.chevalley_f(i, m))):
                cols = cl.vector_action(cl.generator_clifford(i, kind, m), m)
                dense = gr.mat_zero(2 * m + 1, ring)
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
    u2 = gr.build_u2bar(b, m, ring)
    for rows, cols in [([3, 4, 5], [2, 3, 4]), ([1, 2, 3], [1, 2, 3]), ([2, 3, 4, 5], [1, 2, 3, 4])]:
        sub = [[u2[r - 1][c - 1] for c in cols] for r in rows]
        assert gr.minor(u2, rows, cols, ring) == cofactor_det(sub, ring)
    assert gr.minor(gr.mat_identity(5, ring), [1, 3], [1, 3], ring) == ring.one
    with pytest.raises(ValueError):
        gr.minor(u2, [1, 2], [1], ring)


def test_frozen_minor_value():
    b = sp.ring_vector([1, 2, 3], ring)
    u2 = gr.build_u2bar(b, 2, ring)
    assert gr.minor(u2, [3, 4, 5], [2, 3, 4], ring) == QSqrt2(18)


def test_extract_f_coeff():
    m = 2
    b = sp.ring_vector([1, 2, 3], ring)
    u2 = gr.build_u2bar(b, m, ring)
    assert gr.extract_f_coeff(u2, 1, ring) == QSqrt2(2)
    assert gr.extract_f_coeff(u2, 2, ring) == QSqrt2(4)
    for m in (3, 4):
        from lgmirror import weyl as wy

        word = wy.canonical_wp_word(m)
        stream = cli.rational_stream(5)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            bv = sp.ring_vector(bs, ring)
            u2 = gr.build_u2bar(bv, m, ring)
            for j in range(1, m + 1):
                expected = ring.zero
                for k, letter in enumerate(word, start=1):
                    if letter == j:
                        expected = expected + bv[k - 1]
                assert gr.extract_f_coeff(u2, j, ring) == expected


def test_u2bar_spin_unitriangular():
    for m in (2, 3):
        stream = cli.rational_stream(9)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            mat = gr.build_u2bar_spin(sp.ring_vector(bs, ring), m, ring)
            for s in pt.all_subsets(m):
                assert mat.coeffs.get((s, s)) == ring.one
            # strictly triangular w.r.t. the weight filtration by |I|
            for (r, c), v in mat.coeffs.items():
                assert len(r) <= len(c)


def test_u2bar_spin_corner_coefficients():
    for m in (2, 3):
        stream = cli.rational_stream(13)
        for _ in range(2):
            bs = cli.sample_b(m, stream)
            bv = sp.ring_vector(bs, ring)
            factors = gr.u2bar_spin_factors(bv, m, ring)
            img = gr.apply_spin_factors(factors, cl.basis_vector((), m), ring)
            assert img.coeffs.get(()) == ring.one  # p_empty = 1
            top = gr.apply_spin_factors(
                factors, cl.basis_vector(tuple(range(1, m + 1)), m), ring
            )
            prod = ring.one
            for x in bv:
                prod = prod * x
            assert top.coeffs.get(()) == prod  # p_{rho_m} = prod b_j


def test_spin_f_table_rejects_an_irrational_entry(monkeypatch):
    """The table is read into any scalar ring, so an irrational entry raises."""
    spin_apply = cl.spin_apply
    monkeypatch.setattr(cl, "spin_apply", lambda x, v: spin_apply(x, v).scale(QSqrt2.sqrt2()))
    with pytest.raises(ArithmeticError, match="irrational"):
        gr._spin_f_table.__wrapped__(1, 2)
