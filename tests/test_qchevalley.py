import numpy as np
import pytest

import weylgroup as wg
from lgmirror import jacobi as jb
from lgmirror import partitions as pt
from lgmirror import qchevalley as qc
from lgmirror import weyl as wy
from subsetmaps import from_subset


def test_positive_root_counts():
    for m in (2, 3, 4, 5):
        roots = wg.positive_roots(m)
        assert len(roots) == m * m
        outside = [r for r in roots if not r.in_parabolic]
        assert len(outside) == m * (m + 1) // 2


def test_coroot_pairings():
    # long roots 2e_i have coroot e_i (pairing 1); short e_i+e_j pair to 2
    for m in (2, 3):
        for r in wg.positive_roots(m):
            if r.in_parabolic:
                assert r.omega_m_pairing == 0
            elif 2 in r.vector:
                assert r.omega_m_pairing == 1
            else:
                assert r.omega_m_pairing == 2


def test_reflection_of_long_root_is_sign_change():
    m = 3
    long_last = next(r for r in wg.positive_roots(m) if r.vector == (0, 0, 2))
    assert long_last.reflection == wg.simple_reflection(m, m)


def test_reflections_are_involutions_with_root_action():
    for m in (2, 3):
        for r in wg.positive_roots(m):
            assert r.reflection * r.reflection == wg.identity(m)
            assert wg.length(r.reflection) % 2 == 1


def pieri_oracle(lam: pt.StrictPartition, m: int) -> dict:
    """Independent combinatorial rule for sigma_1 * sigma_lambda on LG(m):
    add one box (coefficient 2 off the first column, 1 in it); if the first
    part equals m, add q times the class with the first part removed."""
    out = {}
    parts = lam.parts
    for r in range(len(parts)):
        grown = parts[r] + 1
        if grown <= m and (r == 0 or grown < parts[r - 1]):
            mu = parts[:r] + (grown,) + parts[r + 1:]
            out[(mu, 0)] = 1 if grown == 1 else 2
    if not parts or parts[-1] > 1:
        out[(parts + (1,), 0)] = 1
    if parts and parts[0] == m:
        out[(parts[1:], 1)] = 1
    return out


# -- the previous root sum: every root through one whole reflection ----------------


def times_reflection(subset: tuple[int, ...], i: int, j: int, m: int) -> tuple[tuple[int, ...], bool]:
    """w s_alpha for the w in W^P with negative subset I, where alpha =
    e_i + e_j (i < j) or 2 e_i (i = j): its negative subset, and whether it
    lies in W^P.

    s_alpha sends e_i to -e_j and e_j to -e_i, so w s_alpha is w with the
    images at positions i and j swapped and negated.  Its negative subset is
    I with the membership of |w(i)| and |w(j)| toggled, and it lies in W^P
    exactly when its images are the one-line form of that subset.
    """
    images = list(wy.one_line(subset, m))
    images[i - 1], images[j - 1] = -images[j - 1], -images[i - 1]
    flipped = tuple(sorted(set(subset) ^ {abs(images[i - 1]), abs(images[j - 1])}))
    return flipped, tuple(images) == wy.one_line(flipped, m)


def reflection_root_sum(lam: pt.StrictPartition) -> qc.CohClass:
    """sigma_1 * sigma_lambda with every root reflected in full, then its
    size and W^P membership read off the result."""
    m = lam.m
    subset = pt.to_subset(lam)
    grown = lam.size + 1
    out = qc.CohClass(m)
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            c = 1 if i == j else 2
            image, in_wp = times_reflection(subset, i, j, m)
            size = sum(m + 1 - k for k in image)
            if in_wp and size == grown:
                out.add_term((from_subset(image, m), 0), c)
            elif size == grown - (m + 1) * c:
                out.add_term((from_subset(image, m), c), c)
    return out


@pytest.mark.parametrize("m", range(1, 8))
def test_size_first_root_sum_matches_the_reflection_root_sum(m):
    """chevalley_multiply, which drops a root by its size change before any
    reflection, equals the sum that reflects every root: the same terms in
    the same order, for every lambda."""
    for lam in pt.all_strict_partitions(m):
        new, old = qc.chevalley_multiply(lam), reflection_root_sum(lam)
        assert new == old and list(new.coeffs) == list(old.coeffs), lam


@pytest.mark.parametrize("m", range(2, 8))
def test_sigma1_table_matches_the_group_root_sum(m):
    """The negative-subset root sum equals the one over signed permutations,
    Root reflections and the root-count length, term by term."""
    table = qc.sigma1_table(m)
    for lam in pt.all_strict_partitions(m):
        assert table[lam] == wg.chevalley_multiply(lam), lam


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_chevalley_matches_pieri_rule(m):
    for lam in pt.all_strict_partitions(m):
        got = {(mu.parts, d): c for (mu, d), c in qc.chevalley_multiply(lam).coeffs.items()}
        assert got == pieri_oracle(lam, m), lam


def test_spec_products():
    # sigma_1 * sigma_() = sigma_(1)
    for m in (2, 3, 5):
        out = qc.chevalley_multiply(pt.empty(m))
        assert out.coeffs == {(pt.partition((1,), m), 0): 1}
    # m=2: sigma_1 * sigma_(2,1) = q sigma_(1)
    out = qc.chevalley_multiply(pt.partition((2, 1), 2))
    assert out.coeffs == {(pt.partition((1,), 2), 1): 1}
    # sigma_1 * sigma_(m) = sigma_(m,1) + q
    for m in (2, 3, 4):
        out = qc.chevalley_multiply(pt.partition((m,), m))
        assert out.coeffs == {
            (pt.partition((m, 1), m), 0): 1,
            (pt.empty(m), 1): 1,
        }


@pytest.mark.parametrize("m", list(range(2, 9)))
def test_relation_l1(m):
    assert qc.verify_relation_l1(m)


@pytest.mark.parametrize("m", list(range(2, 9)))
def test_grading_and_positivity(m):
    assert qc.grading_violations(m) == []


def test_classical_limit_has_no_q():
    m = 3
    for lam in pt.all_strict_partitions(m):
        classical = {k: v for k, v in qc.chevalley_multiply(lam).coeffs.items() if k[1] == 0}
        for (mu, _), c in classical.items():
            assert mu.size == lam.size + 1


def test_sigma1_matrix_structure():
    m = 2
    mat = jb.sigma1_matrix(m, 1.0)
    basis = pt.all_strict_partitions(m)
    col = basis.index(pt.empty(m))
    row = basis.index(pt.partition((1,), m))
    column = mat[:, col]
    assert column[row] == 1 and np.count_nonzero(column) == 1
    assert np.allclose(np.linalg.matrix_power(mat, 4), 4 * mat)  # h^4 = 4qh at q=1
    ev = np.linalg.eigvals(jb.sigma1_matrix(2, 1.0))
    assert len(set(np.round(ev, 8))) == 4


def test_sigma1_matrix_nonnegative_at_positive_q():
    for m in (2, 3):
        mat = jb.sigma1_matrix(m, 2.0)
        assert np.all(mat.real >= 0) and np.allclose(mat.imag, 0)


def test_sigma1_table_is_one_shared_read_only_table():
    for m in (2, 3, 4):
        table = qc.sigma1_table(m)
        assert qc.sigma1_table(m) is table
        assert list(table) == list(pt.all_strict_partitions(m))
        assert all(table[lam] == qc.chevalley_multiply(lam) for lam in table)
        with pytest.raises(TypeError):
            table[pt.empty(m)] = qc.CohClass(m)


def test_multiplication_table_dump():
    table = qc.multiplication_table(2)
    assert set(table) == {"[]", "[1]", "[2]", "[2,1]"}
    assert table["[]"] == [{"partition": [1], "q_power": 0, "coeff": 1}]
