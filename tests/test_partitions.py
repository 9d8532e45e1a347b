import pytest
from hypothesis import given, strategies as st

from lgmirror import jacobi as jb
from lgmirror import partitions as pt
from lgmirror import superpotential as sp

from signedpairs import all_j_pairs
from subsetmaps import from_subset, pd


@st.composite
def boxed_partitions(draw, max_m=6):
    m = draw(st.integers(min_value=1, max_value=max_m))
    subset = draw(st.sets(st.integers(min_value=1, max_value=m)))
    return from_subset(subset, m)


def test_subset_bijection_examples():
    assert from_subset({1, 2}, 2).parts == (2, 1)
    assert from_subset(set(), 5).parts == ()
    assert from_subset({1, 3}, 3).parts == (3, 1)


def test_subset_bijection_exhaustive():
    for m in range(1, 6):
        seen = set()
        for s in pt.all_subsets(m):
            lam = from_subset(s, m)
            assert pt.to_subset(lam) == s
            seen.add(lam.parts)
        assert len(seen) == 2**m


@given(boxed_partitions())
def test_pd_involution_and_complementary_size(lam):
    dual = pd(lam)
    assert pd(dual) == lam
    assert lam.size + dual.size == lam.m * (lam.m + 1) // 2


def test_pd_examples():
    assert pd(pt.empty(3)).parts == (3, 2, 1)
    assert pd(pt.partition((3, 2, 1), 3)).parts == ()
    assert pd(pt.partition((2,), 2)).parts == (1,)


def test_rho_mu_families():
    assert pt.rho(3, 4).parts == (3, 2, 1)
    assert pt.rho(0, 4).parts == ()
    assert pt.mu(2, 4).parts == (4, 3)
    assert pt.rho_plus(0, 2).parts == (1,)
    assert pt.rho_plus(1, 2).parts == (2,)
    assert pt.rho_plus(3, 5).parts == (4, 2, 1)
    with pytest.raises(ValueError):
        pt.rho(5, 4)
    with pytest.raises(ValueError):
        pt.rho_plus(2, 2)


def pairs(terms):
    return [(sign, rho_j.parts, mu_j.parts) for sign, rho_j, mu_j in terms]


def test_row_removal():
    """rho^J drops the rows in J; at l = 3, m = 5 rows 2 and 3 may move."""
    assert pairs(pt.denominator_terms(3, 5)) == [
        (1, (3, 2, 1), (5, 4, 3)),
        (1, (3, 1), (5, 4, 3, 2)),
        (-1, (3, 2), (5, 4, 3, 1)),
        (-1, (3,), (5, 4, 3, 2, 1)),
    ]
    assert pairs(pt.numerator_terms(2, 5)) == [
        (1, (3, 1), (5, 4)),
        (1, (1,), (5, 4, 3)),
        (-1, (3,), (5, 4, 1)),
        (-1, (), (5, 4, 3, 1)),
    ]


def test_signed_pairs_keep_only_a_strict_mu():
    """A row moves only if its part is below m+1-l; the sign is read from J
    (row 1 of rho_{1,+} at m = 3 has 2 boxes but counts 1)."""
    assert pairs(pt.denominator_terms(1, 2)) == [(1, (1,), (2,)), (-1, (), (2, 1))]
    assert pairs(pt.numerator_terms(1, 2)) == [(1, (2,), (2,))]
    assert pairs(pt.denominator_terms(2, 3)) == [(1, (2, 1), (3, 2)), (-1, (2,), (3, 2, 1))]
    assert pairs(pt.numerator_terms(1, 3)) == [(1, (2,), (3,)), (-1, (), (3, 2))]
    assert pairs(pt.numerator_terms(0, 3)) == [(1, (1,), ())]
    assert pairs(pt.denominator_terms(3, 3)) == [(1, (3, 2, 1), (3, 2, 1))]


@pytest.mark.parametrize("m", range(2, 13))
def test_signed_pairs_match_the_all_j_oracle(m):
    """The pairs over the movable rows are those of every J with the
    non-strict mu^J skipped, as lists: same triples, same order."""
    for l in range(m + 1):
        assert pt.denominator_terms(l, m) == all_j_pairs(l, m)
    for l in range(m):
        assert pt.numerator_terms(l, m) == all_j_pairs(l, m, plus=True)


def test_every_mu_starts_with_mu_l_and_is_strict():
    for m in range(2, 9):
        for l in range(m):
            for terms in (pt.denominator_terms(l, m), pt.numerator_terms(l, m)):
                for _, _, lam in terms:
                    assert all(a > b for a, b in zip(lam.parts, lam.parts[1:]))
                    assert lam.parts[:l] == pt.mu(l, m).parts


def test_strictness_validation():
    with pytest.raises(ValueError):
        pt.partition((2, 2), 3)
    with pytest.raises(ValueError):
        pt.partition((4,), 3)
    with pytest.raises(ValueError, match="not strictly decreasing"):
        pt.StrictPartition((2, 2), 3)
    with pytest.raises(ValueError, match="outside the 3 x 3 box"):
        pt.StrictPartition((4,), 3)


def test_hash_and_order_are_those_of_the_pair():
    """Sets and dicts of partitions, and so every report, iterate in the
    order that the hash and the order of the pair (parts, m) fix."""
    for m in range(1, 7):
        basis = pt.all_strict_partitions(m)
        assert all(hash(lam) == hash((lam.parts, lam.m)) for lam in basis)
        assert sorted(basis) == sorted(basis, key=lambda lam: (lam.parts, lam.m))


def test_partitions_are_immutable():
    lam = pt.partition((3, 1), 3)
    with pytest.raises(AttributeError):
        lam.parts = (2,)
    assert lam == pt.partition((3, 1), 3) and repr(lam) == "StrictPartition(parts=(3, 1), m=3)"


def test_renderings():
    lam = pt.partition((3, 1), 3)
    assert lam.render() == "[3,1]"
    assert str(lam) == "(3,1)"
    assert pt.empty(2).render() == "[]"


def test_basis_is_one_shared_tuple_per_m():
    """Both bases are built once per m, in one order: entry k of the
    partitions is the partition of entry k of the subsets."""
    for m in range(1, 7):
        subsets, basis = pt.all_subsets(m), pt.all_strict_partitions(m)
        assert isinstance(basis, tuple) and basis is pt.all_strict_partitions(m)
        assert isinstance(subsets, tuple) and subsets is pt.all_subsets(m)
        assert [pt.to_subset(lam) for lam in basis] == list(subsets)


def test_warm_callers_build_no_basis(monkeypatch):
    """Once warm, a critical report and a Pluecker vector read the cached
    basis: they make no StrictPartition, from a subset or otherwise."""
    b = sp.ring_vector([1, -2, 3, 5, -7, 11])
    cold = jb.critical_report(3, 1), sp.plucker_vector(b, 3)

    def fail(cls, parts, m):
        raise AssertionError(f"StrictPartition({parts}, {m}) built")

    monkeypatch.setattr(pt.StrictPartition, "__new__", fail)
    with pytest.raises(AssertionError, match="built"):
        pt.partition((1,), 3)
    assert (jb.critical_report(3, 1), sp.plucker_vector(b, 3)) == cold
