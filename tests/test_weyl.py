from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import sweeps
import weylgroup as wg
from lgmirror import cli
from lgmirror import partitions as pt
from lgmirror import superpotential as sp
from lgmirror import weyl as wy
from lgmirror.scalars import EXACT, Laurent
from test_grouprep import build_u2bar_spin, sweep_points
from test_qchevalley import times_reflection


# -- oracles: the enumerations the W^P dynamic programme replaced ---------------


@lru_cache(maxsize=None)
def oracle_reduced_subwords(word: tuple[int, ...], target: wg.SignedPermutation) -> tuple[tuple[int, ...], ...]:
    """Walk the positions left to right, keeping only length-increasing
    prefixes (every prefix of a reduced word is reduced)."""
    m = target.m
    n = len(word)
    goal_len = wg.length(target)
    refl = [wg.simple_reflection(i, m) for i in range(1, m + 1)]
    out: list[tuple[int, ...]] = []

    def walk(pos: int, cur: wg.SignedPermutation, cur_len: int, taken: tuple[int, ...]) -> None:
        if cur_len == goal_len:
            if cur == target:
                out.append(taken)
            return
        if goal_len - cur_len > n - pos:
            return
        for p in range(pos, n):
            nxt = cur * refl[word[p] - 1]
            if wg.length(nxt) == cur_len + 1:
                walk(p + 1, nxt, cur_len + 1, taken + (p + 1,))

    walk(0, wg.identity(m), 0, ())
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def oracle_complement_subwords(m: int) -> tuple[tuple[int, ...], ...]:
    """Every (N - m)-subset S of positions with (subword at S) * s_1 ... s_m = w^P."""
    word = wy.canonical_wp_word(m)
    n = len(word)
    tail = wg.word_product(range(1, m + 1), m)
    target = wg.wp_element(m)
    return tuple(
        subset
        for subset in combinations(range(1, n + 1), n - m)
        if wg.word_product([word[p - 1] for p in subset], m) * tail == target
    )


def subwords(value, n: int) -> tuple[tuple[int, ...], ...]:
    """The monomials of a programme value over Laurent.variables(n), or of its
    ints 1 and 0, as sorted position sets; each has coefficient 1, exponents 0/1."""
    coeffs = (Laurent({(0,) * n: 1}) * value).coeffs
    assert all(c == 1 and set(exps) <= {0, 1} for exps, c in coeffs.items()), coeffs
    return tuple(sorted(tuple(k for k, e in enumerate(exps, 1) if e) for exps in coeffs))


@lru_cache(maxsize=None)
def oracle_subwords_by_state(word: tuple[int, ...], m: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The reduced subwords of `word` for every state of W^P at once: the
    monomials of the unpruned programme over the variables."""
    sums = wy.wp_subword_sums(word, Laurent.variables(len(word)), m)
    return {state: subwords(value, len(word)) for state, value in sums.items()}


def is_min_coset_rep(w: wg.SignedPermutation) -> bool:
    """w lies in W^P: every s_i of W_P = <s_1..s_{m-1}> lengthens it."""
    lw = wg.length(w)
    return all(wg.length(w * wg.simple_reflection(i, w.m)) > lw for i in range(1, w.m))


def monomial_sum(positions, b):
    total = 0
    for subword in positions:
        term = 1
        for p in subword:
            term = term * b[p - 1]
        total = total + term
    return total


def check_routes_against_oracles(m: int, bs: list[Fraction]) -> None:
    """Row sweep, the w_empty row of the composed spin matrix, W^P value DP
    and oracle subword sums give the same Pluecker vector and N(b), exactly;
    the subword tuples match the oracles."""
    word = wy.canonical_wp_word(m)
    b = sp.ring_vector(bs, EXACT)
    spin = build_u2bar_spin(b, m).coeffs
    sweep = sp.plucker_vector(b, m, EXACT)
    dp = sp.plucker_subword_vector(b, m)
    for lam in pt.all_strict_partitions(m):
        oracle = oracle_reduced_subwords(word, wg.coset_min_rep(lam))
        assert oracle_subwords_by_state(word, m)[pt.to_subset(lam)] == oracle, lam
        assert sweep[lam] == spin.get(((), pt.to_subset(lam)), EXACT.zero) == dp[lam] == monomial_sum(oracle, b), lam
    assert wy.complement_subwords(m) == oracle_complement_subwords(m)
    assert sp.laurent_numerator(b, m) == monomial_sum(oracle_complement_subwords(m), b)


def bfs_lengths(m: int) -> dict[tuple[int, ...], int]:
    """True lengths of every element of W(B_m) by breadth-first word search."""
    gens = [wg.simple_reflection(i, m) for i in range(1, m + 1)]
    dist = {wg.identity(m).images: 0}
    frontier = [wg.identity(m)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                v = w * g
                if v.images not in dist:
                    dist[v.images] = dist[w.images] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def test_length_against_brute_force():
    for m in (1, 2, 3):
        dist = bfs_lengths(m)
        assert len(dist) == 2**m * __import__("math").factorial(m)
        for images, true_len in dist.items():
            assert wg.length(wg.SignedPermutation(images)) == true_len


def test_simple_reflection_relations():
    m = 4
    for i in range(1, m + 1):
        s = wg.simple_reflection(i, m)
        assert s * s == wg.identity(m)
    s1, s3 = wg.simple_reflection(1, m), wg.simple_reflection(3, m)
    assert s1 * s3 == s3 * s1


def test_longest_element_length():
    assert wg.length(wg.word_product([2, 1, 2, 1], 2)) == 4
    w0 = wg.word_product([1, 2, 1, 2], 2)
    assert wg.length(w0) == 4  # m^2 for B_2


@given(st.integers(min_value=1, max_value=4), st.data())
def test_length_changes_by_one(m, data):
    word = data.draw(st.lists(st.integers(min_value=1, max_value=m), max_size=8))
    w = wg.word_product(word, m)
    for i in range(1, m + 1):
        diff = wg.length(w * wg.simple_reflection(i, m)) - wg.length(w)
        assert diff in (-1, 1)


def test_canonical_wp_word():
    assert wy.canonical_wp_word(2) == (2, 1, 2)
    assert wy.canonical_wp_word(3) == (3, 2, 3, 1, 2, 3)
    for m in range(1, 6):
        word = wy.canonical_wp_word(m)
        n = m * (m + 1) // 2
        assert len(word) == n
        assert wg.length(wg.word_product(word, m)) == n  # reduced
        assert wg.length(wg.wp_element(m)) == n


def test_coset_min_rep_bijection():
    for m in range(1, 6):
        seen = set()
        for lam in pt.all_strict_partitions(m):
            w = wg.coset_min_rep(lam)
            assert wg.length(w) == lam.size
            assert is_min_coset_rep(w)
            assert wg.partition_of(w) == lam
            seen.add(w.images)
        assert len(seen) == 2**m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_projection_fixes_exactly_the_min_coset_reps(m):
    """w == min_coset_rep_of(w) against the root-theoretic definition, on all
    2^m m! signed permutations."""
    members = 0
    for perm in permutations(range(1, m + 1)):
        for signs in product((1, -1), repeat=m):
            w = wg.SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))
            inside = w == wg.min_coset_rep_of(w)
            assert inside == is_min_coset_rep(w), w
            members += inside
    assert members == 2**m


def test_coset_min_rep_examples():
    assert wg.coset_min_rep(pt.empty(2)) == wg.identity(2)
    assert wg.coset_min_rep(pt.partition((1,), 2)) == wg.simple_reflection(2, 2)
    s1, s2 = wg.simple_reflection(1, 2), wg.simple_reflection(2, 2)
    assert wg.coset_min_rep(pt.partition((2,), 2)) == s1 * s2


def test_min_coset_projection():
    m = 3
    for lam in pt.all_strict_partitions(m):
        w = wg.coset_min_rep(lam)
        for parab in ([1], [2], [1, 2]):
            v = w
            for i in parab:
                v = v * wg.simple_reflection(i, m)
            assert wg.min_coset_rep_of(v) == w


def test_reduced_subwords():
    # every target of m = 2: the identity, s_2, s_1 s_2 and w^P
    listing = {(): ((),), (2,): ((1,), (3,)), (1,): ((2, 3),), (1, 2): ((1, 2, 3),)}
    assert oracle_subwords_by_state((2, 1, 2), 2) == listing


def test_reduced_subwords_are_reduced_expressions():
    m = 3
    word = wy.canonical_wp_word(m)
    for lam in pt.all_strict_partitions(m):
        target = wg.coset_min_rep(lam)
        for positions in oracle_subwords_by_state(word, m)[pt.to_subset(lam)]:
            assert len(positions) == lam.size
            assert wg.word_product([word[p - 1] for p in positions], m) == target


def test_complement_subwords():
    assert wy.complement_subwords(2) == ((1,), (3,))
    for m in (2, 3, 4):
        n = m * (m + 1) // 2
        tail = wg.word_product(range(1, m + 1), m)
        target = wg.wp_element(m)
        word = wy.canonical_wp_word(m)
        for subset in wy.complement_subwords(m):
            assert len(subset) == n - m
            assert wg.word_product([word[p - 1] for p in subset], m) * tail == target


@pytest.mark.parametrize("m", range(2, 8))
def test_pruned_subwords_match_the_all_state_listing(m):
    """For every W^P target at m <= 7, the programme pruned to it gives the
    subwords and the exact monomial sum at a seeded b that the unpruned
    programme gives there; complement_subwords is the staircase's entry."""
    word = wy.canonical_wp_word(m)
    listing = oracle_subwords_by_state(word, m)
    b = sp.ring_vector(cli.sample_b(m, cli.rational_stream(40 + m)))
    sums = wy.wp_subword_sums(word, b, m)
    for subset in pt.all_subsets(m):
        kept = wy.wp_subword_sums(word, Laurent.variables(len(word)), m, subset)
        assert subwords(kept.get(subset, 0), len(word)) == listing.get(subset, ()), subset
        pruned = wy.wp_subword_sums(word, b, m, subset)
        assert pruned.get(subset) == sums.get(subset), subset
    assert wy.complement_subwords(m) == listing[pt.to_subset(pt.rho(m - 1, m))]


def same_entries(new: dict, old: dict) -> bool:
    """The same states in the same order, with equal values of one type."""
    return list(new) == list(old) and all(new[k] == old[k] and type(new[k]) is type(old[k]) for k in old)


@pytest.mark.parametrize("m", range(2, 8))
def test_programme_is_the_dict_programme(m):
    """The programme on its plan equals the dict-keyed programme it
    replaced, unpruned and kept to the staircase of N(b), at the sweep
    oracles' points (Fraction and integer points, a zero coordinate, a
    cancelling pair); over the variables (m <= 6) for every target too."""
    word, staircase = wy.canonical_wp_word(m), pt.to_subset(pt.rho(m - 1, m))
    for b in sweep_points(m):
        for target in (None, staircase):
            new, old = wy.wp_subword_sums(word, b, m, target), sweeps.dict_wp_subword_sums(word, b, m, target)
            assert same_entries(new, old), (m, b, target)
    if m <= 6:
        variables = Laurent.variables(len(word))
        for target in (None, *pt.all_subsets(m)):
            new, old = wy.wp_subword_sums(word, variables, m, target), sweeps.dict_wp_subword_sums(word, variables, m, target)
            assert new == old and list(new) == list(old), (m, target)


def test_pruning_table_is_built_once_per_target():
    """The Laurent numerator's plan is built on the first call and read from
    the cache after: its pruning table is immutable frozensets, entry 0 the
    target alone, entry p growing with p; every step of the plan goes into
    a state of that table, and the plan reaches the target."""
    m = 4
    word, target = wy.canonical_wp_word(m), pt.to_subset(pt.rho(m - 1, m))
    b = cli.sample_b(m, cli.rational_stream(9))
    first = sp.laurent_numerator(b, m)
    before = wy._subword_plan.cache_info()
    assert sp.laurent_numerator(b, m) == first
    after = wy._subword_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    table = wy._alive(word, m, target)
    assert len(table) == len(word) + 1 and all(type(states) is frozenset for states in table)
    assert table[0] == {target} and all(x <= y for x, y in zip(table, table[1:]))
    steps, reached = wy._subword_plan(word, m, target)
    subsets = pt.all_subsets(m)
    assert len(steps) == len(word) and target in [subsets[k] for k in reached]
    for p, pairs in zip(range(len(word) - 1, -1, -1), steps):
        assert all(subsets[t] in table[p] for _, t in pairs), p


def test_reduced_subwords_reject_target_outside_wp():
    """The target is a subset, so it always lies in W^P; a word with a
    letter outside 1..m is still rejected."""
    with pytest.raises(ValueError):
        wy.wp_subword_sums((1, 4), Laurent.variables(2), 3, ())


@pytest.mark.parametrize("m", range(1, 7))
def test_reflection_rule_matches_the_group_product(m):
    """For every w in W^P and every root alpha = e_i + e_j (i < j) or 2 e_i,
    times_reflection, the reflection step of the test-side root sum in
    test_qchevalley, gives the negative subset of the signed permutation
    w s_alpha and whether it lies in W^P; one_line gives w itself."""
    inside = outside = 0
    for subset in pt.all_subsets(m):
        w = wg.min_rep_from_subset(subset, m)
        assert wy.one_line(subset, m) == w.images
        for root in wg.positive_roots(m):
            if root.in_parabolic:
                continue
            support = [k for k, c in enumerate(root.vector, start=1) if c]
            ws = w * root.reflection
            member = is_min_coset_rep(ws)
            assert times_reflection(subset, support[0], support[-1], m) == (wg.negative_subset(ws), member)
            inside += member
            outside += not member
    assert inside and (outside or m == 1)


@pytest.mark.parametrize("m", range(1, 8))
def test_add_a_box_rule_matches_the_group_product(m):
    """wp_transitions equals the table read off the signed-permutation
    product s_i w and the root-count length."""
    assert wy.wp_transitions(m) == wg.wp_transitions(m)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_pluecker_routes_agree_with_oracles(m, data):
    n = m * (m + 1) // 2
    check_routes_against_oracles(m, data.draw(st.lists(rationals, min_size=n, max_size=n)))


@pytest.mark.slow
def test_pluecker_routes_agree_with_oracles_m6():
    check_routes_against_oracles(6, [Fraction((-1) ** k * (k % 7 + 1), k % 5 + 1) for k in range(21)])
