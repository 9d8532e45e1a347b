"""The minimal coset representatives W^P of type B_m, words and subwords.

W is the Weyl group of type B_m (equivalently C_m), acting on +-e_1, ...,
+-e_m by signed permutations; s_i (i < m) swaps e_i and e_{i+1}, s_m
negates e_m, and W_P = <s_1, ..., s_{m-1}>.  An element w of W^P, the
minimal representatives of W/W_P, is stored only by its negative subset
I = {|w(k)| : w(k) < 0} of {1..m}, which is the subset of the strict
partition indexing it (`partitions.to_subset`); its length is the size of
that partition.  `one_line` gives its images (w(1), ..., w(m)).  The
signed-permutation group itself is a test oracle for the rules here.  One
dynamic programme over W^P, `wp_subword_sums`, serves every reduced-subword
job: products of the b_k as values, over all states or kept to a target.
It runs on a list of values in `partitions.all_subsets` order, from a plan
of (state, next state) position pairs read off `wp_transitions` once per
(word, m, target).  This module imports neither `grouprep` nor `clifford`:
the spin route to the Pluecker coordinates reads its moves from the
Clifford image, and the two routes share only that basis order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from lgmirror.partitions import all_subsets, rho, to_subset
from lgmirror.scalars import Laurent


def one_line(subset: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The images (w(1), ..., w(m)) of the w in W^P with negative subset I:
    the complement of I ascending, then -I descending."""
    inside = set(subset)
    return tuple(k for k in range(1, m + 1) if k not in inside) + tuple(-k for k in sorted(inside, reverse=True))


# -- the canonical reduced word of w^P and its reduced subwords ---------------


def canonical_wp_word(m: int) -> tuple[int, ...]:
    """(s_m)(s_{m-1} s_m) ... (s_1 s_2 ... s_m) as a letter sequence."""
    word: list[int] = []
    for k in range(1, m + 1):
        word.extend(range(m + 1 - k, m + 1))
    return tuple(word)


def coordinate_word(b: Sequence, m: int) -> tuple[int, ...]:
    """The canonical word of w^P, after checking that the coordinates b of
    u2bar(b) hold one entry per letter: b_k goes with letter k."""
    word = canonical_wp_word(m)
    if len(b) != len(word):
        raise ValueError(f"need {len(word)} coordinates for m={m}, got {len(b)}")
    return word


@lru_cache(maxsize=None)
def wp_transitions(m: int) -> dict[tuple[int, ...], tuple[tuple[int, ...] | None, ...]]:
    """Left multiplication inside W^P that adds one to the length.

    Keyed by the negative subset I of w in W^P; entry i - 1 is the negative
    subset of s_i w when s_i w lies in W^P with ell(s_i w) = ell(w) + 1, and
    None otherwise.  s_i acts on the values of w: for i < m it swaps i and
    i + 1, which adds a box to the partition exactly when i + 1 is in I and
    i is not (I - {i+1} + {i}); s_m negates m, which adds the box of part 1
    exactly when m is not in I (I + {m}).
    """
    table = {}
    for subset in all_subsets(m):
        row = []
        for i in range(1, m):
            row.append(tuple(sorted(set(subset) - {i + 1} | {i})) if i + 1 in subset and i not in subset else None)
        row.append(None if m in subset else subset + (m,))
        table[subset] = tuple(row)
    return table


def wp_subword_sums(word: Sequence[int], b: Sequence, m: int, target: tuple[int, ...] | None = None) -> dict:
    """Suffix dynamic programme over W^P, one pass over `word`.

    Returns {negative subset of v: sum over the reduced subwords of `word`
    that spell v in W^P of the product of the b's at their positions}.  The
    word is read right to left; a state v taking the letter at position p
    becomes s_{word[p]} v when `wp_transitions` allows it, and its value x
    becomes x * b[p - 1], from the int 1 of the empty subword.  Every right
    factor of an element of W^P lies in W^P and every suffix of a reduced
    word is reduced, so the 2^m states of W^P see every reduced subword
    whose product lies in W^P, and only those.

    A step at position p is kept only into a state of alive[p - 1]: those
    from which the letters at positions p - 1, ..., 1 can still spell the
    `target` subset (`_alive`), or every state without one.  With a target,
    only its own entry is then complete.  The steps come from
    `_subword_plan` and run on a list of values in `partitions.all_subsets`
    order, in place: each adds one to the length, so no state is both a
    source and a target at one position.
    """
    steps, reached = _subword_plan(tuple(word), m, target)
    values = [1] + [0] * (2**m - 1)
    for p, pairs in zip(range(len(steps) - 1, -1, -1), steps):
        bp = b[p]
        for s, t in pairs:
            values[t] += values[s] * bp
    subsets = all_subsets(m)
    return {subsets[k]: values[k] for k in reached}


@lru_cache(maxsize=None)
def _subword_plan(word: tuple[int, ...], m: int, target: tuple[int, ...] | None):
    """The steps of `wp_subword_sums` at positions N, ..., 1 of `word`: per
    position, the (state, next state) pairs, as `partitions.all_subsets`
    positions, from each state reached so far; and the states reached, in
    the order first reached.  Built once per (word, m, target)."""
    if any(not 1 <= letter <= m for letter in word):
        raise ValueError(f"word {word} has a letter outside 1..{m}")
    table = wp_transitions(m)
    subsets = all_subsets(m)
    index = {s: k for k, s in enumerate(subsets)}
    alive = [table] * (len(word) + 1) if target is None else _alive(word, m, target)
    reached, steps = {0: None}, []
    for p in range(len(word), 0, -1):
        pairs = [(k, index[nxt]) for k in reached if (nxt := table[subsets[k]][word[p - 1] - 1]) in alive[p - 1]]
        reached.update(dict.fromkeys(t for _, t in pairs))
        steps.append(tuple(pairs))
    return tuple(steps), tuple(reached)


def _alive(word: tuple[int, ...], m: int, target: tuple[int, ...]) -> tuple[frozenset, ...]:
    """The pruning table of `wp_subword_sums` towards `target`: entry p holds
    the states from which the letters at positions p, ..., 1 of `word` can
    still spell `target`, entry 0 only the target.  Built with the plan."""
    steps = wp_transitions(m)
    alive = [frozenset((target,))]
    for letter in word:
        alive.append(alive[-1] | {state for state, row in steps.items() if row[letter - 1] in alive[-1]})
    return tuple(alive)


def complement_subwords(m: int) -> tuple[tuple[int, ...], ...]:
    """Position subsets S of the canonical word, |S| = N - m, with
    (subword at S) * s_1 s_2 ... s_m a reduced expression of w^P.

    Since |S| + m = ell(w^P), the product equals w^P iff the combined word
    is reduced; the subword at S then spells w^P s_m ... s_1, the element
    of W^P indexed by the staircase rho_{m-1}: the monomials of N(b) over
    the b_k, lexicographic as position sets, descending as exponents.
    """
    word, target = canonical_wp_word(m), to_subset(rho(m - 1, m))
    poly = wp_subword_sums(word, Laurent.variables(len(word)), m, target)[target]
    return tuple(tuple(k for k, e in enumerate(exps, 1) if e) for exps in sorted(poly.coeffs, reverse=True))
