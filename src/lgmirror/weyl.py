"""The Weyl group of type B_m as signed permutations, words and subwords.

Elements are stored by their images (w(1), ..., w(m)) with w(-k) = -w(k)
implicit.  The generator s_i (i < m) swaps coordinates i, i+1; s_m flips
the sign of the last coordinate.  Lengths are counted root-theoretically:
ell(w) is the number of positive roots of C_m (equivalently B_m) that w
maps to negative roots, which keeps every convention question out of the
length function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from lgmirror.partitions import StrictPartition, all_subsets, from_subset, rho, to_subset


@dataclass(frozen=True)
class SignedPermutation:
    """Images (w(1), ..., w(m)), values in {+-1, ..., +-m} with distinct moduli."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if k > 0:
            return self.images[k - 1]
        return -self.images[-k - 1]

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        # (w v)(k) = w(v(k))
        return SignedPermutation(tuple(self(other(k)) for k in range(1, self.m + 1)))

    def inverse(self) -> SignedPermutation:
        img = [0] * self.m
        for k in range(1, self.m + 1):
            v = self.images[k - 1]
            img[abs(v) - 1] = k if v > 0 else -k
        return SignedPermutation(tuple(img))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"


def identity(m: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, m + 1)))


def simple_reflection(i: int, m: int) -> SignedPermutation:
    if not 1 <= i <= m:
        raise ValueError(f"simple reflection s_{i} out of range for m={m}")
    img = list(range(1, m + 1))
    if i < m:
        img[i - 1], img[i] = img[i], img[i - 1]
    else:
        img[m - 1] = -m
    return SignedPermutation(tuple(img))


def length(w: SignedPermutation) -> int:
    """Number of positive roots (type C_m) sent to negative roots.

    A root supported on indices p < q is negative exactly when the
    coefficient of e_p is -1; the root 2 e_p is negative when its
    coefficient is.
    """
    m = w.m
    img = w.images
    total = sum(1 for v in img if v < 0)  # roots 2 e_i
    for i in range(1, m + 1):
        vi = img[i - 1]
        for j in range(i + 1, m + 1):
            vj = img[j - 1]
            # w(e_i - e_j) = sgn(vi) e_|vi| - sgn(vj) e_|vj|
            small_coeff = (1 if vi > 0 else -1) if abs(vi) < abs(vj) else (-1 if vj > 0 else 1)
            if small_coeff < 0:
                total += 1
            # w(e_i + e_j)
            small_coeff = (1 if vi > 0 else -1) if abs(vi) < abs(vj) else (1 if vj > 0 else -1)
            if small_coeff < 0:
                total += 1
    return total


def word_product(word: Sequence[int], m: int) -> SignedPermutation:
    out = identity(m)
    for letter in word:
        out = out * simple_reflection(letter, m)
    return out


# -- the parabolic W_P = <s_1, ..., s_{m-1}> and its minimal coset reps ------


def negative_subset(w: SignedPermutation) -> tuple[int, ...]:
    """The subset I = {|w(j)| : w(j) < 0}, i.e. the spin weight of w."""
    return tuple(sorted(abs(v) for v in w.images if v < 0))


def min_rep_from_subset(subset: Iterable[int], m: int) -> SignedPermutation:
    """The minimal coset representative in W/W_P with negative entries I.

    One-line form: the complement of I ascending, then I descending with
    signs flipped.  Minimality and ell(w) = |lambda(I)| are enforced by the
    test suite rather than assumed.
    """
    idx = sorted(set(subset))
    pos = [k for k in range(1, m + 1) if k not in idx]
    return SignedPermutation(tuple(pos) + tuple(-k for k in reversed(idx)))


def min_coset_rep_of(w: SignedPermutation) -> SignedPermutation:
    """Projection W -> W^P (minimal representative of w W_P); it fixes exactly W^P."""
    return min_rep_from_subset(negative_subset(w), w.m)


def coset_min_rep(lam: StrictPartition) -> SignedPermutation:
    """The element of W^P indexed by a strict partition, with ell(w) = |lambda|."""
    return min_rep_from_subset(to_subset(lam), lam.m)


def partition_of(w: SignedPermutation) -> StrictPartition:
    return from_subset(negative_subset(w), w.m)


# -- the canonical reduced word of w^P and its reduced subwords ---------------


def canonical_wp_word(m: int) -> tuple[int, ...]:
    """(s_m)(s_{m-1} s_m) ... (s_1 s_2 ... s_m) as a letter sequence."""
    word: list[int] = []
    for k in range(1, m + 1):
        word.extend(range(m + 1 - k, m + 1))
    return tuple(word)


def wp_element(m: int) -> SignedPermutation:
    return word_product(canonical_wp_word(m), m)


@lru_cache(maxsize=None)
def wp_transitions(m: int) -> dict[tuple[int, ...], tuple[tuple[int, ...] | None, ...]]:
    """Left multiplication inside W^P that adds one to the length.

    Keyed by the negative subset of w in W^P; entry i - 1 is the negative
    subset of s_i w when s_i w lies in W^P with ell(s_i w) = ell(w) + 1, and
    None otherwise.  Read off the group product and the root-theoretic
    length, for all 2^m elements of W^P and all m letters.
    """
    table = {}
    for subset in all_subsets(m):
        w = min_rep_from_subset(subset, m)
        grown = length(w) + 1
        row = []
        for i in range(1, m + 1):
            v = simple_reflection(i, m) * w
            row.append(negative_subset(v) if length(v) == grown and v == min_coset_rep_of(v) else None)
        table[subset] = tuple(row)
    return table


def wp_subword_sums(word: Sequence[int], m: int, one, extend) -> dict[tuple[int, ...], object]:
    """Suffix dynamic programme over W^P, one pass over `word`.

    Returns {negative subset of v: sum over the reduced subwords of `word`
    that spell v in W^P of the chain value of that subword}.  The word is
    read right to left; a state v taking the letter at position p becomes
    s_{word[p]} v when `wp_transitions` allows it, and its value x becomes
    extend(x, p).  The empty subword has value `one`.  Every right factor
    of an element of W^P lies in W^P and every suffix of a reduced word is
    reduced, so the 2^m states of W^P see every reduced subword whose
    product lies in W^P, and only those.
    """
    if any(not 1 <= letter <= m for letter in word):
        raise ValueError(f"word {tuple(word)} has a letter outside 1..{m}")
    steps = wp_transitions(m)
    sums = {(): one}
    for p in range(len(word), 0, -1):
        letter = word[p - 1]
        for state, value in list(sums.items()):
            nxt = steps[state][letter - 1]
            if nxt is not None:
                term = extend(value, p)
                sums[nxt] = sums[nxt] + term if nxt in sums else term
    return sums


@lru_cache(maxsize=None)
def _subwords_to(word: tuple[int, ...], target: tuple[int, ...], m: int) -> tuple[tuple[int, ...], ...]:
    """The W^P programme of `wp_subword_sums`, listing subwords, kept to the
    states that can still reach `target`: alive[p] holds the states from
    which the letters at positions p, ..., 1 can spell the rest of it."""
    if any(not 1 <= letter <= m for letter in word):
        raise ValueError(f"word {word} has a letter outside 1..{m}")
    steps = wp_transitions(m)
    alive = [{target}]
    for letter in word:
        alive.append(alive[-1] | {state for state, row in steps.items() if row[letter - 1] in alive[-1]})
    subwords: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): [()]}
    for p in range(len(word), 0, -1):
        for state, tails in list(subwords.items()):
            nxt = steps[state][word[p - 1] - 1]
            if nxt in alive[p - 1]:
                subwords[nxt] = subwords.get(nxt, []) + [(p,) + t for t in tails]
    return tuple(sorted(subwords.get(target, ())))


def reduced_subwords(word: Sequence[int], target: SignedPermutation) -> tuple[tuple[int, ...], ...]:
    """All position subsets of `word` spelling a reduced expression of `target`.

    Positions are 1-based and returned sorted; the subword read in
    increasing position order multiplies to `target` using exactly
    ell(target) letters.  `target` must lie in W^P (ValueError otherwise):
    the subwords come from the W^P dynamic programme, pruned to `target`.
    """
    if target != min_coset_rep_of(target):
        raise ValueError(f"{target} is not a minimal coset representative (not in W^P)")
    return _subwords_to(tuple(word), negative_subset(target), target.m)


def complement_subwords(m: int) -> tuple[tuple[int, ...], ...]:
    """Position subsets S of the canonical word, |S| = N - m, with
    (subword at S) * s_1 s_2 ... s_m a reduced expression of w^P.

    Since |S| + m = ell(w^P), the product equals w^P iff the combined word
    is reduced; the subword at S then spells w^P s_m ... s_1, the element
    of W^P indexed by the staircase rho_{m-1}.  Sorted lexicographically.
    """
    return reduced_subwords(canonical_wp_word(m), coset_min_rep(rho(m - 1, m)))
