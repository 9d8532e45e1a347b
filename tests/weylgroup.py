"""The Weyl group of type B_m as signed permutations: the test oracle for
the negative-subset rules of `lgmirror.weyl` and `lgmirror.qchevalley`.

Elements are stored by their images (w(1), ..., w(m)) with w(-k) = -w(k)
implicit.  The generator s_i (i < m) swaps coordinates i, i+1; s_m flips
the sign of the last coordinate.  Lengths are counted root-theoretically:
ell(w) is the number of positive roots of C_m (equivalently B_m) that w
maps to negative roots, which keeps every convention question out of the
length function.  `wp_transitions` and `chevalley_multiply` read the
left multiplication table of W^P and the quantum Chevalley root sum off
the group product and this length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from lgmirror.partitions import StrictPartition, all_subsets, to_subset
from lgmirror.qchevalley import CohClass
from lgmirror.weyl import canonical_wp_word

from subsetmaps import from_subset


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


@dataclass(frozen=True)
class Root:
    """A positive root of C_m with its coroot and reflection."""

    vector: tuple[int, ...]
    coroot: tuple[int, ...]
    reflection: SignedPermutation
    in_parabolic: bool  # of the form e_i - e_j, i.e. s_alpha in W_P

    @property
    def omega_m_pairing(self) -> int:
        """alpha^vee(omega_m) = sum of coroot coordinates."""
        return sum(self.coroot)


@lru_cache(maxsize=None)
def positive_roots(m: int) -> tuple[Root, ...]:
    """The m^2 positive roots e_i - e_j, e_i + e_j (i < j) and 2 e_i.

    R_P+ consists of the e_i - e_j; its complement has m(m+1)/2 elements.
    """
    roots: list[Root] = []

    def vec(*pairs) -> tuple[int, ...]:
        v = [0] * m
        for idx, c in pairs:
            v[idx - 1] = c
        return tuple(v)

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            img = list(range(1, m + 1))
            img[i - 1], img[j - 1] = j, i
            roots.append(
                Root(vec((i, 1), (j, -1)), vec((i, 1), (j, -1)), SignedPermutation(tuple(img)), True)
            )
            img = list(range(1, m + 1))
            img[i - 1], img[j - 1] = -j, -i
            roots.append(
                Root(vec((i, 1), (j, 1)), vec((i, 1), (j, 1)), SignedPermutation(tuple(img)), False)
            )
    for i in range(1, m + 1):
        img = list(range(1, m + 1))
        img[i - 1] = -i
        roots.append(Root(vec((i, 2)), vec((i, 1)), SignedPermutation(tuple(img)), False))
    return tuple(roots)


@lru_cache(maxsize=None)
def _length_cached(images: tuple[int, ...]) -> int:
    return length(SignedPermutation(images))


def chevalley_multiply(lam: StrictPartition) -> CohClass:
    """The quantum Chevalley expansion of sigma_1 * sigma_lambda."""
    m = lam.m
    w = coset_min_rep(lam)
    lw = lam.size
    out = CohClass(m)
    for root in positive_roots(m):
        if root.in_parabolic:
            continue
        c = root.omega_m_pairing
        ws = w * root.reflection
        proj = min_coset_rep_of(ws)
        if ws == proj and _length_cached(ws.images) == lw + 1:
            out.add_term((partition_of(ws), 0), c)
            continue
        n_alpha = (m + 1) * c
        if _length_cached(proj.images) == lw + 1 - n_alpha:
            out.add_term((partition_of(proj), c), c)
    return out
