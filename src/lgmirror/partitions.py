"""Strict partitions in the m x m box and the special families entering W_t.

`StrictPartition` is the typed pair (parts, m), a NamedTuple; it keys every
Pluecker dict, W term and Schubert class, and the tuple's hash and order
fix the order those containers iterate in.
A strict partition with parts <= m corresponds to the subset
I = {m+1-part : part in parts} of {1,...,m}; Poincare duality is subset
complementation; `all_subsets` and `all_strict_partitions` are the 2^m
basis, cached tuples shared by every caller.  The staircase rho_l, its
variant rho_{l,+} (one box added to the first row) and the maximal l-row
partition mu_l index the quadratic numerators and denominators of the
superpotential.

This module is the one source of the signed pairs of those numerators and
denominators, and of their sign.  The pair of a subset J of the rows
{1..l} of rho_l (of rho_{l,+} for a numerator) is (rho^J, mu^J): rho^J
drops the rows in J, and mu^J appends their parts to mu_l in row order.
The paper sums over every J and skips a mu^J that is not strict.  Every
part of rho_l or rho_{l,+} is at most l+1 <= m, so a part of m+1-l or
more is already a part of mu_l = (m, ..., m+1-l); mu^J is strict exactly
when each moved part is below m+1-l.  So only the subsets of those
movable rows are made.  The sign of J is (-1)^{boxes removed from rho_l},
i.e. (-1)^{|J|(l+1) + s(J)} with s(J) the element sum, for the numerator
too: it is read from J, not from the moved parts.  The shorter-looking
(-1)^{s(J)} agrees only for odd l; the convention here is the one under
which the LG(3) middle superpotential term, the minor identities, and the
projection formulas of lgmirror.clifford are mutually consistent
(enforced by the test suite).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple


class _Pair(NamedTuple):
    parts: tuple[int, ...]
    m: int


class StrictPartition(_Pair):
    """Strictly decreasing parts, each between 1 and m, checked on
    construction.  A tuple (parts, m): immutable, and equal, hashed and
    ordered as that pair; so it has len 2 and iterates as (parts, m).
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...], m: int) -> StrictPartition:
        if any(p < 1 or p > m for p in parts):
            raise ValueError(f"parts {parts} outside the {m} x {m} box")
        if any(a <= b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts {parts} not strictly decreasing")
        return super().__new__(cls, parts, m)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def render(self) -> str:
        """Comma-joined parts in brackets, e.g. "[3,2,1]"; "[]" for empty."""
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partition(parts: Iterable[int], m: int) -> StrictPartition:
    return StrictPartition(tuple(parts), m)


def empty(m: int) -> StrictPartition:
    return StrictPartition((), m)


def to_subset(lam: StrictPartition) -> tuple[int, ...]:
    """The subset {m+1-p : p a part} of lambda, ascending."""
    return tuple(sorted(lam.m + 1 - p for p in lam.parts))


@lru_cache(maxsize=None)
def all_subsets(m: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of {1..m}, ascending, sorted by size then lexicographically.

    This fixed order indexes the rows/columns of every 2^m-dimensional
    matrix in the package; one cached tuple per m, shared by every caller.
    """
    return tuple(s for k in range(m + 1) for s in combinations(range(1, m + 1), k))


@lru_cache(maxsize=None)
def all_strict_partitions(m: int) -> tuple[StrictPartition, ...]:
    """All 2^m strict partitions in the order of all_subsets, cached and
    shared like it: callers zip the two instead of calling to_subset.  Each
    is read from its ascending subset, which needs no sort or range check."""
    return tuple(StrictPartition(tuple(m + 1 - i for i in s), m) for s in all_subsets(m))


# -- the rho / mu families ---------------------------------------------------


def rho(l: int, m: int) -> StrictPartition:
    """Staircase (l, l-1, ..., 1)."""
    if not 0 <= l <= m:
        raise ValueError(f"rho_{l} not defined in box size {m}")
    return StrictPartition(tuple(range(l, 0, -1)), m)


def mu(l: int, m: int) -> StrictPartition:
    """Maximal l-row partition (m, m-1, ..., m+1-l)."""
    if not 0 <= l <= m:
        raise ValueError(f"mu_{l} not defined in box size {m}")
    return StrictPartition(tuple(range(m, m - l, -1)), m)


def rho_plus(l: int, m: int) -> StrictPartition:
    """rho_l with one box added to the first line: (l+1, l-1, ..., 1)."""
    if not 0 <= l < m:
        raise ValueError(f"rho_{l},+ requires 0 <= l < m")
    return StrictPartition((l + 1,) + tuple(range(l - 1, 0, -1)), m)


def _signed_pairs(l: int, m: int, plus: bool) -> list[tuple[int, StrictPartition, StrictPartition]]:
    """(sign, rho^J, mu^J) for the subsets J of the movable rows, in (size, lex) order."""
    rows = (rho_plus if plus else rho)(l, m).parts
    base = mu(l, m).parts
    movable = [j for j in range(1, l + 1) if rows[j - 1] < m + 1 - l]
    out = []
    for size in range(len(movable) + 1):
        for subset in combinations(movable, size):
            sign = -1 if sum(l + 1 - j for j in subset) % 2 else 1
            kept = tuple(part for j, part in enumerate(rows, start=1) if j not in subset)
            moved = tuple(rows[j - 1] for j in subset)
            out.append((sign, StrictPartition(kept, m), StrictPartition(base + moved, m)))
    return out


def denominator_terms(l: int, m: int) -> list[tuple[int, StrictPartition, StrictPartition]]:
    """Signed pairs (sign, rho_l^J, mu_l^J) of the l-th denominator, over the
    J in {1..l} whose mu_l^J is strict."""
    return _signed_pairs(l, m, plus=False)


def numerator_terms(l: int, m: int) -> list[tuple[int, StrictPartition, StrictPartition]]:
    """Signed pairs (sign, rho_{l,+}^J, mu_{l,+}^J) of the l-th numerator."""
    return _signed_pairs(l, m, plus=True)
