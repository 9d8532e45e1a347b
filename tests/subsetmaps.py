"""The subset maps of `lgmirror.partitions` that no command runs: a subset
of {1..m}, in any order, to its strict partition, checked, and Poincare
duality.  The package reads its bases from the cached `all_subsets` and
`all_strict_partitions`; these serve the oracles and the tests."""

from typing import Iterable

from lgmirror.partitions import StrictPartition, to_subset


def from_subset(subset: Iterable[int], m: int) -> StrictPartition:
    """Subset {i_1 < ... < i_k} of {1..m} -> (m+1-i_1, ..., m+1-i_k)."""
    idx = sorted(set(subset))
    if idx and (idx[0] < 1 or idx[-1] > m):
        raise ValueError(f"subset {idx} not contained in 1..{m}")
    return StrictPartition(tuple(m + 1 - i for i in idx), m)


def pd(lam: StrictPartition) -> StrictPartition:
    """Poincare dual: complement the part set inside {1..m}."""
    return from_subset(set(range(1, lam.m + 1)) - set(to_subset(lam)), lam.m)
