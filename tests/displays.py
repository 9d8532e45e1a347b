"""Closed forms of the intermediate images in the projection pipeline,
spelled out term by term for comparison against the computed values."""

from fractions import Fraction
from itertools import combinations

from lgmirror import clifford as cl
from lgmirror import partitions as pt
from lgmirror.scalars import QSqrt2

from signedpairs import all_j_pairs
from subsetmaps import pd


def expected_iota_image(j: int, m: int) -> cl.EndSpin:
    """iota of the j-th denominator element: a global half-integer scalar
    beta times two families of dual-pair matrix units, the second carrying
    the relative sign (-1)^((m+1-j)(j-1))."""
    l = m + 1 - j
    beta = QSqrt2(Fraction(-1 if (l * (l + 1) // 2) % 2 else 1, 2))
    rel_sign = -1 if ((m + 1 - j) * (j - 1)) % 2 else 1
    out = cl.EndSpin(m)
    for _, rho_i, mu_i in all_j_pairs(l, m):
        out.add_term((pt.to_subset(mu_i), pt.to_subset(pd(rho_i))), beta)
        out.add_term((pt.to_subset(rho_i), pt.to_subset(pd(mu_i))), beta if rel_sign > 0 else -beta)
    return out


def expected_clifford_image(j: int, m: int) -> cl.CliffordElement:
    """The Clifford form of the denominator element, literal in the regime
    2j >= m+2 where its middle index range {2m+3-j .. m+j} is ascending."""
    L = m + 1 - j
    half = QSqrt2(Fraction(-1 if (m * (m + 1) // 2) % 2 else 1, 2))
    lead = tuple(range(1, L + 1)) + tuple(range(2 * m + 3 - j, 2 * m + 2))
    acc = cl.cl_monomial(lead, m, QSqrt2(2))
    mid = tuple(range(2 * m + 3 - j, m + j + 1))
    for r in range(L):
        for subset in combinations(range(1, L + 1), r):
            sign = 1
            for el in set(range(1, L + 1)) - set(subset):
                sign *= (-1) ** el
            idx = tuple(sorted(set(subset) | set(mid) | {cl.bar(i, m) for i in subset}))
            acc = acc + cl.cl_monomial(idx, m, QSqrt2(sign))
    return acc.scale(half)


def expected_middle_wedge(j: int, m: int) -> cl.ExteriorElement:
    """pr . kappa^-1 . iota of the denominator element: the signed m-vector
    on indices {1..m+1-j} u {2m+3-j..2m+1}."""
    sign = QSqrt2(-1 if (m * (m + 1) // 2) % 2 else 1)
    return cl.wedge_monomial(
        tuple(range(1, m + 2 - j)) + tuple(range(2 * m + 3 - j, 2 * m + 2)), m, sign
    )
