"""Quantum multiplication by the divisor class sigma_1 on qH*(LG(m)).

Schubert classes are indexed by strict partitions in the m x m box, i.e.
by the minimal coset representatives of W/W_P (type C_m, W_P =
<s_1..s_{m-1}>), which `lgmirror.weyl` stores by negative subsets.  The
Chevalley operator is the root sum (Fulton-Woodward 2004)

    sigma_1 * sigma_w = sum alpha^vee(omega_m) sigma_{w s_alpha}
                      + sum q^{d(alpha)} alpha^vee(omega_m) sigma_{pi(w s_alpha)},

over the positive roots outside R_P+, alpha = e_i + e_j (i < j) and 2 e_i:
the classical part over those with w s_alpha in W^P of length ell(w)+1,
the quantum part over those whose projected representative pi(w s_alpha)
in W^P has length ell(w) + 1 - n_alpha.  Here d(alpha) = alpha^vee(omega_m)
is the curve degree surviving in H_2(LG(m)), 2 for e_i + e_j and 1 for
2 e_i, and n_alpha = (m+1) d(alpha) is its pairing with the anti-canonical
class; with these readings the operator satisfies the degree law
|mu| + (m+1) d = |lambda| + 1, has nonnegative integer coefficients, and
reproduces the known Pieri products (enforced by the tests).

The sum runs size first.  Write w in one-line form, `weyl.one_line`.  The
reflection s_alpha for alpha = e_i + e_j swaps the images at i and j and
negates both (2 e_i negates the image at i), so the negative subset of
w s_alpha, which is also that of pi(w s_alpha), is I with the membership of
|w(i)| and |w(j)| toggled, and the partition size changes by
+-(m+1-|w(i)|) +- (m+1-|w(j)|), + where the image is positive.  The length
of an element of W^P is the size of its partition, so a root whose size
change is neither 1 (classical) nor 1 - n_alpha (quantum) adds no term and
is dropped at once.  A root of the classical size needs no test of
membership in W^P, whose one-line forms increase in the order
1 < ... < m < -m < ... < -1: the size grows by 1 only for e_i + e_j with
w(i) = a > 0 and w(j) = -(a+1), or for 2 e_i with w(i) = m, and swapping
and negating those images keeps the order (a + 1 is in I, a is not).

The sum runs on the bitmask of I (bit i-1 for i): a root toggles the bits
of |w(i)| and |w(j)| by XOR, and the class of the result is read from one
per-m table of the 2^m strict partitions by mask, so no term builds or
validates a partition.

A quantum class is a `CohClass`: the package's one sparse container,
`scalars.Combination`, keyed by (lambda, d) for q^d sigma_lambda, with
integer coefficients.  `sigma1_table` holds the root sums of one m,
computed once; the numerical sigma_1 matrix built from it lives in
`lgmirror.jacobi`, so no numpy here.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from lgmirror import partitions as pt
from lgmirror import weyl as wy
from lgmirror.partitions import StrictPartition
from lgmirror.scalars import Combination


class CohClass(Combination):
    """Integer combination of q^d sigma_lambda: coeffs {(lambda, d): coeff}."""


def _negative_mask(lam: StrictPartition) -> int:
    """The mask of the negative subset {m+1-p : p a part} of lambda, bit i-1 for i."""
    return sum(1 << (lam.m - p) for p in lam.parts)


@lru_cache(maxsize=None)
def _classes_by_mask(m: int) -> tuple[StrictPartition, ...]:
    """The strict partitions of the m x m box, each at its negative mask."""
    table: list = [None] * (1 << m)
    for lam in pt.all_strict_partitions(m):
        table[_negative_mask(lam)] = lam
    return tuple(table)


def chevalley_multiply(lam: StrictPartition) -> CohClass:
    """The quantum Chevalley expansion of sigma_1 * sigma_lambda."""
    m = lam.m
    classes = _classes_by_mask(m)
    negative = _negative_mask(lam)
    w = wy.one_line(pt.to_subset(lam), m)
    # toggling |w(k)| in the negative subset adds or removes the part m+1-|w(k)|
    step = [m + 1 - v if v > 0 else -(m + 1 + v) for v in w]
    bit = [1 << (abs(v) - 1) for v in w]
    out = CohClass(m)
    for i in range(m):
        # alpha = 2 e_i, d(alpha) = 1: the size grows by 1, or by 1 - (m+1) with q
        if step[i] == 1:
            out.add_term((classes[negative ^ bit[i]], 0), 1)
        elif step[i] == -m:
            out.add_term((classes[negative ^ bit[i]], 1), 1)
        # alpha = e_i + e_j, d(alpha) = 2: the size grows by 1, or by 1 - 2(m+1) with q^2
        classical, quantum = 1 - step[i], -1 - 2 * m - step[i]
        for j in range(i + 1, m):
            if step[j] == classical:
                out.add_term((classes[negative ^ bit[i] ^ bit[j]], 0), 2)
            elif step[j] == quantum:
                out.add_term((classes[negative ^ bit[i] ^ bit[j]], 2), 2)
    return out


@lru_cache(maxsize=None)
def sigma1_table(m: int) -> Mapping[StrictPartition, CohClass]:
    """sigma_1 * sigma_lambda for every lambda in the m x m box, in the order
    of `all_strict_partitions`: one root sum per class, once per m.  Every
    reader shares the table, so neither it nor its classes may be changed."""
    return MappingProxyType({lam: chevalley_multiply(lam) for lam in pt.all_strict_partitions(m)})


def verify_relation_l1(m: int) -> bool:
    """sigma_1 * sigma_(m) - sigma_() * sigma_(m,1) = q, exactly."""
    expected = CohClass(m)
    expected.add_term((pt.partition((m, 1), m), 0), 1)
    expected.add_term((pt.empty(m), 1), 1)
    return sigma1_table(m)[pt.partition((m,), m)] == expected


def grading_violations(m: int) -> list[str]:
    """Terms of any sigma_1 * sigma_lambda violating |mu| + (m+1) d = |lambda| + 1
    or positivity; empty if the operator is consistent."""
    bad = []
    for lam, product in sigma1_table(m).items():
        for (mu_, d), c in product.coeffs.items():
            if mu_.size + (m + 1) * d != lam.size + 1:
                bad.append(f"sigma{lam.render()}: q^{d} sigma{mu_.render()} breaks the degree law")
            if c < 0 or not isinstance(c, int):
                bad.append(f"sigma{lam.render()}: coefficient {c} of sigma{mu_.render()} not a nonneg integer")
    return bad


def multiplication_table(m: int) -> dict[str, list[dict]]:
    """JSON-friendly dump of the full sigma_1 * table."""
    table = {}
    for lam, product in sigma1_table(m).items():
        rows = [
            {"partition": list(mu_.parts), "q_power": d, "coeff": c}
            for (mu_, d), c in sorted(product.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        table[lam.render()] = rows
    return table
