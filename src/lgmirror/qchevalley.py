"""Quantum multiplication by the divisor class sigma_1 on qH*(LG(m)).

Schubert classes are indexed by strict partitions in the m x m box via the
minimal coset representatives of W/W_P (type C_m, W_P = <s_1..s_{m-1}>).
The Chevalley operator is the root sum

    sigma_1 * sigma_w = sum alpha^vee(omega_m) sigma_{w s_alpha}
                      + sum q^{d(alpha)} alpha^vee(omega_m) sigma_{pi(w s_alpha)},

the classical part over alpha in R+ minus R_P+ with w s_alpha in W^P of length
ell(w)+1, the quantum part over alpha whose projected representative
pi(w s_alpha) in W^P has length ell(w) + 1 - n_alpha.  Here d(alpha) =
alpha^vee(omega_m) is the curve degree surviving in H_2(LG(m)) and
n_alpha = (m+1) d(alpha) is its pairing with the anti-canonical class;
with these readings the operator satisfies the degree law
|mu| + (m+1) d = |lambda| + 1, has nonnegative integer coefficients, and
reproduces the known Pieri products (enforced by the tests).

`sigma1_table` holds the root sums of one m, computed once; the numerical
sigma_1 matrix built from it lives in `lgmirror.jacobi`, so no numpy here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from lgmirror import partitions as pt
from lgmirror import weyl as wy
from lgmirror.partitions import StrictPartition
from lgmirror.weyl import SignedPermutation


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


class CohClass:
    """Integer combination of q^d sigma_lambda, as a dict {(lambda, d): coeff}."""

    def __init__(self, m: int, terms: dict[tuple[StrictPartition, int], int] | None = None):
        self.m = m
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def add(self, lam: StrictPartition, d: int, coeff: int) -> None:
        key = (lam, d)
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CohClass) and self.m == other.m and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (lam, d), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            q = "" if d == 0 else ("q" if d == 1 else f"q^{d}")
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}{q}{'*' if q and True else ''}sigma{lam.render()}")
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _length_cached(images: tuple[int, ...]) -> int:
    return wy.length(SignedPermutation(images))


def chevalley_multiply(lam: StrictPartition, m: int | None = None) -> CohClass:
    """The quantum Chevalley expansion of sigma_1 * sigma_lambda."""
    m = lam.m if m is None else m
    w = wy.coset_min_rep(lam)
    lw = lam.size
    out = CohClass(m)
    for root in positive_roots(m):
        if root.in_parabolic:
            continue
        c = root.omega_m_pairing
        ws = w * root.reflection
        proj = wy.min_coset_rep_of(ws)
        if ws == proj and _length_cached(ws.images) == lw + 1:
            out.add(wy.partition_of(ws), 0, c)
            continue
        n_alpha = (m + 1) * c
        if _length_cached(proj.images) == lw + 1 - n_alpha:
            out.add(wy.partition_of(proj), c, c)
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
    expected.add(pt.partition((m, 1), m), 0, 1)
    expected.add(pt.empty(m), 1, 1)
    return sigma1_table(m)[pt.partition((m,), m)] == expected


def grading_violations(m: int) -> list[str]:
    """Terms of any sigma_1 * sigma_lambda violating |mu| + (m+1) d = |lambda| + 1
    or positivity; empty if the operator is consistent."""
    bad = []
    for lam, product in sigma1_table(m).items():
        for (mu_, d), c in product.terms.items():
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
            for (mu_, d), c in sorted(product.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        table[lam.render()] = rows
    return table
