"""The superpotential W_t in Pluecker coordinates and its Laurent form.

Pluecker coordinates are evaluated on the unipotent representative
u2bar (so p_empty = 1) by two independent algorithms: the spin-matrix
route and the reduced-subword route.  The quadratic numerators and
denominators of the middle terms of W_t are signed sums over row
removals/additions of the staircase and maximal partitions, read from
lgmirror.partitions with their signs.  Verification helpers check the
pullback identity W = W-tilde, the minor identities, the numerator
identity behind the e^t-term, and the agreement of the two Pluecker
routes, all exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from lgmirror import grouprep as gr
from lgmirror import partitions as pt
from lgmirror import weyl as wy
from lgmirror.partitions import StrictPartition
from lgmirror.scalars import EXACT, QS2_ONE, QS2_ZERO, QSqrt2, ScalarRing


class DivisorError(ZeroDivisionError):
    """Evaluation point lies on one of the divisors D_l."""

    def __init__(self, l: int):
        self.l = l
        super().__init__(f"denominator of the l={l} term vanishes (point on D_{l})")


# The `ring` of ring_vector, plucker_vector, eval_W, eval_denominator and
# eval_numerator selects nothing (EXACT is the only ScalarRing); callers may pass it.


def ring_vector(bs: Sequence[Fraction | int], ring: ScalarRing = EXACT) -> list[QSqrt2]:
    return [QSqrt2.from_fraction(Fraction(b)) for b in bs]


# -- Pluecker coordinates -----------------------------------------------------


def plucker_vector(b: list, m: int, ring: ScalarRing = EXACT) -> dict[StrictPartition, QSqrt2]:
    """All 2^m Pluecker coordinates of u2bar(b), keyed by strict partition.

    Spin route: p_lambda is the (w_empty, w_lambda) entry of u2bar on
    V_Spin, read from one row sweep over its N sparse factors.
    """
    row = gr.spin_row_sweep(gr.u2bar_spin_factors(b, m))
    return {lam: row.get(pt.to_subset(lam), QS2_ZERO) for lam in pt.all_strict_partitions(m)}


def plucker_subword_vector(b: list, m: int) -> dict[StrictPartition, object]:
    """All 2^m Pluecker coordinates as sums of b-monomials over reduced subwords.

    Subword route: p_lambda is the sum, over the reduced subwords of the
    canonical word of w^P spelling the element of W^P indexed by lambda, of
    the product of the selected b's; one W^P dynamic programme gives all
    of them.
    """
    word = wy.canonical_wp_word(m)
    if len(b) != len(word):
        raise ValueError(f"need {len(word)} coordinates for m={m}, got {len(b)}")
    sums = wy.wp_subword_sums(word, m, QS2_ONE, lambda value, p: value * b[p - 1])
    return {lam: sums.get(pt.to_subset(lam), QS2_ZERO) for lam in pt.all_strict_partitions(m)}


# -- the terms of W_t ---------------------------------------------------------


def _eval_terms(terms, p: dict):
    total = QS2_ZERO
    for sign, lam1, lam2 in terms:
        prod = p[lam1] * p[lam2]
        total = total + prod if sign > 0 else total - prod
    return total


def eval_denominator(l: int, p: dict, m: int, ring: ScalarRing = EXACT):
    return _eval_terms(pt.denominator_terms(l, m), p)


def eval_numerator(l: int, p: dict, m: int, ring: ScalarRing = EXACT):
    return _eval_terms(pt.numerator_terms(l, m), p)


def eval_W(q, p: dict, m: int, ring: ScalarRing = EXACT):
    """W_t at the point with Pluecker values p, with q = e^t.

    Raises DivisorError naming the vanishing denominator D_l.
    """
    p_empty = p[pt.empty(m)]
    if not p_empty:
        raise DivisorError(0)
    total = p[pt.rho_plus(0, m)] / p_empty
    for l in range(1, m):
        den = eval_denominator(l, p, m)
        if not den:
            raise DivisorError(l)
        total = total + eval_numerator(l, p, m) / den
    p_top = p[pt.rho(m, m)]
    if not p_top:
        raise DivisorError(m)
    return total + q * p[pt.rho(m - 1, m)] / p_top


def laurent_numerator(b: list, m: int):
    """N(b) = sum over complement subwords of the product of selected b's.

    The complement subwords are the reduced subwords spelling the element
    of W^P indexed by rho_{m-1}, so N(b) is that entry of the subword route.
    """
    return plucker_subword_vector(b, m)[pt.rho(m - 1, m)]


def eval_W_tilde(q, b: list, m: int):
    """The Laurent form: sum b_j + q N(b)/prod b_j."""
    prod = QS2_ONE
    total = QS2_ZERO
    for bj in b:
        if not bj:
            raise ZeroDivisionError("W-tilde needs all torus coordinates nonzero")
        total = total + bj
        prod = prod * bj
    return total + q * laurent_numerator(b, m) / prod


# -- verification reports -----------------------------------------------------


@dataclass
class CheckReport:
    ok: bool
    name: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_theorem_w(m: int, q, b: list, *, p: Optional[dict] = None) -> CheckReport:
    """eval_W on Pluecker values against the Laurent form, exact equality.

    `p`, when given, is plucker_vector(b).
    """
    if p is None:
        p = plucker_vector(b, m)
    lhs = eval_W(q, p, m)
    rhs = eval_W_tilde(q, b, m)
    if lhs == rhs:
        return CheckReport(True, "theorem-w")
    return CheckReport(False, "theorem-w", f"W = {lhs} but W-tilde = {rhs}")


def verify_sym_to_minor(
    m: int, j: int, b: list, *, p: Optional[dict] = None, u2: Optional[gr.Matrix] = None
) -> CheckReport:
    """The two quadratic sums against (m+1)x(m+1) minors of u2bar, j = 2..m.

    The D_(j) sum equals the minor with rows m+1..2m+1 and columns
    j..j+m, and the N_(j) sum the one with columns {j-1} u {j+1..j+m}:
    these are the minors pairing with v^wedge_(j) and v^wedge_(j),+ in the
    standard degree-(m+1) embedding, and the reading under which the
    identities hold for every m (the printed column sets are their images
    under j -> m+2-j, which agree only at m = 2).  `p` and `u2`, when given,
    are plucker_vector(b) and build_u2bar(b), shared by the checks at one b.
    """
    if not 2 <= j <= m:
        raise ValueError("verify_sym_to_minor needs 2 <= j <= m")
    l = m + 1 - j
    if p is None:
        p = plucker_vector(b, m)
    if u2 is None:
        u2 = gr.build_u2bar(b, m)
    rows = list(range(m + 1, 2 * m + 2))
    den_sum = eval_denominator(l, p, m)
    den_minor = gr.minor(u2, rows, list(range(j, j + m + 1)))
    if den_sum != den_minor:
        return CheckReport(False, "sym-to-minor", f"D side: sum {den_sum} != minor {den_minor}")
    num_sum = eval_numerator(l, p, m)
    num_cols = [j - 1] + list(range(j + 1, j + m + 1))
    num_minor = gr.minor(u2, rows, num_cols)
    if num_sum != num_minor:
        return CheckReport(False, "sym-to-minor", f"N side: sum {num_sum} != minor {num_minor}")
    return CheckReport(True, "sym-to-minor")


def verify_fj_minors(m: int, j: int, b: list, *, u2: Optional[gr.Matrix] = None) -> CheckReport:
    """f_j*(u2bar) as a ratio of minors, plus the vanishing minor behind it.

    `u2`, when given, is build_u2bar(b), shared by the checks at one b.
    """
    if not 1 <= j <= m - 1:
        raise ValueError("verify_fj_minors needs 1 <= j <= m-1")
    if u2 is None:
        u2 = gr.build_u2bar(b, m)
    rows = list(range(m + 1, 2 * m + 2))
    num = gr.minor(u2, rows, [j] + list(range(j + 2, j + m + 2)))
    den = gr.minor(u2, rows, list(range(j + 1, j + m + 2)))
    fj = gr.extract_f_coeff(u2, j)
    if not den or fj * den != num:
        return CheckReport(False, "fj-minors", f"f_{j}* = {fj}, minors {num}/{den}")
    vanishing = gr.minor(u2, [j + 1] + rows, list(range(j, j + m + 2)))
    if vanishing:
        return CheckReport(False, "fj-minors", f"vanishing minor is {vanishing}")
    return CheckReport(True, "fj-minors")


def verify_em_formula(m: int, b: list, *, p: Optional[dict] = None) -> CheckReport:
    """N(b) p_{rho_m} = p_{rho_{m-1}} prod(b): the two e^t-term expressions agree.

    `p`, when given, is plucker_vector(b).
    """
    if p is None:
        p = plucker_vector(b, m)
    prod = QS2_ONE
    for bj in b:
        prod = prod * bj
    lhs = laurent_numerator(b, m) * p[pt.rho(m, m)]
    rhs = p[pt.rho(m - 1, m)] * prod
    if lhs == rhs:
        return CheckReport(True, "em-formula")
    return CheckReport(False, "em-formula", f"{lhs} != {rhs}")


def verify_subword_route(m: int, b: list, *, p: Optional[dict] = None) -> CheckReport:
    """Every Pluecker coordinate of the spin route against the subword route.

    `p`, when given, is plucker_vector(b).
    """
    if p is None:
        p = plucker_vector(b, m)
    subword = plucker_subword_vector(b, m)
    for lam, lhs in p.items():
        if lhs != subword[lam]:
            return CheckReport(False, "subword", f"p_{lam.render()}: spin {lhs} != subword {subword[lam]}")
    return CheckReport(True, "subword")


# -- the symbolic form --------------------------------------------------------


@dataclass
class WTermSymbolic:
    """One of the m+1 summands: signed products over signed products, times q^q_power."""

    numerator: list[tuple[int, tuple[StrictPartition, ...]]]
    denominator: list[tuple[int, tuple[StrictPartition, ...]]]
    q_power: int


def symbolic_W(m: int) -> list[WTermSymbolic]:
    if m < 2:
        raise ValueError("symbolic_W needs m >= 2")
    terms = [
        WTermSymbolic(
            [(1, (pt.rho_plus(0, m),))], [(1, (pt.rho(0, m),))], 0
        )
    ]
    for l in range(1, m):
        terms.append(
            WTermSymbolic(
                [(s, (a, bb)) for s, a, bb in pt.numerator_terms(l, m)],
                [(s, (a, bb)) for s, a, bb in pt.denominator_terms(l, m)],
                0,
            )
        )
    terms.append(
        WTermSymbolic([(1, (pt.rho(m - 1, m),))], [(1, (pt.rho(m, m),))], 1)
    )
    return terms


def _render_product(factors: tuple[StrictPartition, ...], fmt: str) -> str:
    if fmt == "text":
        names = [f"p{lam.render()}" for lam in factors]
    else:
        names = ["p_{" + ",".join(str(x) for x in lam.parts) + "}" if lam.parts else r"p_{\emptyset}" for lam in factors]
    if len(names) == 2 and names[0] == names[1]:
        return names[0] + ("^2" if fmt == "text" else "^{2}")
    return "".join(names) if fmt == "text" else " ".join(names)


def _render_sum(terms: list[tuple[int, tuple[StrictPartition, ...]]], fmt: str) -> str:
    parts = []
    for k, (sign, factors) in enumerate(terms):
        body = _render_product(factors, fmt)
        if k == 0:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    return "".join(parts)


def render_text(terms: list[WTermSymbolic]) -> str:
    chunks = []
    for term in terms:
        num = _render_sum(term.numerator, "text")
        den = _render_sum(term.denominator, "text")
        if len(term.numerator) > 1:
            num = f"({num})"
        if len(term.denominator) > 1:
            den = f"({den})"
        body = f"{num}/{den}"
        if term.q_power:
            body = "q*" + body
        chunks.append(body)
    return " + ".join(chunks)


def render_latex(terms: list[WTermSymbolic]) -> str:
    chunks = []
    for term in terms:
        num = _render_sum(term.numerator, "latex")
        den = _render_sum(term.denominator, "latex")
        body = r"\frac{" + num + "}{" + den + "}"
        if term.q_power:
            body = r"q\," + body
        chunks.append(body)
    return " + ".join(chunks)


def render_json_terms(terms: list[WTermSymbolic]) -> list[dict]:
    def sum_json(items):
        return [
            {"sign": sign, "factors": [list(lam.parts) for lam in factors]}
            for sign, factors in items
        ]

    return [
        {"num": sum_json(t.numerator), "den": sum_json(t.denominator), "q_power": t.q_power}
        for t in terms
    ]
