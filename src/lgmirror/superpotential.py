"""The superpotential W_t in Pluecker coordinates and its Laurent form.

Pluecker coordinates are evaluated on the unipotent representative
u2bar (so p_empty = 1) by two independent algorithms: the spin-matrix
route and the reduced-subword route.  The m+1 terms of W_t are one
list, `symbolic_W(m)`: print-w renders it and eval_W evaluates it, and
term l sits over the divisor D_l.  The quadratic numerators and
denominators of the middle terms are signed sums over row
removals/additions of the staircase and maximal partitions, read from
lgmirror.partitions, each term with its sign.  Verification helpers check the
pullback identity W = W-tilde, the minor identities, the numerator
identity behind the e^t-term, and the agreement of the two Pluecker
routes, all exactly.

Both routes and both forms of W are written once, over plain numbers: each
route starts from the int 1 and every sum from the int 0, so they run on
ints, Fractions, QSqrt2 or (but for the division of W) `scalars.Laurent`
alike.  The verify helpers run them on integers, by the grading.  Let b be
rational, D the lcm of its denominators and a = D b (`scalars.lift`).  Then:
- each spin move takes a partition to one with one box fewer
  (`grouprep.spin_f_moves` checks its table against the move rule,
  which implies this), so the sweep at a gives
  P_lambda(a) = D^|lambda| p_lambda(b), an integer;
- the subword route is homogeneous the same way: a subword for lambda has
  |lambda| letters, and the complement subwords of N(b) have N - m;
- every product in a sum of W has the same size, and each term has
  deg N_l - deg D_l = 1, or 1 - (m+1) for the q-term (`symbolic_W` raises
  otherwise).  So W(t^|lambda| p; t^(m+1) q) = t W(p; q) term by term,
  and likewise W-tilde(t b; t^(m+1) q) = t W-tilde(b; q).
An identity at (b, q) is then an identity between integers, or between the
Fractions W and W-tilde at (a, D^(m+1) q), and a failing check reports its
values at (b, q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from lgmirror import grouprep as gr
from lgmirror import partitions as pt
from lgmirror import weyl as wy
from lgmirror.partitions import StrictPartition
from lgmirror.scalars import EXACT, Lift, QSqrt2, ScalarRing


class DivisorError(ZeroDivisionError):
    """Evaluation point lies on one of the divisors D_l."""

    def __init__(self, l: int):
        self.l = l
        super().__init__(f"denominator of the l={l} term vanishes (point on D_{l})")


# The `ring` of ring_vector, plucker_vector, eval_W, eval_denominator and
# eval_numerator selects nothing (EXACT is the only ScalarRing); callers may
# pass it.  Those functions compute in the numbers they are given: QSqrt2
# from ring_vector, ints from `scalars.lift` on the verify path.


def ring_vector(bs: Sequence[Fraction | int], ring: ScalarRing = EXACT) -> list[QSqrt2]:
    return [QSqrt2.from_fraction(Fraction(b)) for b in bs]


# -- Pluecker coordinates -----------------------------------------------------


def plucker_vector(b: list, m: int, ring: ScalarRing = EXACT) -> dict[StrictPartition, object]:
    """All 2^m Pluecker coordinates of u2bar(b), keyed by strict partition.

    Spin route: p_lambda is the (w_empty, w_lambda) entry of u2bar on
    V_Spin, read from one row sweep over its N sparse factors.
    """
    return dict(zip(pt.all_strict_partitions(m), gr.spin_row_sweep(b, m)))


def plucker_subword_vector(b: list, m: int) -> dict[StrictPartition, object]:
    """All 2^m Pluecker coordinates as sums of b-monomials over reduced subwords.

    Subword route: p_lambda is the sum, over the reduced subwords of the
    canonical word of w^P spelling the element of W^P indexed by lambda, of
    the product of the selected b's; one W^P dynamic programme gives all
    of them.
    """
    sums = wy.wp_subword_sums(wy.coordinate_word(b, m), b, m)
    return {lam: sums.get(s, 0) for lam, s in zip(pt.all_strict_partitions(m), pt.all_subsets(m))}


# -- the terms of W_t ---------------------------------------------------------

Product = tuple[StrictPartition, ...]


class WTermSymbolic(NamedTuple):
    """One of the m+1 summands: signed products over signed products, times q^q_power."""

    numerator: tuple[tuple[int, Product], ...]
    denominator: tuple[tuple[int, Product], ...]
    q_power: int


@lru_cache(maxsize=None)
def symbolic_W(m: int) -> tuple[WTermSymbolic, ...]:
    """The m+1 terms of W_t, term l over the divisor D_l: print-w renders
    them, eval_W evaluates them, and every caller shares them (frozen).

    Raises ArithmeticError unless the terms are graded as the lift to
    integers needs: every product in a sum has the same size, and each term
    has deg N_l - deg D_l = 1 - (m+1) q_power."""
    if m < 2:
        raise ValueError("symbolic_W needs m >= 2")
    middle = (
        WTermSymbolic(
            tuple((s, (a, bb)) for s, a, bb in pt.numerator_terms(l, m)),
            tuple((s, (a, bb)) for s, a, bb in pt.denominator_terms(l, m)),
            0,
        )
        for l in range(1, m)
    )
    terms = (
        WTermSymbolic(((1, (pt.rho_plus(0, m),)),), ((1, (pt.rho(0, m),)),), 0),
        *middle,
        WTermSymbolic(((1, (pt.rho(m - 1, m),)),), ((1, (pt.rho(m, m),)),), 1),
    )
    for l, term in enumerate(terms):
        if _degree(term.numerator) - _degree(term.denominator) != 1 - (m + 1) * term.q_power:
            raise ArithmeticError(f"term {l} of W for m={m} has the wrong degree")
    return terms


def _degree(items: tuple[tuple[int, Product], ...]) -> int:
    """The size of every product of a sum; raises ArithmeticError if two differ."""
    sizes = {sum(lam.size for lam in factors) for _, factors in items}
    if len(sizes) != 1:
        raise ArithmeticError(f"a sum of W mixes products of sizes {sorted(sizes)}")
    return sizes.pop()


def _eval_sum(items: tuple[tuple[int, Product], ...], p: dict):
    total = 0
    for sign, factors in items:
        prod = p[factors[0]]
        for lam in factors[1:]:
            prod = prod * p[lam]
        total = total + prod if sign > 0 else total - prod
    return total


def eval_denominator(l: int, p: dict, m: int, ring: ScalarRing = EXACT):
    """The denominator of term l of symbolic_W(m), the equation of D_l."""
    return _eval_sum(symbolic_W(m)[l].denominator, p)


def eval_numerator(l: int, p: dict, m: int, ring: ScalarRing = EXACT):
    """The numerator of term l of symbolic_W(m)."""
    return _eval_sum(symbolic_W(m)[l].numerator, p)


def _ratio(num, den):
    """num / den exactly: a Fraction for two ints, where `/` would round to a float."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def eval_W(q, p: dict, m: int, ring: ScalarRing = EXACT):
    """W_t at the point with Pluecker values p, with q = e^t: the terms of
    symbolic_W(m).  Raises DivisorError(l) at the first vanishing denominator."""
    total = 0
    for l, term in enumerate(symbolic_W(m)):
        den = _eval_sum(term.denominator, p)
        if not den:
            raise DivisorError(l)
        value = _ratio(_eval_sum(term.numerator, p), den)
        for _ in range(term.q_power):
            value = q * value
        total = total + value
    return total


def laurent_numerator(b: list, m: int):
    """N(b) = sum over complement subwords of the product of selected b's.

    The complement subwords are the reduced subwords spelling the element
    of W^P indexed by rho_{m-1}, so N(b) is that entry of the subword
    route, from the programme kept to the states that can reach it.
    """
    target = pt.to_subset(pt.rho(m - 1, m))
    return wy.wp_subword_sums(wy.coordinate_word(b, m), b, m, target).get(target, 0)


def eval_W_tilde(q, b: list, m: int):
    """The Laurent form: sum b_j + q N(b)/prod b_j."""
    prod = 1
    total = 0
    for bj in b:
        if not bj:
            raise ZeroDivisionError("W-tilde needs all torus coordinates nonzero")
        total = total + bj
        prod = prod * bj
    return total + q * _ratio(laurent_numerator(b, m), prod)


# -- verification reports -----------------------------------------------------


class CheckReport(NamedTuple):
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_theorem_w(m: int, q: Fraction, point: Lift, p: dict) -> CheckReport:
    """W = W-tilde at (b, q), by the grading: point = (a, D) lifts b, p is
    the spin route at a, and eval_W at p and the Laurent form at a are
    taken with D^(m+1) q.  Each is then D times its value at (b, q), so
    their exact equality is the identity at (b, q); raises TypeError unless
    both are int or Fraction, as a float could round two values alike."""
    a, d = point
    qd = q * d ** (m + 1)
    lhs = eval_W(qd, p, m)
    rhs = eval_W_tilde(qd, a, m)
    if not isinstance(lhs, (int, Fraction)) or not isinstance(rhs, (int, Fraction)):
        raise TypeError(f"W and W-tilde must be exact, got {type(lhs).__name__} and {type(rhs).__name__}")
    if lhs == rhs:
        return CheckReport(True)
    return CheckReport(False, f"W = {Fraction(lhs, d)} but W-tilde = {Fraction(rhs, d)}")


@lru_cache(maxsize=None)
def _minor_sums(m: int) -> tuple[tuple[int, tuple], ...]:
    """(j, ((D_(j) sum, e), (N_(j) sum, e + 1))) for j = 2..m: the sums of
    term m+1-j of symbolic_W(m) and the power of D in their windows,
    e = `grouprep.window_power(m, j)`.  Raises ArithmeticError unless each sum has
    the degree of its window's minor, as sum and minor are polynomials in b,
    homogeneous by the grading, that are to be equal."""
    terms, out = symbolic_W(m), []
    for j in range(2, m + 1):
        term, e = terms[m + 1 - j], gr.window_power(m, j)
        sides = ((term.denominator, e), (term.numerator, e + 1))
        if any(_degree(items) != power for items, power in sides):
            raise ArithmeticError(f"a sum of term {m + 1 - j} of W for m={m} has not the degree of its minor")
        out.append((j, sides))
    return tuple(out)


def verify_sym_to_minors(m: int, p: dict, u2: gr.U2bar) -> list[tuple[int, CheckReport]]:
    """[(j, report)], j = 2..m: the two quadratic sums in the Pluecker values
    against (m+1)x(m+1) minors of u2bar at the same point b: u2 = (g, D) is
    `build_u2bar(lift(b))` and p the spin route at the lift D b.

    The D_(j) sum equals the minor with rows m+1..2m+1 and columns
    j..j+m, and the N_(j) sum the one with columns {j-1} u {j+1..j+m}:
    these are the minors pairing with v^wedge_(j) and v^wedge_(j),+ in the
    standard degree-(m+1) embedding, and the reading under which the
    identities hold for every m (the printed column sets are their images
    under j -> m+2-j, which agree only at m = 2).  All of them come from
    one `grouprep.window_minors` elimination, as integers.  A sum of
    products of size k at D b is D^k times the sum at b, and a window D^e
    times its minor, with k = e (`_minor_sums`), so each side is decided
    as an equality of integers; a failing side reports both at b.
    """
    minors, d, out = gr.window_minors(u2), u2[1], []
    for j, sides in _minor_sums(m):
        for side, (items, e), window in zip("DN", sides, minors[j]):
            if (total := _eval_sum(items, p)) != window:
                rep = CheckReport(False, f"{side} side: sum {Fraction(total, d**e)} != minor {Fraction(window, d**e)}")
                break
        else:
            rep = CheckReport(True)
        out.append((j, rep))
    return out


def verify_fj_minors(m: int, u2: gr.U2bar) -> list[tuple[int, CheckReport]]:
    """[(j, report)], j = 1..m-1: f_j*(u2bar) (u2 = (g, D) from
    `grouprep.build_u2bar`) as the ratio of the minors on rows m+1..2m+1
    and columns {j} u {j+2..j+m+1} over j+1..j+m+1, the N and D windows at
    j+1 of one `grouprep.window_minors` elimination, plus the vanishing
    minor behind it, with row j+1 added, by its own `grouprep.minor`.
    All on integers: f_j* is g_(j+1,j) over D and the windows are D^e and
    D^(e+1) times their minors, so the ratio holds exactly when
    g_(j+1,j) den = num, and the vanishing minor is 0 exactly when its
    determinant on g is; a failing record reports the values at b."""
    g, d = u2
    minors, out = gr.window_minors(u2), []
    rows = list(range(m + 1, 2 * m + 2))
    for j in range(1, m):
        den, num = minors[j + 1]
        if not den or g[j][j - 1] * den != num:
            e = gr.window_power(m, j + 1)
            rep = CheckReport(False, f"f_{j}* = {gr.extract_f_coeff(u2, j)}, minors {Fraction(num, d ** (e + 1))}/{Fraction(den, d**e)}")
        elif vanishing := gr.minor(u2, [j + 1] + rows, cols := list(range(j, j + m + 2))):
            rep = CheckReport(False, f"vanishing minor is {Fraction(vanishing, d ** (j + 1 + sum(rows) - sum(cols)))}")
        else:
            rep = CheckReport(True)
        out.append((j, rep))
    return out


def verify_em_formula(m: int, point: Lift, p: dict) -> CheckReport:
    """N(b) p_{rho_m} = p_{rho_{m-1}} prod(b): the two e^t-term expressions
    agree.  point = (a, D) lifts b and p is the spin route at a; both sides
    have degree 2N - m, so they are compared as integers at a."""
    a, d = point
    prod = 1
    for x in a:
        prod *= x
    lhs = laurent_numerator(a, m) * p[pt.rho(m, m)]
    rhs = p[pt.rho(m - 1, m)] * prod
    if lhs == rhs:
        return CheckReport(True)
    scale = d ** (2 * len(a) - m)
    return CheckReport(False, f"{Fraction(lhs, scale)} != {Fraction(rhs, scale)}")


def verify_subword_route(m: int, point: Lift, p: dict) -> CheckReport:
    """Every Pluecker coordinate p of the spin route against the subword
    route, both at a for point = (a, D) the lift of b: integers, each
    D^|lambda| times its value at b."""
    a, d = point
    subword = plucker_subword_vector(a, m)
    for lam, lhs in p.items():
        if lhs != subword[lam]:
            scale = d ** lam.size
            spin, other = Fraction(lhs, scale), Fraction(subword[lam], scale)
            return CheckReport(False, f"p_{lam.render()}: spin {spin} != subword {other}")
    return CheckReport(True)


# -- rendering the terms of W_t ----------------------------------------------


def _render_product(factors: Product, fmt: str) -> str:
    if fmt == "text":
        names = [f"p{lam.render()}" for lam in factors]
    else:
        names = ["p_{" + ",".join(str(x) for x in lam.parts) + "}" if lam.parts else r"p_{\emptyset}" for lam in factors]
    if len(names) == 2 and names[0] == names[1]:
        return names[0] + ("^2" if fmt == "text" else "^{2}")
    return "".join(names) if fmt == "text" else " ".join(names)


def _render_sum(terms: tuple[tuple[int, Product], ...], fmt: str) -> str:
    parts = []
    for k, (sign, factors) in enumerate(terms):
        body = _render_product(factors, fmt)
        if k == 0:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    return "".join(parts)


def render_text(terms: Sequence[WTermSymbolic]) -> str:
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


def render_latex(terms: Sequence[WTermSymbolic]) -> str:
    chunks = []
    for term in terms:
        num = _render_sum(term.numerator, "latex")
        den = _render_sum(term.denominator, "latex")
        body = r"\frac{" + num + "}{" + den + "}"
        if term.q_power:
            body = r"q\," + body
        chunks.append(body)
    return " + ".join(chunks)


def render_json_terms(terms: Sequence[WTermSymbolic]) -> list[dict]:
    def sum_json(items):
        return [
            {"sign": sign, "factors": [list(lam.parts) for lam in factors]}
            for sign, factors in items
        ]

    return [
        {"num": sum_json(t.numerator), "den": sum_json(t.denominator), "q_power": t.q_power}
        for t in terms
    ]
