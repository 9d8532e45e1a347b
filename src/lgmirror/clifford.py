"""Clifford algebra of the (2m+1)-dimensional quadratic space and its spin module.

Basis vectors are indexed 1..2m+1 with bar(j) = 2m+2-j; the bilinear
pairing is <v_i, v_{2m+2-i}> = epsilon(i) = (-1)^{m+1-i}, so the defining
relations are  v_i vbar_i + vbar_i v_i = epsilon(i),  v_{m+1}^2 = 1/2,
all other generator pairs anticommuting.  The module provides

* sparse Clifford elements with exact Q(sqrt2) coefficients and the
  normalization-based product,
* the exterior algebra and the antisymmetrization isomorphism alpha
  (Chevalley's quantization map) with its inverse, both one closed-form
  Wick sum over the pairs {i, bar(i)} of a monomial,
* the spin representation on subsets of {1..m} and the induced
  identification of either parity of Cl(V) with End(V_Spin); its inverse
  writes each matrix unit monomial by monomial, with no Clifford product,
  and moves a unit across parity by v_{m+1},
* the duality delta, the symmetric-square embedding iota, and the
  projection pi : Sym^2(V_Spin) -> wedge^{m+1} V built from the maps
  pr, c, d, all over exact scalars,
* the elements D_(j), N_(j) of Sym^2(V_Spin) that encode the quadratic
  denominators and numerators of the superpotential, built from the
  signed partition pairs of lgmirror.partitions.

Every container is a `Combination`: a sparse linear combination that keeps
no zero coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TypeVar

from lgmirror import partitions as pt
from lgmirror.partitions import StrictPartition
from lgmirror.scalars import QS2_ONE, QSqrt2

Subset = tuple[int, ...]

_SQRT2 = QSqrt2.sqrt2()


def epsilon(i: int, m: int) -> int:
    """(-1)^{m+1-i}; valid for every index 1..2m+1 (epsilon(2m+2-i) = epsilon(i))."""
    return -1 if (m + 1 - i) % 2 else 1


def bar(j: int, m: int) -> int:
    return 2 * m + 2 - j


def pairing(i: int, j: int, m: int) -> Fraction:
    """Phi(v_i, v_j) = epsilon(i)/2 when j = bar(i), else 0."""
    if i + j == 2 * m + 2:
        return Fraction(epsilon(i, m), 2)
    return Fraction(0)


# -- sparse linear combinations ---------------------------------------------


C = TypeVar("C", bound="Combination")


@dataclass
class Combination:
    """Sparse linear combination: key -> nonzero Q(sqrt2) coefficient.

    `+`, `-` and `scale` return the caller's class with its other fields
    unchanged; equality is the dataclass one (same class, equal fields).
    """

    m: int
    coeffs: dict = field(default_factory=dict)

    def _canonical(self, key):
        """The one spelling of a key that has several (overridden by SymSquare)."""
        return key

    def add_term(self, key, c) -> None:
        """Add c to the coefficient of key, dropping it if the sum is zero."""
        key = self._canonical(key)
        cur = self.coeffs.get(key)
        new = c if cur is None else cur + c
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)

    def __add__(self: C, other: C) -> C:
        out = replace(self, coeffs=dict(self.coeffs))
        for k, c in other.coeffs.items():
            out.add_term(k, c)
        return out

    def __sub__(self: C, other: C) -> C:
        out = replace(self, coeffs=dict(self.coeffs))
        for k, c in other.coeffs.items():
            out.add_term(k, -c)
        return out

    def scale(self: C, c) -> C:
        if not c:
            return replace(self, coeffs={})
        return replace(self, coeffs={k: v * c for k, v in self.coeffs.items()})


# -- Clifford elements -------------------------------------------------------


class CliffordElement(Combination):
    """Sparse sum of ordered monomials v_S, S an ascending subset of 1..2m+1,
    with Q(sqrt2) coefficients."""


def cl_monomial(indices: Subset, m: int, c: QSqrt2 = QS2_ONE) -> CliffordElement:
    """The ordered product over the given index sequence (not necessarily sorted)."""
    out = CliffordElement(m)
    for key, coeff in _normalize(tuple(indices), m):
        out.add_term(key, c * QSqrt2.from_fraction(coeff))
    return out


def _normalize(word: tuple[int, ...], m: int) -> list[tuple[Subset, Fraction]]:
    """Rewrite an arbitrary generator word as a sum of ascending monomials."""
    out: dict[Subset, Fraction] = {}
    stack: list[tuple[Fraction, tuple[int, ...]]] = [(Fraction(1), word)]
    while stack:
        coeff, w = stack.pop()
        pos = next((i for i in range(len(w) - 1) if w[i] >= w[i + 1]), None)
        if pos is None:
            out[w] = out.get(w, Fraction(0)) + coeff
            continue
        a, b = w[pos], w[pos + 1]
        if a == b:
            # v_a^2 = Phi(v_a, v_a)
            stack.append((coeff * pairing(a, a, m), w[:pos] + w[pos + 2:]))
            continue
        # v_a v_b = 2 Phi(a,b) - v_b v_a
        phi = pairing(a, b, m)
        if phi:
            stack.append((coeff * 2 * phi, w[:pos] + w[pos + 2:]))
        stack.append((-coeff, w[:pos] + (b, a) + w[pos + 2:]))
    return [(k, v) for k, v in out.items() if v]


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    m = x.m
    out = CliffordElement(m)
    for kx, cx in x.coeffs.items():
        for ky, cy in y.coeffs.items():
            c = cx * cy
            for key, coeff in _normalize(kx + ky, m):
                out.add_term(key, c * QSqrt2.from_fraction(coeff))
    return out


def commutator(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    return clifford_mul(x, y) - clifford_mul(y, x)


# -- exterior algebra ---------------------------------------------------------


class ExteriorElement(Combination):
    """Sparse multivector: ascending wedge monomials with Q(sqrt2) coefficients."""

    def degree_part(self, k: int) -> ExteriorElement:
        return ExteriorElement(self.m, {s: c for s, c in self.coeffs.items() if len(s) == k})


def wedge_monomial(indices: Subset, m: int, c: QSqrt2 = QS2_ONE) -> ExteriorElement:
    """v_{i_1} ^ ... ^ v_{i_k} for distinct indices, sorted with the sorting sign."""
    out = ExteriorElement(m)
    if len(set(indices)) == len(indices):
        out.add_term(tuple(sorted(indices)), c if _perm_sign(indices) > 0 else -c)
    return out


def _perm_sign(seq: Subset) -> int:
    """Sign of the permutation that sorts the distinct entries of seq."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def antisymmetrize(x: ExteriorElement) -> CliffordElement:
    """The Chevalley quantization map alpha: wedge V -> Cl(V), by `_wick`."""
    return _apply_wick(x, CliffordElement(x.m), -1)


def antisymmetrize_inv(x: CliffordElement) -> ExteriorElement:
    """The inverse of `antisymmetrize`, by `_wick`."""
    return _apply_wick(x, ExteriorElement(x.m), 1)


def _apply_wick(x: Combination, out: C, sign: int) -> C:
    for key, c in x.coeffs.items():
        for mono, coeff in _wick(key, x.m, sign):
            out.add_term(mono, c * QSqrt2.from_fraction(coeff))
    return out


@lru_cache(maxsize=None)
def _wick(key: Subset, m: int, sign: int) -> tuple[tuple[Subset, Fraction], ...]:
    """Wick's theorem on the monomial `key`: alpha^{-1} (sign +1) or alpha (sign -1).

    The only pairs of `key` with Phi != 0 are {i, bar(i)}, i <= m.  Over the
    sets P of such pairs the image is the sum of
    sign^{|P|} sgn(P || key - P) prod_{i in P} Phi(v_i, v_bar(i)) times the
    monomial key - P, where P || key - P lays the pairs out first.
    """
    pairs = [(i, bar(i, m)) for i in key if i <= m and bar(i, m) in key]
    terms = []
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            head = tuple(k for pair in chosen for k in pair)
            rest = tuple(k for k in key if k not in head)
            c = Fraction(sign**r * _perm_sign(head + rest))
            for i, j in chosen:
                c *= pairing(i, j, m)
            terms.append((rest, c))
    return tuple(terms)


# -- the spin representation --------------------------------------------------


@dataclass
class SpinVector(Combination):
    """Element of wedge W, W = <v_1..v_m>: subset -> Q(sqrt2) coefficient.

    `dual` marks covectors; delta() produces them and iota() consumes them.
    """

    dual: bool = False


def basis_vector(subset: Subset, m: int) -> SpinVector:
    return SpinVector(m, {tuple(sorted(subset)): QS2_ONE})


def basis_vector_of(lam: StrictPartition) -> SpinVector:
    return basis_vector(pt.to_subset(lam), lam.m)


def spin_generator_action(k: int, vec: SpinVector) -> SpinVector:
    """Action of the Clifford generator v_k on the spin module.

    v_i creates, v_{m+1} scales by (-1)^{|I|}/sqrt2, vbar_j inserts via the
    linear form 2 Phi(vbar_j, .) on W.  Exact scalars only (sqrt2 appears).
    """
    m = vec.m
    out = SpinVector(m, {}, vec.dual)
    inv_sqrt2 = QSqrt2(0, Fraction(1, 2))
    for key, c in vec.coeffs.items():
        if k <= m:
            if k in key:
                continue
            smaller = sum(1 for i in key if i < k)
            sign = -1 if smaller % 2 else 1
            c2 = c if sign > 0 else -c
            out.add_term(tuple(sorted(key + (k,))), c2)
        elif k == m + 1:
            c2 = c * inv_sqrt2
            out.add_term(key, c2 if len(key) % 2 == 0 else -c2)
        else:
            j = bar(k, m)
            if j not in key:
                continue
            pos = key.index(j)
            sign = (-1 if pos % 2 else 1) * epsilon(j, m)
            c2 = c if sign > 0 else -c
            out.add_term(tuple(i for i in key if i != j), c2)
    return out


def spin_apply(x: CliffordElement, vec: SpinVector) -> SpinVector:
    m = x.m
    out = SpinVector(m, {}, vec.dual)
    for key, c in x.coeffs.items():
        cur = vec
        for k in reversed(key):
            cur = spin_generator_action(k, cur)
            if not cur.coeffs:
                break
        for s, cc in cur.coeffs.items():
            out.add_term(s, cc * c)
    return out


# -- End(V_Spin) --------------------------------------------------------------


class EndSpin(Combination):
    """Sparse 2^m x 2^m endomorphism, keys (row subset, col subset)."""

    def compose(self, other: EndSpin) -> EndSpin:
        """Matrix product self . other."""
        by_row: dict[Subset, list[tuple[Subset, object]]] = {}
        for (r, c), v in other.coeffs.items():
            by_row.setdefault(r, []).append((c, v))
        out = EndSpin(self.m)
        for (r, mid), v in self.coeffs.items():
            for c, w in by_row.get(mid, ()):
                out.add_term((r, c), v * w)
        return out

    def commutator(self, other: EndSpin) -> EndSpin:
        return self.compose(other) - other.compose(self)

    def apply(self, vec: SpinVector) -> SpinVector:
        out = SpinVector(self.m, {}, vec.dual)
        for (r, c), v in self.coeffs.items():
            coeff = vec.coeffs.get(c)
            if coeff is not None:
                out.add_term(r, v * coeff)
        return out


def end_identity(m: int) -> EndSpin:
    out = EndSpin(m)
    for s in pt.all_subsets(m):
        out.add_term((s, s), QS2_ONE)
    return out


def clifford_to_end(x: CliffordElement) -> EndSpin:
    """The spin action as a matrix; an algebra isomorphism on either parity."""
    m = x.m
    out = EndSpin(m)
    for col in pt.all_subsets(m):
        image = spin_apply(x, basis_vector(col, m))
        for row, c in image.coeffs.items():
            out.add_term((row, col), c)
    return out


# matrix units as Clifford elements: E_{L',L} maps w_L -> w_{L'} and every
# other w_I to 0.  With eps(i) vbar_i v_i = 1 - eps(i) v_i vbar_i and
# v_i^2 = vbar_i^2 = 0, the product prod_{l in L} eps(l) v_{L'} prod_i (eps(i) vbar_i v_i)
# prod_{l in L desc} vbar_l expands to a sum over T in [m] - (L u L') of
# prod_{l in L} eps(l) prod_{i in T} (-eps(i)) v_{w_T}, where the word
# w_T = (L' asc)(i, ibar for i in T asc)(lbar for l in L desc) has distinct
# indices and no ibar before its i: its normal order costs the sorting sign only.


@lru_cache(maxsize=None)
def _matrix_unit_clifford(row: Subset, col: Subset, m: int, lift: bool) -> tuple[tuple[Subset, int], ...]:
    """The monomials of E_{row,col}, or of (-1)^{|row|} v_{m+1} E_{row,col}
    if `lift`, with their coefficients +-1."""
    sign = -1 if lift and len(row) % 2 else 1
    for l in col:
        sign *= epsilon(l, m)
    head = ((m + 1,) if lift else ()) + tuple(sorted(row))
    tail = tuple(bar(l, m) for l in sorted(col, reverse=True))
    free = [i for i in range(1, m + 1) if i not in row and i not in col]
    terms = []
    for r in range(len(free) + 1):
        for chosen in combinations(free, r):
            word = head + tuple(k for i in chosen for k in (i, bar(i, m))) + tail
            c = sign * _perm_sign(word)
            for i in chosen:
                c *= -epsilon(i, m)
            terms.append((tuple(sorted(word)), c))
    return tuple(terms)


def end_to_clifford(mat: EndSpin, parity: int) -> CliffordElement:
    """The unique preimage of `mat` in Cl^{parity}(V) under the spin action.

    The sum of v E_{L',L} over the entries v of `mat`.  Where the parity
    |L| + |L'| of E_{L',L} is the other one, sqrt2 (-1)^{|L'|} v_{m+1} E_{L',L}
    takes its place: v_{m+1} acts on w_I by (-1)^{|I|}/sqrt2.
    """
    m = mat.m
    out = CliffordElement(m)
    for (row, col), v in mat.coeffs.items():
        if not isinstance(v, QSqrt2):
            raise TypeError("end_to_clifford needs exact entries")
        lift = (len(row) + len(col)) % 2 != parity
        if lift:
            v = v * _SQRT2
        for key, c in _matrix_unit_clifford(row, col, m, lift):
            out.add_term(key, v if c > 0 else -v)
    return out


# -- duality, Sym^2 and the projection pi ------------------------------------


def delta(vec: SpinVector) -> SpinVector:
    """w_lambda -> (-1)^{|lambda|} w*_{PD(lambda)} extended linearly."""
    if vec.dual:
        raise ValueError("delta is defined on V_Spin, not its dual")
    m = vec.m
    out = SpinVector(m, {}, dual=True)
    for key, c in vec.coeffs.items():
        lam = pt.from_subset(key, m)
        dual_key = pt.to_subset(pt.pd(lam))
        out.add_term(dual_key, c if lam.size % 2 == 0 else -c)
    return out


class SymSquare(Combination):
    """Element of Sym^2(V_Spin): unordered subset pairs -> coefficient."""

    def _canonical(self, key: tuple[Subset, Subset]) -> tuple[Subset, Subset]:
        a, b = key
        return (a, b) if a <= b else (b, a)


def sym_pair(lam: StrictPartition, mu_: StrictPartition, c=QS2_ONE) -> SymSquare:
    out = SymSquare(lam.m)
    out.add_term((pt.to_subset(lam), pt.to_subset(mu_)), c)
    return out


def iota(x: SymSquare) -> EndSpin:
    """Sym^2(V_Spin) -> End(V_Spin): lambda.mu -> (delta(w_lam) ox w_mu + delta(w_mu) ox w_lam)/2."""
    m = x.m
    half = QSqrt2.from_fraction(Fraction(1, 2))
    out = EndSpin(m)
    for (a, b), c in x.coeffs.items():
        for first, second in ((a, b), (b, a)):
            dual = delta(basis_vector(first, m))
            for dual_key, dc in dual.coeffs.items():
                # w*_{dual_key} ox w_{second}: matrix entry (row=second, col=dual_key)
                out.add_term((tuple(second), dual_key), c * dc * half)
    return out


def _signed_sym_sum(name: str, j: int, m: int, terms) -> SymSquare:
    if not 2 <= j <= m:
        raise ValueError(f"{name}_(j) needs 2 <= j <= m, got j={j}, m={m}")
    out = SymSquare(m)
    for sign, lam, mu_ in terms(m + 1 - j, m):
        out.add_term((pt.to_subset(lam), pt.to_subset(mu_)), QSqrt2(sign))
    return out


def build_D(j: int, m: int) -> SymSquare:
    """D_(j) = sum_I sign(I) w_{rho_{m+1-j}^I} w_{mu_{m+1-j}^I}, I subset of {1..m+1-j}."""
    return _signed_sym_sum("D", j, m, pt.denominator_terms)


def build_N(j: int, m: int) -> SymSquare:
    """N_(j): same sum with rho_{m+1-j,+}^I and mu_{m+1-j,+}^I."""
    return _signed_sym_sum("N", j, m, pt.numerator_terms)


def wedge_v(j: int, m: int) -> ExteriorElement:
    """v^wedge_(j) = v_j ^ ... ^ v_{j+m}."""
    return wedge_monomial(tuple(range(j, j + m + 1)), m)


def wedge_v_plus(j: int, m: int) -> ExteriorElement:
    """v^wedge_(j),+ = v_{j-1} ^ v_{j+1} ^ ... ^ v_{j+m}."""
    return wedge_monomial((j - 1,) + tuple(range(j + 1, j + m + 1)), m)


def contract_with_top_form(x: ExteriorElement) -> ExteriorElement:
    """The map c: wedge^m V -> wedge^{m+1} V*, contraction with
    (-1)^{m(m+1)/2} v*_1 ^ ... ^ v*_{2m+1}.

    Output monomials are indexed by the starred basis (represented with the
    same subset keys).  On a basis m-vector v_S the image is the signed
    complementary covector, the sign being the shuffle sign of (S, S^c)
    times the global (-1)^{m(m+1)/2}.
    """
    m = x.m
    n = 2 * m + 1
    global_sign = -1 if (m * (m + 1) // 2) % 2 else 1
    out = ExteriorElement(m)
    for key, c in x.coeffs.items():
        if len(key) != m:
            raise ValueError("contract_with_top_form expects pure degree m input")
        comp = tuple(i for i in range(1, n + 1) if i not in key)
        sign = global_sign * _perm_sign(key + comp)
        out.add_term(comp, c if sign > 0 else -c)
    return out


def star_to_vectors(x: ExteriorElement) -> ExteriorElement:
    """The map d: wedge^{m+1} V* -> wedge^{m+1} V via v*_k = epsilon(k) v_{2m+2-k}."""
    m = x.m
    out = ExteriorElement(m)
    for key, c in x.coeffs.items():
        sign = 1
        for k in key:
            sign *= epsilon(k, m)
        # images 2m+2-k arrive in descending order; reversing k elements
        k_len = len(key)
        if (k_len * (k_len - 1) // 2) % 2:
            sign = -sign
        out.add_term(tuple(sorted(bar(k, m) for k in key)), c if sign > 0 else -c)
    return out


# -- generator actions on every stage of the pi pipeline ----------------------


def generator_clifford(i: int, kind: str, m: int) -> CliffordElement:
    """The Chevalley generator e_i or f_i as an element of wedge^2 V in Cl(V):
    e_i = eps(i+1) v_i vbar_{i+1}, e_m = sqrt2 v_m v_{m+1}, f_i mirrored."""
    if not 1 <= i <= m or kind not in ("e", "f"):
        raise ValueError(f"no generator {kind}_{i} for m={m}")
    if kind == "e":
        if i < m:
            return cl_monomial((i, bar(i + 1, m)), m, QSqrt2(epsilon(i + 1, m)))
        return cl_monomial((m, m + 1), m, QSqrt2.sqrt2())
    if i < m:
        return cl_monomial((i + 1, bar(i, m)), m, QSqrt2(epsilon(i, m)))
    return cl_monomial((bar(m, m), m + 1), m, QSqrt2.sqrt2())


def vector_action(gen: CliffordElement, m: int) -> dict[int, dict[int, QSqrt2]]:
    """Action of a wedge^2 element on V by Clifford commutator, as sparse columns
    {k: {j: coeff of v_j in gen.v_k}}."""
    cols: dict[int, dict[int, QSqrt2]] = {}
    for k in range(1, 2 * m + 2):
        img = commutator(gen, cl_monomial((k,), m))
        col = {}
        for key, c in img.coeffs.items():
            if len(key) != 1:
                raise ArithmeticError("commutator with a vector left degree 1")
            col[key[0]] = c
        if col:
            cols[k] = col
    return cols


def exterior_generator_action(gen: CliffordElement, x: ExteriorElement) -> ExteriorElement:
    """Derivation action on wedge V induced from the vector action."""
    m = x.m
    cols = vector_action(gen, m)
    out = ExteriorElement(m)
    for key, c in x.coeffs.items():
        for pos, k in enumerate(key):
            for j, coeff in cols.get(k, {}).items():
                replaced = key[:pos] + (j,) + key[pos + 1:]
                for mono, c2 in wedge_monomial(replaced, m, c * coeff).coeffs.items():
                    out.add_term(mono, c2)
    return out


def spin_generator_matrix(i: int, kind: str, m: int) -> EndSpin:
    return clifford_to_end(generator_clifford(i, kind, m))


def sym_square_action(gen: CliffordElement, x: SymSquare) -> SymSquare:
    """Derivation action on Sym^2(V_Spin): g.(a b) = (g a) b + a (g b)."""
    m = x.m
    out = SymSquare(m)
    for (a, b), c in x.coeffs.items():
        for first, second in ((a, b), (b, a)):
            img = spin_apply(gen, basis_vector(first, m))
            for key, coeff in img.coeffs.items():
                out.add_term((key, second), c * coeff)
    return out


def dual_spin_action(gen: CliffordElement, vec: SpinVector) -> SpinVector:
    """Contragredient action on V_Spin*: (g.phi)(v) = -phi(g.v)."""
    if not vec.dual:
        raise ValueError("dual_spin_action needs a dual vector")
    m = vec.m
    mat = clifford_to_end(gen)
    out = SpinVector(m, {}, dual=True)
    for (row, col), v in mat.coeffs.items():
        coeff = vec.coeffs.get(row)
        if coeff is not None:
            out.add_term(col, -(v * coeff))
    return out


def pr_kappa_iota(x: SymSquare) -> ExteriorElement:
    """pr_{wedge^m} . kappa_{+-}^{-1} . iota, the first three stages of pi."""
    parity = x.m % 2
    cl = end_to_clifford(iota(x), parity)
    return antisymmetrize_inv(cl).degree_part(x.m)


def pi_map(x: SymSquare) -> ExteriorElement:
    """pi = d . c . pr_{wedge^m} . kappa_{+-}^{-1} . iota : Sym^2(V_Spin) -> wedge^{m+1} V."""
    return star_to_vectors(contract_with_top_form(pr_kappa_iota(x)))
