"""Clifford algebra of the (2m+1)-dimensional quadratic space and its spin module.

Basis vectors are indexed 1..2m+1 with bar(j) = 2m+2-j and epsilon(i) =
(-1)^{m+1-i}.  Where the paper has Phi(v_i, v_bar(i)) = epsilon(i)/2 and
v_{m+1}^2 = 1/2, index m+1 here is u = sqrt2 v_{m+1} (the conjugation S of
`grouprep.build_u2bar`): v_i vbar_i + vbar_i v_i = epsilon(i), u^2 = 1, all
other pairs anticommute, u acts on w_I by (-1)^{|I|}, e_m = v_m u and f_m =
vbar_m u have coefficient 1, a matrix unit crosses parity as (-1)^{|L'|} u
E_{L',L}, and every coefficient is an int or a Fraction.  The rescaling
shows once: `contract_to_vectors` doubles a monomial containing u, so it is
sqrt2 times the paper's d . c, and pi(D_(j)) = u_j ^ ... ^ u_{j+m} is
exactly the paper's pi(D_(j)) = v^wedge_(j), as v_{m+1} = u/sqrt2 (likewise
for N_(j)).  The module provides

* sparse Clifford elements with rational coefficients, a generator word
  brought to normal order by the defining relations,
* the exterior algebra and the inverse of the antisymmetrization
  isomorphism alpha (Chevalley's quantization map), one closed-form Wick
  sum over the pairs {i, bar(i)} of a monomial,
* the spin representation on subsets of {1..m} and the induced
  identification of either parity of Cl(V) with End(V_Spin); its inverse
  writes each matrix unit monomial by monomial, with no Clifford product,
  and moves a unit across parity by u,
* the duality delta, the symmetric-square embedding iota, and the
  projection pi : Sym^2(V_Spin) -> wedge^{m+1} V built from the maps
  pr and d . c (one map: contraction with the top form, then covectors
  back to vectors), all over Q,
* the elements D_(j), N_(j) of Sym^2(V_Spin) that encode the quadratic
  denominators and numerators of the superpotential, built from the
  signed partition pairs of lgmirror.partitions.

Every container is a `scalars.Combination`: a sparse linear combination
that keeps no zero coefficient.  The module holds what the pi pipeline and
the spin tables run; the Clifford product, alpha itself and the generator
actions on V, wedge V, Sym^2(V_Spin) and the dual module are the test
oracles of tests/cliffordops.py.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import combinations

from lgmirror import partitions as pt
from lgmirror.scalars import Combination

Subset = tuple[int, ...]


def epsilon(i: int, m: int) -> int:
    """(-1)^{m+1-i}; valid for every index 1..2m+1 (epsilon(2m+2-i) = epsilon(i))."""
    return -1 if (m + 1 - i) % 2 else 1


def bar(j: int, m: int) -> int:
    return 2 * m + 2 - j


def pairing(i: int, j: int, m: int) -> Fraction:
    """Phi(v_i, v_j) = epsilon(i)/2 when j = bar(i) != i, Phi(u, u) = 1, else 0."""
    if i + j != 2 * m + 2:
        return Fraction(0)
    return Fraction(1) if i == j else Fraction(epsilon(i, m), 2)


# -- Clifford elements -------------------------------------------------------


class CliffordElement(Combination):
    """Sparse sum of ordered monomials v_S, S an ascending subset of 1..2m+1,
    with rational coefficients."""


def cl_monomial(indices: Subset, m: int, c=1) -> CliffordElement:
    """The ordered product over the given index sequence (not necessarily sorted)."""
    out = CliffordElement(m)
    for key, coeff in _normalize(tuple(indices), m):
        out.add_term(key, c * coeff)
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


# -- exterior algebra ---------------------------------------------------------


class ExteriorElement(Combination):
    """Sparse multivector: ascending wedge monomials with rational coefficients."""

    def degree_part(self, k: int) -> ExteriorElement:
        return ExteriorElement(self.m, {s: c for s, c in self.coeffs.items() if len(s) == k})


def wedge_monomial(indices: Subset, m: int, c=1) -> ExteriorElement:
    """v_{i_1} ^ ... ^ v_{i_k} for distinct indices, sorted with the sorting sign."""
    out = ExteriorElement(m)
    if len(set(indices)) == len(indices):
        out.add_term(tuple(sorted(indices)), c if _perm_sign(indices) > 0 else -c)
    return out


def _perm_sign(seq: Subset) -> int:
    """Sign of the permutation that sorts the distinct entries of seq."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def antisymmetrize_inv(x: CliffordElement) -> ExteriorElement:
    """The inverse of the Chevalley quantization map alpha: wedge V -> Cl(V), by `_wick`."""
    out = ExteriorElement(x.m)
    for key, c in x.coeffs.items():
        for mono, coeff in _wick(key, x.m, 1):
            out.add_term(mono, c * coeff)
    return out


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


class SpinVector(Combination):
    """Element of wedge W, W = <v_1..v_m>: subset -> rational coefficient.

    `dual` marks covectors; delta() produces them and iota() consumes them.
    """

    def __init__(self, m: int, coeffs: dict | None = None, dual: bool = False) -> None:
        super().__init__(m, coeffs)
        self.dual = dual


def basis_vector(subset: Subset, m: int) -> SpinVector:
    return SpinVector(m, {tuple(sorted(subset)): 1})


def spin_generator_action(k: int, vec: SpinVector) -> SpinVector:
    """Action of the Clifford generator v_k on the spin module.

    v_i creates, u scales by (-1)^{|I|}, vbar_j inserts via the linear form
    2 Phi(vbar_j, .) on W.
    """
    m = vec.m
    out = SpinVector(m, {}, vec.dual)
    for key, c in vec.coeffs.items():
        if k <= m:
            if k in key:
                continue
            smaller = sum(1 for i in key if i < k)
            out.add_term(tuple(sorted(key + (k,))), -c if smaller % 2 else c)
        elif k == m + 1:
            out.add_term(key, c if len(key) % 2 == 0 else -c)
        else:
            j = bar(k, m)
            if j not in key:
                continue
            sign = (-1 if key.index(j) % 2 else 1) * epsilon(j, m)
            out.add_term(tuple(i for i in key if i != j), c if sign > 0 else -c)
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
# That sign is sgn((L' asc)(lbar for l in L desc)) times one sign for each pair
# (i, ibar) of T, from its inversions with those two runs: the head entries
# above i (none exceeds ibar) and the tail entries below ibar (none is below
# i).  For pairs i < k, ibar exceeds both k and kbar and i neither, so two
# pairs cross twice.


def _matrix_unit_clifford(row: Subset, col: Subset, m: int, lift: bool) -> tuple[tuple[Subset, int], ...]:
    """The monomials of E_{row,col}, or of (-1)^{|row|} u E_{row,col} if
    `lift`, with their coefficients +-1."""
    sign = -1 if lift and len(row) % 2 else 1
    for l in col:
        sign *= epsilon(l, m)
    head = ((m + 1,) if lift else ()) + tuple(sorted(row))
    tail = tuple(bar(l, m) for l in sorted(col, reverse=True))
    sign *= _perm_sign(head + tail)
    free = [i for i in range(1, m + 1) if i not in row and i not in col]
    factor = {}  # i -> -eps(i) times the sign of the pair (i, ibar) between head and tail
    for i in free:
        crossings = sum(h > i for h in head) + sum(t < bar(i, m) for t in tail)
        factor[i] = epsilon(i, m) * (1 if crossings % 2 else -1)
    terms = []
    for r in range(len(free) + 1):
        for chosen in combinations(free, r):
            c = sign
            for i in chosen:
                c *= factor[i]
            terms.append((tuple(sorted(head + tail + tuple(k for i in chosen for k in (i, bar(i, m))))), c))
    return tuple(terms)


def end_to_clifford(mat: EndSpin, parity: int) -> CliffordElement:
    """The unique preimage of `mat` in Cl^{parity}(V) under the spin action.

    The sum of v E_{L',L} over the entries v of `mat`, with (-1)^{|L'|} u
    E_{L',L} in place of E_{L',L} where |L| + |L'| has the other parity.
    Raises TypeError on an inexact entry: a number that is not rational.
    """
    m = mat.m
    out = CliffordElement(m)
    for (row, col), v in mat.coeffs.items():
        if isinstance(v, numbers.Number) and not isinstance(v, numbers.Rational):
            raise TypeError(f"end_to_clifford needs exact entries, got {type(v).__name__}")
        lift = (len(row) + len(col)) % 2 != parity
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
    """Element of Sym^2(V_Spin): unordered subset pairs, smaller first -> coefficient."""

    def add_term(self, key: tuple[Subset, Subset], c) -> None:
        a, b = key
        super().add_term((a, b) if a <= b else (b, a), c)


def iota(x: SymSquare) -> EndSpin:
    """Sym^2(V_Spin) -> End(V_Spin): lambda.mu -> (delta(w_lam) ox w_mu + delta(w_mu) ox w_lam)/2."""
    m = x.m
    half = Fraction(1, 2)
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
        out.add_term((pt.to_subset(lam), pt.to_subset(mu_)), sign)
    return out


def build_D(j: int, m: int) -> SymSquare:
    """D_(j) = sum_I sign(I) w_{rho_{m+1-j}^I} w_{mu_{m+1-j}^I}, I subset of {1..m+1-j}."""
    return _signed_sym_sum("D", j, m, pt.denominator_terms)


def build_N(j: int, m: int) -> SymSquare:
    """N_(j): same sum with rho_{m+1-j,+}^I and mu_{m+1-j,+}^I."""
    return _signed_sym_sum("N", j, m, pt.numerator_terms)


def wedge_v(j: int, m: int) -> ExteriorElement:
    """u_j ^ ... ^ u_{j+m}, the paper's v^wedge_(j) = v_j ^ ... ^ v_{j+m} (module docstring)."""
    return wedge_monomial(tuple(range(j, j + m + 1)), m)


def wedge_v_plus(j: int, m: int) -> ExteriorElement:
    """u_{j-1} ^ u_{j+1} ^ ... ^ u_{j+m}, the paper's v^wedge_(j),+."""
    return wedge_monomial((j - 1,) + tuple(range(j + 1, j + m + 1)), m)


def contract_to_vectors(x: ExteriorElement) -> ExteriorElement:
    """sqrt2 d . c : wedge^m V -> wedge^{m+1} V, c the contraction with
    (-1)^{m(m+1)/2} v*_1 ^ ... ^ v*_{2m+1} and d: v*_k = epsilon(k) v_{bar(k)}.

    On a basis m-vector v_S the image is sgn(S || S^c) prod_{k in S^c}
    epsilon(k) v_{sort(bar(S^c))}, doubled if S contains u: the global sign
    of c and the sign of reversing the m+1 images bar(S^c) cancel.
    """
    m = x.m
    out = ExteriorElement(m)
    for key, c in x.coeffs.items():
        if len(key) != m:
            raise ValueError("contract_to_vectors expects pure degree m input")
        comp = tuple(i for i in range(1, 2 * m + 2) if i not in key)
        sign = _perm_sign(key + comp)
        for k in comp:
            sign *= epsilon(k, m)
        if m + 1 in key:
            sign *= 2
        out.add_term(tuple(bar(k, m) for k in reversed(comp)), c * sign)
    return out


# -- generator actions on every stage of the pi pipeline ----------------------


def generator_clifford(i: int, kind: str, m: int) -> CliffordElement:
    """The Chevalley generator e_i or f_i as an element of wedge^2 V in Cl(V):
    e_i = eps(i+1) v_i vbar_{i+1}, e_m = v_m u, f_i mirrored."""
    if not 1 <= i <= m or kind not in ("e", "f"):
        raise ValueError(f"no generator {kind}_{i} for m={m}")
    if kind == "e":
        if i < m:
            return cl_monomial((i, bar(i + 1, m)), m, epsilon(i + 1, m))
        return cl_monomial((m, m + 1), m)
    if i < m:
        return cl_monomial((i + 1, bar(i, m)), m, epsilon(i, m))
    return cl_monomial((bar(m, m), m + 1), m)


def spin_generator_matrix(i: int, kind: str, m: int) -> EndSpin:
    return clifford_to_end(generator_clifford(i, kind, m))


def pr_kappa_iota(x: SymSquare) -> ExteriorElement:
    """pr_{wedge^m} . kappa_{+-}^{-1} . iota, the first three stages of pi."""
    parity = x.m % 2
    cl = end_to_clifford(iota(x), parity)
    return antisymmetrize_inv(cl).degree_part(x.m)


def pi_map(x: SymSquare) -> ExteriorElement:
    """pi = sqrt2 d . c . pr_{wedge^m} . kappa_{+-}^{-1} . iota : Sym^2(V_Spin) -> wedge^{m+1} V."""
    return contract_to_vectors(pr_kappa_iota(x))
