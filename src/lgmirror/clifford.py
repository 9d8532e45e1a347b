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
* the exterior algebra,
* the spin representation on subsets of {1..m} and the induced
  identification of either parity of Cl(V) with End(V_Spin),
* the projection pi : Sym^2(V_Spin) -> wedge^{m+1} V, the composite of
  the embedding iota (through the duality delta), kappa_{+-}^{-1}, the
  inverse of the antisymmetrization isomorphism alpha (Chevalley's
  quantization map), pr and d . c (one map: contraction with the top
  form, then covectors back to vectors), all over Q,
* the elements D_(j), N_(j) of Sym^2(V_Spin) that encode the quadratic
  denominators and numerators of the superpotential, built from the
  signed partition pairs of lgmirror.partitions.

`pi_map` runs iota, kappa^{-1} by matrix units and alpha^{-1} by Wick
sums on int masks (bit k-1 for the index k) with integer bookkeeping.  As
alpha^{-1} only lowers degree, it cuts at degree m: it sums only the unit
monomials of degree >= m, per mask, and makes only the contractions that
land on degree m, each term +-1 over 2^{r+1} for r contracted pairs.  No
Clifford product runs and no monomial below degree m is made.

Every container is a `scalars.Combination`: a sparse linear combination
that keeps no zero coefficient.  The module holds what the pi pipeline and
the spin tables run; the Clifford product, alpha itself, the first stages
of pi one map at a time (delta, iota, kappa^{-1} as a sum of matrix units,
alpha^{-1} as a whole Wick sum), whose composite the tests hold pi to, and
the generator actions on V, wedge V, Sym^2(V_Spin) and the dual module are the test
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


# -- the spin representation --------------------------------------------------


class SpinVector(Combination):
    """Element of wedge W, W = <v_1..v_m>: subset -> rational coefficient.

    `dual` marks covectors, the images of the duality delta.
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


# -- Sym^2 and the projection pi ---------------------------------------------


class SymSquare(Combination):
    """Element of Sym^2(V_Spin): unordered subset pairs, smaller first -> coefficient."""

    def add_term(self, key: tuple[Subset, Subset], c) -> None:
        a, b = key
        super().add_term((a, b) if a <= b else (b, a), c)


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


# -- pi on subset masks -----------------------------------------------------------
#
# `pr_kappa_iota` runs iota, kappa^{-1} by matrix units and alpha^{-1} by
# Wick sums on int masks: bit k-1 stands for the index k, so a subset of
# {1..m} is the low m bits, u is bit m and the pair {i, bar(i)} is bits i-1
# and 2m+1-i.
#
# * iota: a term c lambda.mu gives, for (first, second) = (lambda, mu) and
#   (mu, lambda), the entry (-1)^{|first|} c/2 at (row, col) =
#   (second, {1..m} - first): delta sends w_lambda to (-1)^{|lambda|} times
#   the dual of the complement.
# * kappa^{-1}: the unit E_{row,col} (w_col -> w_row, every other w_I -> 0)
#   is prod_{l in col} eps(l) v_row P_0 prod_{l in col desc} vbar_l with
#   the vacuum projector P_0 = prod_i eps(i) vbar_i v_i.  As eps(i) vbar_i
#   v_i = 1 - eps(i) v_i vbar_i, it is a sum over the subsets T of the free
#   indices {1..m} - (row u col) of prod_{l in col} eps(l) prod_{i in T}
#   (-eps(i)) v_{w_T}, w_T = (row asc)(i, ibar for i in T)(lbar for l in col
#   desc); where |row| + |col| is off the parity of m the unit is
#   (-1)^{|row|} u E_{row,col}, u first, as u acts on w_I by (-1)^{|I|}.
#   The word w_T has distinct indices, so its normal order is its sorting
#   sign.  Without T it is ascending but for a leading u, whose (-1)^{|row|}
#   cancels the lift's; each pair (i, ibar) of T adds the sign of its
#   crossings, mod 2 the elements of row ^ col above i and a u (an element
#   of both row and col crosses twice, and so do two pairs).  The sign
#   prod_{l in col} eps(l) times (-1)^{|first|} = prod_{i in first} eps(i)
#   is prod_{i <= m} eps(i), the same for every entry.
# * alpha^{-1}: over the sets P of pairs {i, bar(i)} of a monomial S,
#   alpha^{-1}(v_S) = sum_P sgn(P || S - P) prod_{i in P} eps(i)/2 v_{S-P}.
#   The sign is one per pair of P, from the elements of S strictly between
#   i and bar(i), as two pairs of P cross twice.  alpha^{-1} lowers degree
#   by two per contracted pair, so a monomial of degree d < m never reaches
#   wedge^m and one of degree d >= m reaches it only through its
#   (d - m)/2-pair contractions: the path makes no other monomial and no
#   other contraction.
#
# The unit monomials are summed per mask before any Wick sum.  They cancel
# to a few monomials (12 at m = 7 over every D_(j) and N_(j)), and the Wick
# sums run on those alone.  The tests hold the path to the four maps one at
# a time (tests/cliffordops.py), the matrix units to Clifford products.


def _mask(subset: Subset) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << (i - 1)
    return mask


def _indices(mask: int) -> Subset:
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def _add_unit_monomials(first: int, second: int, m: int, c, cliff: dict) -> None:
    """Add to `cliff`, keyed by mask, c times the monomials of degree >= m
    of the unit at (row, col) = (second, {1..m} - first), lifted off the
    parity of m, without its sign prod_{l in col} eps(l)."""
    full = (1 << m) - 1
    row, col = second, full & ~first
    free = first & ~second
    lift = (row.bit_count() + col.bit_count() + m) & 1
    key = row | lift << m
    neg = 0  # the free bits whose pair factor -eps (-1)^{crossings} is -1
    crossings = lift
    for i in range(m - 1, -1, -1):  # bit i, the index i+1, with eps(i+1) = (-1)^{m-i}
        if col >> i & 1:
            key |= 1 << (2 * m - i)
        if free >> i & 1 and crossings == (m - i) & 1:
            neg |= 1 << i
        crossings ^= (row ^ col) >> i & 1
    pairs = [1 << i | 1 << (2 * m - i) for i in range(m) if free >> i & 1]
    degree = key.bit_count()
    for k in range(len(pairs) + 1):
        if degree + 2 * k >= m:
            for chosen in combinations(pairs, k):
                mono = key + sum(chosen)
                v = -c if (mono & neg).bit_count() & 1 else c
                cliff[mono] = cliff.get(mono, 0) + v


def _add_contractions(key: int, v, m: int, acc: dict) -> None:
    """Add v times the degree-m part of alpha^{-1}(v_key), without the
    factor 2^{-r} of its r contracted pairs, to `acc`, keyed (mask, r)."""
    r = (key.bit_count() - m) // 2
    pairs = []  # (the pair's bits, 1 where its sign times eps(i+1) is -1)
    for i in range(m):
        if key >> i & 1 and key >> (2 * m - i) & 1:
            between = key >> (i + 1) & ((1 << (2 * m - 2 * i - 1)) - 1)
            pairs.append((1 << i | 1 << (2 * m - i), (between.bit_count() + m - i) & 1))
    for chosen in combinations(pairs, r):
        rest = key - sum(bits for bits, _ in chosen)
        odd = sum(negative for _, negative in chosen) & 1
        acc[rest, r] = acc.get((rest, r), 0) + (-v if odd else v)


def _require_exact(v) -> None:
    if isinstance(v, numbers.Number) and not isinstance(v, numbers.Rational):
        raise TypeError(f"the pi pipeline needs exact entries, got {type(v).__name__}")


def pr_kappa_iota(x: SymSquare) -> ExteriorElement:
    """pr_{wedge^m} . kappa_{+-}^{-1} . iota, the first three stages of pi,
    on subset masks: a degree-m term reached through r contracted pairs is
    a sum of +-1 (times the coefficients of x) over 2^{r+1}, the 2 from
    iota's 1/2."""
    m = x.m
    sign = -1 if (m + 1) // 2 % 2 else 1  # prod_{i <= m} eps(i), the same for every entry
    cliff: dict = {}
    for (a, b), c in x.coeffs.items():
        _require_exact(c)
        first, second = _mask(a), _mask(b)
        _add_unit_monomials(first, second, m, sign * c, cliff)
        _add_unit_monomials(second, first, m, sign * c, cliff)
    acc: dict = {}
    for key, v in cliff.items():
        if v:
            _add_contractions(key, v, m, acc)
    out = ExteriorElement(m)
    for (rest, r), v in acc.items():
        out.add_term(_indices(rest), v * Fraction(1, 2 ** (r + 1)))
    return out


def pi_map(x: SymSquare) -> ExteriorElement:
    """pi = sqrt2 d . c . pr_{wedge^m} . kappa_{+-}^{-1} . iota : Sym^2(V_Spin) -> wedge^{m+1} V."""
    return contract_to_vectors(pr_kappa_iota(x))
