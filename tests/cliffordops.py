"""Clifford-algebra operations that no command runs: test oracles for `lgmirror.clifford`.

The Clifford product (word concatenation brought to normal order by
`clifford._normalize`), the product, commutator and action of spin
matrices, the quantization map alpha, the last two maps c and d of pi
one at a time, the actions of a wedge^2 generator on V, wedge V,
Sym^2(V_Spin) and the dual spin module, and small constructors of basis
elements.  The first stages of pi, one map at a time: the duality delta,
the embedding iota, kappa^{-1} as a sum of matrix units (`end_to_clifford`)
and alpha^{-1} as a whole Wick sum (`antisymmetrize_inv`); their composite
is the oracle of `clifford.pr_kappa_iota`, which runs them on subset masks.
The package's pi pipeline uses none of them: it writes matrix units and
alpha^-1 in closed form and d . c as one map.  The equivariance checks of
criterion 6, the paper's displays of criterion 5 and the defining
relations are stated with these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from lgmirror import clifford as cl
from lgmirror import partitions as pt
from lgmirror.clifford import CliffordElement, EndSpin, ExteriorElement, SpinVector, Subset, SymSquare
from lgmirror.partitions import StrictPartition

from subsetmaps import from_subset, pd


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    m = x.m
    out = CliffordElement(m)
    for kx, cx in x.coeffs.items():
        for ky, cy in y.coeffs.items():
            c = cx * cy
            for key, coeff in cl._normalize(kx + ky, m):
                out.add_term(key, c * coeff)
    return out


def commutator(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    return clifford_mul(x, y) - clifford_mul(y, x)


def antisymmetrize(x: ExteriorElement) -> CliffordElement:
    """The Chevalley quantization map alpha: wedge V -> Cl(V), by the Wick sum of sign -1."""
    out = CliffordElement(x.m)
    for key, c in x.coeffs.items():
        for mono, coeff in wick(key, x.m, -1):
            out.add_term(mono, c * coeff)
    return out


def contract_with_top_form(x: ExteriorElement) -> ExteriorElement:
    """The map c: wedge^m V -> wedge^{m+1} V*, contraction with
    (-1)^{m(m+1)/2} u*_1 ^ ... ^ u*_{2m+1}, the dual basis of the u basis
    (u*_{m+1} = v*_{m+1}/sqrt2): the paper's top form over sqrt2.

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
        sign = global_sign * cl._perm_sign(key + comp)
        out.add_term(comp, c if sign > 0 else -c)
    return out


def star_to_vectors(x: ExteriorElement) -> ExteriorElement:
    """The map d: wedge^{m+1} V* -> wedge^{m+1} V via v*_k = epsilon(k) v_{2m+2-k}
    for k != m+1 and u* = u/2, the paper's d in the u basis."""
    m = x.m
    out = ExteriorElement(m)
    for key, c in x.coeffs.items():
        sign = 1
        for k in key:
            sign *= cl.epsilon(k, m)
        # images 2m+2-k arrive in descending order; reversing k elements
        k_len = len(key)
        if (k_len * (k_len - 1) // 2) % 2:
            sign = -sign
        c = c if sign > 0 else -c
        out.add_term(tuple(sorted(cl.bar(k, m) for k in key)), c * Fraction(1, 2) if m + 1 in key else c)
    return out


def basis_vector_of(lam: StrictPartition) -> SpinVector:
    return cl.basis_vector(pt.to_subset(lam), lam.m)


def end_compose(a: EndSpin, b: EndSpin) -> EndSpin:
    """The matrix product a . b."""
    by_row: dict[tuple[int, ...], list] = {}
    for (r, c), v in b.coeffs.items():
        by_row.setdefault(r, []).append((c, v))
    out = EndSpin(a.m)
    for (r, mid), v in a.coeffs.items():
        for c, w in by_row.get(mid, ()):
            out.add_term((r, c), v * w)
    return out


def end_commutator(a: EndSpin, b: EndSpin) -> EndSpin:
    return end_compose(a, b) - end_compose(b, a)


def end_apply(mat: EndSpin, vec: SpinVector) -> SpinVector:
    """The matrix mat applied to the spin vector vec."""
    out = SpinVector(mat.m, {}, vec.dual)
    for (r, c), v in mat.coeffs.items():
        coeff = vec.coeffs.get(c)
        if coeff is not None:
            out.add_term(r, v * coeff)
    return out


def end_identity(m: int) -> EndSpin:
    out = EndSpin(m)
    for s in pt.all_subsets(m):
        out.add_term((s, s), 1)
    return out


def sym_pair(lam: StrictPartition, mu_: StrictPartition, c=1) -> SymSquare:
    out = SymSquare(lam.m)
    out.add_term((pt.to_subset(lam), pt.to_subset(mu_)), c)
    return out


def vector_action(gen: CliffordElement, m: int) -> dict[int, dict[int, Fraction]]:
    """Action of a wedge^2 element on V by Clifford commutator, as sparse columns
    {k: {j: coeff of v_j in gen.v_k}}."""
    cols: dict[int, dict[int, Fraction]] = {}
    for k in range(1, 2 * m + 2):
        img = commutator(gen, cl.cl_monomial((k,), m))
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
                for mono, c2 in cl.wedge_monomial(replaced, m, c * coeff).coeffs.items():
                    out.add_term(mono, c2)
    return out


def sym_square_action(gen: CliffordElement, x: SymSquare) -> SymSquare:
    """Derivation action on Sym^2(V_Spin): g.(a b) = (g a) b + a (g b)."""
    m = x.m
    out = SymSquare(m)
    for (a, b), c in x.coeffs.items():
        for first, second in ((a, b), (b, a)):
            img = cl.spin_apply(gen, cl.basis_vector(first, m))
            for key, coeff in img.coeffs.items():
                out.add_term((key, second), c * coeff)
    return out


def dual_spin_action(gen: CliffordElement, vec: SpinVector) -> SpinVector:
    """Contragredient action on V_Spin*: (g.phi)(v) = -phi(g.v)."""
    if not vec.dual:
        raise ValueError("dual_spin_action needs a dual vector")
    m = vec.m
    mat = cl.clifford_to_end(gen)
    out = SpinVector(m, {}, dual=True)
    for (row, col), v in mat.coeffs.items():
        coeff = vec.coeffs.get(row)
        if coeff is not None:
            out.add_term(col, -(v * coeff))
    return out


# -- the first stages of pi, one map at a time ------------------------------------


def antisymmetrize_inv(x: CliffordElement) -> ExteriorElement:
    """The inverse of the Chevalley quantization map alpha: wedge V -> Cl(V), by `wick`."""
    out = ExteriorElement(x.m)
    for key, c in x.coeffs.items():
        for mono, coeff in wick(key, x.m, 1):
            out.add_term(mono, c * coeff)
    return out


def wick(key: Subset, m: int, sign: int) -> tuple[tuple[Subset, Fraction], ...]:
    """Wick's theorem on the monomial `key`: alpha^{-1} (sign +1) or alpha (sign -1).

    The only pairs of `key` with Phi != 0 are {i, bar(i)}, i <= m.  Over the
    sets P of such pairs the image is the sum of
    sign^{|P|} sgn(P || key - P) prod_{i in P} Phi(v_i, v_bar(i)) times the
    monomial key - P, where P || key - P lays the pairs out first.
    """
    pairs = [(i, cl.bar(i, m)) for i in key if i <= m and cl.bar(i, m) in key]
    terms = []
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            head = tuple(k for pair in chosen for k in pair)
            rest = tuple(k for k in key if k not in head)
            c = Fraction(sign**r * cl._perm_sign(head + rest))
            for i, j in chosen:
                c *= cl.pairing(i, j, m)
            terms.append((rest, c))
    return tuple(terms)


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


def matrix_unit_clifford(row: Subset, col: Subset, m: int, lift: bool) -> tuple[tuple[Subset, int], ...]:
    """The monomials of E_{row,col}, or of (-1)^{|row|} u E_{row,col} if
    `lift`, with their coefficients +-1."""
    sign = -1 if lift and len(row) % 2 else 1
    for l in col:
        sign *= cl.epsilon(l, m)
    head = ((m + 1,) if lift else ()) + tuple(sorted(row))
    tail = tuple(cl.bar(l, m) for l in sorted(col, reverse=True))
    sign *= cl._perm_sign(head + tail)
    free = [i for i in range(1, m + 1) if i not in row and i not in col]
    factor = {}  # i -> -eps(i) times the sign of the pair (i, ibar) between head and tail
    for i in free:
        crossings = sum(h > i for h in head) + sum(t < cl.bar(i, m) for t in tail)
        factor[i] = cl.epsilon(i, m) * (1 if crossings % 2 else -1)
    terms = []
    for r in range(len(free) + 1):
        for chosen in combinations(free, r):
            c = sign
            for i in chosen:
                c *= factor[i]
            terms.append((tuple(sorted(head + tail + tuple(k for i in chosen for k in (i, cl.bar(i, m))))), c))
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
        cl._require_exact(v)
        lift = (len(row) + len(col)) % 2 != parity
        for key, c in matrix_unit_clifford(row, col, m, lift):
            out.add_term(key, v if c > 0 else -v)
    return out


def delta(vec: SpinVector) -> SpinVector:
    """w_lambda -> (-1)^{|lambda|} w*_{PD(lambda)} extended linearly."""
    if vec.dual:
        raise ValueError("delta is defined on V_Spin, not its dual")
    m = vec.m
    out = SpinVector(m, {}, dual=True)
    for key, c in vec.coeffs.items():
        lam = from_subset(key, m)
        dual_key = pt.to_subset(pd(lam))
        out.add_term(dual_key, c if lam.size % 2 == 0 else -c)
    return out


def iota(x: SymSquare) -> EndSpin:
    """Sym^2(V_Spin) -> End(V_Spin): lambda.mu -> (delta(w_lam) ox w_mu + delta(w_mu) ox w_lam)/2."""
    m = x.m
    half = Fraction(1, 2)
    out = EndSpin(m)
    for (a, b), c in x.coeffs.items():
        for first, second in ((a, b), (b, a)):
            dual = delta(cl.basis_vector(first, m))
            for dual_key, dc in dual.coeffs.items():
                # w*_{dual_key} ox w_{second}: matrix entry (row=second, col=dual_key)
                out.add_term((tuple(second), dual_key), c * dc * half)
    return out
