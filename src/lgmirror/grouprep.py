"""Matrix models of group elements in the vector and spin representations.

The vector representation is (2m+1)-dimensional with Chevalley generators
e_i = E_{i,i+1} + E_{2m+1-i,2m+2-i} (i < m), e_m = sqrt2 E_{m,m+1} +
sqrt2 E_{m+1,m+2}, f_i = e_i^T; one-parameter subgroups are truncated
exponentials (nilpotency degree <= 3).  The factorized unipotent element
u2bar(b) is the product prescribed by the canonical reduced word of w^P,
and all Pluecker/minor data of the package is evaluated on it.

Matrices are plain lists of lists over a ScalarRing so the same code runs
over Q(sqrt2) and over complex floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from lgmirror import clifford as cl
from lgmirror import partitions as pt
from lgmirror import weyl as wy
from lgmirror.scalars import EXACT, QSqrt2, ScalarRing

Matrix = list[list]


def mat_zero(n: int, ring: ScalarRing) -> Matrix:
    return [[ring.zero] * n for _ in range(n)]


def mat_identity(n: int, ring: ScalarRing) -> Matrix:
    out = mat_zero(n, ring)
    for i in range(n):
        out[i][i] = ring.one
    return out


def mat_mul(a: Matrix, b: Matrix, ring: ScalarRing) -> Matrix:
    n = len(a)
    out = mat_zero(n, ring)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            c = ai[k]
            if ring.is_zero(c):
                continue
            bk = b[k]
            for j in range(n):
                if not ring.is_zero(bk[j]):
                    oi[j] = oi[j] + c * bk[j]
    return out


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def chevalley_e(i: int, m: int, ring: ScalarRing = EXACT) -> Matrix:
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range for m={m}")
    n = 2 * m + 1
    out = mat_zero(n, ring)
    if i < m:
        out[i - 1][i] = ring.one
        out[2 * m - i][2 * m + 1 - i] = ring.one
    else:
        out[m - 1][m] = ring.sqrt2
        out[m][m + 1] = ring.sqrt2
    return out


def chevalley_f(i: int, m: int, ring: ScalarRing = EXACT) -> Matrix:
    return mat_transpose(chevalley_e(i, m, ring))


def _truncated_exp(nil: Matrix, a, ring: ScalarRing) -> Matrix:
    n = len(nil)
    out = mat_identity(n, ring)
    term = mat_identity(n, ring)
    half = ring.from_fraction(Fraction(1, 2))
    for power in (1, 2):
        term = mat_mul(term, nil, ring)
        if all(ring.is_zero(c) for row in term for c in row):
            break
        scale = a if power == 1 else a * a * half
        for r in range(n):
            for c in range(n):
                if not ring.is_zero(term[r][c]):
                    out[r][c] = out[r][c] + scale * term[r][c]
    return out


def one_param_y(i: int, a, m: int, ring: ScalarRing = EXACT) -> Matrix:
    """y_i(a) = exp(a f_i); the exponential truncates at degree 2."""
    return _truncated_exp(chevalley_f(i, m, ring), a, ring)


def build_u2bar(b: list, m: int, ring: ScalarRing = EXACT) -> Matrix:
    """u2bar = y_{i_N}(b_N) ... y_{i_1}(b_1) for the canonical word i of w^P.

    `b` holds ring scalars, index k (1-based) matching letter i_k.
    """
    word = wy.canonical_wp_word(m)
    n = len(word)
    if len(b) != n:
        raise ValueError(f"need {n} coordinates for m={m}, got {len(b)}")
    out = mat_identity(2 * m + 1, ring)
    for k in range(n, 0, -1):
        out = mat_mul(out, one_param_y(word[k - 1], b[k - 1], m, ring), ring)
    return out


def gram_matrix(m: int, ring: ScalarRing = EXACT) -> Matrix:
    """The bilinear form: <v_i, v_{2m+2-j}> = (-1)^{m+1-i} delta_{ij}."""
    n = 2 * m + 1
    out = mat_zero(n, ring)
    minus_one = ring.zero - ring.one
    for i in range(1, n + 1):
        out[i - 1][2 * m + 1 - i] = ring.one if cl.epsilon(i, m) > 0 else minus_one
    return out


def minor(g: Matrix, rows: list[int], cols: list[int], ring: ScalarRing = EXACT):
    """Determinant of the submatrix (1-based index sets), by exact elimination."""
    if len(rows) != len(cols):
        raise ValueError("minor needs |rows| = |cols|")
    sub = [[g[r - 1][c - 1] for c in cols] for r in rows]
    return determinant(sub, ring)


def determinant(a: Matrix, ring: ScalarRing = EXACT):
    """Gaussian elimination over the scalar field; exact when the ring is."""
    n = len(a)
    a = [list(row) for row in a]
    det = ring.one
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not ring.is_zero(a[r][col])), None)
        if pivot_row is None:
            return ring.zero
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = ring.zero - det
        pivot = a[col][col]
        det = det * pivot
        inv = ring.one / pivot
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if ring.is_zero(factor):
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def extract_f_coeff(u2bar: Matrix, j: int, ring: ScalarRing = EXACT):
    """f_j*(u2bar): entry (j+1, j) for j < m, entry (m+1, m)/sqrt2 for j = m."""
    m = (len(u2bar) - 1) // 2
    if j < m:
        return u2bar[j][j - 1]
    return u2bar[m][m - 1] / ring.sqrt2


# -- the spin model -----------------------------------------------------------


@lru_cache(maxsize=None)
def _spin_f_table(i: int, m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], Fraction], ...]:
    """Action of f_i on the spin basis as (row, col, rational entry) triples.

    Computed once from the Clifford images f_i = eps(i) v_{i+1} vbar_i
    (i < m), f_m = sqrt2 vbar_m v_{m+1}; all entries are rational, so the
    table transports to any scalar ring.
    """
    if i < m:
        elem = cl.cl_monomial((i + 1, cl.bar(i, m)), m, QSqrt2(cl.epsilon(i, m)))
    else:
        elem = cl.cl_monomial((cl.bar(m, m), m + 1), m, QSqrt2.sqrt2())
    triples = []
    for col in pt.all_subsets(m):
        image = cl.spin_apply(elem, cl.basis_vector(col, m))
        for row, c in image.coeffs.items():
            if not c.is_rational():
                raise ArithmeticError(f"spin matrix of f_{i} has the irrational entry {c} at {(row, col)}")
            triples.append((row, col, c.a))
    return tuple(triples)


def u2bar_spin_factors(b: list, m: int, ring: ScalarRing = EXACT) -> list:
    """The factors of u2bar in End(V_Spin), leftmost first.

    Each factor is I + b_k F_{i_k} (the spin matrices of the f_i square to
    zero), stored sparsely as {col: [(row, entry), ...]}.
    """
    word = wy.canonical_wp_word(m)
    if len(b) != len(word):
        raise ValueError(f"need {len(word)} coordinates for m={m}, got {len(b)}")
    factors = []
    for k in range(len(word), 0, -1):
        letter, bk = word[k - 1], b[k - 1]
        table: dict[tuple[int, ...], list] = {}
        for row, col, entry in _spin_f_table(letter, m):
            table.setdefault(col, []).append((row, bk * ring.from_fraction(entry)))
        factors.append(table)
    return factors


def apply_spin_factors(factors: list, vec: cl.SpinVector, ring: ScalarRing) -> cl.SpinVector:
    """Apply the (leftmost-first) factor list to a spin vector."""
    coeffs = dict(vec.coeffs)
    for table in reversed(factors):
        out = dict(coeffs)
        for col, c in coeffs.items():
            for row, entry in table.get(col, ()):
                prev = out.get(row, ring.zero)
                new = prev + entry * c
                if ring.is_zero(new):
                    out.pop(row, None)
                else:
                    out[row] = new
        coeffs = out
    return cl.SpinVector(vec.m, coeffs, vec.dual)


def spin_row_sweep(factors: list, ring: ScalarRing) -> dict[tuple[int, ...], object]:
    """The row w_empty^T F_1 ... F_N of the (leftmost-first) factor list.

    Keyed by column subset: the entry at I is the w_empty coefficient of
    F_1 ... F_N w_I.  One pass over the factors gives the whole row; columns
    never reached are absent.
    """
    row = {(): ring.one}
    for table in factors:
        out = dict(row)
        for col, entries in table.items():
            for r, entry in entries:
                c = row.get(r)
                if c is not None:
                    out[col] = out[col] + c * entry if col in out else c * entry
        row = out
    return row


def build_u2bar_spin(b: list, m: int, ring: ScalarRing = EXACT) -> cl.EndSpin:
    """u2bar acting on V_Spin, as a sparse 2^m x 2^m matrix."""
    factors = u2bar_spin_factors(b, m, ring)
    out = cl.EndSpin(m)
    for col in pt.all_subsets(m):
        image = apply_spin_factors(factors, cl.basis_vector(col, m, ring.one), ring)
        for row, c in image.coeffs.items():
            out.add_term((row, col), c)
    return out
