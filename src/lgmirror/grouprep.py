"""Matrix models of group elements in the vector and spin representations.

The vector representation is (2m+1)-dimensional with Chevalley generators
e_i = E_{i,i+1} + E_{2m+1-i,2m+2-i} (i < m), e_m = sqrt2 E_{m,m+1} +
sqrt2 E_{m+1,m+2}, f_i = e_i^T.  There the factorized unipotent element
u2bar(b) = y_{i_N}(b_N) ... y_{i_1}(b_1) of the canonical word of w^P is the
list of its N sparse factors y_{i_k}(b_k) - I = b_k f + (b_k^2/2) f^2, exact
over Q(sqrt2).  On the spin module, F_i is read from the Clifford image
f_i = eps(i) v_{i+1} vbar_i (i < m), sqrt2 vbar_m v_{m+1}, and moves w_I to
w_{I-{i}+{i+1}} (i in I, i+1 not) or to w_{I-{m}} (m in I) with entry 1:
vbar_i takes eps(i) times the sign v_{i+1} takes, and v_{m+1} the sign
vbar_m takes, times 1/sqrt2.  `spin_f_moves` holds those moves, checked
when built.  One sweep, `apply_factors`, serves both: `build_u2bar` runs
the vector factors, and `spin_row_sweep` the transposed spin moves from
w_empty.  `jacobi._peel_plan` reads the moves as index arrays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from lgmirror import clifford as cl
from lgmirror import weyl as wy
from lgmirror.scalars import QS2_ONE, QS2_ZERO, QSqrt2

Matrix = list[list]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def chevalley_e(i: int, m: int) -> Matrix:
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range for m={m}")
    n = 2 * m + 1
    out = [[QS2_ZERO] * n for _ in range(n)]
    if i < m:
        out[i - 1][i] = QS2_ONE
        out[2 * m - i][2 * m + 1 - i] = QS2_ONE
    else:
        out[m - 1][m] = QSqrt2.sqrt2()
        out[m][m + 1] = QSqrt2.sqrt2()
    return out


def chevalley_f(i: int, m: int) -> Matrix:
    return mat_transpose(chevalley_e(i, m))


@lru_cache(maxsize=None)
def _vector_f_table(i: int, m: int) -> tuple:
    """f_i and f_i^2/2 on the vector representation as (row, col, power,
    entry), 0-based: y_i(b) - I has b^power * entry at (row, col)."""
    f = chevalley_f(i, m)
    entries = [(r, c, x) for r, row in enumerate(f) for c, x in enumerate(row) if x]
    square: dict[tuple[int, int], QSqrt2] = {}
    for r, mid, x in entries:
        for mid2, c, y in entries:
            if mid2 == mid:
                square[(r, c)] = square.get((r, c), QS2_ZERO) + x * y
    half = QSqrt2(Fraction(1, 2))
    return tuple([(r, c, 1, x) for r, c, x in entries] + [(r, c, 2, x * half) for (r, c), x in square.items() if x])


def _factors(b: list, m: int) -> list:
    """The factors y_{i_k}(b_k) - I of u2bar, leftmost (k = N) first, each
    stored sparsely as {col: [(row, entry), ...]}."""
    factors = []
    for i, bk in reversed(list(zip(wy.coordinate_word(b, m), b))):
        factor: dict = {}
        for row, col, power, entry in _vector_f_table(i, m):
            factor.setdefault(col, []).append((row, (bk if power == 1 else bk * bk) * entry))
        factors.append(factor)
    return factors


def apply_factors(factors: list, coeffs: dict) -> dict:
    """Apply the product of I + F over the (leftmost-first) factor list to
    the exact sparse vector {index: coefficient}; each F is stored by
    column, {col: [(row, entry), ...]}."""
    for factor in reversed(factors):
        out = dict(coeffs)
        for col, entries in factor.items():
            c = coeffs.get(col)
            if c is None:
                continue
            for row, entry in entries:
                cur = out.get(row)
                new = entry * c if cur is None else cur + entry * c
                if new:
                    out[row] = new
                else:
                    out.pop(row, None)
        coeffs = out
    return coeffs


def build_u2bar(b: list, m: int) -> Matrix:
    """u2bar = y_{i_N}(b_N) ... y_{i_1}(b_1) on the vector representation.

    `b` holds Q(sqrt2) scalars, index k (1-based) matching letter i_k.
    """
    factors = _factors(b, m)
    n = 2 * m + 1
    out = [[QS2_ZERO] * n for _ in range(n)]
    for col in range(n):
        for row, c in apply_factors(factors, {col: QS2_ONE}).items():
            out[row][col] = c
    return out


def minor(g: Matrix, rows: list[int], cols: list[int]):
    """Determinant of the submatrix (1-based index sets), by exact elimination."""
    if len(rows) != len(cols):
        raise ValueError("minor needs |rows| = |cols|")
    sub = [[g[r - 1][c - 1] for c in cols] for r in rows]
    return determinant(sub)


def determinant(a: Matrix):
    """Gaussian elimination over Q(sqrt2)."""
    n = len(a)
    a = [list(row) for row in a]
    det = QS2_ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return QS2_ZERO
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if not factor:
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def extract_f_coeff(u2bar: Matrix, j: int):
    """f_j*(u2bar): entry (j+1, j) for j < m, entry (m+1, m)/sqrt2 for j = m."""
    m = (len(u2bar) - 1) // 2
    if j < m:
        return u2bar[j][j - 1]
    return u2bar[m][m - 1] / QSqrt2.sqrt2()


# -- the spin model -----------------------------------------------------------


@lru_cache(maxsize=None)
def spin_f_moves(i: int, m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The spin matrix F_i of f_i as its moves: the (row subset, col subset)
    pairs where it has entry 1, read from its Clifford image.  Raises
    ArithmeticError unless every entry is exactly 1 and no row or column
    repeats, so that F_i sends each spin basis vector to at most one other."""
    moves = []
    for (row, col), c in cl.spin_generator_matrix(i, "f", m).coeffs.items():
        if c != QS2_ONE:
            raise ArithmeticError(f"spin matrix of f_{i} has the entry {c} at {(row, col)}, not 1")
        moves.append((row, col))
    rows, cols = zip(*moves)
    if len(set(rows)) < len(moves) or len(set(cols)) < len(moves):
        raise ArithmeticError(f"spin matrix of f_{i} has two entries in one row or column")
    return tuple(moves)


def spin_row_sweep(b: list, m: int) -> dict[tuple[int, ...], QSqrt2]:
    """The row w_empty^T (I + b_N F_{i_N}) ... (I + b_1 F_{i_1}) of u2bar on V_Spin.

    Keyed by column subset: the entry at I is the w_empty coefficient of
    u2bar w_I; columns where it vanishes are absent.  It is the transpose
    (I + b_1 F_{i_1}^T) ... (I + b_N F_{i_N}^T) w_empty: apply_factors sends
    the entry at r, times b_k, to col for each move (r, col) of F_{i_k}.
    """
    word = wy.coordinate_word(b, m)
    factors = [{r: [(col, bk)] for r, col in spin_f_moves(i, m)} for i, bk in zip(word, b)]
    return apply_factors(factors, {(): QS2_ONE})
