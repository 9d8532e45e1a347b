"""Matrix models of group elements in the vector and spin representations.

The vector representation is (2m+1)-dimensional with Chevalley generators
e_i = E_{i,i+1} + E_{2m+1-i,2m+2-i} (i < m), e_m = sqrt2 E_{m,m+1} +
sqrt2 E_{m+1,m+2}, f_i = e_i^T.  There the factorized unipotent element
u2bar(b) = y_{i_N}(b_N) ... y_{i_1}(b_1) of the canonical word of w^P is a
list of sparse factors I + s T, exact over Q(sqrt2): y_{i_k}(b_k) =
I + b_k f + (b_k^2/2) f^2 is (I + b_k f)(I + b_k^2 f^2/2), since f^3 = 0.
Its minors are computed fraction free: `determinant` clears each row to
integer pairs x + y sqrt2 and runs Bareiss elimination over Z[sqrt2], each
division exact by the conjugate and the integer norm of the previous pivot.
On the spin module, F_i is read from the Clifford image
f_i = eps(i) v_{i+1} vbar_i (i < m), sqrt2 vbar_m v_{m+1}, and moves w_I to
w_{I-{i}+{i+1}} (i in I, i+1 not) or to w_{I-{m}} (m in I) with entry 1:
vbar_i takes eps(i) times the sign v_{i+1} takes, and v_{m+1} the sign
vbar_m takes, times 1/sqrt2.  `spin_f_moves` holds those moves, checked
when built.  One sweep, `apply_factors`, serves both: `build_u2bar` runs
the vector factors, and `spin_row_sweep` the cached transposed spin moves,
scaled by b_k, from w_empty.  `jacobi._peel_plan` reads the moves as index
arrays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

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


def _by_column(entries) -> dict:
    """The (row, col, entry) triples of a sparse matrix as apply_factors reads
    them: {col: [(row, entry), ...]}, an entry 1 stored as None."""
    table: dict = {}
    for row, col, x in entries:
        table.setdefault(col, []).append((row, None if x == QS2_ONE else x))
    return table


@lru_cache(maxsize=None)
def _vector_f_tables(i: int, m: int) -> tuple:
    """y_i(b) = I + b f_i + (b^2/2) f_i^2 on the vector representation as
    (I + b F)(I + b^2 G), with F = f_i and G = f_i^2/2 (F G = f_i^3/2 = 0):
    the tables of F and G, 0-based; G is empty unless i = m."""
    f = chevalley_f(i, m)
    entries = [(r, c, x) for r, row in enumerate(f) for c, x in enumerate(row) if x]
    square: dict[tuple[int, int], QSqrt2] = {}
    for r, mid, x in entries:
        for mid2, c, y in entries:
            if mid2 == mid:
                square[(r, c)] = square.get((r, c), QS2_ZERO) + x * y
    half = QSqrt2(Fraction(1, 2))
    g = [(r, c, x * half) for (r, c), x in square.items() if x]
    return _by_column(entries), _by_column(g)


def _factors(b: list, m: int) -> list:
    """The factors of u2bar as (scale, table) pairs, leftmost (k = N) first:
    y_{i_k}(b_k) = (I + b_k F)(I + b_k^2 G)."""
    factors = []
    for i, bk in reversed(list(zip(wy.coordinate_word(b, m), b))):
        f, g = _vector_f_tables(i, m)
        factors.append((bk, f))
        if g:
            factors.append((bk * bk, g))
    return factors


def apply_factors(factors: list, coeffs: dict) -> dict:
    """Apply the product of I + s T over the (leftmost-first) list of pairs
    (s, T) to the exact sparse vector {index: coefficient}: s is a scalar
    and T is stored by column, {col: [(row, entry), ...]}, None for entry 1."""
    for scale, table in reversed(factors):
        out = dict(coeffs)
        for col, entries in table.items():
            c = coeffs.get(col)
            if c is None:
                continue
            c = scale * c
            for row, entry in entries:
                x = c if entry is None else entry * c
                cur = out.get(row)
                new = x if cur is None else cur + x
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


def determinant(a: Matrix) -> QSqrt2:
    """Determinant of a square matrix over Q(sqrt2), fraction free.

    Each row is cleared to one integer denominator, so that its entries are
    integer pairs (x, y) meaning x + y*sqrt2.  Bareiss elimination then runs
    over Z[sqrt2]: step k replaces each entry below and right of the pivot
    p_k by (p_k a_ij - a_ik a_kj) / p_{k-1}, a minor of the cleared matrix,
    so the division is exact; it multiplies by the conjugate of p_{k-1} and
    divides both parts by the integer norm of p_{k-1}.  A zero pivot swaps
    in a lower row and flips the sign.  The last pivot over the product of
    the row denominators is the determinant.  Raises ArithmeticError if a
    division leaves a remainder, which no matrix over Q(sqrt2) can cause.
    """
    if not a:
        return QS2_ONE
    xs, ys, den = [], [], 1
    for row in a:
        triples = [c.triple for c in row]
        d = 1
        for _, _, e in triples:
            if d % e:
                d = d * e // gcd(d, e)
        den *= d
        xs.append([x * (d // e) for x, _, e in triples])
        ys.append([y * (d // e) for _, y, e in triples])
    sign = 1
    px, py, norm = 1, 0, 1  # the previous pivot and its norm px^2 - 2 py^2
    while True:
        if not (xs[0][0] or ys[0][0]):
            r = next((r for r in range(1, len(xs)) if xs[r][0] or ys[r][0]), None)
            if r is None:
                return QS2_ZERO
            xs[0], xs[r] = xs[r], xs[0]
            ys[0], ys[r] = ys[r], ys[0]
            sign = -sign
        kx, ky = xs[0][0], ys[0][0]
        if len(xs) == 1:
            return QSqrt2.from_triple(sign * kx, sign * ky, den)
        pivot_xs, pivot_ys = xs[0][1:], ys[0][1:]
        next_xs, next_ys = [], []
        for row_x, row_y in zip(xs[1:], ys[1:]):
            lx, ly = row_x[0], row_y[0]
            out_x, out_y = [], []
            for ux, uy, zx, zy in zip(row_x[1:], row_y[1:], pivot_xs, pivot_ys):
                # t = pivot * u - l * z, then t / prev = t * conj(prev) / norm
                tx = kx * ux + 2 * (ky * uy - ly * zy) - lx * zx
                ty = kx * uy + ky * ux - lx * zy - ly * zx
                qx, rx = divmod(tx * px - 2 * ty * py, norm)
                qy, ry = divmod(ty * px - tx * py, norm)
                if rx or ry:
                    raise ArithmeticError(f"Bareiss step: {tx}+{ty}*sqrt2 is not a multiple of {px}+{py}*sqrt2")
                out_x.append(qx)
                out_y.append(qy)
            next_xs.append(out_x)
            next_ys.append(out_y)
        xs, ys = next_xs, next_ys
        px, py, norm = kx, ky, kx * kx - 2 * ky * ky


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


@lru_cache(maxsize=None)
def _spin_transposed_moves(i: int, m: int) -> dict:
    """F_i^T as apply_factors reads it: the move (row, col) of F_i sends the
    entry at row to col with entry 1."""
    return {row: [(col, None)] for row, col in spin_f_moves(i, m)}


def spin_row_sweep(b: list, m: int) -> dict[tuple[int, ...], QSqrt2]:
    """The row w_empty^T (I + b_N F_{i_N}) ... (I + b_1 F_{i_1}) of u2bar on V_Spin.

    Keyed by column subset: the entry at I is the w_empty coefficient of
    u2bar w_I; columns where it vanishes are absent.  It is the transpose
    (I + b_1 F_{i_1}^T) ... (I + b_N F_{i_N}^T) w_empty: apply_factors
    scales the cached table of F_{i_k}^T by b_k.
    """
    word = wy.coordinate_word(b, m)
    return apply_factors([(bk, _spin_transposed_moves(i, m)) for i, bk in zip(word, b)], {(): QS2_ONE})
