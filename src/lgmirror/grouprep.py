"""Matrix models of group elements in the vector and spin representations.

The vector representation is (2m+1)-dimensional, with the Chevalley
generators e_i = E_{i,i+1} + E_{2m+1-i,2m+2-i} (i < m), e_m = sqrt2 E_{m,m+1}
+ sqrt2 E_{m+1,m+2} and f_i = e_i^T; u2bar(b) = y_{i_N}(b_N) ... y_{i_1}(b_1)
with y_i(b) = I + b f_i + (b^2/2) f_i^2, as f_i^3 = 0.  `build_u2bar` works
in the basis with v_{m+1} replaced by sqrt2 v_{m+1}, that is on S^-1 u2bar S,
S = diag(1, ..., 1, sqrt2, 1, ..., 1) (sqrt2 at m+1).  There f_i is
unchanged for i < m, f_m = E_{m+1,m} + 2 E_{m+2,m+1} and f_m^2/2 = E_{m+2,m},
so every y_i(b) has entries in Z[b].  Its entry (r, c) is that of u2bar
times s_c/s_r, so a minor equals the minor of u2bar only when m+1 is in
both index sets or in neither; every minor the identities read has m+1 in
both, and f_j* is entry (j+1, j) for every j.
The grading: each f_i moves one step down the basis and f_m^2/2 two steps
with b^2, so entry (r, c) is homogeneous of degree r - c in b.  At a rational
b with D the lcm of its denominators, `build_u2bar` runs the row operations
on the integers D b, and entry (r, c) at b is that integer over D^(r-c).  A
minor on rows R and columns C is then an integer determinant, by Bareiss
elimination, over D^(sum R - sum C) (`minor` returns the integer), and
f_j* an integer over D; the identities compare these integers, and only
a failing check reads one at b.
The window minors: R = rows m+1..2m+1 of g is [A | L] with L (columns
m+1..2m+1) lower unitriangular, and row operations with pivot 1, of
determinant 1 and no division, turn it into [X | I], X = L^-1 A an integer
(m+1) x m matrix (rows 0..m, columns 1..m as in g), with every maximal
minor unchanged.  With s_j = (-1)^(j(m+1-j)) the D window, columns j..j+m,
is the integer s_j det X[rows j..m; cols j..m] over D^((m+1)(m+1-j))
(`window_power`), and the N window, columns {j-1} u {j+1..j+m}, the
integer s_j det X[rows j..m; cols j-1, j+1..m] over one more power of D;
`window_minors` returns the integers.  Those are the trailing principal
minors of X[1..m; 1..m] and the same with the first column moved one
left, so one Bareiss elimination from the bottom-right corner, with no
swap, gives them all: by Sylvester's identity the pivot after k - 1 steps
is the D minor of j = m+1-k and the entry next to it the N minor.  Every
pivot is a D minor, a monomial in b at a torus point, so never 0 there;
past a zero pivot `minor` takes the remaining windows.  The vanishing minor of
`verify fj` (rows j+1, m+1..2m+1) stays with `determinant` on its own
square: expanded along row j+1 it is g_(j+1,j) den - num, so read from the
shared elimination it would only restate the ratio check.
On the spin module, F_i is read from the Clifford image
f_i = eps(i) v_{i+1} vbar_i (i < m), vbar_m u, with u = sqrt2 v_{m+1} (S
carried to Cl(V) by `clifford`, which computes over Q), and moves w_I to
w_{I-{i}+{i+1}} (i in I, i+1 not) or to w_{I-{m}} (m in I) with entry 1:
vbar_i takes eps(i) times the sign v_{i+1} takes, and u the sign vbar_m
takes.  `spin_f_moves` holds those moves, and checks when built that the
image is exactly that rule, written out here and not read from
`weyl.wp_transitions`, so the spin route shares no table with the
subword route.  The rule implies what the sweep and the peel rest on:
every entry is 1, no row or column repeats, F_i^2 = 0 (no target of a
move is a source), and each move takes w_I to a subset whose partition
has one box fewer, so the w_empty coefficient
of u2bar w_I is homogeneous of degree |lambda(I)| in b.  The moves are
the W^P covers of `weyl.wp_transitions` read backwards; building F_i from
the rule instead would make the spin sweep a second copy of the subword
programme, so the Clifford image stays the source, at its cold cost
(about 0.6-0.75 s for the 12 letters at m = 12).  `spin_f_moves` is the
one spin format, and `sweep_moves` the one plan of the spin row: of each
factor, k = N first, the moves whose source the row w_empty^T can have
reached, as positions in `partitions.all_subsets` order, built once per m;
that order is all the spin route shares with the subword route.  A move
the plan drops would add 0, and its target is unreached too, so the peel,
which takes the factors off again, never reads what it would write.
`spin_row_sweep` runs the plan, scaled by b_k, in place on the row held
as a list, over whatever numbers b holds (the integers D b on the verify
path); an entry that vanishes reads as the int 0.  `jacobi` reads the
same plan for its forward map `pluecker_rows` and for the peel, its
inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from lgmirror import clifford as cl
from lgmirror import partitions as pt
from lgmirror import weyl as wy
from lgmirror.scalars import Lift

Matrix = list[list[int]]
U2bar = tuple[Matrix, int]


def build_u2bar(point: Lift, m: int) -> U2bar:
    """(g, D) at the rational point b given by its lift (D b, D), D the lcm
    of the denominators of b: g the integer matrix S^-1 u2bar S at D b (the
    grading above).

    Starting from I, each y_{i_k}(a_k), k = 1..N, multiplies from the left
    as row operations (1-based rows): for i < m, row i+1 += a row i and row
    2m+2-i += a row 2m+1-i; for i = m, row m+2 += 2a row m+1 + a^2 row m
    (reading the old row m+1), then row m+1 += a row m.
    Index k (1-based) of D b matches letter i_k.
    """
    lifted, d = point
    word = wy.coordinate_word(lifted, m)
    n = 2 * m + 1
    g = [[int(r == c) for c in range(n)] for r in range(n)]
    for i, a in zip(word, lifted):
        if i < m:
            _add_row(g, i, i - 1, a)
            _add_row(g, n - i, n - i - 1, a)
        else:
            _add_row(g, m + 1, m, a + a)
            _add_row(g, m + 1, m - 1, a * a)
            _add_row(g, m, m - 1, a)
    return g, d


def _add_row(g: Matrix, dst: int, src: int, s: int) -> None:
    """Row dst += s * row src (0-based), skipping the zero entries of row src."""
    row = g[dst]
    for c, x in enumerate(g[src]):
        if x:
            row[c] += s * x


def minor(u2: U2bar, rows: list[int], cols: list[int]) -> int:
    """D^(sum(rows) - sum(cols)) times the minor of u2bar on 1-based rows and
    cols at b, an int: the determinant of that submatrix of g."""
    if len(rows) != len(cols):
        raise ValueError("minor needs |rows| = |cols|")
    g = u2[0]
    return determinant([[g[r - 1][c - 1] for c in cols] for r in rows])


def determinant(a: Matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Step k replaces each entry below and right of the pivot p_k by
    (p_k a_ij - a_ik a_kj) / p_{k-1}, a minor of a, so the division is
    exact.  A zero pivot swaps in a lower row and flips the sign; the last
    pivot is the determinant.  Raises ArithmeticError if a division leaves
    a remainder, which no integer matrix can cause.
    """
    if not a:
        return 1
    rows, sign, prev = list(a), 1, 1
    while True:
        if not rows[0][0]:
            r = next((r for r in range(1, len(rows)) if rows[r][0]), None)
            if r is None:
                return 0
            rows[0], rows[r] = rows[r], rows[0]
            sign = -sign
        if len(rows) == 1:
            return sign * rows[0][0]
        rows, prev = _bareiss_step(rows, prev), rows[0][0]


def _bareiss_step(rows: Matrix, prev: int) -> Matrix:
    """The rows below the pivot rows[0][0], first column dropped, each entry
    (pivot a_ij - a_i0 a_0j) / prev; raises ArithmeticError on a remainder."""
    pivot, *top = rows[0]
    out = []
    for lead, *rest in rows[1:]:
        row = []
        for u, z in zip(rest, top):
            q, rem = divmod(pivot * u - lead * z, prev)
            if rem:
                raise ArithmeticError(f"Bareiss step: {pivot * u - lead * z} is not a multiple of {prev}")
            row.append(q)
        out.append(row)
    return out


def window_minors(u2: U2bar) -> dict[int, tuple[int, int]]:
    """{j: (D, N)}, j = 2..m: the minors of u2bar on rows m+1..2m+1 and
    columns j..j+m, and {j-1} u {j+1..j+m}, as integers, D^e and D^(e+1)
    times their values at b for e = `window_power(m, j)` (as `minor` gives
    them), from one reduction to [X | I] and one Bareiss sweep of X
    (above).  Raises ArithmeticError if columns m+1..2m+1 of those rows
    are not lower unitriangular."""
    g = u2[0]
    m = len(g) // 2
    x = []
    for r, row in enumerate(g[m:]):
        if row[m + r] != 1 or any(row[m + r + 1:]):
            raise ArithmeticError(f"row {m + r + 1} of u2bar is not unitriangular in columns {m + 1}..{2 * m + 1}")
        xr = row[:m]
        for c, xc in enumerate(x):
            if row[m + c]:
                xr = [u - row[m + c] * v for u, v in zip(xr, xc)]
        x.append(xr)
    z = [xr[::-1] for xr in x[:1:-1]]  # X[m..2; m..1]
    rows = list(range(m + 1, 2 * m + 2))
    out, prev = {}, 1
    for j in range(m, 1, -1):
        if not prev:
            cols = list(range(j, j + m + 1))
            out[j] = minor(u2, rows, cols), minor(u2, rows, [j - 1] + cols[1:])
            continue
        pivot, nxt = z[0][0], z[0][1]
        out[j] = (-pivot, -nxt) if j * (m + 1 - j) % 2 else (pivot, nxt)
        if pivot and j > 2:
            z = _bareiss_step(z, prev)
        prev = pivot
    return out


def window_power(m: int, j: int) -> int:
    """(m+1)(m+1-j): the D window of `window_minors` at j is D to this power
    times its minor at b, and the N window D to one more."""
    return (m + 1) * (m + 1 - j)


def extract_f_coeff(u2: U2bar, j: int) -> Fraction:
    """f_j*(u2bar): entry (j+1, j) of g over D, for every j (at j = m,
    entry (m+1, m) of u2bar over sqrt2)."""
    g, d = u2
    return Fraction(g[j][j - 1], d)


# -- the spin model -----------------------------------------------------------


@lru_cache(maxsize=None)
def spin_f_moves(i: int, m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The spin matrix F_i of f_i as its moves: the (row subset, col subset)
    pairs where it has entry 1, read from its Clifford image, in its order.
    Raises ArithmeticError unless the image is exactly the move rule: entry
    1 at (I - {i} + {i+1}, I) for i in I and i+1 not in I when i < m, at
    (I - {m}, I) for m in I, and no other entry."""
    entries = cl.spin_generator_matrix(i, "f", m).coeffs
    if entries != dict.fromkeys(_spin_move_rule(i, m), 1):
        raise ArithmeticError(f"spin matrix of f_{i} at m = {m} is not the move rule")
    return tuple(entries)


def _spin_move_rule(i: int, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The moves (row, col) of F_i by the rule in `spin_f_moves`."""
    subsets = pt.all_subsets(m)
    if i == m:
        return [(col[:-1], col) for col in subsets if m in col]
    return [(tuple(i + 1 if x == i else x for x in col), col) for col in subsets if i in col and i + 1 not in col]


@lru_cache(maxsize=None)
def sweep_moves(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The one plan of the spin row: for each factor of u2bar, k = N first,
    the (source, target) positions in `partitions.all_subsets` order of the
    moves of `spin_f_moves(i_k, m)` whose source the row w_empty^T can have
    reached, in `spin_f_moves` order.  A move left out would add 0, and
    its target is unreached as well (tested for m = 2..10), so no step of
    the peel reads what it would write.  Built once per m."""
    index = {s: k for k, s in enumerate(pt.all_subsets(m))}
    reach, factors = {0}, []
    for i in reversed(wy.canonical_wp_word(m)):
        moves = tuple((index[r], index[c]) for r, c in spin_f_moves(i, m) if index[r] in reach)
        reach.update(c for _, c in moves)
        factors.append(moves)
    return tuple(factors)


def spin_row_sweep(b: list, m: int) -> list:
    """The row w_empty^T (I + b_N F_{i_N}) ... (I + b_1 F_{i_1}) of u2bar on V_Spin.

    A list in `partitions.all_subsets` order: the entry at I is the w_empty
    coefficient of u2bar w_I, the int 0 where it vanishes.  The factors
    multiply the row from the right, k = N first: each move (r, c) of
    F_{i_k} adds b_k row[r] to row[c], in place, as no target of a factor
    is a source (F^2 = 0).  The row starts from the int 1, so the entries
    are ints at integer b and lie in the ring of b otherwise.
    """
    wy.coordinate_word(b, m)
    row = [1] + [0] * (2**m - 1)
    for bk, moves in zip(reversed(b), sweep_moves(m)):
        for r, c in moves:
            row[c] += bk * row[r]
    return [x if x else 0 for x in row]
