"""The Fraction-valued window minors, the oracle of `grouprep.window_minors`.

This is the earlier form of `grouprep.window_minors`: the same reduction to
[X | I] and the same Bareiss sweep of X, but each window is scaled back to
its value at b, a Fraction, and past a zero pivot the remaining windows
come from `minor_at_b`, a minor of u2bar at b.  The package keeps the
windows as integers at D b; `windows_at_b` reads them at b, and the tests
check that both forms agree window for window.  `minor_at_b` takes its
determinant from `grouprep.determinant` directly, not through
`grouprep.minor`, so a test that records the calls of `grouprep.minor`
sees only those the package makes.
"""

from __future__ import annotations

from fractions import Fraction

from lgmirror import grouprep as gr


def minor_at_b(u2: gr.U2bar, rows: list[int], cols: list[int]) -> Fraction:
    """The minor of u2bar on 1-based rows and cols at b: the determinant of
    that submatrix of g over D^(sum(rows) - sum(cols))."""
    if len(rows) != len(cols):
        raise ValueError("minor needs |rows| = |cols|")
    g, d = u2
    return gr.determinant([[g[r - 1][c - 1] for c in cols] for r in rows]) * Fraction(d) ** (sum(cols) - sum(rows))


def fraction_window_minors(u2: gr.U2bar) -> dict[int, tuple[Fraction, Fraction]]:
    """{j: (D minor, N minor)} of u2bar at b, j = 2..m: the minors on rows
    m+1..2m+1 and columns j..j+m, and {j-1} u {j+1..j+m}.  Raises
    ArithmeticError if columns m+1..2m+1 of those rows are not lower
    unitriangular."""
    g, d = u2
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
        cols = list(range(j, j + m + 1))
        if not prev:
            out[j] = minor_at_b(u2, rows, cols), minor_at_b(u2, rows, [j - 1] + cols[1:])
            continue
        pivot, nxt = z[0][0], z[0][1]
        scale = (-1) ** (j * (m + 1 - j)) * Fraction(d) ** ((m + 1) * (j - m - 1))
        out[j] = pivot * scale, nxt * scale / d
        if pivot and j > 2:
            z = gr._bareiss_step(z, prev)
        prev = pivot
    return out


def windows_at_b(u2: gr.U2bar, windows: dict[int, tuple[int, int]]) -> dict[int, tuple[Fraction, Fraction]]:
    """The integer windows of `grouprep.window_minors` read at b: the D
    window at j over D^((m+1)(m+1-j)), the N window over one more D."""
    g, d = u2
    m = len(g) // 2
    return {j: (Fraction(den, d ** ((m + 1) * (m + 1 - j))), Fraction(num, d ** ((m + 1) * (m + 1 - j) + 1))) for j, (den, num) in windows.items()}
