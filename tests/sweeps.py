"""Dict-keyed oracles of the per-point sweeps and the arithmetic draw.

These are the earlier forms of `grouprep.spin_row_sweep`,
`weyl.wp_subword_sums` and `cli.rational_stream`: the two sweeps keep
their rows in dicts keyed by subset tuples, one dict per factor, and the
draw builds each Fraction from its two splitmix64 draws.  The package runs
the sweeps over list positions from cached plans and reads the draw from a
table; the tests check that both forms agree value for value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lgmirror import grouprep as gr
from lgmirror import weyl as wy
from lgmirror.scalars import splitmix64


def dict_spin_row_sweep(b: list, m: int) -> dict[tuple[int, ...], object]:
    """The row w_empty^T (I + b_N F_{i_N}) ... (I + b_1 F_{i_1}), keyed by
    column subset, with no entry where it vanishes: each factor copies the
    row and adds b_k row[r] at col for each move (r, col) of F_{i_k}."""
    word = wy.coordinate_word(b, m)
    row = {(): 1}
    for i, bk in zip(reversed(word), reversed(b)):
        out = dict(row)
        for r, col in gr.spin_f_moves(i, m):
            c = row.get(r)
            if c is None:
                continue
            x = bk * c
            cur = out.get(col)
            new = x if cur is None else cur + x
            if new:
                out[col] = new
            else:
                out.pop(col, None)
        row = out
    return row


def dict_wp_subword_sums(word: Sequence[int], b: Sequence, m: int, target: tuple[int, ...] | None = None) -> dict:
    """The W^P programme on a dict of states: right to left over `word`,
    each state present takes the letter at position p when
    `weyl.wp_transitions` allows it and the next state is in the pruning
    table's entry p - 1 (every state without a target)."""
    if any(not 1 <= letter <= m for letter in word):
        raise ValueError(f"word {tuple(word)} has a letter outside 1..{m}")
    steps = wy.wp_transitions(m)
    alive = [steps] * (len(word) + 1) if target is None else wy._alive(tuple(word), m, target)
    sums = {(): 1}
    for p in range(len(word), 0, -1):
        letter, bp = word[p - 1], b[p - 1]
        for state, value in list(sums.items()):
            nxt = steps[state][letter - 1]
            if nxt in alive[p - 1]:
                term = value * bp
                sums[nxt] = sums[nxt] + term if nxt in sums else term
    return sums


def arithmetic_stream(seed: int):
    """The draws of `cli.rational_stream`, each Fraction built from its two
    splitmix64 values: numerator in [-9,9]\\{0}, denominator in [1,9]."""
    gen = splitmix64(seed)
    while True:
        num = next(gen) % 18 - 9
        if num >= 0:
            num += 1
        den = next(gen) % 9 + 1
        yield Fraction(num, den)
