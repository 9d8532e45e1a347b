"""The signed pairs of W as the paper defines them: every subset J of the
rows, with the mu^J that is not strict skipped.  The oracle of
`partitions.denominator_terms` and `partitions.numerator_terms`."""

from itertools import combinations

from lgmirror import partitions as pt


def all_j_pairs(l: int, m: int, plus: bool = False) -> list[tuple[int, pt.StrictPartition, pt.StrictPartition]]:
    """(sign, rho^J, mu^J) over all J in {1..l}, in (size, lex) order, where
    row j of rho_l (of rho_{l,+} if `plus`) moves to the end of mu_l and the
    sign is (-1)^{boxes the rows J hold in rho_l}."""
    rows = (pt.rho_plus if plus else pt.rho)(l, m).parts
    out = []
    for size in range(l + 1):
        for subset in combinations(range(1, l + 1), size):
            mu_parts = pt.mu(l, m).parts + tuple(rows[j - 1] for j in subset)
            if any(a <= b for a, b in zip(mu_parts, mu_parts[1:])):
                continue
            rho_parts = tuple(p for j, p in enumerate(rows, start=1) if j not in subset)
            sign = -1 if sum(l + 1 - j for j in subset) % 2 else 1
            out.append((sign, pt.StrictPartition(rho_parts, m), pt.StrictPartition(mu_parts, m)))
    return out
