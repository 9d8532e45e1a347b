"""Numerical critical points of the Laurent superpotential and spectrum checks.

W-tilde(b) = sum_j b_j + q sum_T prod_{k in T} 1/b_k, where T runs over the
m-element complements of the subword sets defining N(b).  The critical
points come from the spectrum of quantum multiplication by sigma_1, the
anti-canonical pairing predicted by the Jacobi-ring description of
qH*(LG(m)): a left eigenvector of the sigma_1 matrix, scaled to
v_empty = 1, is the Pluecker point of the critical point of W with value
(m+1) times its eigenvalue.  The chamber ansatz (Berenstein-Fomin-
Zelevinsky 1996) peels that point back to torus coordinates b, and one
batched plain Newton on the analytic gradient and Hessian of W-tilde
polishes them.  An eigenvector whose peel meets a vanishing pivot
lies off the torus; a multiple eigenvalue is not peeled, since a basis
vector of its eigenspace is no Pluecker point.  At q = 1 and 2+i the torus
carries 3, 8, 10, 30, 35 and 128 of the 2^m critical points for m = 2..7
(pinned in tests/test_jacobi.py).  At m = 2 the missing one is
(1:0:0:-q), which has p_(2) = 0; at m = 5 the eigenvalue 0 is double.

The module computes in numpy only: it reads grouprep's spin moves once, as
the index arrays of _peel_plan, and applies each factor I + b F to a stack
of rows in place, on F's target columns; the sigma_1 matrix is filled from
per-m index arrays of qchevalley's table.  The conjecture probe evaluates
the signed quadratic sums on the Pluecker rows of the critical points,
which pluecker_rows computes as the peel's forward map over those factors;
the identification sigma_lambda -> p_lambda/p_empty at critical points is
standard mirror folklore rather than a proved statement, so deviations are
reported as evidence, never asserted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

# the exact modules first: numpy then reuses the memory that loading them
# freed, which keeps a fresh `critical` about 1 MB lower at its peak
from lgmirror import grouprep as gr
from lgmirror import partitions as pt
from lgmirror import qchevalley as qc
from lgmirror import weyl as wy
from lgmirror.partitions import StrictPartition

import numpy as np

POLISH_TOL = 1e-12
# A peel pivot below PIVOT_TOL * max|p| blocks the eigenvector.  For q <= 81
# and m <= 5 the pivots of torus points are 1.5e-5 or more and the blocked
# ones 2.2e-15 or less, the rounding level of the eigenvector.
PIVOT_TOL = 1e-10
# Eigenvalues closer than MULTIPLE_TOL times the largest are one multiple
# eigenvalue; points sort by value in units of ORDER_TOL times the largest.
MULTIPLE_TOL = 1e-8
ORDER_TOL = 1e-9


class CriticalPoint(NamedTuple):
    coords: tuple[complex, ...]
    value: complex
    grad_norm: float


@lru_cache(maxsize=None)
def torus_monomials(m: int) -> np.ndarray:
    """Boolean mask (n_terms x N): row T selects the m inverted coordinates of
    one monomial of q N(b)/prod(b); built once per m, shared, read-only."""
    n = m * (m + 1) // 2
    subsets = wy.complement_subwords(m)
    mask = np.zeros((len(subsets), n), dtype=bool)
    for r, s in enumerate(subsets):
        comp = set(range(1, n + 1)) - set(s)
        for k in comp:
            mask[r, k - 1] = True
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _position(m: int) -> dict[StrictPartition, int]:
    """lambda -> its column in every 2^m array here (all_strict_partitions order)."""
    return {lam: k for k, lam in enumerate(pt.all_strict_partitions(m))}


def _terms(inv: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The monomials t_T = prod_{k in T} 1/b_k, shape (..., n_terms)."""
    return np.prod(np.where(mask, inv[..., None, :], 1.0), axis=-1)


def grad_w_tilde(b: np.ndarray, q: complex, mask: np.ndarray) -> np.ndarray:
    """Analytic gradient: dW/db_j = 1 - q (1/b_j) sum_{T contains j} prod_{k in T} 1/b_k,
    i.e. 1 - q inv (t M) with M the monomial mask and t the monomial values.

    `b` is one point (N,) or a stack of points (S, N); the result has its shape.
    """
    inv = 1.0 / b
    return 1.0 - q * inv * (_terms(inv, mask) @ mask)


def hess_w_tilde(b: np.ndarray, q: complex, mask: np.ndarray) -> np.ndarray:
    """Analytic Hessian for one point (N,) or a stack (S, N), shape (..., N, N).

    d^2 t_T / db_a db_c = t_T (1/b_a)(1/b_c)(1 + [a = c]) for a, c in T, so
    H = q (M^T diag(t) M) o (inv inv^T) o (J + I), with M the monomial mask,
    t the monomial values, inv = 1/b and J the all-ones matrix.
    """
    n = b.shape[-1]
    inv = 1.0 / b
    pairs = (mask[:, :, None] & mask[:, None, :]).reshape(len(mask), n * n)
    hess = (_terms(inv, mask) @ pairs).reshape(b.shape + (n,))
    hess *= q
    hess *= inv[..., :, None] * inv[..., None, :]
    hess *= 1.0 + np.eye(n)
    return hess


# -- seed, peel, polish ---------------------------------------------------------


@lru_cache(maxsize=None)
def _peel_plan(m: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The spin matrices F_{i_k}, k = 1..N, and for each k the moves of F_{i_k}
    into the columns that the row e_empty (I + b_N F_{i_N}) ... (I + b_k F_{i_k})
    reaches and the same row without its factor k does not, both for generic b.

    A factor, and each part of one, is stored as the index arrays (rows, cols)
    of its moves (`grouprep.spin_f_moves`: exactly the move rule, so entries
    1, each row and column at most once, and F^2 = 0 as `peel` assumes), so
    (p F)[:, cols] = p[:, rows] and p F is 0 in every other column: the
    factor I + b F acts on a stack of rows p in place, as
    p[:, cols] += b p[:, rows], and no target column is a source.
    """
    index = {s: k for k, s in enumerate(pt.all_subsets(m))}
    letters = []
    for i in range(1, m + 1):
        rows, cols = (np.array([index[s] for s in side]) for side in zip(*gr.spin_f_moves(i, m)))
        rows.flags.writeable = cols.flags.writeable = False  # shared by every caller through the cache
        letters.append((rows, cols))
    factors = tuple(letters[i - 1] for i in wy.canonical_wp_word(m))
    reach = np.zeros(2**m, dtype=bool)
    reach[0] = True
    source = np.zeros(2**m, dtype=int)
    opens = []
    for rows, cols in factors[::-1]:
        grown = reach.copy()
        grown[cols[reach[rows]]] = True
        opened = np.flatnonzero(grown & ~reach)
        source[cols] = rows
        part = source[opened], opened
        for a in part:
            a.flags.writeable = False
        opens.append(part)
        reach = grown
    return factors, tuple(opens[::-1])


def pluecker_rows(b_stack: np.ndarray, m: int) -> np.ndarray:
    """The row e_empty (I + b_N F_{i_N}) ... (I + b_1 F_{i_1}) for each row b
    of the stack (S, N): its Pluecker point with p_empty = 1, columns in
    all_strict_partitions order.  The inverse of peel."""
    factors, _ = _peel_plan(m)
    p = np.zeros((len(b_stack), 2**m), dtype=complex)
    p[:, 0] = 1.0
    for k in range(len(factors), 0, -1):
        rows, cols = factors[k - 1]
        p[:, cols] += b_stack[:, k - 1, None] * p[:, rows]
    return p


class Peel(NamedTuple):
    """Torus coordinates read off a stack of S Pluecker vectors.

    Per row: `b` (N coordinates, NaN from a blocking step on), whether a
    pivot blocked it, and the step k of its smallest pivot (0 for p_empty),
    the pivot column (an index into all_strict_partitions) and
    |pivot| / max|p| there.  A blocking pivot is the row's smallest.
    """

    b: np.ndarray
    blocked: np.ndarray
    step: np.ndarray
    column: np.ndarray
    pivot: np.ndarray


def peel(v: np.ndarray, m: int) -> Peel:
    """Chamber ansatz: the b with plucker_vector(b) proportional to each row of `v`.

    Rows of `v` are indexed in all_strict_partitions order.  Step 0 scales a
    row to p = v / v_empty, with pivot v_empty.  Step k = 1..N takes the
    factor I + b_k F_{i_k} off the right of p = p' (I + b_k F_{i_k}): as
    F^2 = 0, p F = p' F, so at a column c that p' cannot reach,
    b_k = p_c / (p F)_c, and p' = p - b_k p F.  Of the open columns the one
    with the largest |(p F)_c| is the pivot; a pivot below PIVOT_TOL * max|p|
    blocks the row.

    Every row runs all N steps, and each step records its pivot and column.
    A row blocks at its first pivot below the bound; the pivots after it are
    masked out, so the smallest pivot is the first smallest up to there,
    and b is NaN from the blocking step on: whatever inf or NaN the later
    steps of a blocked row make is never read.
    """
    factors, opens = _peel_plan(m)
    n = len(factors)
    rows = np.arange(len(v))
    pivots = np.empty((len(v), n + 1))
    at = np.zeros((len(v), n + 1), dtype=int)
    b = np.empty((len(v), n), dtype=complex)
    with np.errstate(all="ignore"):
        pivots[:, 0] = np.abs(v[:, 0]) / np.abs(v).max(axis=1)
        p = v / v[:, :1]
        scale = np.abs(p).max(axis=1)
        for k, ((f_rows, f_cols), (open_rows, open_cols)) in enumerate(zip(factors, opens), start=1):
            open_pf = p[:, open_rows]
            size = np.abs(open_pf)
            j = size.argmax(axis=1)
            pivots[:, k] = size[rows, j] / scale
            at[:, k] = c = open_cols[j]
            b[:, k - 1] = bk = p[rows, c] / open_pf[rows, j]
            p[:, f_cols] -= bk[:, None] * p[:, f_rows]
        low = pivots < PIVOT_TOL
        blocked = low.any(axis=1)
        pivots[blocked[:, None] & (np.arange(n + 1) > low.argmax(axis=1)[:, None])] = np.inf
        step = pivots.argmin(axis=1)
    b[blocked[:, None] & (np.arange(1, n + 1) >= step[:, None])] = np.nan
    return Peel(b, blocked, step, at[rows, step], pivots[rows, step])


class Seed(NamedTuple):
    """What became of one eigenvalue mu of sigma_1*.

    `status` is "torus" (its eigenvector peeled to b; `polish` is the
    Newton outcome, "converged", "not_converged" or "wrong_value" when it
    converged off (m+1) mu, and `point` is set when it converged on it),
    "blocked" (a vanishing peel pivot) or "multiple" (mu is not simple, so
    not peeled).  A peeled seed names its smallest pivot: step, column and
    |pivot| / max|p|.
    """

    eigenvalue_scaled: complex
    status: str
    multiplicity: int = 1
    step: int | None = None
    column: StrictPartition | None = None
    pivot: float | None = None
    polish: str | None = None
    point: CriticalPoint | None = None


def _order_key(z: complex, spread: float) -> tuple[int, int, int]:
    """Real part and |imaginary part| in units of ORDER_TOL * spread, then
    the sign of the imaginary part: a last-bit change cannot reorder values
    whose rounded parts differ, nor swap a conjugate pair."""
    unit = ORDER_TOL * spread
    im = round(abs(z.imag) / unit)
    return round(z.real / unit), im, (1 if z.imag > 0 else -1) if im else 0


def spectrum_seeds(m: int, q: complex, tolerance: float = 1e-6) -> list[Seed]:
    """Every eigenvalue of sigma_1* and what became of it, in point order.

    Seed: the left eigenvectors of sigma1_matrix(m, q).  Peel: each simple
    eigenvalue's eigenvector to torus coordinates.  Polish: _polish from
    every peeled b; a seed gives a critical point when Newton converges to
    a value whose _rel_err from (m+1) mu is below `tolerance`.  The order
    is that of _order_key on (m+1) mu.
    """
    if q == 0:
        raise ValueError("critical point search needs q != 0")
    mu, vectors = np.linalg.eig(sigma1_matrix(m, q).T)
    scaled = (m + 1) * mu
    spread = float(np.abs(scaled).max())
    multiplicity = (np.abs(scaled[:, None] - scaled[None, :]) <= MULTIPLE_TOL * spread).sum(axis=1)
    eigenvalues = scaled.tolist()
    seeds = [Seed(z, "multiple", k) if k > 1 else None for z, k in zip(eigenvalues, multiplicity.tolist())]
    simple = np.flatnonzero(multiplicity == 1)
    cut = peel(vectors.T[simple], m)
    mask = torus_monomials(m)
    roots, converged = _polish(cut.b[~cut.blocked], q, mask)
    # one evaluation for the stack, and each grad_norm bit for bit that of
    # grad_w_tilde at its own row: the stacked product (S, 1, T) @ (T, N) runs,
    # slice by slice, the kernel of the one-point t @ M (a plain (S, T) @ (T, N)
    # product can differ in the last bits), the norm is np.linalg.norm's dot of
    # the real and imaginary parts, and `inv_done` has a name, so numpy cannot
    # reuse it as a temporary and compute inv * q, which may round otherwise
    # than q * inv at a complex q
    inv = 1.0 / roots
    terms = _terms(inv, mask)
    inv_done = inv[converged]
    g = 1.0 - q * inv_done * np.matmul(terms[converged, None, :], mask)[:, 0, :]
    grad_norms = np.zeros(len(roots))
    grad_norms[converged] = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
    values = (roots.sum(-1) + q * terms.sum(-1)).tolist()
    polished = zip(roots.tolist(), values, converged.tolist(), grad_norms.tolist())
    basis = pt.all_strict_partitions(m)
    for e, blocked, step, column, pivot in zip(
        simple.tolist(), cut.blocked.tolist(), cut.step.tolist(), cut.column.tolist(), cut.pivot.tolist()
    ):
        z = eigenvalues[e]
        status, polish, point = "blocked", None, None
        if not blocked:
            coords, value, done, grad_norm = next(polished)
            status = "torus"
            if not done:
                polish = "not_converged"
            elif _rel_err(value, z) < tolerance:
                polish, point = "converged", CriticalPoint(tuple(coords), value, grad_norm)
            else:
                polish = "wrong_value"
        seeds[e] = Seed(z, status, 1, step, basis[column], pivot, polish, point)
    return sorted(seeds, key=lambda s: _order_key(s.eigenvalue_scaled, spread))


def _polish(b: np.ndarray, q: complex, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain Newton on grad W-tilde = 0 from every row of the stack `b`.

    Each row steps b -> b + solve(H, -g) while |g| >= POLISH_TOL, at most
    60 times; the live rows share one batched solve.  If a Hessian in the
    batch is singular, each row is solved alone and a singular row stops
    unconverged.  Returns the final rows and whether each converged.
    """
    b = b.copy()
    converged = np.zeros(len(b), dtype=bool)
    live = np.arange(len(b))
    for _ in range(60):
        g = grad_w_tilde(b[live], q, mask)
        gn = np.linalg.norm(g, axis=-1)
        converged[live[gn < POLISH_TOL]] = True
        live, g = live[gn >= POLISH_TOL], g[gn >= POLISH_TOL]
        if not live.size:
            break
        hess = hess_w_tilde(b[live], q, mask)
        try:
            b[live] += np.linalg.solve(hess, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            solved = np.ones(len(live), dtype=bool)
            for k, (h, gk) in enumerate(zip(hess, g)):
                try:
                    b[live[k]] += np.linalg.solve(h, -gk)
                except np.linalg.LinAlgError:
                    solved[k] = False
            live = live[solved]
    return b, converged


def _rel_err(a: complex, b: complex) -> float:
    """The pairing error |a - b| / max(1, |a|, |b|), well defined at 0."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


@lru_cache(maxsize=None)
def _sigma1_layers(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The terms c q^d sigma_mu of every sigma_1 * sigma_lambda as the arrays
    (row mu, column lambda, coefficient c, degree d); built once per m,
    shared, read-only.  By the degree law |mu| + (m+1) d = |lambda| + 1 no
    (row, column) pair occurs twice."""
    index = _position(m)
    terms = [
        (index[mu_], col, c, d)
        for col, product in enumerate(qc.sigma1_table(m).values())
        for (mu_, d), c in product.coeffs.items()
    ]
    layers = tuple(np.array(side) for side in zip(*terms))
    for a in layers:
        a.flags.writeable = False
    return layers


def sigma1_matrix(m: int, q_value: complex) -> np.ndarray:
    """Matrix of sigma_1 * in the Schubert basis (canonical subset order),
    entry (mu, lambda) = coefficient of sigma_mu in sigma_1 * sigma_lambda."""
    rows, cols, coeffs, degrees = _sigma1_layers(m)
    powers = np.array([q_value**d for d in range(int(degrees.max()) + 1)], dtype=complex)
    out = np.zeros((2**m, 2**m), dtype=complex)
    out[rows, cols] += coeffs * powers[degrees]
    return out


@lru_cache(maxsize=None)
def _probe_plan(m: int) -> tuple[np.ndarray, ...]:
    """For l = 1..m-1, the rows (sign, column, column) of
    pt.denominator_terms(l, m); built once per m, shared, read-only."""
    column = _position(m)
    plan = []
    for l in range(1, m):
        terms = np.array([(sign, column[a], column[b]) for sign, a, b in pt.denominator_terms(l, m)])
        terms.flags.writeable = False
        plan.append(terms)
    return tuple(plan)


def conjecture_probe(m: int, q: complex, points: list[CriticalPoint]) -> list[float | None]:
    """For l = 1..m-1, the largest |sum_J sign(J) p_{rho_l^J} p_{mu_l^J} - q^l|
    over the points, relative to max(1, |q^l|).

    Evidence for the quantum-cohomology relation conjectured for the W_t
    denominators; uses the sigma_lambda -> p_lambda/p_empty identification
    on the rows of pluecker_rows, whose p_empty is 1.  Over no points each
    deviation is None, not 0.
    """
    if not points:
        return [None] * (m - 1)
    p = pluecker_rows(np.array([cp.coords for cp in points]), m)
    deviations = []
    for l, terms in enumerate(_probe_plan(m), start=1):
        totals = (p[:, terms[:, 1]] * p[:, terms[:, 2]]) @ terms[:, 0]
        target = q**l
        deviations.append(float(np.abs(totals - target).max()) / max(1.0, abs(target)))
    return deviations


def _seed_entry(seed: Seed) -> dict:
    entry = {"eigenvalue_scaled": [seed.eigenvalue_scaled.real, seed.eigenvalue_scaled.imag], "status": seed.status}
    if seed.status == "multiple":
        entry["multiplicity"] = seed.multiplicity
    else:
        entry.update(step=seed.step, column=list(seed.column.parts), pivot=seed.pivot)
    if seed.status == "torus":
        entry["polish"] = seed.polish
    return entry


def critical_report(m: int, q: complex, tolerance: float = 1e-6) -> dict:
    """Full machine-readable report: the fate of every eigenvalue, points,
    spectrum match, conjecture probes, and `ok`: all 2^m points found, each
    value within `tolerance` of (m+1) times its eigenvalue."""
    seeds = spectrum_seeds(m, q, tolerance)
    found = [s for s in seeds if s.point is not None]
    points = [s.point for s in found]
    errors = [_rel_err(s.point.value, s.eigenvalue_scaled) for s in found]
    max_rel_err = max(errors) if len(points) == 2**m else float("inf")
    return {
        "schema": "lg-mirror/2",
        "m": m,
        "q": [q.real, q.imag],
        "seeds": [_seed_entry(s) for s in seeds],
        "points": [
            {
                "b": [[c.real, c.imag] for c in p.coords],
                "value": [p.value.real, p.value.imag],
                "grad_norm": p.grad_norm,
            }
            for p in points
        ],
        "spectrum_match": {
            "count": len(points),
            "expected_count": 2**m,
            "max_rel_err": max_rel_err,
            "eigenvalues_scaled": [[s.eigenvalue_scaled.real, s.eigenvalue_scaled.imag] for s in seeds],
        },
        "conjecture": [
            {
                "l": l,
                "points": len(points),
                "max_dev": max_dev,
                "note": "evidence only: uses the unproved sigma = p/p0 identification",
            }
            for l, max_dev in enumerate(conjecture_probe(m, q, points), start=1)
        ],
        "tolerance": tolerance,
        "ok": max_rel_err < tolerance,
    }
