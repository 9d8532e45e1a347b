"""Numerical critical points of the Laurent superpotential and spectrum checks.

W-tilde(b) = sum_j b_j + q sum_T prod_{k in T} 1/b_k, where T runs over the
m-element complements of the subword sets defining N(b).  The critical
points come from the spectrum of quantum multiplication by sigma_1, the
anti-canonical pairing predicted by the Jacobi-ring description of
qH*(LG(m)): a left eigenvector of the sigma_1 matrix, scaled to
v_empty = 1, is the Pluecker point of the critical point of W with value
(m+1) times its eigenvalue.  The chamber ansatz (Berenstein-Fomin-
Zelevinsky 1996) peels that point back to torus coordinates b, and one
batched plain Newton on the analytic gradient and Hessian of W-tilde, both
from one evaluation of the monomials per step, polishes them.  An
eigenvector whose peel meets a vanishing pivot lies off the torus; a
multiple eigenvalue is not peeled, since a basis vector of its eigenspace
is no Pluecker point.  At q = 1 and 2+i the torus
carries 3, 8, 10, 30, 35, 128 and 108 of the 2^m critical points for
m = 2..8 (pinned in tests/test_jacobi.py).  At m = 2 the missing one is
(1:0:0:-q), which has p_(2) = 0; at m = 5 the eigenvalue 0 is double.

The module computes in numpy only: it reads grouprep's plan of the spin
row (sweep_moves) once, as the index arrays of _peel_plan, and applies
each factor I + b F in place to a C-ordered (2^m, S) stack whose columns
are the vectors, so each move reads and writes whole rows; the sigma_1
matrix is filled from per-m index arrays of qchevalley's table.  The
conjecture probe evaluates
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


@lru_cache(maxsize=None)
def _products(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The right operands of the products t M and t P, complex as the
    products run: the monomial mask M = torus_monomials(m), and the pair
    mask P (n_terms x N^2), 1 at (T, (a, c)) for a, c in T; built once per m,
    shared, read-only."""
    mask = torus_monomials(m)
    n = mask.shape[1]
    out = mask.astype(complex), (mask[:, :, None] & mask[:, None, :]).reshape(len(mask), n * n).astype(complex)
    for a in out:
        a.flags.writeable = False
    return out


def _terms(inv: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The monomials t_T = prod_{k in T} 1/b_k, shape (..., n_terms)."""
    return np.prod(np.where(mask, inv[..., None, :], 1.0), axis=-1)


def grad_w_tilde(b: np.ndarray, q: complex, m: int, terms: np.ndarray | None = None) -> np.ndarray:
    """Analytic gradient: dW/db_j = 1 - q (1/b_j) sum_{T contains j} prod_{k in T} 1/b_k,
    i.e. 1 - q inv (t M) with M the monomial mask and t the monomial values.

    `b` is one point (N,) or a stack of points (S, N); the result has its shape.
    `terms`, the monomial values t of `b`, are evaluated here unless the
    caller passes them, as the Newton step does to share one evaluation with
    hess_w_tilde.
    """
    inv = 1.0 / b
    if terms is None:
        terms = _terms(inv, torus_monomials(m))
    return 1.0 - q * inv * (terms @ _products(m)[0])


def hess_w_tilde(b: np.ndarray, q: complex, m: int, terms: np.ndarray | None = None) -> np.ndarray:
    """Analytic Hessian for one point (N,) or a stack (S, N), shape (..., N, N).

    d^2 t_T / db_a db_c = t_T (1/b_a)(1/b_c)(1 + [a = c]) for a, c in T, so
    H = q (M^T diag(t) M) o (inv inv^T) o (J + I), with M the monomial mask,
    t the monomial values, inv = 1/b and J the all-ones matrix; t M^T M is
    the product t P with the pair mask P.  `terms` as for grad_w_tilde.
    """
    n = b.shape[-1]
    inv = 1.0 / b
    if terms is None:
        terms = _terms(inv, torus_monomials(m))
    hess = (terms @ _products(m)[1]).reshape(b.shape + (n,))
    hess *= q
    hess *= inv[..., :, None] * inv[..., None, :]
    hess *= 1.0 + np.eye(n)
    return hess


# -- seed, peel, polish ---------------------------------------------------------


@lru_cache(maxsize=None)
def _peel_plan(m: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The factors F_{i_k}, k = 1..N, of `grouprep.sweep_moves` (the plan of
    the spin row, reversed), and for each k the moves of F_{i_k} into the
    columns that the row e_empty (I + b_N F_{i_N}) ... (I + b_k F_{i_k})
    reaches and the same row without its factor k does not, for generic b:
    the targets that no factor after k wrote, in ascending order.

    A factor, and each part of one, is stored as the index arrays (rows, cols)
    of its moves (exactly the move rule of the spin matrices, so entries 1,
    each row and column at most once, and F^2 = 0 as `peel` assumes), so
    (v F)[cols] = v[rows] in the coordinates the row can have reached.  The plan drops only moves whose source and target the
    row has not reached through factor k, so `pluecker_rows` loses only
    additions of 0, and the peel never reads what those moves would write.
    `peel` and `pluecker_rows` hold S vectors as the columns of a C-ordered
    (2^m, S) stack p, whose row c is coordinate c of every vector: the
    factor I + b F acts on it in place, as p[cols] += b p[rows], moving
    whole rows, and no target coordinate is a source.
    """
    factors, opens, reach = [], [], {0}
    for moves in gr.sweep_moves(m):
        opened = sorted(((r, c) for r, c in moves if c not in reach), key=lambda move: move[1])
        reach.update(c for _, c in moves)
        for plan, part in ((factors, moves), (opens, opened)):
            rows, cols = map(np.array, zip(*part))
            rows.flags.writeable = cols.flags.writeable = False  # shared by every caller through the cache
            plan.append((rows, cols))
    return tuple(factors[::-1]), tuple(opens[::-1])


def pluecker_rows(b_stack: np.ndarray, m: int) -> np.ndarray:
    """The row e_empty (I + b_N F_{i_N}) ... (I + b_1 F_{i_1}) for each row b
    of the stack (S, N): its Pluecker point with p_empty = 1, coordinates in
    all_strict_partitions order, as column s of the (2^m, S) result.  The
    inverse of peel."""
    factors, _ = _peel_plan(m)
    p = np.zeros((2**m, len(b_stack)), dtype=complex)
    p[0] = 1.0
    for k in range(len(factors), 0, -1):
        rows, cols = factors[k - 1]
        p[cols] += b_stack[:, k - 1] * p[rows]
    return p


class Peel(NamedTuple):
    """Torus coordinates read off a stack of S Pluecker vectors.

    Per vector: `b` (a row of N coordinates, NaN from a blocking step on),
    whether a pivot blocked it, and the step k of its smallest pivot (0 for
    p_empty), the pivot column (an index into all_strict_partitions) and
    |pivot| / max|p| there.  A blocking pivot is the vector's smallest.
    """

    b: np.ndarray
    blocked: np.ndarray
    step: np.ndarray
    column: np.ndarray
    pivot: np.ndarray


def peel(v: np.ndarray, m: int) -> Peel:
    """Chamber ansatz: the b with plucker_vector(b) proportional to each column of `v`.

    `v` is a C-ordered (2^m, S) stack of S vectors, coordinates in
    all_strict_partitions order, the layout of np.linalg.eig's eigenvectors.
    Step 0 scales a vector to p = v / v_empty, with pivot v_empty.  Step
    k = 1..N takes the factor I + b_k F_{i_k} off the right of
    p = p' (I + b_k F_{i_k}): as F^2 = 0, p F = p' F, so at a coordinate c
    that p' cannot reach, b_k = p_c / (p F)_c, and p' = p - b_k p F.  Of the
    open coordinates the one with the largest |(p F)_c| is the pivot (a step
    with one open coordinate reads it as a row of the stack); a pivot below
    PIVOT_TOL * max|p| blocks the vector.

    Every vector runs all N steps, and each step records its pivot and
    column.  A vector blocks at its first pivot below the bound; the pivots
    after it are masked out, so the smallest pivot is the first smallest up
    to there, and b is NaN from the blocking step on: whatever inf or NaN
    the later steps of a blocked vector make is never read.
    """
    factors, opens = _peel_plan(m)
    n, count = len(factors), v.shape[1]
    every = np.arange(count)
    pivots = np.empty((n + 1, count))
    at = np.zeros((n + 1, count), dtype=int)
    b = np.empty((n, count), dtype=complex)
    with np.errstate(all="ignore"):
        pivots[0] = np.abs(v[0]) / np.abs(v).max(axis=0)
        p = v / v[0]
        scale = np.abs(p).max(axis=0)
        for k, ((f_rows, f_cols), (open_rows, open_cols)) in enumerate(zip(factors, opens), start=1):
            if len(open_cols) == 1:
                pf = p[open_rows[0]]
                np.abs(pf, out=pivots[k])
                at[k] = c = open_cols[0]
                np.divide(p[c], pf, out=b[k - 1])
            else:
                open_pf = p[open_rows]
                size = np.abs(open_pf)
                j = size.argmax(axis=0)
                pivots[k] = size[j, every]
                at[k] = c = open_cols[j]
                b[k - 1] = p[c, every] / open_pf[j, every]
            if k < n:  # the last factor off, p is read no more
                p[f_cols] -= b[k - 1] * p[f_rows]
        pivots[1:] /= scale
        low = pivots < PIVOT_TOL
        blocked = low.any(axis=0)
        step = pivots.argmin(axis=0)
        if blocked.any():
            pivots[blocked & (np.arange(n + 1)[:, None] > low.argmax(axis=0))] = np.inf
            step = pivots.argmin(axis=0)
            b[blocked & (np.arange(1, n + 1)[:, None] >= step)] = np.nan
    return Peel(b.T, blocked, step, at[step, every], pivots[step, every])


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
    cut = peel(vectors.take(simple, axis=1), m)
    roots, converged, terms = _polish(cut.b[~cut.blocked], q, m)
    # values and gradient norms of the converged rows, from the monomial
    # values of their last Newton evaluation, and each grad_norm bit for bit
    # that of grad_w_tilde at its own row: the stacked product
    # (S, 1, T) @ (T, N) runs, slice by slice, the kernel of the one-point
    # t @ M (a plain (S, T) @ (T, N) product can differ in the last bits), the
    # norm is np.linalg.norm's dot of the real and imaginary parts, and
    # `inv_done` has a name, so numpy cannot reuse it as a temporary and
    # compute inv * q, which may round otherwise than q * inv at a complex q
    done, terms = roots[converged], terms[converged]
    inv_done = 1.0 / done
    g = 1.0 - q * inv_done * np.matmul(terms[:, None, :], _products(m)[0])[:, 0, :]
    grad_norms = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
    points = zip((done.sum(-1) + q * terms.sum(-1)).tolist(), grad_norms.tolist())
    polished = zip(roots.tolist(), converged.tolist())
    basis = pt.all_strict_partitions(m)
    for e, blocked, step, column, pivot in zip(
        simple.tolist(), cut.blocked.tolist(), cut.step.tolist(), cut.column.tolist(), cut.pivot.tolist()
    ):
        z = eigenvalues[e]
        status, polish, point = "blocked", None, None
        if not blocked:
            coords, ok = next(polished)
            status = "torus"
            if not ok:
                polish = "not_converged"
            else:
                value, grad_norm = next(points)
                if _rel_err(value, z) < tolerance:
                    polish, point = "converged", CriticalPoint(tuple(coords), value, grad_norm)
                else:
                    polish = "wrong_value"
        seeds[e] = Seed(z, status, 1, step, basis[column], pivot, polish, point)
    return sorted(seeds, key=lambda s: _order_key(s.eigenvalue_scaled, spread))


def _polish(b: np.ndarray, q: complex, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain Newton on grad W-tilde = 0 from every row of the stack `b`.

    Each row steps b -> b + solve(H, -g) while |g| >= POLISH_TOL, at most
    60 times; the live rows share one batched solve, and one evaluation of
    their monomial values serves both g and H.  If a Hessian in the batch is
    singular, each row is solved alone and a singular row stops
    unconverged.  Returns the final rows, whether each converged, and the
    monomial values of each converged row at its final b (of the other rows,
    unset).
    """
    mask = torus_monomials(m)
    b = b.copy()
    converged = np.zeros(len(b), dtype=bool)
    final = np.empty((len(b), len(mask)), dtype=complex)
    live = np.arange(len(b))
    for _ in range(60):
        at = b[live]
        terms = _terms(1.0 / at, mask)
        g = grad_w_tilde(at, q, m, terms)
        gn = np.linalg.norm(g, axis=-1)
        done, keep = gn < POLISH_TOL, gn >= POLISH_TOL
        ended = live[done]
        converged[ended] = True
        final[ended] = terms[done]
        live = live[keep]
        if not live.size:
            break
        at, terms, g = at[keep], terms[keep], g[keep]
        hess = hess_w_tilde(at, q, m, terms)
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
    return b, converged, final


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
    # one C-ordered row per point: each sum is then a product (S, T) @ (T,)
    # of C-ordered operands, whose kernel, and so the bits of each reported
    # deviation, do not hang on the layout of pluecker_rows
    p = pluecker_rows(np.array([cp.coords for cp in points]), m).T.copy()
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
