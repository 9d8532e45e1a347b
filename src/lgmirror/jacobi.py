"""Numerical critical points of the Laurent superpotential and spectrum checks.

W-tilde(b) = sum_j b_j + q sum_T prod_{k in T} 1/b_k, where T runs over the
m-element complements of the subword sets defining N(b).  Critical points
are found by Levenberg-damped Newton iteration on the analytic gradient
and Hessian from many random complex starts, run in lockstep on numpy
stacks, deduplicated in start order, polished, and closed under
the value-rotating symmetry b -> zeta b, zeta^(m+1) = 1.  Their critical
values match (m+1) times eigenvalues of quantum multiplication by
sigma_1, the anti-canonical pairing predicted by the Jacobi-ring
description of qH*(LG(m)).  The tests pin the torus share of the 2^m
critical points: 3 of 4 at m = 2 (the fourth, (1:0:0:-q), has p_(2) = 0)
and 8 of 8 at m = 3; for m >= 4 it is not established (ROADMAP item A).

The conjecture probe evaluates the signed quadratic sums at critical
points through the complex-scalar Pluecker machinery; the identification
sigma_lambda -> p_lambda/p_empty at critical points is standard mirror
folklore rather than a proved statement, so deviations are reported as
evidence, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lgmirror import partitions as pt
from lgmirror import qchevalley as qc
from lgmirror import superpotential as sp
from lgmirror import weyl as wy
from lgmirror.scalars import COMPLEX, splitmix64

GRAD_TOL = 1e-10
POLISH_TOL = 1e-12
DEDUP_RADIUS = 1e-6


def uniform01(gen) -> float:
    return next(gen) / 2.0**64


@dataclass
class CriticalPoint:
    coords: tuple[complex, ...]
    value: complex
    grad_norm: float


# Why a Newton start ends; find_critical_points counts the starts by reason.
START_OUTCOMES = ("converged", "iteration_cap", "no_descent", "out_of_range")
CONVERGED, ITERATION_CAP, NO_DESCENT, OUT_OF_RANGE = range(len(START_OUTCOMES))


def torus_monomials(m: int) -> np.ndarray:
    """Boolean mask (n_terms x N): row T selects the m inverted coordinates of
    one monomial of q N(b)/prod(b)."""
    n = m * (m + 1) // 2
    subsets = wy.complement_subwords(m)
    mask = np.zeros((len(subsets), n), dtype=bool)
    for r, s in enumerate(subsets):
        comp = set(range(1, n + 1)) - set(s)
        for k in comp:
            mask[r, k - 1] = True
    return mask


def _terms(inv: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The monomials t_T = prod_{k in T} 1/b_k, shape (..., n_terms)."""
    return np.prod(np.where(mask, inv[..., None, :], 1.0), axis=-1)


def w_tilde_value(b: np.ndarray, q: complex, mask: np.ndarray) -> complex:
    return complex(b.sum() + q * _terms(1.0 / b, mask).sum())


def grad_w_tilde(b: np.ndarray, q: complex, mask: np.ndarray) -> np.ndarray:
    """Analytic gradient: dW/db_j = 1 - q sum_{T contains j} (1/b_j) prod_{k in T} 1/b_k.

    `b` is one point (N,) or a stack of points (S, N); the result has its shape.
    """
    inv = 1.0 / b
    terms = _terms(inv, mask)
    return 1.0 - q * ((mask * terms[..., :, None]) * inv[..., None, :]).sum(axis=-2)


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


def _draw_starts(n: int, trials: int, seed: int) -> np.ndarray:
    """The (trials, N) random complex starts, |b_k| in [0.4, 1.6]."""
    gen = splitmix64(seed)
    return np.array(
        [
            [(0.4 + 1.2 * uniform01(gen)) * np.exp(2j * np.pi * uniform01(gen)) for _ in range(n)]
            for _ in range(trials)
        ],
        dtype=complex,
    ).reshape(trials, n)


def find_critical_points(
    m: int, q: complex, trials: int = 200, seed: int = 1, outcomes: dict | None = None
) -> list[CriticalPoint]:
    """Multi-start Newton search on grad W-tilde = 0; deterministic under seed.

    When `outcomes` is given, it receives the number of starts ending for
    each reason in START_OUTCOMES; the counts sum to `trials`.
    """
    if q == 0:
        raise ValueError("critical point search needs q != 0")
    n = m * (m + 1) // 2
    mask = torus_monomials(m)
    roots, reasons = _newton(_draw_starts(n, trials, seed), q, mask)
    if outcomes is not None:
        outcomes.update(zip(START_OUTCOMES, np.bincount(reasons, minlength=len(START_OUTCOMES)).tolist()))
    found: list[np.ndarray] = []
    for b in roots[reasons == CONVERGED]:
        if all(np.linalg.norm(b - prev) > DEDUP_RADIUS for prev in found):
            found.append(b)
    found = _symmetry_closure(found, q, mask, m)
    pts = [
        CriticalPoint(
            tuple(b),
            w_tilde_value(b, q, mask),
            float(np.linalg.norm(grad_w_tilde(b, q, mask))),
        )
        for b in found
    ]
    pts.sort(key=lambda p: (p.value.real, p.value.imag) + tuple(x for c in p.coords for x in (c.real, c.imag)))
    return pts


def _newton(b: np.ndarray, q: complex, mask: np.ndarray, iters: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-damped Newton on grad = 0 from every row of the stack `b`.

    The gradient is holomorphic in b, so the damped normal equations stay
    complex.  The starts run in lockstep, but each keeps its own damping
    lam and takes the step it would take alone: per iteration it exits if
    its gradient is not finite or some |b_k| leaves [1e-12, 1e9], stops once
    |grad| < POLISH_TOL, and otherwise tries up to 40 damped steps, taking
    the first with a finite, smaller gradient (lam -> lam/5, or 0 once
    lam <= 1e-12) and raising lam -> max(4 lam, 1e-6) after each rejection.
    Returns the final rows and each start's reason, an index into
    START_OUTCOMES; the rows are roots where the reason is CONVERGED.
    """
    b = b.copy()
    lam = np.zeros(len(b))
    g = grad_w_tilde(b, q, mask)
    gn = np.linalg.norm(g, axis=-1)
    reasons = np.full(len(b), ITERATION_CAP)
    live = np.arange(len(b))
    for _ in range(iters):
        size = np.abs(b[live])
        out = ~np.isfinite(gn[live]) | (size.min(axis=-1) < 1e-12) | (size.max(axis=-1) > 1e9)
        done = ~out & (gn[live] < POLISH_TOL)
        reasons[live[out]] = OUT_OF_RANGE
        reasons[live[done]] = CONVERGED
        live = live[~out & ~done]
        if not live.size:
            break
        hess = hess_w_tilde(b[live], q, mask)
        pending = np.arange(live.size)  # positions in live still looking for descent
        for _ in range(40):
            idx = live[pending]
            cand = b[idx] + _damped_steps(hess[pending], g[idx], lam[idx])
            fits = np.flatnonzero(np.abs(cand).min(axis=-1) > 1e-12)
            g2 = grad_w_tilde(cand[fits], q, mask)
            gn2 = np.linalg.norm(g2, axis=-1)
            better = np.isfinite(gn2) & (gn2 < gn[idx[fits]])
            won = fits[better]
            win = idx[won]
            b[win], g[win], gn[win] = cand[won], g2[better], gn2[better]
            lam[win] = np.where(lam[win] > 1e-12, lam[win] / 5.0, 0.0)
            pending = np.delete(pending, won)
            stuck = live[pending]
            lam[stuck] = np.maximum(lam[stuck] * 4.0, 1e-6)
            if not pending.size:
                break
        reasons[live[pending]] = NO_DESCENT
        live = np.delete(live, pending)
    return b, reasons


def _damped_steps(hess: np.ndarray, g: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Newton steps (lam = 0) or Levenberg steps (H^H H + lam I) s = -H^H g.

    One batched solve; if a matrix in the batch is singular, each is solved
    alone and a singular one gets a NaN step, which no start accepts.
    """
    a, rhs = hess.copy(), -g
    damped = np.flatnonzero(lam)
    if damped.size:
        hh = hess[damped].conj().transpose(0, 2, 1)
        a[damped] = hh @ hess[damped] + lam[damped, None, None] * np.eye(hess.shape[-1])
        rhs[damped] = (-hh @ g[damped, :, None])[..., 0]
    try:
        return np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(rhs, np.nan)
        for k in range(len(a)):
            try:
                steps[k] = np.linalg.solve(a[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return steps


def _symmetry_closure(found: list[np.ndarray], q: complex, mask: np.ndarray, m: int) -> list[np.ndarray]:
    """Close the point set under b -> zeta b, zeta^(m+1) = 1.

    W-tilde(zeta b) = zeta W-tilde(b) at fixed q (quasi-homogeneity), so the
    rotations of a critical point are critical; each rotation is re-polished
    to full precision before joining the set.
    """
    zeta = np.exp(2j * np.pi / (m + 1))
    out = list(found)
    for b in found:
        cand = b
        for _ in range(m):
            cand = zeta * cand
            if all(np.linalg.norm(cand - prev) > DEDUP_RADIUS for prev in out):
                roots, reasons = _newton(cand[None, :], q, mask, iters=60)
                if reasons[0] == CONVERGED and all(np.linalg.norm(roots[0] - prev) > DEDUP_RADIUS for prev in out):
                    out.append(roots[0])
    return out


def match_multisets(a: list[complex], b: list[complex]) -> float:
    """Greedy nearest matching of equal-size multisets, max relative error
    |x - y| / max(1, |x|, |y|)."""
    if len(a) != len(b):
        return float("inf")
    rest = list(b)
    worst = 0.0
    for x in sorted(a, key=lambda z: (z.real, z.imag)):
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - x))
        y = rest.pop(k)
        worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


def sigma1_matrix(m: int, q_value: complex) -> np.ndarray:
    """Matrix of sigma_1 * in the Schubert basis (canonical subset order),
    entry (mu, lambda) = coefficient of sigma_mu in sigma_1 * sigma_lambda."""
    basis = pt.all_strict_partitions(m)
    index = {lam: k for k, lam in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, product in enumerate(qc.sigma1_table(m).values()):
        for (mu_, d), c in product.terms.items():
            out[index[mu_], col] += c * q_value**d
    return out


@dataclass
class SpectrumReport:
    count: int
    expected_count: int
    max_rel_err: float
    critical_values: list[complex]
    eigenvalues_scaled: list[complex]

    @property
    def ok(self) -> bool:
        return self.count == self.expected_count and self.max_rel_err < 1e-6


def compare_spectrum(m: int, q: complex, points: list[CriticalPoint]) -> SpectrumReport:
    """Critical values against (m+1) x eigenvalues of the sigma_1 matrix."""
    eigs = np.linalg.eigvals(sigma1_matrix(m, q))
    scaled = [complex((m + 1) * z) for z in eigs]
    values = [p.value for p in points]
    return SpectrumReport(
        count=len(points),
        expected_count=2**m,
        max_rel_err=match_multisets(values, scaled) if len(values) == len(scaled) else float("inf"),
        critical_values=sorted(values, key=lambda z: (z.real, z.imag)),
        eigenvalues_scaled=sorted(scaled, key=lambda z: (z.real, z.imag)),
    )


@dataclass
class ProbeReport:
    l: int
    points: int  # critical points probed
    max_dev: float | None  # None when no point was probed
    p_empty_min: float | None  # smallest |p_empty| seen; probe is ill-defined near 0


def conjecture_probe(m: int, q: complex, l: int, points: list[CriticalPoint]) -> ProbeReport:
    """Evaluate sum_J sign(J) (p_{rho_l^J}/p_0)(p_{mu_l^J}/p_0) - q^l at critical points.

    Evidence for the quantum-cohomology relation conjectured for the W_t
    denominators; uses the sigma_lambda -> p_lambda/p_empty identification.
    Over no points the deviation and min |p_empty| are None, not 0 and inf.
    """
    if not 1 <= l <= m - 1:
        raise ValueError("probe needs 1 <= l <= m-1")
    if not points:
        return ProbeReport(l=l, points=0, max_dev=None, p_empty_min=None)
    terms = pt.denominator_terms(l, m)
    target = q**l
    worst = 0.0
    p_empty_min = float("inf")
    for cp in points:
        b = list(cp.coords)
        p = sp.plucker_vector(b, m, COMPLEX)
        p0 = p[pt.empty(m)]
        p_empty_min = min(p_empty_min, abs(p0))
        total = 0j
        for sign, lam1, lam2 in terms:
            total += sign * (p[lam1] / p0) * (p[lam2] / p0)
        worst = max(worst, abs(total - target) / max(1.0, abs(target)))
    return ProbeReport(l=l, points=len(points), max_dev=worst, p_empty_min=p_empty_min)


def critical_report(m: int, q: complex, trials: int = 200, seed: int = 1) -> dict:
    """Full machine-readable report: start outcomes, points, spectrum match,
    conjecture probes."""
    starts: dict = {}
    points = find_critical_points(m, q, trials, seed, outcomes=starts)
    spectrum = compare_spectrum(m, q, points)
    probes = [conjecture_probe(m, q, l, points) for l in range(1, m)]
    return {
        "schema": "lg-mirror/1",
        "m": m,
        "q": [q.real, q.imag],
        "trials": trials,
        "seed": seed,
        "starts": starts,
        "points": [
            {
                "b": [[c.real, c.imag] for c in p.coords],
                "value": [p.value.real, p.value.imag],
                "grad_norm": p.grad_norm,
            }
            for p in points
        ],
        "spectrum_match": {
            "count": spectrum.count,
            "expected_count": spectrum.expected_count,
            "max_rel_err": spectrum.max_rel_err,
            "eigenvalues_scaled": [[z.real, z.imag] for z in spectrum.eigenvalues_scaled],
        },
        "conjecture": [
            {
                "l": r.l,
                "points": r.points,
                "max_dev": r.max_dev,
                "note": "evidence only: uses the unproved sigma = p/p0 identification",
            }
            for r in probes
        ],
    }
