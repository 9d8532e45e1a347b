"""The random multistart search that spectrum seeding replaced, kept as a
test oracle, and its engine: a lockstep Levenberg-damped Newton, the one
damped Newton in tests/.  MULTISTART_CASES in test_jacobi.py pins, per
search, the count of each START_OUTCOMES reason and of the points found.
`w_tilde_value` is W-tilde at one point, the oracle of the values that
spectrum_seeds computes for all its points at once."""

import numpy as np

from lgmirror import jacobi as jb
from lgmirror.scalars import splitmix64

DEDUP_RADIUS = 1e-6

# Why a Newton run from one start ends.
START_OUTCOMES = ("converged", "iteration_cap", "no_descent", "out_of_range")
CONVERGED, ITERATION_CAP, NO_DESCENT, OUT_OF_RANGE = range(len(START_OUTCOMES))


def uniform01(gen) -> float:
    return next(gen) / 2.0**64


def draw_starts(n: int, trials: int, seed: int) -> np.ndarray:
    """The (trials, N) random complex starts, |b_k| in [0.4, 1.6]."""
    gen = splitmix64(seed)
    return np.array(
        [
            [(0.4 + 1.2 * uniform01(gen)) * np.exp(2j * np.pi * uniform01(gen)) for _ in range(n)]
            for _ in range(trials)
        ],
        dtype=complex,
    ).reshape(trials, n)


def w_tilde_value(b: np.ndarray, q: complex, mask: np.ndarray) -> complex:
    """W-tilde at one point b (N,): sum_j b_j + q sum_T prod_{k in T} 1/b_k."""
    return complex(b.sum() + q * np.prod(np.where(mask, 1.0 / b, 1.0), axis=-1).sum())


def find_critical_points(m, q, trials=200, seed=1, outcomes=None):
    """Multi-start Newton search on grad W-tilde = 0; deterministic under seed.

    When `outcomes` is given, it receives the number of starts ending for
    each reason in START_OUTCOMES; the counts sum to `trials`.
    """
    n = m * (m + 1) // 2
    mask = jb.torus_monomials(m)
    roots, reasons = newton(draw_starts(n, trials, seed), q, m)
    if outcomes is not None:
        outcomes.update(zip(START_OUTCOMES, np.bincount(reasons, minlength=len(START_OUTCOMES)).tolist()))
    found = []
    for b in roots[reasons == CONVERGED]:
        if all(np.linalg.norm(b - prev) > DEDUP_RADIUS for prev in found):
            found.append(b)
    found = _symmetry_closure(found, q, m)
    pts = [
        jb.CriticalPoint(tuple(b), w_tilde_value(b, q, mask), float(np.linalg.norm(jb.grad_w_tilde(b, q, m))))
        for b in found
    ]
    pts.sort(key=lambda p: (p.value.real, p.value.imag) + tuple(x for c in p.coords for x in (c.real, c.imag)))
    return pts


def _symmetry_closure(found, q, m):
    """Close the point set under b -> zeta b, zeta^(m+1) = 1, polishing
    each new rotation with at most 60 Newton iterations."""
    zeta = np.exp(2j * np.pi / (m + 1))
    out = list(found)
    for b in found:
        cand = b
        for _ in range(m):
            cand = zeta * cand
            if all(np.linalg.norm(cand - prev) > DEDUP_RADIUS for prev in out):
                roots, reasons = newton(cand[None, :], q, m, iters=60)
                if reasons[0] == CONVERGED and all(np.linalg.norm(roots[0] - prev) > DEDUP_RADIUS for prev in out):
                    out.append(roots[0])
    return out


def newton(b: np.ndarray, q: complex, m: int, iters: int = 200) -> tuple[np.ndarray, np.ndarray]:
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
    g = jb.grad_w_tilde(b, q, m)
    gn = np.linalg.norm(g, axis=-1)
    reasons = np.full(len(b), ITERATION_CAP)
    live = np.arange(len(b))
    for _ in range(iters):
        size = np.abs(b[live])
        out = ~np.isfinite(gn[live]) | (size.min(axis=-1) < 1e-12) | (size.max(axis=-1) > 1e9)
        done = ~out & (gn[live] < jb.POLISH_TOL)
        reasons[live[out]] = OUT_OF_RANGE
        reasons[live[done]] = CONVERGED
        live = live[~out & ~done]
        if not live.size:
            break
        hess = jb.hess_w_tilde(b[live], q, m)
        pending = np.arange(live.size)  # positions in live still looking for descent
        for _ in range(40):
            idx = live[pending]
            cand = b[idx] + damped_steps(hess[pending], g[idx], lam[idx])
            fits = np.flatnonzero(np.abs(cand).min(axis=-1) > 1e-12)
            g2 = jb.grad_w_tilde(cand[fits], q, m)
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


def damped_steps(hess: np.ndarray, g: np.ndarray, lam: np.ndarray) -> np.ndarray:
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
