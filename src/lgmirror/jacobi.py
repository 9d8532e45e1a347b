"""Numerical critical points of the Laurent superpotential and spectrum checks.

W-tilde(b) = sum_j b_j + q sum_T prod_{k in T} 1/b_k, where T runs over the
m-element complements of the subword sets defining N(b).  Critical points
are found by Levenberg-damped Newton iteration on the analytic gradient
from many random complex starts, deduplicated, polished, and closed under
the value-rotating symmetry b -> zeta b, zeta^(m+1) = 1.  Their critical
values match (m+1) times eigenvalues of quantum multiplication by
sigma_1, the anti-canonical pairing predicted by the Jacobi-ring
description of qH*(LG(m)).  The coordinate torus carries all 2^m critical
points for odd m but misses the value-0 point when m is even (at m = 2
this is provable by hand; sigma_1 has the eigenvalue 0 exactly then).

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
from lgmirror.scalars import COMPLEX

GRAD_TOL = 1e-10
POLISH_TOL = 1e-12
DEDUP_RADIUS = 1e-6


def splitmix64(state: int):
    """Deterministic 64-bit generator; the single randomness source of the package."""
    mask = (1 << 64) - 1
    state &= mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def uniform01(gen) -> float:
    return next(gen) / 2.0**64


@dataclass
class TorusPoint:
    coords: tuple[complex, ...]


@dataclass
class CriticalPoint:
    point: TorusPoint
    value: complex
    grad_norm: float


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


def w_tilde_value(b: np.ndarray, q: complex, mask: np.ndarray) -> complex:
    inv = 1.0 / b
    terms = np.prod(np.where(mask, inv[None, :], 1.0), axis=1)
    return complex(b.sum() + q * terms.sum())


def grad_w_tilde(b: np.ndarray, q: complex, mask: np.ndarray) -> np.ndarray:
    """Analytic gradient: dW/db_j = 1 - q sum_{T contains j} (1/b_j) prod_{k in T} 1/b_k."""
    inv = 1.0 / b
    terms = np.prod(np.where(mask, inv[None, :], 1.0), axis=1)
    return 1.0 - q * ((mask * terms[:, None]) * inv[None, :]).sum(axis=0)


def hess_w_tilde(b: np.ndarray, q: complex, mask: np.ndarray) -> np.ndarray:
    n = b.shape[0]
    inv = 1.0 / b
    terms = np.prod(np.where(mask, inv[None, :], 1.0), axis=1)
    hess = np.zeros((n, n), dtype=complex)
    for t in range(mask.shape[0]):
        idx = np.nonzero(mask[t])[0]
        v = terms[t]
        for a in idx:
            hess[a, a] += 2.0 * q * v * inv[a] * inv[a]
            for c in idx:
                if c != a:
                    hess[a, c] += q * v * inv[a] * inv[c]
    return hess


def find_critical_points(m: int, q: complex, trials: int = 200, seed: int = 1) -> list[CriticalPoint]:
    """Multi-start Newton search on grad W-tilde = 0; deterministic under seed."""
    if q == 0:
        raise ValueError("critical point search needs q != 0")
    n = m * (m + 1) // 2
    mask = torus_monomials(m)
    gen = splitmix64(seed)
    found: list[np.ndarray] = []
    for _ in range(trials):
        b = np.array(
            [
                (0.4 + 1.2 * uniform01(gen)) * np.exp(2j * np.pi * uniform01(gen))
                for _ in range(n)
            ]
        )
        b = _newton(b, q, mask)
        if b is None:
            continue
        if all(np.linalg.norm(b - prev) > DEDUP_RADIUS for prev in found):
            found.append(b)
    found = _symmetry_closure(found, q, mask, m)
    pts = [
        CriticalPoint(
            TorusPoint(tuple(b)),
            w_tilde_value(b, q, mask),
            float(np.linalg.norm(grad_w_tilde(b, q, mask))),
        )
        for b in found
    ]
    pts.sort(key=lambda p: (p.value.real, p.value.imag) + tuple(x for c in p.point.coords for x in (c.real, c.imag)))
    return pts


def _newton(b: np.ndarray, q: complex, mask: np.ndarray, iters: int = 200) -> np.ndarray | None:
    """Levenberg-damped Newton on grad = 0; the gradient is holomorphic in b,
    so the damped normal equations stay complex.  Returns the root or None."""
    lam = 0.0
    g = grad_w_tilde(b, q, mask)
    gn = np.linalg.norm(g)
    for _ in range(iters):
        if not np.isfinite(gn) or np.min(np.abs(b)) < 1e-12 or np.max(np.abs(b)) > 1e9:
            return None
        if gn < POLISH_TOL:
            return b
        hess = hess_w_tilde(b, q, mask)
        accepted = False
        for _ in range(40):
            try:
                if lam == 0.0:
                    step = np.linalg.solve(hess, -g)
                else:
                    hh = hess.conj().T @ hess + lam * np.eye(len(b))
                    step = np.linalg.solve(hh, -hess.conj().T @ g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                cand = b + step
                if np.min(np.abs(cand)) > 1e-12:
                    g2 = grad_w_tilde(cand, q, mask)
                    gn2 = np.linalg.norm(g2)
                    if np.isfinite(gn2) and gn2 < gn:
                        b, g, gn = cand, g2, gn2
                        lam = max(lam / 5.0, 0.0) if lam > 1e-12 else 0.0
                        accepted = True
                        break
            lam = max(lam * 4.0, 1e-6)
        if not accepted:
            return None
    return None


def _polish(b: np.ndarray, q: complex, mask: np.ndarray) -> np.ndarray | None:
    return _newton(b, q, mask, iters=60)


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
                polished = _polish(cand.copy(), q, mask)
                if polished is not None and all(
                    np.linalg.norm(polished - prev) > DEDUP_RADIUS for prev in out
                ):
                    out.append(polished)
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
    eigs = np.linalg.eigvals(qc.sigma1_matrix(m, q))
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
    terms = sp.denominator_terms(l, m)
    target = q**l
    worst = 0.0
    p_empty_min = float("inf")
    for cp in points:
        b = list(cp.point.coords)
        p = sp.plucker_vector(b, m, COMPLEX)
        p0 = p[pt.empty(m)]
        p_empty_min = min(p_empty_min, abs(p0))
        total = 0j
        for sign, lam1, lam2 in terms:
            total += sign * (p[lam1] / p0) * (p[lam2] / p0)
        worst = max(worst, abs(total - target) / max(1.0, abs(target)))
    return ProbeReport(l=l, points=len(points), max_dev=worst, p_empty_min=p_empty_min)


def critical_report(m: int, q: complex, trials: int = 200, seed: int = 1) -> dict:
    """Full machine-readable report: points, spectrum match, conjecture probes."""
    points = find_critical_points(m, q, trials, seed)
    spectrum = compare_spectrum(m, q, points)
    probes = [conjecture_probe(m, q, l, points) for l in range(1, m)]
    return {
        "schema": "lg-mirror/1",
        "m": m,
        "q": [q.real, q.imag],
        "trials": trials,
        "seed": seed,
        "points": [
            {
                "b": [[c.real, c.imag] for c in p.point.coords],
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
