import json

import numpy as np
import pytest

from lgmirror import jacobi as jb


# -- oracles: the per-start search the lockstep batch replaced ------------------


def _hess_loop(b, q, mask):
    """Hessian of W-tilde at one point, summed term by term."""
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


def _newton_one(b, q, mask, iters=200):
    """Levenberg-damped Newton from one start; returns the root or None."""
    lam = 0.0
    g = jb.grad_w_tilde(b, q, mask)
    gn = np.linalg.norm(g)
    for _ in range(iters):
        if not np.isfinite(gn) or np.min(np.abs(b)) < 1e-12 or np.max(np.abs(b)) > 1e9:
            return None
        if gn < jb.POLISH_TOL:
            return b
        hess = _hess_loop(b, q, mask)
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
                    g2 = jb.grad_w_tilde(cand, q, mask)
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


def test_splitmix_deterministic():
    a = [next(jb.splitmix64(7)) for _ in range(5)]
    b = [next(jb.splitmix64(7)) for _ in range(5)]
    gen = jb.splitmix64(7)
    c = [next(gen) for _ in range(5)]
    assert a[0] == b[0] and a[0] == c[0]
    assert len(set(c)) == 5


def test_torus_monomials_m2():
    mask = jb.torus_monomials(2)
    rows = {tuple(np.nonzero(r)[0] + 1) for r in mask}
    assert rows == {(2, 3), (1, 2)}


def test_gradient_matches_finite_differences():
    for m in (2, 3):
        mask = jb.torus_monomials(m)
        gen = jb.splitmix64(17)
        n = m * (m + 1) // 2
        b = np.array([0.6 + jb.uniform01(gen) + 1j * (jb.uniform01(gen) - 0.5) for _ in range(n)])
        q = 1.1 + 0.3j
        g = jb.grad_w_tilde(b, q, mask)
        eps = 1e-7
        for j in range(n):
            e = np.zeros(n)
            e[j] = eps
            fd = (jb.w_tilde_value(b + e, q, mask) - jb.w_tilde_value(b - e, q, mask)) / (2 * eps)
            assert abs(fd - g[j]) / max(1.0, abs(g[j])) < 1e-8


def test_gradient_m2_explicit_formula():
    mask = jb.torus_monomials(2)
    b = np.array([1.3 - 0.2j, 0.7 + 0.4j, -1.1 + 0.9j])
    q = 2.0 + 0j
    g = jb.grad_w_tilde(b, q, mask)
    assert abs(g[1] - (1 - q * (b[0] + b[2]) / (b[0] * b[1] ** 2 * b[2]))) < 1e-12


def test_hessian_matches_finite_differences():
    """Stacked gradients and Hessians equal the per-row ones, the Hessian
    equals the term-by-term loop and central differences of the gradient."""
    for m in (2, 3, 4):
        mask = jb.torus_monomials(m)
        n = m * (m + 1) // 2
        stack = jb._draw_starts(n, 4, 23 + m)
        for q in (1.0 + 0j, 1.1 + 0.3j):
            grads = jb.grad_w_tilde(stack, q, mask)
            hessians = jb.hess_w_tilde(stack, q, mask)
            assert grads.shape == (4, n) and hessians.shape == (4, n, n)
            eps = 1e-7
            for b, g, hess in zip(stack, grads, hessians):
                scale = np.abs(hess).max()
                assert np.allclose(g, jb.grad_w_tilde(b, q, mask), rtol=1e-14, atol=0)
                assert np.allclose(hess, jb.hess_w_tilde(b, q, mask), rtol=1e-14, atol=0)
                assert np.allclose(hess, _hess_loop(b, q, mask), rtol=1e-13, atol=1e-14 * scale)
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = eps
                    col = (jb.grad_w_tilde(b + e, q, mask) - jb.grad_w_tilde(b - e, q, mask)) / (2 * eps)
                    assert np.allclose(col, hess[:, j], rtol=1e-5, atol=1e-7 * scale)


@pytest.mark.parametrize("m, trials", [(2, 10), (3, 10), (4, 5), (5, 3)])
def test_lockstep_newton_matches_per_start_oracle(m, trials):
    """Every start ends where the per-start search ends: both fail, or both
    return roots within 1e-10.  No start converges at m >= 4 (see README)."""
    mask = jb.torus_monomials(m)
    n = m * (m + 1) // 2
    converged = 0
    for q in (1.0 + 0j, 2.0 + 1.0j, 1e-12 + 0j):
        for seed, iters in ((1, 200), (2, 200), (3, 60)):
            starts = jb._draw_starts(n, trials, seed)
            roots, reasons = jb._newton(starts, q, mask, iters=iters)
            for b0, root, reason in zip(starts, roots, reasons):
                want = _newton_one(b0.copy(), q, mask, iters=iters)
                assert (want is None) == (reason != jb.CONVERGED), (m, q, seed, reason)
                if want is not None:
                    converged += 1
                    assert np.abs(root - want).max() < 1e-10
    assert converged > 0 or m >= 4


def test_singular_hessian_does_not_fail_the_batch(monkeypatch):
    mask = jb.torus_monomials(3)
    starts = jb._draw_starts(6, 12, 5)
    roots, reasons = jb._newton(starts, 1.0 + 0j, mask)
    assert (reasons == jb.CONVERGED).sum() >= 2
    bad = starts[0] * 1.5
    true_hess = jb.hess_w_tilde

    def hess_zero_at_bad(b, q, mask):
        hess = true_hess(b, q, mask)
        hess[np.all(b == bad, axis=-1)] = 0.0
        return hess

    monkeypatch.setattr(jb, "hess_w_tilde", hess_zero_at_bad)
    roots2, reasons2 = jb._newton(np.vstack([bad, starts]), 1.0 + 0j, mask)
    assert reasons2[0] == jb.NO_DESCENT
    assert np.array_equal(reasons2[1:], reasons)
    assert np.array_equal(roots2[1:], roots)


def test_start_outcomes_are_those_of_the_per_start_search():
    """Counts recorded from the per-start search at q = 1, 250 starts, seed 1."""
    recorded = {2: (92, 131, 12, 15), 3: (46, 152, 13, 39)}
    for m, counts in recorded.items():
        starts = {}
        jb.find_critical_points(m, 1.0 + 0j, trials=250, seed=1, outcomes=starts)
        assert starts == dict(zip(jb.START_OUTCOMES, counts))


def test_critical_points_m3_full_spectrum():
    for q in (1.0, 2.0):
        pts = jb.find_critical_points(3, complex(q), trials=250, seed=5)
        assert len(pts) == 8
        assert all(p.grad_norm < jb.GRAD_TOL for p in pts)
        rep = jb.compare_spectrum(3, complex(q), pts)
        assert rep.ok and rep.max_rel_err < 1e-9


def test_critical_points_m2_torus_misses_the_zero_value():
    """The m = 2 chart provably contains 3 of the 4 critical points.

    Solving grad = 0 exactly: b1^2 b2 = q = b2 b3^2 forces b3 = +-b1, and
    b3 = -b1 collapses the remaining equation to 1 = 0; the surviving
    branch b2 = 2 b1, q = 2 b1^3 gives three points with values 6 b1.
    The fourth critical point of the global function sits at Pluecker
    coordinates (1 : 0 : 0 : -q), value 0, which no nonzero-b factorization
    reaches (it needs p_(2) = b2 b3 = 0).
    """
    for q in (1.0, 2.0, 1.0 + 1.0j):
        pts = jb.find_critical_points(2, complex(q), trials=150, seed=5)
        assert len(pts) == 3
        expected = sorted(
            (6 * (complex(q) / 2) ** (1 / 3) * np.exp(2j * np.pi * k / 3) for k in range(3)),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted((p.value for p in pts), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, expected))
        # the three found values match three of the four scaled eigenvalues
        eigs = sorted(
            (3 * z for z in np.linalg.eigvals(jb.sigma1_matrix(2, complex(q)))),
            key=lambda z: abs(z),
        )
        missing = eigs[0]
        assert abs(missing) < 1e-9  # the 0-eigenvalue is the absent one
        assert jb.match_multisets(got, [complex(z) for z in eigs[1:]]) < 1e-9


def test_doubling_trials_saturates():
    a = jb.find_critical_points(3, 1.0 + 0j, trials=150, seed=11)
    b = jb.find_critical_points(3, 1.0 + 0j, trials=300, seed=11)
    assert len(a) == len(b) == 8
    assert jb.match_multisets([p.value for p in a], [p.value for p in b]) < 1e-9


def test_q_dependence():
    p1 = jb.find_critical_points(2, 1.0 + 0j, trials=80, seed=3)
    p2 = jb.find_critical_points(2, 2.0 + 0j, trials=80, seed=3)
    v1 = {round(p.value.real, 6) for p in p1}
    v2 = {round(p.value.real, 6) for p in p2}
    assert v1 != v2


def test_conjecture_probe():
    for m, q in [(2, 1.0), (3, 1.0), (3, 2.0)]:
        pts = jb.find_critical_points(m, complex(q), trials=200, seed=7)
        for l in range(1, m):
            rep = jb.conjecture_probe(m, complex(q), l, pts)
            assert rep.max_dev < 1e-6, (m, q, l, rep.max_dev)
            assert rep.p_empty_min > 1e-6


def test_probe_over_no_points_is_not_a_pass():
    rep = jb.conjecture_probe(3, 1.0 + 0j, 1, [])
    assert rep.points == 0 and rep.max_dev is None and rep.p_empty_min is None
    report = jb.critical_report(3, 1.0 + 0j, trials=0, seed=1)
    assert report["points"] == []
    assert [(c["l"], c["points"], c["max_dev"]) for c in report["conjecture"]] == [(1, 0, None), (2, 0, None)]
    assert '"max_dev": null' in json.dumps(report)


def test_probe_rejects_bad_level():
    with pytest.raises(ValueError):
        jb.conjecture_probe(2, 1.0 + 0j, 2, [])


def test_report_deterministic_and_schema():
    a = jb.critical_report(2, 1.0 + 0j, trials=40, seed=19)
    b = jb.critical_report(2, 1.0 + 0j, trials=40, seed=19)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema"] == "lg-mirror/1"
    assert {"m", "q", "starts", "points", "spectrum_match", "conjecture"} <= set(a)
