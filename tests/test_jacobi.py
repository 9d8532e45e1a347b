import json

import numpy as np
import pytest

from lgmirror import jacobi as jb
from lgmirror import qchevalley as qc


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
    mask = jb.torus_monomials(3)
    gen = jb.splitmix64(23)
    b = np.array([0.8 + jb.uniform01(gen) + 1j * jb.uniform01(gen) for _ in range(6)])
    q = 1.0 + 0j
    hess = jb.hess_w_tilde(b, q, mask)
    eps = 1e-7
    for j in range(6):
        e = np.zeros(6)
        e[j] = eps
        col = (jb.grad_w_tilde(b + e, q, mask) - jb.grad_w_tilde(b - e, q, mask)) / (2 * eps)
        assert np.allclose(col, hess[:, j], rtol=1e-5)


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
            (3 * z for z in np.linalg.eigvals(qc.sigma1_matrix(2, complex(q)))),
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
    assert {"m", "q", "points", "spectrum_match", "conjecture"} <= set(a)
