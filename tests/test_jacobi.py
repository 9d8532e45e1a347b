import json
from functools import lru_cache

import numpy as np
import pytest

from lgmirror import cli
from lgmirror import clifford as cl
from lgmirror import jacobi as jb
from lgmirror import partitions as pt
from lgmirror import qchevalley as qc
from lgmirror import superpotential as sp
from lgmirror import weyl as wy
from lgmirror.scalars import splitmix64
from multistart import (
    CONVERGED,
    NO_DESCENT,
    START_OUTCOMES,
    draw_starts,
    find_critical_points,
    match_multisets,
    newton,
    uniform01,
    w_tilde_value,
)

# largest |grad W-tilde| of a reported critical point
GRAD_TOL = 1e-10


def spectrum_points(m, q):
    """The torus critical points that spectrum_seeds finds, in its order."""
    return [s.point for s in jb.spectrum_seeds(m, q) if s.point is not None]


# -- oracle: the Hessian summed term by term -------------------------------------


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


# -- oracle: the sigma_1 matrix entry by entry ------------------------------------


def sigma1_loop(m, q_value):
    """sigma1_matrix summed one table entry at a time, c q^d into (mu, lambda)."""
    index = {lam: k for k, lam in enumerate(pt.all_strict_partitions(m))}
    out = np.zeros((len(index), len(index)), dtype=complex)
    for col, product in enumerate(qc.sigma1_table(m).values()):
        for (mu_, d), c in product.coeffs.items():
            out[index[mu_], col] += c * q_value**d
    return out


@pytest.mark.parametrize("m", range(2, 10))
def test_sigma1_matrix_is_the_entry_loop(m):
    """The matrix filled from the per-m layers is the entry loop's, byte for
    byte (signed zeros included)."""
    for q in (1 + 0j, 2 + 1j, 81 + 0j, 1e-12 + 0j, 1e12 + 0j, -3.5 - 0.25j):
        assert jb.sigma1_matrix(m, q).tobytes() == sigma1_loop(m, q).tobytes(), q


def test_splitmix_deterministic():
    a = [next(splitmix64(7)) for _ in range(5)]
    b = [next(splitmix64(7)) for _ in range(5)]
    gen = splitmix64(7)
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
        gen = splitmix64(17)
        n = m * (m + 1) // 2
        b = np.array([0.6 + uniform01(gen) + 1j * (uniform01(gen) - 0.5) for _ in range(n)])
        q = 1.1 + 0.3j
        g = jb.grad_w_tilde(b, q, m)
        eps = 1e-7
        for j in range(n):
            e = np.zeros(n)
            e[j] = eps
            fd = (w_tilde_value(b + e, q, mask) - w_tilde_value(b - e, q, mask)) / (2 * eps)
            assert abs(fd - g[j]) / max(1.0, abs(g[j])) < 1e-8


def test_gradient_matches_the_term_by_term_sum():
    """1 - q inv (t M) equals the sum over monomials T of the derivatives
    of t_T, for one point and for a stack."""
    for m in (2, 3, 4, 5):
        mask = jb.torus_monomials(m)
        b = draw_starts(mask.shape[1], 4, 30 + m)
        inv = 1.0 / b
        terms = np.prod(np.where(mask, inv[:, None, :], 1.0), axis=-1)
        want = 1.0 - (2 - 1j) * ((mask * terms[:, :, None]) * inv[:, None, :]).sum(axis=1)
        got = jb.grad_w_tilde(b, 2 - 1j, m)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(jb.grad_w_tilde(b[1], 2 - 1j, m) - want[1]).max() <= 1e-13 * np.abs(want[1]).max()


def test_gradient_m2_explicit_formula():
    b = np.array([1.3 - 0.2j, 0.7 + 0.4j, -1.1 + 0.9j])
    q = 2.0 + 0j
    g = jb.grad_w_tilde(b, q, 2)
    assert abs(g[1] - (1 - q * (b[0] + b[2]) / (b[0] * b[1] ** 2 * b[2]))) < 1e-12


def test_hessian_matches_finite_differences():
    """Stacked gradients and Hessians equal the per-row ones, the Hessian
    equals the term-by-term loop and central differences of the gradient."""
    for m in (2, 3, 4):
        mask = jb.torus_monomials(m)
        n = m * (m + 1) // 2
        stack = draw_starts(n, 4, 23 + m)
        for q in (1.0 + 0j, 1.1 + 0.3j):
            grads = jb.grad_w_tilde(stack, q, m)
            hessians = jb.hess_w_tilde(stack, q, m)
            assert grads.shape == (4, n) and hessians.shape == (4, n, n)
            eps = 1e-7
            for b, g, hess in zip(stack, grads, hessians):
                scale = np.abs(hess).max()
                assert np.allclose(g, jb.grad_w_tilde(b, q, m), rtol=1e-14, atol=0)
                assert np.allclose(hess, jb.hess_w_tilde(b, q, m), rtol=1e-14, atol=0)
                assert np.allclose(hess, _hess_loop(b, q, mask), rtol=1e-13, atol=1e-14 * scale)
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = eps
                    col = (jb.grad_w_tilde(b + e, q, m) - jb.grad_w_tilde(b - e, q, m)) / (2 * eps)
                    assert np.allclose(col, hess[:, j], rtol=1e-5, atol=1e-7 * scale)


def zero_hessian_at(monkeypatch, bad):
    """Make jb.hess_w_tilde return the zero matrix at the row `bad`."""
    true_hess = jb.hess_w_tilde

    def hess(b, q, m, terms=None):
        out = true_hess(b, q, m, terms)
        out[np.all(b == bad, axis=-1)] = 0.0
        return out

    monkeypatch.setattr(jb, "hess_w_tilde", hess)


def polish_fresh(b, q, m):
    """jb._polish with the gradient and the Hessian each evaluating the
    monomials afresh, as two calls on b: (final rows, converged)."""
    b = b.copy()
    converged = np.zeros(len(b), dtype=bool)
    live = np.arange(len(b))
    for _ in range(60):
        g = jb.grad_w_tilde(b[live], q, m)
        gn = np.linalg.norm(g, axis=-1)
        converged[live[gn < jb.POLISH_TOL]] = True
        live, g = live[gn >= jb.POLISH_TOL], g[gn >= jb.POLISH_TOL]
        if not live.size:
            break
        hess = jb.hess_w_tilde(b[live], q, m)
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


def assert_polish_is_fresh(b, q, m):
    """_polish ends bit for bit as polish_fresh, and its monomial values of
    each converged row are _terms at that row's final b."""
    roots, converged, terms = jb._polish(b, q, m)
    want_roots, want_converged = polish_fresh(b, q, m)
    assert np.array_equal(roots, want_roots) and np.array_equal(converged, want_converged), (m, q)
    done = roots[converged]
    assert np.array_equal(terms[converged], jb._terms(1.0 / done, jb.torus_monomials(m))), (m, q)
    return roots, converged


@pytest.mark.parametrize("m", [*range(2, 9), pytest.param(9, marks=pytest.mark.slow)])
def test_polish_shares_one_evaluation_bit_for_bit(m):
    """The Newton step's one monomial evaluation for g and H changes no bit:
    from the peeled seeds of spectrum_seeds (the eigenvectors of the simple
    eigenvalues), _polish ends as polish_fresh."""
    for q in (1.0 + 0j, 2.0 + 1.0j, 81.0 + 0j, 0.5 - 0.7j):
        mu, vectors = np.linalg.eig(jb.sigma1_matrix(m, q).T)
        scaled = (m + 1) * mu
        multiplicity = (np.abs(scaled[:, None] - scaled[None, :]) <= jb.MULTIPLE_TOL * np.abs(scaled).max()).sum(axis=1)
        cut = jb.peel(vectors.take(np.flatnonzero(multiplicity == 1), axis=1), m)
        assert_polish_is_fresh(cut.b[~cut.blocked], q, m)


def test_singular_hessian_does_not_fail_the_batch(monkeypatch):
    starts = draw_starts(6, 12, 5)
    roots, reasons = newton(starts, 1.0 + 0j, 3)
    assert (reasons == CONVERGED).sum() >= 2
    bad = starts[0] * 1.5
    zero_hessian_at(monkeypatch, bad)
    roots2, reasons2 = newton(np.vstack([bad, starts]), 1.0 + 0j, 3)
    assert reasons2[0] == NO_DESCENT
    assert np.array_equal(reasons2[1:], reasons)
    assert np.array_equal(roots2[1:], roots)


def test_polish_returns_perturbed_points():
    """Torus points moved by about 1e-6 polish back onto themselves, in
    Newton steps that end bit for bit as those of polish_fresh."""
    for m in (2, 3, 4, 5):
        for q in (1.0 + 0j, 2.0 + 1.0j):
            points = np.array([p.coords for p in spectrum_points(m, q)])
            moved = points + 1e-6 * draw_starts(points.shape[1], len(points), 9)
            roots, converged = assert_polish_is_fresh(moved, q, m)
            assert converged.all(), (m, q)
            assert np.abs(roots - points).max() < 1e-12 * np.abs(points).max(), (m, q)


def test_polish_survives_a_singular_hessian(monkeypatch):
    """A row whose Hessian is zero ends unconverged; the other rows end
    bit-identically to a run without it."""
    points = np.array([p.coords for p in spectrum_points(3, 1.0 + 0j)])
    moved = points + 1e-6 * draw_starts(6, len(points), 9)
    roots, converged, _ = jb._polish(moved, 1.0 + 0j, 3)
    assert converged.all()
    bad = moved[0] * 1.5
    zero_hessian_at(monkeypatch, bad)
    roots2, converged2, _ = jb._polish(np.vstack([bad, moved]), 1.0 + 0j, 3)
    assert not converged2[0]
    assert np.array_equal(converged2[1:], converged)
    assert np.array_equal(roots2[1:], roots)


def test_critical_points_m3_full_spectrum():
    for q in (1.0, 2.0):
        pts = spectrum_points(3, complex(q))
        assert len(pts) == 8
        assert all(p.grad_norm < GRAD_TOL for p in pts)
        scaled = [complex(z) for z in 4 * np.linalg.eigvals(jb.sigma1_matrix(3, complex(q)))]
        assert match_multisets([p.value for p in pts], scaled) < 1e-9


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
        pts = spectrum_points(2, complex(q))
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
        assert match_multisets(got, [complex(z) for z in eigs[1:]]) < 1e-9


def test_m2_zero_eigenvalue_is_blocked_at_its_pivot():
    """The first peel step divides by (p F)_(2,1) = p_(2), which vanishes at
    the eigenvector (1 : 0 : 0 : -q) of the eigenvalue 0."""
    for q in (1.0, 2.0, 1.0 + 1.0j):
        seeds = jb.spectrum_seeds(2, complex(q))
        blocked = [s for s in seeds if s.status == "blocked"]
        assert len(blocked) == 1 and len(seeds) == 4
        zero = blocked[0]
        assert abs(zero.eigenvalue_scaled) < 1e-12
        assert (zero.step, zero.column) == (1, pt.partition((2, 1), 2))
        assert zero.pivot < jb.PIVOT_TOL and zero.point is None and zero.polish is None
        assert all(s.status == "torus" and s.polish == "converged" and s.pivot > 0.1 for s in seeds if s is not zero)


def test_m5_double_zero_is_multiple():
    """At m = 5 the eigenvalue 0 is double; its eigenspace is not peeled."""
    for q in (1.0 + 0j, 2.0 + 1.0j):
        seeds = jb.spectrum_seeds(5, q)
        multiple = [s for s in seeds if s.status == "multiple"]
        assert len(multiple) == 2
        assert all(s.multiplicity == 2 and abs(s.eigenvalue_scaled) < 1e-9 for s in multiple)
        assert all(s.step is None and s.point is None for s in multiple)
        assert all(s.multiplicity == 1 for s in seeds if s.status != "multiple")


def test_large_q_blocks_at_p_empty():
    """At m = 3, q = 1e12 the points lie on the torus, but |p_empty| is
    below PIVOT_TOL * max|p| on every eigenvector: step 0 blocks them all."""
    seeds = jb.spectrum_seeds(3, 1e12 + 0j)
    assert [(s.status, s.step, s.column) for s in seeds] == [("blocked", 0, pt.empty(3))] * 8
    assert all(s.pivot < jb.PIVOT_TOL for s in seeds)


TORUS_COUNTS = {2: 3, 3: 8, 4: 10, 5: 30, 6: 35, 7: 128}


@pytest.mark.parametrize("m", sorted(TORUS_COUNTS))
def test_torus_counts_are_pinned(m):
    """Peeling the eigenvectors of sigma_1* reaches this many of the 2^m
    critical points; every other eigenvalue is blocked or multiple, and each
    point's value is (m+1) times its own eigenvalue."""
    for q in (1.0 + 0j, 2.0 + 1.0j):
        seeds = jb.spectrum_seeds(m, q)
        assert len(seeds) == 2**m
        torus = [s for s in seeds if s.point is not None]
        assert len(torus) == TORUS_COUNTS[m]
        assert all(s.status in ("blocked", "multiple") for s in seeds if s.point is None)
        for s in torus:
            assert s.point.grad_norm < GRAD_TOL
            assert abs(s.point.value - s.eigenvalue_scaled) < 1e-12 * max(1.0, abs(s.eigenvalue_scaled))


# What the multistart oracle must find: (m, q, trials, seed) -> (points,
# outcomes), the outcomes counted in the order of START_OUTCOMES.  The last
# two searches double the trials at one seed; both find all 8 seeded points.
MULTISTART_CASES = {
    (2, 1.0, 250, 1): (3, (92, 131, 12, 15)),
    (3, 1.0, 250, 1): (8, (46, 152, 13, 39)),
    (4, 81.0, 250, 1): (10, (5, 166, 12, 67)),
    (5, 2.0 + 1.0j, 100, 2): (6, (1, 70, 4, 25)),
    (3, 1.0, 150, 11): (8, (28, 92, 8, 22)),
    (3, 1.0, 300, 11): (8, (54, 191, 19, 36)),
}


@lru_cache(maxsize=None)
def multistart_search(m, q, trials, seed):
    """The critical points a search finds and how its starts end, counted in
    the order of START_OUTCOMES; each search runs once for both tests."""
    ends = {}
    found = find_critical_points(m, complex(q), trials, seed, outcomes=ends)
    return tuple(found), tuple(ends[k] for k in START_OUTCOMES)


@pytest.mark.parametrize("m, q, trials, seed", MULTISTART_CASES)
def test_seeding_finds_every_multistart_point(m, q, trials, seed):
    """The search finds the pinned number of critical points, each within
    1e-9 of a seeded point."""
    found, _ = multistart_search(m, q, trials, seed)
    assert len(found) == MULTISTART_CASES[m, q, trials, seed][0]
    assert all(p.grad_norm < GRAD_TOL for p in found)
    seeded = [np.array(p.coords) for p in spectrum_points(m, complex(q))]
    for p in found:
        assert min(np.abs(np.array(p.coords) - b).max() for b in seeded) < 1e-9


def test_start_outcomes_are_those_of_the_per_start_search():
    """Each search's starts end as pinned; the counts at q = 1, 250 starts,
    seed 1 were first recorded from a per-start Newton search."""
    for case, (_, outcomes) in MULTISTART_CASES.items():
        assert multistart_search(*case)[1] == outcomes, case


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_batched_evaluation_is_the_per_point_functions(m):
    """spectrum_seeds evaluates all its points at once; each value is bit
    for bit the one-point w_tilde_value, each gradient norm that of
    grad_w_tilde."""
    mask = jb.torus_monomials(m)
    for q in (1.0 + 0j, 2.0 + 1.0j, 81.0 + 0j):
        points = spectrum_points(m, q)
        assert points
        for p in points:
            b = np.array(p.coords)
            assert p.value == w_tilde_value(b, q, mask), q
            assert p.grad_norm == float(np.linalg.norm(jb.grad_w_tilde(b, q, m))), q


def test_batched_gradient_norms_at_m9_and_a_complex_q():
    """At m = 9 the stack of gradients passes 256 KiB, where numpy may compute
    a product in place in a temporary operand with the operands swapped; at
    a complex q that can round otherwise, and each norm must still be that
    of grad_w_tilde at its own point."""
    mask = jb.torus_monomials(9)
    q = 0.5 - 0.7j  # 2 + i would not do: products by 2 and 1 are exact
    points = spectrum_points(9, q)
    assert len(points) * mask.shape[1] * 16 > 256 * 1024
    for p in points:
        assert p.grad_norm == float(np.linalg.norm(jb.grad_w_tilde(np.array(p.coords), q, 9)))


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_report_holds_plain_python_numbers():
    """No numpy scalar reaches the report: the writer joins plain floats in
    one step, and a numpy scalar takes the slow path."""
    report = jb.critical_report(3, 5 + 0j)
    numbers = [x for x in _leaves(report) if not isinstance(x, str) and x is not None]
    assert numbers and {type(x) for x in numbers} <= {float, int, bool}
    for p in spectrum_points(3, 5 + 0j):
        assert {type(x) for x in (*p.coords, p.value)} == {complex} and type(p.grad_norm) is float


def test_point_order_is_stable_under_last_bit_changes():
    for m in (2, 3):
        base = jb.spectrum_seeds(m, 1.0 + 0j)
        for q in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
            moved = jb.spectrum_seeds(m, complex(q))
            assert [s.status for s in moved] == [s.status for s in base]
            for a, b in zip(base, moved):
                assert abs(a.eigenvalue_scaled - b.eigenvalue_scaled) < 1e-12
                assert np.abs(np.array(a.point.coords) - np.array(b.point.coords)).max() < 1e-12 if a.point else not b.point


def test_q_dependence():
    p1 = spectrum_points(2, 1.0 + 0j)
    p2 = spectrum_points(2, 2.0 + 0j)
    v1 = {round(p.value.real, 6) for p in p1}
    v2 = {round(p.value.real, 6) for p in p2}
    assert v1 != v2


def test_conjecture_probe():
    for m, q in [(2, 1.0), (3, 1.0), (3, 2.0)]:
        pts = spectrum_points(m, complex(q))
        for l, max_dev in enumerate(jb.conjecture_probe(m, complex(q), pts), start=1):
            assert max_dev < 1e-6, (m, q, l, max_dev)


# -- oracle: the probe one point at a time, over the exact layer's row sweep -----


def probe_oracle(m, q, l, points):
    """conjecture_probe's max_dev at level l, one point at a time."""
    worst = 0.0
    for cp in points:
        p = sp.plucker_vector(list(cp.coords), m)
        p0 = p[pt.empty(m)]
        total = sum(sign * (p[a] / p0) * (p[b] / p0) for sign, a, b in pt.denominator_terms(l, m))
        worst = max(worst, abs(total - q**l) / max(1.0, abs(q**l)))
    return worst


# -- oracle: the peel one row at a time, stopping at its blocking step ------------


def peel_row(v, m):
    """(b, blocked, step, column, pivot) of one Pluecker vector `v`, as peel
    defines them; the peel stops at a blocking step, so b stays NaN from it on."""
    factors, opens = jb._peel_plan(m)
    b = np.full(len(factors), np.nan, dtype=complex)
    pivot = np.abs(v[0]) / np.abs(v).max()
    if pivot < jb.PIVOT_TOL:
        return b, True, 0, 0, pivot
    p = v / v[0]
    scale = np.abs(p).max()
    step = column = 0
    for k, ((rows, cols), (_, open_cols)) in enumerate(zip(factors, opens), start=1):
        pf = np.zeros_like(p)
        pf[cols] = p[rows]
        at = open_cols[np.argmax(np.abs(pf[open_cols]))]
        rel = np.abs(pf[at]) / scale
        if rel < pivot:
            step, column, pivot = k, at, rel
        if rel < jb.PIVOT_TOL:
            return b, True, step, column, pivot
        b[k - 1] = p[at] / pf[at]
        p = p - b[k - 1] * pf
    return b, False, step, column, pivot


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_peel_is_the_row_by_row_peel(m):
    """Every eigenvector of sigma_1*, blocked or not, peels as it does alone:
    the same blocked, step, column and pivot, and the same b, NaN from a
    blocking step on."""
    steps = set()
    for q in (1.0, 81.0, 1e-12, 1e12):
        _, vectors = np.linalg.eig(jb.sigma1_matrix(m, complex(q)).T)
        cut = jb.peel(vectors, m)
        for k, v in enumerate(vectors.T):
            b, blocked, step, column, pivot = peel_row(v, m)
            assert np.array_equal(cut.b[k], b, equal_nan=True), (q, k)
            assert (cut.blocked[k], cut.step[k], cut.column[k], cut.pivot[k]) == (blocked, step, column, pivot), (q, k)
            steps.add((blocked, step > 0))
    # rows blocked at p_empty (q = 1e12) and at a later step both occur, and torus rows
    assert {(True, False), (True, True), (False, True)} <= steps


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_pluecker_rows_match_the_exact_spin_route_and_peel_back(m):
    stream = cli.rational_stream(70 + m)
    points = [cli.sample_b(m, stream) for _ in range(4)]
    b = np.array([[float(x) for x in bs] for bs in points], dtype=complex)
    rows = jb.pluecker_rows(b, m)
    for bs, row in zip(points, rows.T):
        exact = sp.plucker_vector(bs, m)
        want = np.array([float(exact[lam]) for lam in pt.all_strict_partitions(m)])
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()
    back = jb.peel(rows, m)
    assert not back.blocked.any()
    assert np.abs(back.b - b).max() <= 1e-11 * np.abs(b).max()


def dense_spin_factors(m):
    """The dense float matrices F_{i_k}, k = 1..N, of the exact spin matrices."""
    index = {s: k for k, s in enumerate(pt.all_subsets(m))}
    letters = np.zeros((m, 2**m, 2**m))
    for i in range(1, m + 1):
        for (row, col), entry in cl.spin_generator_matrix(i, "f", m).coeffs.items():
            letters[i - 1, index[row], index[col]] = float(entry)
    return letters[np.array(wy.canonical_wp_word(m)) - 1]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_sparse_spin_factors_match_the_dense_product(m):
    """The index-array factors of the peel plan, applied in place to the
    columns of a (2^m, S) stack as p[cols] += b p[rows], give (I + b F)^T p,
    and pluecker_rows its Pluecker columns, bit for bit as the dense
    products; the open columns are those of the dense boolean sweep, each
    read from its own source row."""
    dense = dense_spin_factors(m)
    factors, opens = jb._peel_plan(m)
    b = draw_starts(len(dense), 6, 90 + m)
    p = np.zeros((2**m, len(b)), dtype=complex)
    p[0] = 1.0
    for k in range(len(dense), 0, -1):
        pf = dense[k - 1].T @ p
        rows, cols = factors[k - 1]
        in_place = p.copy()
        in_place[cols] += b[:, k - 1] * in_place[rows]
        p += b[:, k - 1] * pf
        assert np.array_equal(in_place, p), k
    assert (p != 0).all()  # generic b: every coordinate was compared nonzero
    assert np.array_equal(jb.pluecker_rows(b, m), p)
    reach = np.zeros(2**m, dtype=bool)
    reach[0] = True
    for f, (open_rows, open_cols) in zip(dense[::-1], opens[::-1]):
        grown = reach | (reach @ (f != 0))
        assert np.array_equal(open_cols, np.flatnonzero(grown & ~reach))
        assert (f[open_rows, open_cols] == 1).all()
        reach = grown


def test_pluecker_rows_keep_p_empty_one():
    """No spin matrix F_i has an entry in the empty column, so the sweep
    leaves p_empty = 1 exactly and the probe divides by nothing."""
    for m in range(2, 8):
        rows = jb.pluecker_rows(draw_starts(m * (m + 1) // 2, 5, 40 + m), m)
        assert (rows[0] == 1).all(), m


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_probe_matches_the_complex_row_sweep(m):
    for q in (1.0 + 0j, 2.0 + 1.0j, 81.0 + 0j):
        points = spectrum_points(m, q)
        assert points
        deviations = jb.conjecture_probe(m, q, points)
        assert len(deviations) == m - 1
        for l, max_dev in enumerate(deviations, start=1):
            assert abs(max_dev - probe_oracle(m, q, l, points)) < 1e-13, (q, l)


def test_probe_over_no_points_is_not_a_pass():
    assert jb.conjecture_probe(3, 1.0 + 0j, []) == [None, None]
    report = jb.critical_report(3, 1e-12 + 0j)
    assert report["points"] == []
    assert [(c["l"], c["points"], c["max_dev"]) for c in report["conjecture"]] == [(1, 0, None), (2, 0, None)]
    assert '"max_dev": null' in json.dumps(report)


def test_report_deterministic_and_schema():
    a = jb.critical_report(2, 1.0 + 0j)
    b = jb.critical_report(2, 1.0 + 0j)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "schema" not in a  # cli's writer stamps it
    assert {"m", "q", "seeds", "points", "spectrum_match", "conjecture"} <= set(a)
    assert [s["status"] for s in a["seeds"]].count("torus") == len(a["points"]) == 3
