"""Correctness checks on the reports the benchmark's operations print.

Each check returns a list of problems; an empty list means the output is
correct.  The checks compare with `reference` (computed apart from the
program) or with properties the method must have, never with a stored copy
of earlier output.  Checks that need the program's own evaluation (exact
properties of the Pluecker vector and of W at a reported point) import
`lgmirror` lazily.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref

# records per sample point of each verify suite, as a function of m
RECORDS_PER_POINT = {
    "theorem-w": lambda m: 1,
    "minors": lambda m: m - 1,
    "fj": lambda m: m - 1,
    "em": lambda m: 1,
    "subword": lambda m: 1,
}
FIXED_RECORDS = {"pi-map": lambda m: m - 1, "chevalley": lambda m: 2}


def parse(text: str):
    """The JSON report, or None when the output is not one JSON object."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


# -- verify reports -------------------------------------------------------------


def verify_report(report, suite: str, m: int, trials: int | None = None) -> list[str]:
    """An `ok` report of `suite` at `m` with exactly the expected records."""
    if report is None:
        return [f"{suite} m={m}: output is not a JSON report"]
    problems = []
    if report.get("suite") != suite or report.get("m") != m:
        problems.append(f"{suite} m={m}: report is for {report.get('suite')} m={report.get('m')}")
    if report.get("ok") is not True:
        problems.append(f"{suite} m={m}: report not ok")
    records = report.get("records") or []
    expected = FIXED_RECORDS[suite](m) if suite in FIXED_RECORDS else trials * RECORDS_PER_POINT[suite](m)
    if len(records) != expected:
        problems.append(f"{suite} m={m}: {len(records)} records, expected {expected}")
    if not all(r.get("ok") is True for r in records):
        problems.append(f"{suite} m={m}: a record is not ok")
    if suite == "pi-map" and [r.get("j") for r in records] != list(range(2, m + 1)):
        problems.append(f"pi-map m={m}: records are not j = 2..{m}")
    if suite == "chevalley":
        problems += sigma1_table(report.get("sigma1_table"), m)
    return problems


def sample_points(report) -> list[list[Fraction]]:
    """The distinct sample points b of a verify report, in order."""
    points = []
    for record in report.get("records") or []:
        b = [Fraction(x) for x in record["b"]]
        if b not in points:
            points.append(b)
    return points


def sigma1_table(table, m: int) -> list[str]:
    """The dumped sigma_1* table: degree law, nonnegative integer coefficients,
    sigma_1 * sigma_() = sigma_(1), and agreement with the quantum Pieri rule."""
    if not isinstance(table, dict):
        return [f"chevalley m={m}: no sigma1_table"]
    problems = []
    for lam in ref.strict_partitions(m):
        key = "[" + ",".join(map(str, lam)) + "]"
        rows = table.get(key)
        if rows is None:
            problems.append(f"sigma1_table m={m}: no row for {key}")
            continue
        got = {}
        for row in rows:
            mu_, d, c = tuple(row["partition"]), row["q_power"], row["coeff"]
            if sum(mu_) + (m + 1) * d != sum(lam) + 1:
                problems.append(f"sigma1_table m={m}: {key} -> q^{d} {list(mu_)} breaks |mu| + (m+1)d = |lambda| + 1")
            if not isinstance(c, int) or isinstance(c, bool) or c <= 0:
                problems.append(f"sigma1_table m={m}: {key} has coefficient {c!r}")
            got[(mu_, d)] = c
        if got != ref.pieri_sigma1(lam, m):
            problems.append(f"sigma1_table m={m}: {key} differs from the quantum Pieri rule")
    if len(table) != 2**m:
        problems.append(f"sigma1_table m={m}: {len(table)} rows, expected {2**m}")
    if table.get("[]") != [{"partition": [1], "q_power": 0, "coeff": 1}]:
        problems.append(f"sigma1_table m={m}: sigma_1 * sigma_() is not sigma_(1)")
    return problems


def point_properties(b: list[Fraction], q: Fraction, m: int, scale: Fraction | None = None) -> list[str]:
    """Exact properties of the program's evaluation at a sample point b: off
    every divisor, p_() = 1 and p_rho_m = prod b; given `scale` t, also the
    quasi-homogeneity W(p(t b); t^(m+1) q) = t W(p(b); q)."""
    from lgmirror import partitions as pt
    from lgmirror import superpotential as sp
    from lgmirror.scalars import EXACT

    where = f"m={m} b={[str(x) for x in b]}"
    p = sp.plucker_vector(sp.ring_vector(b, EXACT), m, EXACT)
    problems = []
    if p[pt.empty(m)] != 1:
        problems.append(f"{where}: p_() = {p[pt.empty(m)]}, not 1")
    prod = Fraction(1)
    for x in b:
        prod *= x
    if p[pt.rho(m, m)] != prod:
        problems.append(f"{where}: p_rho_m = {p[pt.rho(m, m)]}, not prod b = {prod}")
    try:
        w = sp.eval_W(EXACT.from_fraction(q), p, m, EXACT)
        if scale is not None:
            p_scaled = sp.plucker_vector(sp.ring_vector([scale * x for x in b], EXACT), m, EXACT)
            w_scaled = sp.eval_W(EXACT.from_fraction(scale ** (m + 1) * q), p_scaled, m, EXACT)
            if w_scaled != EXACT.from_fraction(scale) * w:
                problems.append(f"{where}: W(t b; t^(m+1) q) = {w_scaled}, not t W(b; q) with t = {scale}")
    except sp.DivisorError as exc:
        problems.append(f"{where}: on a divisor ({exc})")
    return problems


def identity_apart(suite: str, b: list[Fraction], q: Fraction, m: int) -> list[str]:
    """One identity of `suite` at b, with at least one side computed by `reference`."""
    from lgmirror import partitions as pt
    from lgmirror import superpotential as sp
    from lgmirror.scalars import EXACT

    where = f"{suite} m={m} b={[str(x) for x in b]}"
    bring = sp.ring_vector(b, EXACT)

    def pair(x):
        return (x.a, x.b)

    if suite == "fj":
        return _fj_apart(b, m, where)
    if suite == "minors":
        p = sp.plucker_vector(bring, m, EXACT)
        u = ref.u2bar(b, m)
        rows = list(range(m + 1, 2 * m + 2))
        problems = []
        for j in range(2, m + 1):
            den = ref.minor(u, rows, list(range(j, j + m + 1)))
            num = ref.minor(u, rows, [j - 1] + list(range(j + 1, j + m + 1)))
            if pair(sp.eval_denominator(m + 1 - j, p, m, EXACT)) != ref.to_pair(den):
                problems.append(f"{where}: D_({j}) sum differs from the minor")
            if pair(sp.eval_numerator(m + 1 - j, p, m, EXACT)) != ref.to_pair(num):
                problems.append(f"{where}: N_({j}) sum differs from the minor")
        return problems
    if suite == "subword":
        p = sp.plucker_vector(bring, m, EXACT)
        bad = [lam for lam in pt.all_strict_partitions(m) if p[lam] != ref.plucker_subword(lam.parts, b, m)]
        return [f"{where}: spin route p_{lam.render()} differs from the subword sum" for lam in bad]
    if suite == "theorem-w":
        p = sp.plucker_vector(bring, m, EXACT)
        w = sp.eval_W(EXACT.from_fraction(q), p, m, EXACT)
        expected = ref.w_tilde(q, b, m)
        return [] if w == expected else [f"{where}: W = {w}, reference W-tilde = {expected}"]
    if suite == "em":
        p = sp.plucker_vector(bring, m, EXACT)
        prod = Fraction(1)
        for x in b:
            prod *= x
        lhs = EXACT.from_fraction(ref.laurent_numerator(b, m)) * p[pt.rho(m, m)]
        rhs = p[pt.rho(m - 1, m)] * EXACT.from_fraction(prod)
        return [] if lhs == rhs else [f"{where}: reference N(b) p_rho_m = {lhs} != p_rho_(m-1) prod b = {rhs}"]
    raise ValueError(f"no identity for suite {suite}")


def _fj_apart(b: list[Fraction], m: int, where: str) -> list[str]:
    """f_j*(u2bar) times the minor on columns j+1..j+m+1 equals the minor on
    {j} u {j+2..j+m+1}, and the minor with row j+1 added vanishes; all in sympy."""
    u = ref.u2bar(b, m)
    rows = list(range(m + 1, 2 * m + 2))
    problems = []
    for j in range(1, m):
        num = ref.minor(u, rows, [j] + list(range(j + 2, j + m + 2)))
        den = ref.minor(u, rows, list(range(j + 1, j + m + 2)))
        f = u[j, j - 1].element  # the entry (j+1, j)
        if not den or f * den != num:
            problems.append(f"{where}: f_{j}* is not the minor ratio")
        if ref.minor(u, [j + 1] + rows, list(range(j, j + m + 2))):
            problems.append(f"{where}: minor with row {j + 1} added is not 0")
    return problems


# -- critical reports --------------------------------------------------------------


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def w_tilde_numeric(b: list[complex], q: complex, m: int) -> complex:
    return ref.w_tilde(q, b, m, one=1 + 0j)


def critical_points(report, m: int, q: complex) -> list[str]:
    """Each reported point is a distinct critical point of W-tilde: its value
    matches the reference evaluation and the central-difference gradient of
    the reference value function is below the report's tolerance."""
    tol = report.get("tolerance", 1e-6)
    points = [[_complex(c) for c in pt_["b"]] for pt_ in report.get("points", [])]
    values = [_complex(pt_["value"]) for pt_ in report.get("points", [])]
    problems = []
    for k, (b, value) in enumerate(zip(points, values)):
        scale = max(1.0, max(abs(x) for x in b))
        mine = w_tilde_numeric(b, q, m)
        if abs(mine - value) > 1e-9 * max(1.0, abs(mine)):
            problems.append(f"critical m={m} q={q}: point {k} value {value} but W-tilde = {mine}")
        grad = 0.0
        for j in range(len(b)):
            h = 1e-5 * max(1.0, abs(b[j]))
            up, down = list(b), list(b)
            up[j] += h
            down[j] -= h
            grad = max(grad, abs(w_tilde_numeric(up, q, m) - w_tilde_numeric(down, q, m)) / (2 * h))
        if not grad < tol:
            problems.append(f"critical m={m} q={q}: point {k} has gradient {grad:.3g} >= {tol}")
        for other in points[:k]:
            if max(abs(x - y) for x, y in zip(b, other)) < 1e-6 * scale:
                problems.append(f"critical m={m} q={q}: point {k} repeats an earlier point")
    return problems


def critical_report(report, m: int, q: Fraction) -> list[str]:
    """A successful search: 2^m distinct critical points whose values are
    (m+1) times the eigenvalues of sigma_1* within 1e-6."""
    if report is None:
        return [f"critical m={m} q={q}: output is not a JSON report"]
    qc = complex(q)
    problems = []
    if report.get("ok") is not True:
        problems.append(f"critical m={m} q={q}: report not ok")
    values = [_complex(p["value"]) for p in report.get("points", [])]
    if len(values) != 2**m:
        problems.append(f"critical m={m} q={q}: {len(values)} points, expected {2**m}")
    err = ref.match_error(values, [(m + 1) * z for z in ref.sigma1_eigenvalues(m, qc)])
    if not err < 1e-6:
        problems.append(f"critical m={m} q={q}: values differ from (m+1) x eigenvalues of sigma_1* by {err:.3g}")
    return problems + critical_points(report, m, qc)


def critical_scaling(report_q, report_r, q: Fraction, r: Fraction) -> list[str]:
    """W-tilde(t b; t^4 q) = t W-tilde(b; q) at m = 3: the critical values at r
    are those at q times (r/q)^(1/4)."""
    t = (float(r) / float(q)) ** 0.25
    at_q = [t * _complex(p["value"]) for p in report_q.get("points", [])]
    at_r = [_complex(p["value"]) for p in report_r.get("points", [])]
    err = ref.match_error(at_q, at_r)
    return [] if err < 1e-6 else [f"critical values at q={r} are not (q'/q)^(1/4) x those at q={q} (error {err:.3g})"]
