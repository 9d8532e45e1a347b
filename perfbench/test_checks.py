"""Negative controls for the benchmark's correctness checks and its failure count.

    python3 -m pytest perfbench -q

Each check must pass on a real report and fail on a corrupted copy of it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import run  # noqa: E402
from lgmirror import cli  # noqa: E402
from lgmirror import superpotential as sp  # noqa: E402


def report_of(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def minors_report():
    rc, report = report_of(["verify", "minors", "--m", "3", "--trials", "2", "--seed", "5"])
    assert rc == 0
    return report


@pytest.fixture(scope="module")
def critical():
    rc, report = report_of(["critical", "--m", "3", "--q", "1", "--trials", "60", "--seed", "4"])
    assert rc == 0
    return report


@pytest.fixture(scope="module")
def chevalley_report():
    rc, report = report_of(["verify", "chevalley", "--m", "4"])
    assert rc == 0
    return report


# -- verify reports -------------------------------------------------------------


def test_verify_report_passes_on_real_output(minors_report):
    assert checks.verify_report(minors_report, "minors", 3, trials=2) == []


def test_dropped_record_fails(minors_report):
    bad = copy.deepcopy(minors_report)
    del bad["records"][-1]
    assert checks.verify_report(bad, "minors", 3, trials=2)


def test_report_with_zero_records_fails(minors_report):
    bad = copy.deepcopy(minors_report)
    bad["records"] = []
    assert bad["ok"] is True
    assert checks.verify_report(bad, "minors", 3, trials=2)
    rc, pi_map = report_of(["verify", "pi-map", "--m", "3"])
    assert rc == 0 and checks.verify_report(pi_map, "pi-map", 3) == []
    pi_map["records"] = []
    assert checks.verify_report(pi_map, "pi-map", 3)


def test_point_checks_pass_and_catch_a_perturbed_pluecker_value(minors_report, monkeypatch):
    b = checks.sample_points(minors_report)[0]
    assert checks.point_properties(b, Fraction(2), 3, scale=Fraction(3, 5)) == []
    for suite in ("theorem-w", "minors", "fj", "em", "subword"):
        assert checks.identity_apart(suite, b, Fraction(2), 3) == [], suite

    real = sp.plucker_vector

    def perturbed(bs, m, ring):
        p = real(bs, m, ring)
        lam = max(p, key=lambda lam: lam.size)  # p_rho_m
        p[lam] = p[lam] + ring.one
        return p

    monkeypatch.setattr(sp, "plucker_vector", perturbed)
    assert checks.point_properties(b, Fraction(2), 3)
    assert checks.identity_apart("subword", b, Fraction(2), 3)
    assert checks.identity_apart("em", b, Fraction(2), 3)


def test_sigma1_table_checks(chevalley_report):
    assert checks.verify_report(chevalley_report, "chevalley", 4) == []
    bad = copy.deepcopy(chevalley_report)
    bad["sigma1_table"]["[2,1]"][0]["coeff"] += 1
    assert checks.verify_report(bad, "chevalley", 4)
    bad = copy.deepcopy(chevalley_report)
    del bad["sigma1_table"]["[3]"]
    assert checks.verify_report(bad, "chevalley", 4)
    bad = copy.deepcopy(chevalley_report)
    bad["sigma1_table"]["[]"][0]["q_power"] = 1
    assert checks.verify_report(bad, "chevalley", 4)


# -- critical reports --------------------------------------------------------------


def test_critical_report_passes_on_real_output(critical):
    assert checks.critical_report(critical, 3, Fraction(1)) == []


def test_perturbed_critical_value_fails(critical):
    bad = copy.deepcopy(critical)
    bad["points"][3]["value"][0] += 1e-4
    assert checks.critical_report(bad, 3, Fraction(1))


def test_perturbed_critical_point_fails(critical):
    bad = copy.deepcopy(critical)
    bad["points"][5]["b"][2][1] += 1e-4
    assert checks.critical_points(bad, 3, 1 + 0j)


def test_dropped_critical_point_fails(critical):
    bad = copy.deepcopy(critical)
    del bad["points"][0]
    assert checks.critical_report(bad, 3, Fraction(1))


def test_critical_values_scale_with_q(critical):
    rc, at_16 = report_of(["critical", "--m", "3", "--q", "16", "--trials", "60", "--seed", "9"])
    assert rc == 0
    assert checks.critical_scaling(critical, at_16, Fraction(1), Fraction(16)) == []
    assert checks.critical_scaling(critical, at_16, Fraction(1), Fraction(81))


# -- failure accounting --------------------------------------------------------------


def test_search_at_tiny_q_is_attempted_and_failed():
    ledger = run.Ledger()
    q, seed = run.CRITICAL_FAILING
    failing = run.critical_op(q, seed, counted_failure=True)
    rc, report = report_of(failing.argv)
    assert rc == 1 and report["spectrum_match"]["count"] < 8
    assert ledger.record(failing, {"rc": rc, "out": json.dumps(report)}, counted=True)
    assert (ledger.attempted, ledger.failed, ledger.problems) == (1, 1, [])

    # the same output from an operation not expected to fail is a problem
    other = run.critical_op(q, seed)
    ledger.record(other, {"rc": rc, "out": json.dumps(report)}, counted=True)
    assert ledger.problems


def test_set_up_operations_are_not_counted(critical):
    ledger = run.Ledger()
    op = run.critical_op("1", 4)
    assert not ledger.record(op, {"rc": 0, "out": json.dumps(critical)}, counted=False)
    assert (ledger.attempted, ledger.failed, ledger.problems) == (0, 0, [])


# -- tracing ---------------------------------------------------------------------------


def test_traced_counts_repeat_exactly():
    def totals():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), SRC, "1"],
            input="\n".join(json.dumps(r) for r in (
                {"argv": ["verify", "theorem-w", "--m", "3", "--trials", "2", "--seed", "3"]},
                {"totals": True},
                {"finish": True},
            )) + "\n",
            capture_output=True, text=True, env=run.child_env(SRC), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        first, tot, _ = (json.loads(line) for line in proc.stdout.splitlines())
        assert first["rc"] == 0
        return tot

    a, b = totals(), totals()
    assert a["calls"] == b["calls"] and a["layer_calls"] == b["layer_calls"]
    assert a["calls"]["superpotential.verify_theorem_w"] == 2
    assert a["layer_calls"]["scalars"] > 0 and all(t > 0 for t in a["self_s"].values())
