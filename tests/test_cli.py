import json
import os
import subprocess
import sys

import pytest

from lgmirror import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_print_w_text(capsys):
    code, out = run(capsys, "print-w", "--m", "2", "--format", "text")
    assert code == 0
    assert out.strip() == "p[1]/p[] + p[2]^2/(p[1]p[2] - p[]p[2,1]) + q*p[1]/p[2,1]"


def test_print_w_m3_has_four_terms(capsys):
    code, out = run(capsys, "print-w", "--m", "3")
    assert code == 0
    assert out.count("/") == 4


def test_print_w_json(capsys):
    code, out = run(capsys, "print-w", "--m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "lg-mirror/1"
    assert len(payload["terms"]) == 3


def test_print_w_latex(capsys):
    code, out = run(capsys, "print-w", "--m", "3", "--format", "latex")
    assert code == 0
    assert out.count("\\frac") == 4


@pytest.mark.parametrize(
    "suite,m",
    [("theorem-w", 2), ("theorem-w", 3), ("minors", 3), ("subword", 2), ("em", 3), ("fj", 3)],
)
def test_verify_suites_pass(capsys, suite, m):
    code, out = run(capsys, "verify", suite, "--m", str(m), "--trials", "3", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["schema"] == "lg-mirror/1"
    assert all(r["ok"] for r in payload["records"])


def test_verify_pi_map(capsys):
    code, out = run(capsys, "verify", "pi-map", "--m", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_chevalley(capsys):
    code, out = run(capsys, "verify", "chevalley", "--m", "6")
    assert code == 0


def test_verify_rational_q(capsys):
    code, out = run(capsys, "verify", "theorem-w", "--m", "2", "--q", "5/7", "--trials", "2")
    assert code == 0
    assert json.loads(out)["q"] == "5/7"


def test_critical_m3_passes(capsys):
    code, out = run(capsys, "critical", "--m", "3", "--q", "1", "--trials", "250", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum_match"]["count"] == 8
    assert payload["spectrum_match"]["max_rel_err"] < 1e-6


def test_critical_m2_reports_the_missing_point(capsys):
    code, out = run(capsys, "critical", "--m", "2", "--q", "1", "--trials", "80", "--seed", "1")
    assert code == 1  # count 3 != 4: honest failure exit
    payload = json.loads(out)
    assert payload["spectrum_match"]["count"] == 3
    blocked = [s for s in payload["seeds"] if s["status"] == "blocked"]
    assert len(blocked) == 1 and abs(complex(*blocked[0]["eigenvalue_scaled"])) < 1e-12
    assert (blocked[0]["step"], blocked[0]["column"]) == (1, [2, 1])


def test_critical_at_tiny_q_blocks_every_eigenvalue(capsys):
    code, out = run(capsys, "critical", "--m", "3", "--q", "1/1000000000000")
    assert code == 1  # every eigenvector peels to a pivot at the rounding level
    payload = json.loads(out)
    assert payload["points"] == [] and payload["ok"] is False
    assert [s["status"] for s in payload["seeds"]] == ["blocked"] * 8
    assert all(s["pivot"] < 1e-10 for s in payload["seeds"])


def test_critical_ignores_trials_and_seed(capsys):
    plain = run(capsys, "critical", "--m", "3", "--q", "5")
    drawn = run(capsys, "critical", "--m", "3", "--q", "5", "--trials", "7", "--seed", "9")
    assert plain == drawn and plain[0] == 0


def test_critical_rejects_q_zero(capsys):
    code = cli.main(["critical", "--m", "2", "--q", "0"])
    assert code == 2


def test_tolerance_belongs_to_critical_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "pi-map", "--m", "2", "--tolerance", "1"])
    assert exc.value.code == 2
    code, out = run(capsys, "critical", "--m", "2", "--q", "1", "--trials", "20", "--seed", "1", "--tolerance", "0.5")
    assert json.loads(out)["tolerance"] == 0.5


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-0.5"])
def test_critical_tolerance_must_be_finite_and_positive(capsys, monkeypatch, tolerance):
    """A NaN or non-positive --tolerance would label every converged seed
    wrong_value; it is refused before the search starts."""
    monkeypatch.setattr(cli, "cmd_critical", lambda config: pytest.fail("the search ran"))
    code = cli.main(["critical", "--m", "3", "--tolerance", tolerance])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--tolerance" in captured.err


def test_m_too_small_is_usage_error():
    assert cli.main(["verify", "theorem-w", "--m", "1"]) == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_is_usage_error(capsys, trials):
    code, out = run(capsys, "verify", "theorem-w", "--m", "3", "--trials", trials)
    assert code == 2 and out == ""


def test_t_overflow_is_usage_error(capsys):
    code = cli.main(["verify", "theorem-w", "--m", "3", "--t", "1000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "exp(t)" in captured.err


@pytest.mark.parametrize("command", ["verify", "critical"])
def test_t_rounding_to_q_zero_is_usage_error(capsys, monkeypatch, command):
    """exp(-30) rounds to 0 at denominators up to 10^12; that is refused
    before any work instead of running at q = 0."""
    for name in ("cmd_verify", "cmd_critical"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("the command ran"))
    argv = ["verify", "theorem-w"] if command == "verify" else ["critical"]
    code = cli.main(argv + ["--m", "2", "--t", "-30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --t -30")


@pytest.mark.parametrize(
    "argv",
    [["verify", "em", "--m", "2", "--trials", "1"], ["print-w", "--m", "2"], ["print-w", "--m", "2", "--format", "json"]],
    ids=["verify", "print-w-text", "print-w-json"],
)
def test_out_file_matches_stdout_and_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    written = tmp_path / "report.txt"
    assert cli.main(argv + ["--out", str(written)]) == 0
    assert written.read_text() == out
    missing = tmp_path / "missing" / "report.txt"
    code = cli.main(argv + ["--out", str(missing)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write --out") and str(missing) in captured.err


@pytest.mark.parametrize("suite,m", [("em", 7), ("subword", 6)])
def test_exact_suites_at_large_m(capsys, suite, m):
    code, out = run(capsys, "verify", suite, "--m", str(m), "--trials", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and len(payload["records"]) == 1


def test_byte_identical_reports(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(
            ["critical", "--m", "3", "--q", "1", "--trials", "100", "--seed", "3", "--out", str(f)]
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for f in (v1, v2):
        assert (
            cli.main(
                ["verify", "minors", "--m", "3", "--trials", "4", "--seed", "11", "--out", str(f)]
            )
            == 0
        )
    assert v1.read_bytes() == v2.read_bytes()


def test_divisor_redraw_counted(capsys):
    code, out = run(capsys, "verify", "theorem-w", "--m", "2", "--trials", "10", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["divisor_redraws"] >= 0


IMPORT_PROBE = """
import contextlib, io, json, sys
from lgmirror import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

codes = [run(argv)[0] for argv in (
    ["verify", "pi-map", "--m", "2"],
    ["verify", "chevalley", "--m", "3"],
    ["verify", "theorem-w", "--m", "2", "--trials", "1"],
)]
exact = {"codes": codes, "numpy": "numpy" in sys.modules, "jacobi": "lgmirror.jacobi" in sys.modules}
_, out = run(["critical", "--m", "2", "--trials", "20"])
critical = {"points": len(json.loads(out)["points"]), "numpy": "numpy" in sys.modules,
            "jacobi": "lgmirror.jacobi" in sys.modules}
print(json.dumps({"exact": exact, "critical": critical}))
"""


def test_exact_commands_never_load_numpy():
    """The exact suites run without numpy; `critical` loads it with jacobi."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["exact"] == {"codes": [0, 0, 0], "numpy": False, "jacobi": False}
    assert seen["critical"] == {"points": 3, "numpy": True, "jacobi": True}


COST_GUARD_PROBE = """
import contextlib, io, json, sys
from lgmirror import cli

def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()

past = run(["critical", "--m", "10"])
# q = 0 is refused after the cost guard and before any work, so m = 9 passes the guard
at = run(["critical", "--m", "9", "--q", "0"])
print(json.dumps({"past": past, "at": at, "jacobi": "lgmirror.jacobi" in sys.modules, "numpy": "numpy" in sys.modules}))
"""


def test_critical_rejects_m_past_the_cost_limit(capsys):
    """`critical --m 10` exits 2 naming the limit, before jacobi is loaded;
    --help states the limit."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", COST_GUARD_PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {
        "past": [2, "error: critical needs m <= 9, got 10\n"],
        "at": [2, "error: critical point search needs q != 0\n"],
        "jacobi": False,
        "numpy": False,
    }
    with pytest.raises(SystemExit):
        cli.main(["critical", "--help"])
    assert "for m <= 9" in capsys.readouterr().out
