import gc
import hashlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fractionwindows as fw
import sweeps
from lgmirror import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def python(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package sources."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120)


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
    assert len(json.loads(out)["terms"]) == 3


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


def test_parser_is_built_once_and_reused(capsys):
    """build_parser is cached; parsing one command leaves no trace on the next."""
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["print-w", "--m", "2", "--format", "latex"]) == 0
    assert cli.main(["print-w", "--m", "2"]) == 0
    latex, text = capsys.readouterr().out.splitlines()
    assert latex.startswith(r"\frac") and text.startswith("p[1]/p[]")


PARSE_CASES = [
    [],
    ["-h"],
    ["verify", "-h"],
    ["critical", "-h"],
    ["bogus"],
    ["verify", "nosuch", "--m", "3"],
    ["verify", "minors"],
    ["critical", "--m", "x"],
    ["critical", "--m", "3", "--q", "1", "--t", "0"],
    ["verify", "pi-map", "--m", "2", "--tolerance", "1"],
    ["critical", "--m", "3", "--extra"],
    ["print-w", "--m", "3", "--format", "bad"],
    ["critical", "--m=3"],
    ["critical", "--m", "3", "--tol", "1e-3"],
    ["verify", "fj", "--m", "4", "--q", "3/2", "--trials", "2", "--seed", "9", "--out", "r.json"],
    ["print-w", "--m", "3", "--format", "latex"],
]


def _parsed(capsys, parse, argv):
    """vars of the namespace, or the exit code, stdout and stderr of the exit."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_command_parse_is_the_top_parse(capsys, argv):
    """main reads a plain command line from the flag table and hands any
    other to argparse: the same flags as the top parser's, or the same exit,
    stdout and stderr."""
    assert _parsed(capsys, cli._parse, argv) == _parsed(capsys, cli.build_parser().parse_args, argv)


ALL_FLAGS = sorted({flag for *_, flags in cli._COMMANDS.values() for flag in flags})
# values of each flag, most of which it converts (a Unicode digit too, which
# int and Fraction read), and values that fail, start with "-" or are
# another token
FLAG_VALUES = {
    "--m": ["2", "3", "٣", " 4", "x"],
    "--q": ["5/7", "1/1000000000000", "2", "0"],
    "--t": ["0.5", "inf", "1e400"],
    "--trials": ["1", "160"],
    "--seed": ["7", "0"],
    "--out": ["r.json", ""],
    "--format": ["json", "latex", "text", "bad"],
    "--tolerance": ["1e-3", "inf", "0"],
}
OTHER_VALUES = ["-7/2", "-1", "1/0", "minors", "--", "-h", "--m"]
ODD_TOKENS = [["-h"], ["--help"], ["--"], ["--extra", "1"], ["-m", "3"]]


@st.composite
def command_lines(draw) -> list[str]:
    """An argv built from the flag table, of one of two kinds.  Plain: a
    command, for verify a suite first, then --m and other distinct flags of
    the command, not both --q and --t, with values they mostly convert.  Or
    anything: a command (or an unknown one), for verify a suite first, last
    or missing, and any mix of flag-value pairs (repeats and other
    commands' flags too), abbreviations, `--flag=value` forms, `-h`, `--`,
    unknown flags and stray values."""
    plain = draw(st.booleans())
    command = draw(st.sampled_from(list(cli._COMMANDS) if plain else [*cli._COMMANDS, "bogus"]))
    own = list(cli._COMMANDS[command][2]) if command in cli._COMMANDS else ALL_FLAGS
    if plain:
        dropped = {"--m", draw(st.sampled_from(["--q", "--t"]))}
        flags = ["--m"] + draw(st.lists(st.sampled_from([f for f in own if f not in dropped]), unique=True))
        items = [[f, draw(st.sampled_from(FLAG_VALUES[f]))] for f in draw(st.permutations(flags))]
    else:
        flag = st.sampled_from(own) | st.sampled_from(ALL_FLAGS)
        value = st.sampled_from([v for values in FLAG_VALUES.values() for v in values] + OTHER_VALUES)
        item = st.one_of(
            st.tuples(flag, value).map(list),
            st.tuples(flag, st.integers(3, 6), value).map(lambda t: [t[0][: t[1]], t[2]]),
            st.tuples(flag, value).map(lambda t: [f"{t[0]}={t[1]}"]),
            st.sampled_from(ODD_TOKENS),
            value.map(lambda v: [v]),
        )
        items = draw(st.lists(item, max_size=6))
    if command == "verify":
        suite = [draw(st.sampled_from([*cli._SUITES, "nosuch"]))]
        items = [suite, *items] if plain else draw(st.sampled_from([[suite, *items], [*items, suite], items]))
    return [command] + [token for item in items for token in item]


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
@example(["critical", "--m", "3", "--q", "-7/2"])
@example(["verify", "theorem-w", "--m", "3", "--q", "1/0"])
@example(["print-w", "--m", "٣", "--format", "json"])
@example(["critical", "--m", "3", "--", "--q", "2"])
@example(["verify", "--m", "3", "em"])
@example(["verify", "em", "--m", "3", "--m", "4"])
@example(["critical", "--m", "3", "--q", "2", "--t", "0"])
def test_parse_is_argparse_on_generated_command_lines(capsys, argv):
    """On any argv drawn from the flag table, `_parse` gives argparse's flags,
    or its exit, stdout and stderr."""
    assert _parsed(capsys, cli._parse, argv) == _parsed(capsys, cli.build_parser().parse_args, argv)


# command lines of the benchmark's shape, and the other plain forms
PLAIN_LINES = [
    *(["verify", suite, "--m", "6", "--trials", "1", "--q", "2", "--seed", "1234"] for suite in ("theorem-w", "minors", "fj", "em")),
    ["verify", "subword", "--m", "5", "--trials", "1", "--q", "2", "--seed", "99"],
    *(["critical", "--m", "3", "--q", q, "--trials", "160", "--seed", "7"] for q in ("1", "5", "81", "1/1000000000000")),
    *(["verify", suite, "--m", m] for suite, m in (("pi-map", "4"), ("pi-map", "7"), ("chevalley", "8"))),
    ["critical", "--t", "0.5", "--m", "4", "--tolerance", "1e-3", "--out", "r.json"],
    ["print-w", "--m", "5", "--format", "json"],
    ["print-w", "--out", "w.txt", "--m", "3"],
]


def test_plain_command_lines_never_reach_argparse(monkeypatch):
    """A plain command line is parsed without argparse, to the same flags:
    with build_parser failing, each still parses."""
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in PLAIN_LINES]
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("argparse parsed a plain command line"))
    assert [vars(cli._parse(argv)) for argv in PLAIN_LINES] == expected


def _toy_point(m, q, b):
    """A per-point runner that checks nothing: one record per point."""
    return [({"coordinates": len(b)}, types.SimpleNamespace(ok=True, detail=""))]


def _toy_exact(m):
    """An exact runner that checks nothing: one record, and an extra field."""
    return [{"ok": True, "detail": ""}], {"size": m}


@pytest.mark.parametrize("per_point", [True, False])
def test_a_suite_is_one_table_entry(monkeypatch, capsys, tmp_path, per_point):
    """A suite added as one entry of `_SUITES`, with its runner, is read by
    `_plain` and by argparse, refused past its m limit and past its --trials
    bound, and writes its report with the flags of its entry: per-point
    records at --trials points from --seed, or an exact suite's records and
    extra payload."""
    flags = ("trials", "seed") if per_point else ()
    monkeypatch.setitem(cli._SUITES, "toy", (3, 1.5, flags, _toy_point if per_point else _toy_exact))
    cli.build_parser.cache_clear()
    try:
        assert vars(cli._plain(["verify", "toy", "--m", "3"]))["suite"] == "toy"
        assert cli.build_parser().parse_args(["verify", "toy", "--m=3"]).suite == "toy"
        assert cli.main(["verify", "toy", "--m", "4"]) == 2
        assert capsys.readouterr().err == "error: verify toy needs m <= 3, got 4\n"
        # min(1000, 25 * 1.5^(3 - 2)) = 37
        assert cli.main(["verify", "toy", "--m", "2", "--trials", "38"]) == 2
        assert capsys.readouterr().err == "error: verify toy --m 2 needs --trials <= 37, got 38\n"
        out = tmp_path / "toy.json"
        assert cli.main(["verify", "toy", "--m", "2", "--trials", "37", "--seed", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
    finally:
        monkeypatch.undo()
        cli.build_parser.cache_clear()
    assert (report["suite"], report["m"], report["ok"]) == ("toy", 2, True)
    assert set(report) == {"schema", "suite", "m", "ok", "records", *flags, *(() if per_point else ("size",))}
    if per_point:
        assert (report["trials"], report["seed"]) == (37, 5)
        stream = cli.rational_stream(5)
        points = [[str(x) for x in cli.sample_b(2, stream)] for _ in range(37)]
        assert report["records"] == [
            {"instance": k, "coordinates": 3, "b": b, "ok": True, "detail": ""} for k, b in enumerate(points)
        ]
        assert "size" not in report
    else:
        assert report["records"] == [{"ok": True, "detail": ""}] and report["size"] == 2
    with pytest.raises(SystemExit):  # undone: the parser no longer offers the toy suite
        cli.build_parser().parse_args(["verify", "toy", "--m", "3"])


def test_m_too_small_is_usage_error():
    assert cli.main(["verify", "theorem-w", "--m", "1"]) == 2


@pytest.mark.parametrize("m", ["1", "0"])
def test_print_w_m_too_small_is_usage_error(m):
    """print-w takes the same `need m >= 2` check as the other commands."""
    proc = python("-m", "lgmirror.cli", "print-w", "--m", m)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: need m >= 2\n")


@pytest.mark.parametrize("command", [["verify", "theorem-w"], ["critical"]])
def test_q_with_zero_denominator_is_usage_error(command):
    """--q 1/0 is a usage error (exit 2), not a traceback read as a failed
    verification (exit 1)."""
    proc = python("-m", "lgmirror.cli", *command, "--m", "2", "--q", "1/0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --q: not a rational: 1/0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_is_usage_error(capsys, trials):
    code, out = run(capsys, "verify", "theorem-w", "--m", "3", "--trials", trials)
    assert code == 2 and out == ""


@pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 1), "-1"])
def test_seed_outside_64_bits_is_usage_error(capsys, seed):
    """splitmix64 keeps its state mod 2^64: seed 2^64 + 1 would draw the
    points of seed 1 and report another seed, so it is refused."""
    code = cli.main(["verify", "minors", "--m", "2", "--trials", "1", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: need 0 <= --seed < 2^64, got {seed}\n"


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_seed_at_either_end_of_64_bits_is_accepted(capsys, seed):
    code, out = run(capsys, "verify", "minors", "--m", "2", "--trials", "1", "--seed", seed)
    assert code == 0 and json.loads(out)["seed"] == int(seed)


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
def test_out_file_matches_stdout_and_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    """An --out in a missing directory, under a file, or naming a directory
    is refused before the command runs."""
    code, out = run(capsys, *argv)
    assert code == 0
    written = tmp_path / "report.txt"
    assert cli.main(argv + ["--out", str(written)]) == 0
    assert written.read_text() == out
    for name in ("cmd_print_w", "cmd_verify", "cmd_critical"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("the command ran"))
    refused = (
        (tmp_path / "missing" / "report.txt", "No such file or directory"),
        (written / "x", "Not a directory"),
        (tmp_path, "Is a directory"),
    )
    for bad, reason in refused:
        code = cli.main(argv + ["--out", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cannot write --out {bad}: {reason}\n"
    assert written.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [["print-w", "--m", "2", "--out", ""], ["print-w", "--m", "2", "--out="], ["verify", "em", "--m", "2", "--out", ""]],
    ids=["print-w-plain", "print-w-argparse", "verify"],
)
def test_empty_out_is_usage_error(capsys, monkeypatch, argv):
    """An empty --out names no file: it is refused before the command runs,
    whether the plain parse or argparse reads it, and nothing is written
    to stdout."""
    for name in ("cmd_print_w", "cmd_verify", "cmd_critical"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("the command ran"))
    assert (cli._plain(argv) is None) == (argv[-1] == "--out=")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need a file name for --out, got an empty one\n"


def test_rational_stream_is_the_arithmetic_draw():
    """The table read of rational_stream yields the Fractions that building
    each from its two splitmix64 draws yields, for seeds 0..99, 200 draws
    each."""
    for seed in range(100):
        table, arithmetic = cli.rational_stream(seed), sweeps.arithmetic_stream(seed)
        for _ in range(200):
            x, y = next(table), next(arithmetic)
            assert x == y and type(x) is Fraction, (seed, x, y)


@pytest.mark.parametrize("argv", [["print-w", "--m", "2"], ["verify", "chevalley", "--m", "8"]], ids=["print-w", "verify"])
def test_closed_stdout_is_usage_error_naming_stdout(argv):
    """A report written to a pipe whose reader has gone exits 2, and the
    error names stdout, not an --out that was never given."""
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as closed:
        proc = python("-m", "lgmirror.cli", *argv, stdout=closed)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write the report to stdout: Broken pipe\n")


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


# -- the report writer -----------------------------------------------------------

# a command of each kind; `critical --m 2` fails, its max_rel_err Infinity
ONE_LINE_COMMANDS = {
    "print-w": ["print-w", "--m", "3", "--format", "json"],
    **{suite: ["verify", suite, "--m", "3", "--trials", "2"] for suite in cli._SUITES},
    "critical": ["critical", "--m", "3", "--q", "5"],
    "critical-m2": ["critical", "--m", "2"],
}


@pytest.mark.parametrize("name", sorted(ONE_LINE_COMMANDS))
def test_report_is_one_line_of_sorted_json(capsys, tmp_path, name):
    """Every report, to stdout or to --out, is json.dumps(report,
    sort_keys=True) and a newline."""
    argv, out = ONE_LINE_COMMANDS[name], tmp_path / "report.json"
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert cli.main([*argv, "--out", str(out)]) == code == (1 if name == "critical-m2" else 0)
    assert out.read_text() == text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    if name == "critical-m2":
        assert '"max_rel_err": Infinity' in text


def test_writer_leaves_no_garbage_cycle(capsys):
    """Writing a report, by the json.dumps(report, sort_keys=True) of `cli`,
    makes no reference cycle for the collector to find: a cycle per call
    would raise a long-running caller's peak memory."""
    from lgmirror import jacobi as jb

    assert cli.main(["verify", "chevalley", "--m", "5"]) == 0
    reports = [jb.critical_report(3, 5 + 0j), json.loads(capsys.readouterr().out)]
    gc.collect()
    gc.disable()
    try:
        for report in reports:
            json.dumps(report, sort_keys=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(ONE_LINE_COMMANDS))
def test_every_report_carries_the_schema(capsys, name):
    """Every JSON report, ok or failing, carries the one schema of `cli`."""
    cli.main(ONE_LINE_COMMANDS[name])
    assert json.loads(capsys.readouterr().out)["schema"] == cli.SCHEMA


def test_a_report_carries_only_the_flags_its_suite_reads(capsys):
    """A flag a suite ignores moves no byte of its report: pi-map and
    chevalley ignore --q, --t, --trials and --seed, the other per-point
    suites --q; theorem-w reports the q it reads."""
    for argv in (["verify", "pi-map", "--m", "4"], ["verify", "chevalley", "--m", "5"]):
        runs = {run(capsys, *argv, *flags) for flags in ((), ("--q", "3/2", "--trials", "3", "--seed", "5"), ("--t", "0.5"))}
        assert len(runs) == 1 and runs.pop()[0] == 0, argv
    for suite in ("em", "subword", "minors", "fj"):
        argv = ["verify", suite, "--m", "3", "--trials", "2", "--seed", "5"]
        plain = run(capsys, *argv, "--q", "2")
        assert plain == run(capsys, *argv, "--q", "3/2") and plain[0] == 0, suite
    argv = ["verify", "theorem-w", "--m", "3", "--trials", "2", "--seed", "5"]
    (code, two), (_, other) = run(capsys, *argv, "--q", "2"), run(capsys, *argv, "--q", "3/2")
    assert code == 0 and two != other
    assert (json.loads(two)["q"], json.loads(other)["q"]) == ("2", "3/2")


def test_a_points_records_share_one_coordinate_list():
    """The m - 1 `fj` records of a point hold one list of its coordinates,
    not a copy each, so a long run keeps one per point."""
    records, extra = cli._suite_records("fj", 4, Fraction(1), 3, 5)
    assert extra == {} and len(records) == 3 * 3
    for k in range(3):
        lists = {id(r["b"]) for r in records if r["instance"] == k}
        assert len(lists) == 1
    assert len({id(r["b"]) for r in records}) == 3


def test_fj_builds_no_pluecker_vector(capsys, monkeypatch):
    from lgmirror import superpotential as sp

    def refuse(*args, **kwargs):
        raise AssertionError("fj read a Pluecker vector")

    monkeypatch.setattr(sp, "plucker_vector", refuse)
    code, out = run(capsys, "verify", "fj", "--m", "4", "--trials", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_theorem_w_evaluates_w_once_per_trial(capsys, monkeypatch):
    from lgmirror import superpotential as sp

    calls = []
    eval_W = sp.eval_W

    def counted(*args, **kwargs):
        calls.append(args)
        return eval_W(*args, **kwargs)

    monkeypatch.setattr(sp, "eval_W", counted)
    code, _ = run(capsys, "verify", "theorem-w", "--m", "3", "--trials", "4")
    assert code == 0
    assert len(calls) == 4


QSQRT2_PROBE = """
import contextlib, io, json, sys
from lgmirror import cli, grouprep, scalars

warm, work = json.loads(sys.argv[1])

def run():
    for argv in work:
        if argv[0] == "spin-moves":  # every F_i for m = 2..argv[1]
            for m in range(2, argv[1] + 1):
                for i in range(1, m + 1):
                    grouprep.spin_f_moves(i, m)
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0 and json.loads(out.getvalue())["ok"] is True, argv

if warm:  # builds the per-process tables, the spin moves among them
    run()
made = []
make = scalars._make
scalars._make = lambda *abd: made.append(abd) or make(*abd)
assert scalars.QSqrt2(1, 1) and made == [(1, 1, 1)]  # the counter sees a QSqrt2
made.clear()
run()
print(json.dumps(made))
"""

QSQRT2_CASES = {
    # name: (warm, work)
    "point-suites-warm": (True, [["verify", s, "--m", "4", "--trials", "2", "--q", "3/2"] for s in ("theorem-w", "em", "subword", "minors", "fj")]),
    "spin-moves-cold": (False, [["spin-moves", 8]]),
    "pi-map-cold": (False, [["verify", "pi-map", "--m", "5"]]),
    "chevalley-cold": (False, [["verify", "chevalley", "--m", "5"]]),
}


@pytest.mark.parametrize("case", sorted(QSQRT2_CASES))
def test_commands_build_no_qsqrt2(case):
    """The per-point suites warm, and the spin move tables, `verify pi-map`
    and `verify chevalley` from a fresh process, run on ints and Fractions
    only: no QSqrt2 is built, and every QSqrt2 is built by `scalars._make`."""
    proc = python("-c", QSQRT2_PROBE, json.dumps(QSQRT2_CASES[case]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("suite", ["theorem-w", "em", "subword"])
def test_a_failing_point_reports_its_values_at_b(monkeypatch, suite):
    """The spin route made wrong by 1 at rho_m at the lift a = D b, D > 1:
    the failing record prints the values at (b, q), recomputed here on the
    Fractions b with the error read back at b (1/D^N), not the integers at a."""
    from fractions import Fraction

    from lgmirror import partitions as pt
    from lgmirror import superpotential as sp
    from lgmirror.scalars import lift

    m, q, seed = 3, Fraction(3, 2), 5
    b = cli.sample_b(m, cli.rational_stream(seed))
    a, d = lift(b)
    assert d > 1
    top, real = pt.rho(m, m), sp.plucker_vector

    def wrong(point, m):
        p = real(point, m)
        p[top] += 1
        return p

    monkeypatch.setattr(sp, "plucker_vector", wrong)
    (record,), _ = cli._suite_records(suite, m, q, 1, seed)
    assert record["b"] == [str(x) for x in b] and not record["ok"]
    p = real(b, m)
    p[top] += Fraction(1, d ** len(b))
    if suite == "theorem-w":
        expected = f"W = {sp.eval_W(q, p, m)} but W-tilde = {sp.eval_W_tilde(q, b, m)}"
    elif suite == "em":
        prod = Fraction(1)
        for x in b:
            prod *= x
        expected = f"{sp.laurent_numerator(b, m) * p[top]} != {p[pt.rho(m - 1, m)] * prod}"
    else:
        expected = f"p_{top.render()}: spin {p[top]} != subword {sp.plucker_subword_vector(b, m)[top]}"
    assert record["detail"] == expected


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_minor_suites_take_one_elimination_per_point(monkeypatch, m):
    """At a torus point `verify minors` reads every minor from one
    `window_minors` elimination and calls `determinant` 0 times; `verify fj`
    reads the same elimination and calls `determinant` m - 1 times, once per
    vanishing minor."""
    from fractions import Fraction

    from lgmirror import grouprep as gr

    calls = []
    for name in ("determinant", "window_minors"):
        real = getattr(gr, name)
        monkeypatch.setattr(gr, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    stream = cli.rational_stream(60 + m)
    for _ in range(3):
        b = cli.sample_b(m, stream)
        for suite, determinants in (("minors", 0), ("fj", m - 1)):
            calls.clear()
            checks = cli._SUITES[suite][3](m, Fraction(1), b)
            assert len(checks) == m - 1 and all(rep.ok for _, rep in checks), (suite, m)
            assert sorted(calls) == ["determinant"] * determinants + ["window_minors"], (suite, m)


def test_minor_suites_pass_without_a_fraction(monkeypatch):
    """At torus points for m = 2..6 `verify minors` and `verify fj` decide
    every check on integers: with `Fraction` in `grouprep` and
    `superpotential` made to raise, both suites still pass, while f_j* read
    at b (`grouprep.extract_f_coeff`) does raise."""
    from lgmirror import grouprep as gr
    from lgmirror import superpotential as sp
    from lgmirror.scalars import lift

    points = []
    for m in range(2, 7):
        stream = cli.rational_stream(80 + m)
        points += [(m, cli.sample_b(m, stream)) for _ in range(3)]

    def no_fraction(*args):
        raise AssertionError("a Fraction on the pass path")

    monkeypatch.setattr(gr, "Fraction", no_fraction)
    monkeypatch.setattr(sp, "Fraction", no_fraction)
    q = Fraction(3, 2)
    for m, b in points:
        for suite in ("minors", "fj"):
            checks = cli._SUITES[suite][3](m, q, b)
            assert len(checks) == m - 1 and all(rep.ok for _, rep in checks), (suite, m, b)
    with pytest.raises(AssertionError, match="pass path"):
        gr.extract_f_coeff(gr.build_u2bar(lift(points[0][1]), 2), 1)


@pytest.mark.parametrize("suite, j, side", [("minors", 2, 0), ("minors", 3, 1), ("fj", 2, 0), ("fj", 3, 1)])
def test_a_failing_minor_reports_its_values_at_b(monkeypatch, capsys, suite, j, side):
    """`window_minors` made wrong by 1 at b on one side (D, N) of one window
    j, at m = 3 with D > 1, that is by D^e in the integers, e the window's
    power of D: the one failing record prints the sum and the minors at b,
    recomputed here by the Fraction spin route and one
    `fractionwindows.minor_at_b` per window, the report carries it as its
    counterexample, and the exit code is 1."""
    from lgmirror import grouprep as gr
    from lgmirror import superpotential as sp
    from lgmirror.scalars import lift

    m, seed = 3, 5
    b = cli.sample_b(m, cli.rational_stream(seed))
    assert lift(b)[1] > 1
    real = gr.window_minors

    def wrong(u2):
        out, e = real(u2), (m + 1) * (m + 1 - j) + side
        out[j] = tuple(x + (k == side) * u2[1] ** e for k, x in enumerate(out[j]))
        return out

    monkeypatch.setattr(gr, "window_minors", wrong)
    code, out = run(capsys, "verify", suite, "--m", str(m), "--trials", "1", "--seed", str(seed))
    report = json.loads(out)
    bad = [r for r in report["records"] if not r["ok"]]
    assert code == 1 and not report["ok"] and len(bad) == 1
    assert report["counterexample"] == bad[0]
    u2, rows, cols = gr.build_u2bar(lift(b), m), list(range(m + 1, 2 * m + 2)), list(range(j, j + m + 1))
    den, num = fw.minor_at_b(u2, rows, cols), fw.minor_at_b(u2, rows, [j - 1] + cols[1:])
    if suite == "minors":
        term, p = sp.symbolic_W(m)[m + 1 - j], sp.plucker_vector(b, m)
        if side == 0:
            expected = f"D side: sum {sp._eval_sum(term.denominator, p)} != minor {den + 1}"
        else:
            expected = f"N side: sum {sp._eval_sum(term.numerator, p)} != minor {num + 1}"
        assert bad[0]["j"] == j
    else:
        den, num = (den + 1, num) if side == 0 else (den, num + 1)
        expected = f"f_{j - 1}* = {gr.extract_f_coeff(u2, j - 1)}, minors {num}/{den}"
        assert bad[0]["j"] == j - 1
    assert bad[0]["detail"] == expected


IMPORT_PROBE = """
import contextlib, io, json, sys
start = set(sys.modules)
from lgmirror import cli

def run(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # help and usage errors
        code = exc.code
    text = out.getvalue()
    loaded = set(sys.modules) - start
    return {"code": code, "points": len(json.loads(text).get("points", [])) if text.startswith("{") else None,
            "lgmirror": sorted(m for m in loaded if m.split(".")[0] == "lgmirror"),
            "others": sorted(loaded & {"argparse", "dataclasses", "inspect", "numpy"})}

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def probe(*commands: list[str]) -> list[dict]:
    """Run the commands one after another in one fresh interpreter; after
    each, its exit code (or its SystemExit code), the number of critical
    points a JSON report holds, and the lgmirror modules and the modules of
    {argparse, dataclasses, inspect, numpy} loaded since the interpreter
    started."""
    proc = python("-c", IMPORT_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_never_load_numpy():
    """The exact suites run without numpy; `critical` loads it with jacobi."""
    seen = probe(
        ["verify", "pi-map", "--m", "2"],
        ["verify", "chevalley", "--m", "3"],
        ["verify", "theorem-w", "--m", "2", "--trials", "1"],
        ["critical", "--m", "2", "--trials", "20"],
    )
    assert [s["code"] for s in seen[:3]] == [0, 0, 0]
    assert all("numpy" not in s["others"] and "lgmirror.jacobi" not in s["lgmirror"] for s in seen[:3])
    assert seen[3]["points"] == 3 and "numpy" in seen[3]["others"] and "lgmirror.jacobi" in seen[3]["lgmirror"]


def test_plain_commands_never_load_argparse():
    """A fresh, plain command line parses without loading argparse; help
    and a bad flag load it to write their text."""
    seen = probe(
        ["verify", "pi-map", "--m", "3"],
        ["verify", "chevalley", "--m", "3"],
        ["verify", "em", "--m", "3", "--trials", "2", "--q", "2", "--seed", "5"],
        ["critical", "--m", "3", "--q", "5", "--trials", "160", "--seed", "7"],
        ["print-w", "--m", "3"],
    )
    assert [s["code"] for s in seen] == [0, 0, 0, 0, 0]
    assert seen[3]["points"] == 8 and "numpy" in seen[3]["others"]
    assert all("argparse" not in s["others"] for s in seen)
    for argv, code in (["verify", "-h"], 0), (["critical", "--m", "3", "--bad", "1"], 2):
        (seen,) = probe(argv)
        assert seen["code"] == code and "argparse" in seen["others"]


EXACT_COMMANDS = {
    "pi-map": (["verify", "pi-map", "--m", "3"], ["cli", "clifford", "partitions", "scalars"]),
    "chevalley": (["verify", "chevalley", "--m", "3"], ["cli", "partitions", "qchevalley", "scalars", "weyl"]),
    **{
        suite: (["verify", suite, "--m", "3", "--trials", "1"], None)
        for suite in ("theorem-w", "minors", "fj", "em", "subword")
    },
    "print-w": (["print-w", "--m", "3", "--format", "json"], None),
}


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_each_exact_command_loads_only_what_it_runs(name):
    """A fresh `verify pi-map` loads only the Clifford layer below the CLI,
    a fresh `verify chevalley` only the Weyl and Chevalley layers; no exact
    command loads numpy, jacobi, argparse, dataclasses or inspect."""
    argv, modules = EXACT_COMMANDS[name]
    (seen,) = probe(argv)
    assert seen["code"] == 0
    assert seen["others"] == []
    assert "lgmirror.jacobi" not in seen["lgmirror"]
    if modules is not None:
        assert seen["lgmirror"] == ["lgmirror"] + [f"lgmirror.{m}" for m in modules]


# Each report is one line, json.dumps(report, sort_keys=True); the digests
# are those of the whole stdout when it was json.dumps(report,
# sort_keys=True, indent=2) in schema lg-mirror/1, which that line
# re-indented reproduces once `_schema_1` gives it back the lg-mirror/1 fields.
# sha256 of the whole stdout of each command, recorded before the sigma_1
# root sum went size first, the matrix units took per-pair signs and the CLI
# started importing per command: those changes move no byte of a report
PINNED_REPORTS = {
    "pi-map-7": (
        ["verify", "pi-map", "--m", "7"],
        "7947beef93e68bb84d53a38f363a23049b453a05ced49a74fc9994f1e0887202",
    ),
    "chevalley-8": (
        ["verify", "chevalley", "--m", "8"],
        "f5a506a9efeaf138dca5436bcfd1f82b649f06783b5ed0f81c088eb6ab5a6c2d",
    ),
    "print-w-5-json": (
        ["print-w", "--m", "5", "--format", "json"],
        "79b1a333f6206e6f0330510074d6dd35f9a7df6011a20a52160926d629607dd5",
    ),
    "theorem-w-4": (
        ["verify", "theorem-w", "--m", "4", "--trials", "2", "--seed", "5"],
        "e18b5bac14edf4896a738f104349fd5f95338d381d258f8ce5c5029116702160",
    ),
    # recorded before the spin row became one sweep over the spin moves and
    # the 2^m basis became cached tuples
    "minors-4": (
        ["verify", "minors", "--m", "4", "--trials", "2", "--seed", "5"],
        "7881ff9236dedf4aae4d3ef2b88e35f0ba63e358b3102c5ed8b68b2207333082",
    ),
    "fj-4": (
        ["verify", "fj", "--m", "4", "--trials", "2", "--seed", "5"],
        "523e07debe8186c74b84fd8f4a46b7792d7ceeb0b6e2a9982c3e4a65ebbdbc46",
    ),
    "em-4": (
        ["verify", "em", "--m", "4", "--trials", "2", "--seed", "5"],
        "d0aa03086a94f27c07bcfabb0ef5faffbef9a6e8a43121d97586412c69c82480",
    ),
    "subword-4": (
        ["verify", "subword", "--m", "4", "--trials", "2", "--seed", "5"],
        "6f70bf7a517058940e953366721858d8bacc86014a79a6f71c547f6cd14ea506",
    ),
    # recorded before minors went fraction free (Bareiss over Z[sqrt2]);
    # the m = 6 commands are those the benchmark runs, at a fixed seed
    "minors-6": (
        ["verify", "minors", "--m", "6", "--trials", "1", "--q", "2", "--seed", "7"],
        "df693624e1ca6154f496b178ff50c019d563924577348126f5d673ffc5c69bc6",
    ),
    "fj-6": (
        ["verify", "fj", "--m", "6", "--trials", "1", "--q", "2", "--seed", "7"],
        "dca11a48b582a051640f9791dd7fe38b38ae792f5e7d67175abd5aa5466ba07f",
    ),
    # recorded before the spin and subword routes and W moved to the integers
    # D b; the commands the benchmark runs, at a fixed seed
    "theorem-w-6": (
        ["verify", "theorem-w", "--m", "6", "--trials", "1", "--q", "2", "--seed", "7"],
        "109955532a7bddf68c20f5f87f0bf6d03ae4eb6fab5ba51a35a81ff32852afac",
    ),
    "em-6": (
        ["verify", "em", "--m", "6", "--trials", "1", "--q", "2", "--seed", "7"],
        "9a8aed8068a8d1adfb2ceaebbeb1b46393eb18d9fca3cc994f86da9ac0301631",
    ),
    "subword-5": (
        ["verify", "subword", "--m", "5", "--trials", "1", "--q", "2", "--seed", "7"],
        "09a4bed98eb27cf5bbfd91f72bdaf8dcdf8dccfcf685c54e2d9aa95674df3901",
    ),
    "minors-7": (
        ["verify", "minors", "--m", "7", "--trials", "3", "--seed", "5"],
        "b0035924ab5c8db2aa911708d518c9433bc24d0f8babc03a24356e68cc95c1d7",
    ),
    "fj-7": (
        ["verify", "fj", "--m", "7", "--trials", "3", "--seed", "5"],
        "b6b4c2525f16a2476fa2a8f02a36f9f452629a78d359a4dd16f3850ceb038746",
    ),
    # recorded before u2bar moved to the integral basis (v_{m+1} scaled by
    # sqrt2); at m = 2 and 3 the column windows j..j+m+1 reach both ends of
    # the index range around m+1
    "minors-2": (
        ["verify", "minors", "--m", "2", "--trials", "30", "--seed", "9"],
        "f516bdbad882eb2b90631699fb511659f8d7650eca03217a9b8adce5fee2c075",
    ),
    "minors-3": (
        ["verify", "minors", "--m", "3", "--trials", "30", "--seed", "9"],
        "3eea32e1108da38e8f95e129428f5768c09366572ace203d0812072d780e3ae6",
    ),
    "fj-2": (
        ["verify", "fj", "--m", "2", "--trials", "30", "--seed", "9"],
        "af1348b49cb749d9704d1b825751d9c95c46621b137ecafb1d1c9b4ee1b8859c",
    ),
    "fj-3": (
        ["verify", "fj", "--m", "3", "--trials", "30", "--seed", "9"],
        "c4ba47a69f0baa25bbc55c5f4d7130ad5d4d172a307274f898dc88ddf7e0eede",
    ),
    # recorded before the minors of a point came from one shared elimination
    # of rows m+1..2m+1 (`grouprep.window_minors`)
    "minors-8": (
        ["verify", "minors", "--m", "8", "--trials", "2", "--seed", "5"],
        "e186bd25a73aa9f29d2c1454d99a4fd936ee0d9ac4a89529256d6b366c2d09b7",
    ),
    "fj-8": (
        ["verify", "fj", "--m", "8", "--trials", "2", "--seed", "5"],
        "b2a7dfc090ec1f712df86a1e20047d109a926c74ccf5a79a306333488a042289",
    ),
    # recorded before the minor suites compared integers at D b (windows,
    # f_j* and the vanishing minor); m = 6 as the benchmark
    "minors-6-defaults": (
        ["verify", "minors", "--m", "6"],
        "5aea929c94192e63690a65f2038f02689ab2e39ab394564b58e2263f8389e6dc",
    ),
    "fj-6-q": (
        ["verify", "fj", "--m", "6", "--trials", "3", "--seed", "5", "--q", "3/2"],
        "bcae2b1a6445468b58ecb88cdcb5d4231279a898f04d803a3d0b85694221f5b1",
    ),
    # recorded before the suites became one table: the exact suites write the
    # --q, --trials and --seed they ignore, and --t becomes the q of a report
    "pi-map-4-flags": (
        ["verify", "pi-map", "--m", "4", "--trials", "3", "--seed", "5", "--q", "3/2"],
        "b022e29b8128156b8e4bb822e6ac775506ddb056cee54441a9c0f5f665df2efc",
    ),
    "chevalley-5-t": (
        ["verify", "chevalley", "--m", "5", "--trials", "3", "--seed", "5", "--t", "0.5"],
        "629a77129d0c6a232cc90f7264351f8cecfb2661ab2ad0474555ffb2f268a87f",
    ),
    "em-4-t": (
        ["verify", "em", "--m", "4", "--trials", "2", "--seed", "5", "--t", "0.5"],
        "ab4f8ad9aedfafa4a1f05e311f2a271b05c81daa959c38c8c1cd6d8c176bf0bd",
    ),
    # recorded before pi and the sigma_1 root sum moved to subset bitmasks
    "pi-map-9": (
        ["verify", "pi-map", "--m", "9"],
        "dd5ddfebecbe8be67afab281f20534dc8435525c01ccbc8ab48706291c37f0b1",
    ),
    "chevalley-10": (
        ["verify", "chevalley", "--m", "10"],
        "a2f85a32eb3bbf443c723c958af06f1d976613df4e5c297653cafd071d62715d",
    ),
}


_VERIFY_FIELDS = {"schema", "suite", "m", "ok", "records"}
# the lg-mirror/2 fields of a report of print-w and of each suite
PINNED_FIELDS = {
    "print-w": {"schema", "m", "terms"},
    "theorem-w": _VERIFY_FIELDS | {"q", "trials", "seed"},
    **dict.fromkeys(("minors", "fj", "em", "subword"), _VERIFY_FIELDS | {"trials", "seed"}),
    "pi-map": _VERIFY_FIELDS,
    "chevalley": _VERIFY_FIELDS | {"sigma1_table", "conventions"},
}


def _schema_1(argv: list[str], report: dict) -> dict:
    """The lg-mirror/1 form of a report of `argv`: every verify report then
    also carried divisor_redraws 0 and the q, trials and seed of its flags."""
    args = cli._parse(argv)
    cli._check(args)  # turns --t into q
    if args.command == "verify":
        report = {**report, "q": str(args.q), "trials": args.trials, "seed": args.seed, "divisor_redraws": 0}
    return {**report, "schema": "lg-mirror/1"}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_match_their_pinned_sha256(name):
    argv, digest = PINNED_REPORTS[name]
    proc = python("-m", "lgmirror.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(report, sort_keys=True) + "\n"
    assert report["schema"] == "lg-mirror/2"
    assert set(report) == PINNED_FIELDS[argv[1] if argv[0] == "verify" else argv[0]]
    indented = json.dumps(_schema_1(argv, report), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == digest


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


VERIFY_COST_GUARD_PROBE = """
import contextlib, io, json, sys
from lgmirror import cli

cli.cmd_verify = lambda args: 99  # a run past the guard returns 99 at once

def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()

seen = {}
for suite, limit in json.loads(sys.argv[1]).items():
    # --trials 0 is refused after the cost guard and before any work, so m = limit passes the guard
    past = run(["verify", suite, "--m", str(limit + 1)])
    seen[suite] = [past, run(["verify", suite, "--m", str(limit), "--trials", "0"])]
seen["loaded"] = sorted(name for name in sys.modules if name.startswith("lgmirror"))
print(json.dumps(seen))
"""

VERIFY_M_LIMITS = {"minors": 14, "theorem-w": 14, "pi-map": 14, "subword": 12, "chevalley": 14, "em": 14, "fj": 20}


def test_verify_rejects_m_past_the_cost_limit(capsys):
    """`verify SUITE --m` past the suite's limit exits 2 naming it, before
    any module of the suite is loaded; at the limit it passes the guard;
    --help states every limit."""
    assert {suite: limit for suite, (limit, *_) in cli._SUITES.items()} == VERIFY_M_LIMITS
    proc = python("-c", VERIFY_COST_GUARD_PROBE, json.dumps(VERIFY_M_LIMITS))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("loaded") == ["lgmirror", "lgmirror.cli", "lgmirror.scalars"]
    assert seen == {
        suite: [[2, f"error: verify {suite} needs m <= {limit}, got {limit + 1}\n"], [2, "error: need --trials >= 1\n"]]
        for suite, limit in VERIFY_M_LIMITS.items()
    }
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    limits = ", ".join(f"{suite} {limit}" for suite, limit in VERIFY_M_LIMITS.items())
    assert limits in " ".join(capsys.readouterr().out.split())


TRIALS_GUARD_PROBE = """
import contextlib, io, json, sys
from lgmirror import cli

cli.cmd_verify = lambda args: 99  # a run past the guard returns 99 at once
cli.cmd_critical = lambda args: 98

def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()

seen = {"critical": run(["critical", "--m", "3", "--trials", "160"])}
for suite, m, bound in json.loads(sys.argv[1]):
    argv = ["verify", suite, "--m", str(m), "--trials"]
    seen[f"{suite} {m}"] = [run(argv + [str(bound + 1)]), run(argv + [str(bound)])]
seen["loaded"] = sorted(name for name in sys.modules if name.startswith("lgmirror"))
print(json.dumps(seen))
"""

# (suite, m, largest --trials): min(1000, 25 * STEP^(limit - m)), STEP 2 and 1.5 for fj
TRIALS_BOUNDS = [
    ("theorem-w", 14, 25), ("theorem-w", 12, 100), ("theorem-w", 8, 1000), ("pi-map", 14, 25),
    ("chevalley", 13, 50), ("subword", 12, 25), ("subword", 9, 200), ("em", 11, 200),
    ("minors", 2, 1000), ("fj", 20, 25), ("fj", 19, 37), ("fj", 15, 189), ("fj", 14, 284),
    ("fj", 13, 427), ("fj", 11, 961), ("fj", 10, 1000),
]


def test_verify_rejects_trials_past_the_cost_limit(capsys):
    """`verify --trials` past min(1000, 25 * STEP^(limit - m)) exits 2 naming
    the bound, before any module of the suite is loaded; the bound passes
    the guard; `critical` ignores --trials and has no such bound; --help
    states the rule."""
    for suite, m, bound in TRIALS_BOUNDS:
        limit, step, *_ = cli._SUITES[suite]
        assert min(1000, int(25 * step ** (limit - m))) == bound, (suite, m)
    proc = python("-c", TRIALS_GUARD_PROBE, json.dumps(TRIALS_BOUNDS))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("loaded") == ["lgmirror", "lgmirror.cli", "lgmirror.scalars"]
    assert seen.pop("critical") == [98, ""]
    assert seen == {
        f"{suite} {m}": [[2, f"error: verify {suite} --m {m} needs --trials <= {bound}, got {bound + 1}\n"], [99, ""]]
        for suite, m, bound in TRIALS_BOUNDS
    }
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert "at most min(1000, 25*STEP^(LIMIT-m)) --trials, 25 at the limit, with STEP 2 (fj 1.5)" in " ".join(
        capsys.readouterr().out.split()
    )


def test_print_w_rejects_m_past_the_cost_limit(capsys, monkeypatch):
    """`print-w --m 26` exits 2 naming the limit, before any work; m = 25
    passes the guard; --help states the limit.  No term list past the limit
    is built."""
    assert cli.MAX_PRINT_M == 25
    monkeypatch.setattr(cli, "cmd_print_w", lambda args: 99)  # a run past the guard returns 99 at once
    assert cli.main(["print-w", "--m", "26", "--format", "json"]) == 2
    assert capsys.readouterr().err == "error: print-w needs m <= 25, got 26\n"
    assert cli.main(["print-w", "--m", "25"]) == 99
    with pytest.raises(SystemExit):
        cli.main(["print-w", "--help"])
    assert "for m <= 25" in capsys.readouterr().out


def test_critical_rejects_m_past_the_cost_limit(capsys):
    """`critical --m 10` exits 2 naming the limit, before jacobi is loaded;
    --help states the limit."""
    proc = python("-c", COST_GUARD_PROBE)
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
