"""Benchmark of lgmirror, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

  exact-identities    one long-lived process runs the exact `verify` suites
                      theorem-w, minors, fj, em at m = 6 and subword at m = 5,
                      one sample point per command, a fresh seed each time
  critical-search     one long-lived process runs `critical --m 3` over a q grid
                      spanning scales, plus the search at q = 10^-12, which
                      fails every time and is counted as failed
  exact-algebra-cold  a fresh worker process per command: verify pi-map at
                      m = 6, 7 and verify chevalley at m = 7, 8

Operations run one at a time, in whole rounds, until S seconds of measuring
have passed.  Every output is checked (perfbench/checks.py).  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics.
With --trace 0 these are the end-to-end metrics; with --trace 1 a fixed
amount of work runs once untraced and once under perfbench/tracer.py, and
the per-layer metrics come from the traced copy.  Exit code 0 means every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import reference_samples  # noqa: E402

IDENTITY_SUITES = (("theorem-w", 6), ("minors", 6), ("fj", 6), ("em", 6), ("subword", 5))
IDENTITY_Q = "2"
CRITICAL_M = 3
# 160 starts per search: the rarer of the two critical orbits is reached from
# about 8 % of starts, so a search misses it with probability about 1e-6
CRITICAL_TRIALS = 160
CRITICAL_GRID = ("1", "5", "81")
# q = 10^-12: every start lies far outside the critical points' scale, so
# the search finds none of them; kept as a counted failure with fixed inputs
CRITICAL_FAILING = ("1/1000000000000", 1)
COLD_OPS = (("pi-map", 6), ("pi-map", 7), ("chevalley", 7), ("chevalley", 8))
SETUPS = 3  # set-up is measured in this many fresh workers per run
# setup_s is reported in seconds on a host where the reference loop takes this long
REFERENCE_NOMINAL_S = 0.008
RUN_LIMIT_S = 170  # a run gives up with an error rather than outlast 180 s


# -- operations -------------------------------------------------------------------


class Op:
    """One lgmirror command and what its output must satisfy."""

    def __init__(self, kind: str, argv: list[str], m: int, q: str | None = None, counted_failure: bool = False):
        self.kind, self.argv, self.m, self.q = kind, argv, m, q
        self.counted_failure = counted_failure

    @property
    def label(self) -> str:
        """The operation kind: the command without its seed."""
        return " ".join(self.argv[: self.argv.index("--seed")] if "--seed" in self.argv else self.argv)

    def results(self, report: dict) -> int:
        """Verified results in a correct report: sample points, critical points or one suite."""
        if self.kind == "critical":
            return len(report["points"])
        if self.kind in checks.RECORDS_PER_POINT:
            return len(checks.sample_points(report))
        return 1

    def check(self, result: dict) -> tuple[bool, list[str]]:
        """(failed, problems): a counted failure is expected to fail; any other
        failure, crash or wrong output is a problem."""
        report = checks.parse(result["out"])
        if self.kind == "critical":
            q = Fraction(self.q)
            if self.counted_failure and result["rc"] == 1 and report is not None and report.get("ok") is False:
                return True, checks.critical_points(report, self.m, complex(q))
            if result["rc"] != 0:
                return False, [f"critical --q {self.q}: exit code {result['rc']}: {failure_text(result)}"]
            return False, checks.critical_report(report, self.m, q)
        if result["rc"] != 0:
            return False, [f"verify {self.kind} m={self.m}: exit code {result['rc']}: {failure_text(result)}"]
        return False, checks.verify_report(report, self.kind, self.m, trials=1)


def failure_text(result: dict) -> str:
    return (result.get("err") or result["out"])[-300:]


def identity_round(rng: random.Random) -> list[Op]:
    return [
        Op(suite, ["verify", suite, "--m", str(m), "--trials", "1", "--q", IDENTITY_Q,
                   "--seed", str(rng.randrange(1, 2**31))], m, IDENTITY_Q)
        for suite, m in IDENTITY_SUITES
    ]


def critical_op(q: str, seed: int, counted_failure: bool = False) -> Op:
    argv = ["critical", "--m", str(CRITICAL_M), "--q", q, "--trials", str(CRITICAL_TRIALS), "--seed", str(seed)]
    return Op("critical", argv, CRITICAL_M, q, counted_failure)


def critical_round(rng: random.Random) -> list[Op]:
    ops = [critical_op(q, rng.randrange(1, 2**31)) for q in CRITICAL_GRID]
    return ops + [critical_op(CRITICAL_FAILING[0], CRITICAL_FAILING[1], counted_failure=True)]


def cold_op(suite: str, m: int) -> Op:
    return Op(suite, ["verify", suite, "--m", str(m)], m)


def cold_round(rng: random.Random) -> list[Op]:
    return [cold_op(suite, m) for suite, m in COLD_OPS]


WORKLOADS = {
    # name: (set-up operations, round of operations, runs each command in a fresh worker)
    # The first set-up operation ends set-up; the rest warm the measuring worker up.
    "exact-identities": (identity_round, identity_round, False),
    "critical-search": (lambda rng: [critical_op("1", rng.randrange(1, 2**31))], critical_round, False),
    # set-up: interpreter start, imports and the small tables of m = 4
    "exact-algebra-cold": (lambda rng: [cold_op("pi-map", 4)], cold_round, True),
}


# -- processes ----------------------------------------------------------------------


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    # one operation at a time on a small shared box: no BLAS thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Session:
    """A worker process that runs commands in-process, one at a time."""

    def __init__(self, src: str, trace_file: str | None = None):
        """Traced if `trace_file` is given; the spans are written there on finish."""
        self.started = time.perf_counter()
        argv = [sys.executable, os.path.join(HERE, "worker.py"), src, "1" if trace_file else "0"]
        if trace_file:
            argv.append(trace_file)
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(src))

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited early")
        return json.loads(line)

    def run(self, op: Op, reference: bool = False) -> dict:
        return self.request({"argv": op.argv, "reference": reference})

    def finish(self) -> None:
        self.request({"finish": True})
        self.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_timed(src: str, op: Op, trace_file: str | None = None) -> tuple[Session, dict]:
    """A fresh worker whose first command is `op`, and that command's result.

    The result's `seconds` run from the worker's start to the end of `op`:
    interpreter start, imports and every table `op` builds.  Its `refs` are
    reference loop times taken in this process just before the start and
    just after `op`.
    """
    refs = reference_samples()
    session = Session(src, trace_file)
    try:
        result = session.run(op)
    except BaseException:
        session.close()
        raise
    result["seconds"] = time.perf_counter() - session.started
    result["refs"] = refs + reference_samples()
    return session, result


def fresh_run(src: str, op: Op, trace_file: str | None = None) -> dict:
    """`op` in a fresh worker, timed as in `start_timed`; a traced result also
    carries the tracer's totals."""
    session, result = start_timed(src, op, trace_file)
    with session:
        if trace_file:
            result["totals"] = session.request({"totals": True})
        session.finish()
    return result


# -- the untraced run -----------------------------------------------------------------


class Ledger:
    """Operations done, their timings and the problems found in their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.done: list[tuple[Op, dict, bool]] = []  # (op, result, failed)

    def record(self, op: Op, result: dict, counted: bool) -> bool:
        failed, problems = op.check(result)
        self.problems += problems
        self.done.append((op, result, failed))
        if counted:
            self.attempted += 1
            self.failed += failed
        return failed


def measured_run(workload: str, src: str, rng: random.Random, seconds: float, ledger: Ledger) -> dict:
    """SETUPS set-ups, each in a fresh worker, then whole rounds until `seconds` have passed.

    Each set-up time is divided by the reference loop's median around it.
    The in-process workloads measure their rounds in the last set-up's
    worker, after it has run the remaining set-up operations; the cold
    workload starts a fresh worker for every operation.
    """
    setup_ops, round_ops, fresh = WORKLOADS[workload]
    setups, refs, rounds = [], [], []

    def measure(run_op) -> None:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append([])
            for op in round_ops(rng):
                result = run_op(op)
                refs.extend(result["refs"])
                rounds[-1].append((op, result, ledger.record(op, result, counted=True)))

    for k in range(SETUPS):
        ops = setup_ops(rng)
        session, result = start_timed(src, ops[0])
        with session:
            ledger.record(ops[0], result, counted=False)
            setups.append(result["seconds"] / statistics.median(result["refs"]))
            if k == SETUPS - 1 and not fresh:
                for op in ops[1:]:
                    ledger.record(op, session.run(op), counted=False)
                measure(lambda op: session.run(op, reference=True))
            session.finish()
    if fresh:
        measure(lambda op: fresh_run(src, op))
    return {"setups": setups, "rounds": rounds, "refs": refs}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and one line per operation kind with its median.

    Latencies and throughput are taken over the successful operations that
    are not counted failures, so mending a counted failure moves no metric.
    Each operation's time is divided by the median of the reference loop
    times taken around it, so that the host's drift within a run cancels.
    """
    ok = [(op, res) for rnd in runs["rounds"] for op, res, failed in rnd
          if not failed and not op.counted_failure]
    by_kind: dict[str, list[tuple[float, float]]] = {}  # (seconds, seconds over the reference loop)
    for op, res in ok:
        by_kind.setdefault(op.label, []).append((res["seconds"], res["seconds"] / statistics.median(res["refs"])))
    medians = {label: statistics.median(s for s, _ in times) for label, times in by_kind.items()}
    geomean = statistics.geometric_mean(medians.values())
    geomean_ref = statistics.geometric_mean(statistics.median(r for _, r in times) for times in by_kind.values())
    results = sum(op.results(checks.parse(res["out"])) for op, res in ok)
    seconds = sum(s for times in by_kind.values() for s, _ in times)
    ref_time = sum(r for times in by_kind.values() for _, r in times)
    ref = statistics.median(runs["refs"])
    metrics = {
        "setup_s": metric(statistics.median(runs["setups"]) * REFERENCE_NOMINAL_S, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "op_geomean_ref": metric(geomean_ref, "ref"),
        "results_per_ref": metric(results / ref_time, "1/ref"),
    }
    lines = [f"{label}: median {medians[label]:.4f} s over {len(by_kind[label])} operations" for label in by_kind]
    lines += [f"operation kinds: geometric mean of medians {geomean:.4f} s; {results / seconds:.4f} results/s",
              f"reference loop: median {ref * 1000:.2f} ms over {len(runs['refs'])} samples"]
    return metrics, lines


def sample_checks(workload: str, runs: dict, ledger: Ledger, rng: random.Random) -> None:
    """Checks too slow for every output, made on a sample chosen from the seed."""
    if workload == "exact-identities":
        seen = set()
        for op, res, _ in ledger.done:  # every sample point
            for b in checks.sample_points(checks.parse(res["out"])):
                if (op.m, tuple(b)) not in seen:
                    seen.add((op.m, tuple(b)))
                    ledger.problems += checks.point_properties(b, Fraction(op.q), op.m)
        for op, res, _ in rng.choice(runs["rounds"]):  # one point per suite
            b = checks.sample_points(checks.parse(res["out"]))[0]
            scale = Fraction(rng.randrange(2, 9), rng.randrange(2, 9))
            ledger.problems += checks.point_properties(b, Fraction(op.q), op.m, scale)
            ledger.problems += checks.identity_apart(op.kind, b, Fraction(op.q), op.m)
    elif workload == "critical-search":
        for rnd in runs["rounds"]:
            reports = {op.q: checks.parse(res["out"]) for op, res, failed in rnd if not failed}
            for q, r in zip(CRITICAL_GRID, CRITICAL_GRID[1:]):
                if q in reports and r in reports:
                    ledger.problems += checks.critical_scaling(reports[q], reports[r], Fraction(q), Fraction(r))


# -- the traced run ----------------------------------------------------------------------


def traced_run(workload: str, src: str, rng: random.Random, out_dir: str, seed: int, ledger: Ledger) -> dict:
    """The set-up and one round, untraced and then traced, on the same inputs.

    The tracing overhead compares the two wall times, each divided by the
    median reference loop time taken around its operations.
    """
    setup_ops, round_ops, fresh = WORKLOADS[workload]
    state = rng.getstate()
    trace_file = os.path.join(out_dir, f"trace-{workload}-seed{seed}")
    walls, refs = [], []
    for trace in (False, True):
        rng.setstate(state)
        setup = setup_ops(rng)
        ops = setup + round_ops(rng)
        if fresh:  # each operation's time runs from its worker's start; the loop runs here
            results = [fresh_run(src, op, f"{trace_file}-op{k}.json" if trace else None) for k, op in enumerate(ops)]
            walls.append(sum(result["seconds"] for result in results))
            if trace:
                totals = [result["totals"] for result in results]
                cold, total = tracing_sum(totals[: len(setup)]), tracing_sum(totals)
        else:  # the loop runs in the worker, around each operation
            with Session(src, trace_file + ".json" if trace else None) as session:
                results = []
                for op in ops:
                    results.append(session.run(op, reference=True))
                    if trace and len(results) == len(setup):
                        cold = session.request({"totals": True})
                walls.append(time.perf_counter() - session.started - sum(x for r in results for x in r["refs"]))
                if trace:
                    total = session.request({"totals": True})
                session.finish()
        refs.append([x for result in results for x in result["refs"]])
        if trace:
            for k, (op, result) in enumerate(zip(ops, results)):
                ledger.record(op, result, counted=k >= len(setup))
    untraced, traced = (wall / statistics.median(r) for wall, r in zip(walls, refs))
    return per_layer(total, cold, ledger, 100.0 * (traced / untraced - 1.0))


def tracing_sum(totals: list[dict]) -> dict:
    out = {"self_s": {}, "layer_calls": {}, "calls": {}, "extra": {}, "coeff_bits_max": 0}
    for tot in totals:
        for key in ("self_s", "layer_calls", "calls", "extra"):
            for name, value in tot[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["coeff_bits_max"] = max(out["coeff_bits_max"], tot["coeff_bits_max"])
    return out


def per_layer(total: dict, cold: dict, ledger: Ledger, overhead_pct: float) -> dict:
    calls, extra = total["calls"], total["extra"]
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = metric(total["self_s"][layer], "s")
        out[f"{layer}.calls"] = metric(total["layer_calls"][layer], "count")
    counts = {
        "scalars.qsqrt2_mul": calls.get("scalars.QSqrt2.__mul__", 0),
        "scalars.qsqrt2_div": calls.get("scalars.QSqrt2.inverse", 0),
        "scalars.coeff_bits_max": total["coeff_bits_max"],
        "weyl.word_product_calls": calls.get("weyl.word_product", 0),
        "weyl.length_calls": calls.get("weyl.length", 0),
        "weyl.subwords_returned": extra.get("weyl.subwords_returned", 0),
        "clifford.pi_map_calls": calls.get("clifford.pi_map", 0),
        "grouprep.apply_spin_factors_calls": calls.get("grouprep.apply_spin_factors", 0),
        "grouprep.minor_calls": calls.get("grouprep.minor", 0),
        "superpotential.plucker_vector_calls": calls.get("superpotential.plucker_vector", 0),
        "superpotential.laurent_numerator_calls": calls.get("superpotential.laurent_numerator", 0),
        "qchevalley.chevalley_multiply_calls": calls.get("qchevalley.chevalley_multiply", 0),
        "jacobi.starts": extra.get("jacobi.starts", 0),
        "jacobi.points_found": extra.get("jacobi.points_found", 0),
        "jacobi.grad_calls": calls.get("jacobi.grad_w_tilde", 0),
        "jacobi.hess_calls": calls.get("jacobi.hess_w_tilde", 0),
        "cli.divisor_redraws": sum((checks.parse(res["out"]) or {}).get("divisor_redraws", 0)
                                   for _, res, _ in ledger.done),
    }
    for name, value in counts.items():
        out[name] = metric(value, "bits" if name.endswith("bits_max") else "count")
    starts = counts["jacobi.starts"]
    out["jacobi.points_per_start"] = metric(counts["jacobi.points_found"] / starts if starts else 0.0, "ratio")
    out["weyl.cold_s"] = metric(cold["self_s"]["weyl"], "s")
    out["trace.overhead_pct"] = metric(overhead_pct, "%")
    return out


# -- entry point --------------------------------------------------------------------------


def _out_of_time(signum, frame):
    raise TimeoutError(f"run took longer than {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "lgmirror", "cli.py")):
        print(f"error: no lgmirror sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    sys.path.insert(0, src)  # the checks evaluate exact properties with the program's own functions
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(args.seed)
    ledger = Ledger()
    if args.trace:
        metrics = traced_run(args.workload, src, rng, out_dir, args.seed, ledger)
    else:
        runs = measured_run(args.workload, src, rng, args.seconds, ledger)
        metrics, lines = end_to_end(runs)
        sample_checks(args.workload, runs, ledger, rng)
        print("\n".join(lines))
    for problem in ledger.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not ledger.problems
    print(f"{args.workload}: attempted {ledger.attempted}, failed {ledger.failed}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
