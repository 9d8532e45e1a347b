"""Command-line interface: print-w, verify, critical.

Reports are deterministic: identical configuration (including seed) gives
byte-identical JSON.  Random exact sample points are drawn through
splitmix64 with numerators in [-9, 9] \\ {0} and denominators in [1, 9];
points hitting a divisor are redrawn and the redraw count is reported.
Only `critical` loads the numerical layer (`jacobi`, and with it numpy);
it is deterministic without a seed and ignores --trials and --seed.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from lgmirror import grouprep as gr
from lgmirror import qchevalley as qc
from lgmirror import superpotential as sp
from lgmirror.scalars import QSqrt2, splitmix64

SCHEMA = "lg-mirror/1"
# `critical` takes 48 MB at m = 8 and 150 MB and 2.6 s at m = 9, most of it
# the (seeds x monomials x N) complex temporary of the monomial values, 84 MiB
# for the 480 peeled seeds of m = 9; at m = 10 (up to 1024 seeds, 512
# monomials, N = 55) it would take 440 MiB.
MAX_CRITICAL_M = 9


@dataclass
class RunConfig:
    m: int
    q: Fraction
    seed: int
    trials: int
    fmt: str
    tolerance: float
    out: str | None


def rational_stream(seed: int):
    """Small random rationals: numerator in [-9,9]\\{0}, denominator in [1,9]."""
    gen = splitmix64(seed)
    while True:
        num = next(gen) % 18 - 9
        if num >= 0:
            num += 1
        den = next(gen) % 9 + 1
        yield Fraction(num, den)


def sample_b(m: int, stream) -> list[Fraction]:
    n = m * (m + 1) // 2
    while True:
        b = [next(stream) for _ in range(n)]
        if all(b):
            return b


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- print-w ------------------------------------------------------------------


def cmd_print_w(config: RunConfig) -> int:
    terms = sp.symbolic_W(config.m)
    if config.fmt in ("text", "latex"):
        output = sp.render_text(terms) if config.fmt == "text" else sp.render_latex(terms)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(output + "\n")
        else:
            print(output)
    else:
        _emit({"schema": SCHEMA, "m": config.m, "terms": sp.render_json_terms(terms)}, config.out)
    return 0


# -- verify -------------------------------------------------------------------


def _minors_checks(m: int, q, b: list, p: dict) -> list[tuple[dict, sp.CheckReport]]:
    u2 = gr.build_u2bar(b, m)
    return [({"j": j}, sp.verify_sym_to_minor(m, j, b, p=p, u2=u2)) for j in range(2, m + 1)]


def _fj_checks(m: int, q, b: list, p: dict) -> list[tuple[dict, sp.CheckReport]]:
    u2 = gr.build_u2bar(b, m)
    return [({"j": j}, sp.verify_fj_minors(m, j, b, u2=u2)) for j in range(1, m)]


# suite -> the checks at one exact point b off every divisor, given q and
# the Pluecker vector p of b: [(extra record fields, report)]
_POINT_SUITES = {
    "theorem-w": lambda m, q, b, p: [({}, sp.verify_theorem_w(m, q, b, p=p))],
    "em": lambda m, q, b, p: [({}, sp.verify_em_formula(m, b, p=p))],
    "subword": lambda m, q, b, p: [({}, sp.verify_subword_route(m, b, p=p))],
    "minors": _minors_checks,
    "fj": _fj_checks,
}


def _point_records(suite: str, m: int, q: Fraction, trials: int, seed: int) -> tuple[list[dict], int]:
    """Run a per-point suite at `trials` random exact points; returns
    (records, redraw count)."""
    checks = _POINT_SUITES[suite]
    q_exact = QSqrt2.from_fraction(q)
    stream = rational_stream(seed)
    records: list[dict] = []
    redraws = 0
    for k in range(trials):
        while True:
            b = sample_b(m, stream)
            bring = sp.ring_vector(b)
            p = sp.plucker_vector(bring, m)
            try:
                sp.eval_W(q_exact, p, m)
                break
            except sp.DivisorError:
                redraws += 1
        for fields, rep in checks(m, q_exact, bring, p):
            records.append({"instance": k, **fields, "b": [str(x) for x in b], "ok": rep.ok, "detail": rep.detail})
    return records, redraws


def _suite_records(suite: str, m: int, q: Fraction, trials: int, seed: int) -> tuple[list[dict], int]:
    """Run one identity suite; returns (records, redraw count)."""
    if suite in _POINT_SUITES:
        return _point_records(suite, m, q, trials, seed)
    records: list[dict] = []
    if suite == "pi-map":
        from lgmirror import clifford as cl

        for j in range(2, m + 1):
            okD = cl.pi_map(cl.build_D(j, m)) == cl.wedge_v(j, m)
            okN = cl.pi_map(cl.build_N(j, m)) == cl.wedge_v_plus(j, m)
            records.append({"j": j, "ok": okD and okN, "detail": "" if okD and okN else f"pi image wrong (D ok: {okD}, N ok: {okN})"})
    elif suite == "chevalley":
        ok = qc.verify_relation_l1(m)
        records.append({"relation": "l=1", "ok": ok, "detail": "" if ok else "sigma_1*sigma_m != sigma_{m,1} + q"})
        bad = qc.grading_violations(m)
        records.append({"relation": "grading+positivity", "ok": not bad, "detail": "; ".join(bad)})
    else:
        raise ValueError(f"unknown suite {suite}")
    return records, 0


def _suite_extras(suite: str, m: int) -> dict:
    if suite == "chevalley":
        return {
            "sigma1_table": qc.multiplication_table(m),
            "conventions": "quantum terms use n_alpha = (m+1) alpha^vee(omega_m), "
            "the pairing of the curve degree with the anti-canonical class",
        }
    return {}


def cmd_verify(config: RunConfig, suite: str) -> int:
    records, redraws = _suite_records(suite, config.m, config.q, config.trials, config.seed)
    ok = all(r["ok"] for r in records)
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "m": config.m,
        "q": str(config.q),
        "trials": config.trials,
        "seed": config.seed,
        "divisor_redraws": redraws,
        "ok": ok,
        "records": records,
    }
    payload.update(_suite_extras(suite, config.m))
    if not ok:
        first_bad = next(r for r in records if not r["ok"])
        payload["counterexample"] = first_bad
    _emit(payload, config.out)
    return 0 if ok else 1


# -- critical -----------------------------------------------------------------


def cmd_critical(config: RunConfig) -> int:
    if config.q == 0:
        print("error: critical point search needs q != 0", file=sys.stderr)
        return 2
    from lgmirror import jacobi as jb

    report = jb.critical_report(config.m, complex(config.q), tolerance=config.tolerance)
    report["tolerance"] = config.tolerance
    ok = (
        report["spectrum_match"]["count"] == report["spectrum_match"]["expected_count"]
        and report["spectrum_match"]["max_rel_err"] < config.tolerance
    )
    report["ok"] = ok
    _emit(report, config.out)
    return 0 if ok else 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description="Landau-Ginzburg superpotential of LG(m): construction and exact verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=True):
        p.add_argument("--m", type=int, required=True, help="rank of the Lagrangian Grassmannian, m >= 2")
        if with_q:
            q_group = p.add_mutually_exclusive_group()
            q_group.add_argument("--q", type=_fraction, default=Fraction(1), help="quantum parameter (rational)")
            q_group.add_argument("--t", type=float, default=None, help="use q = exp(t)")
        p.add_argument("--trials", type=int, default=25)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", type=str, default=None, help="write the report to FILE")

    p_print = sub.add_parser("print-w", help="emit the symbolic superpotential")
    p_print.add_argument("--m", type=int, required=True)
    p_print.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_print.add_argument("--out", type=str, default=None)

    p_verify = sub.add_parser("verify", help="run an exact identity suite")
    p_verify.add_argument(
        "suite", choices=("minors", "theorem-w", "pi-map", "subword", "chevalley", "em", "fj")
    )
    common(p_verify)

    crit_help = f"critical points and spectrum comparison, for m <= {MAX_CRITICAL_M}"
    p_crit = sub.add_parser("critical", help=crit_help, description=crit_help)
    common(p_crit)
    p_crit.add_argument("--tolerance", type=float, default=1e-6, help="largest relative error of the spectrum match")
    return parser


def config_from_args(args) -> RunConfig:
    q = getattr(args, "q", Fraction(1))
    if getattr(args, "t", None) is not None:
        try:
            q = Fraction(math.exp(args.t)).limit_denominator(10**12)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"--t {args.t}: q = exp(t) is not a finite number") from exc
    return RunConfig(
        m=args.m,
        q=q,
        seed=getattr(args, "seed", 1),
        trials=getattr(args, "trials", 25),
        fmt=getattr(args, "format", "text"),
        tolerance=getattr(args, "tolerance", 1e-6),
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "print-w" and args.m < 2:
        print("error: need m >= 2", file=sys.stderr)
        return 2
    if args.command == "critical" and args.m > MAX_CRITICAL_M:
        print(f"error: critical needs m <= {MAX_CRITICAL_M}, got {args.m}", file=sys.stderr)
        return 2
    if args.command == "critical" and not (math.isfinite(args.tolerance) and args.tolerance > 0):
        print(f"error: need a finite --tolerance > 0, got {args.tolerance}", file=sys.stderr)
        return 2
    if getattr(args, "trials", 1) < 1:
        print("error: need --trials >= 1", file=sys.stderr)
        return 2
    try:
        config = config_from_args(args)
        if args.command == "print-w":
            return cmd_print_w(config)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        return cmd_critical(config)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
