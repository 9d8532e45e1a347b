"""Command-line interface: print-w, verify, critical.

Reports are deterministic: identical configuration (including seed) gives
byte-identical JSON, one line that `_report` writes and stamps with the one
schema, `SCHEMA`.  A `verify` report carries only the flags its suite reads.
Each command imports the modules it runs, and what they import, inside
the function that runs it, `verify` inside each suite's runner in the suite
table `_SUITES`; only `critical` loads the numerical layer (`jacobi`, and
with it numpy); a fresh process loads nothing else.  `critical` is
deterministic without a seed and, past their checks, ignores --trials and
--seed.  Past their checks a `verify` suite reads only the flags of its
`_SUITES` entry: `pi-map` and `chevalley`, which check fixed elements of one
m, read none of --q, --t, --trials and --seed, and only `theorem-w` reads q.
The flags of each command are one table, `_COMMANDS`: `_plain` reads a plain
command line from it without argparse, and `build_parser` builds the
argparse parsers from it, the one source of help, usage and error text.
Exit codes: 0 success, 1 verification failure, 2 usage error.  `_check`
finds usage errors from the parsed flags before any work, among them an
`--m` or a `verify --trials` past its cost limit (`MAX_PRINT_M`,
`MAX_CRITICAL_M`, `_SUITES`) and a `--seed` outside 0..2^64-1, which
splitmix64 would fold onto another seed's points.  The file is opened only
to write the report, so a refused run truncates none.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from lgmirror.scalars import lift, splitmix64

SCHEMA = "lg-mirror/2"
# `critical` takes 0.4 s and 45 MB at m = 8, 1.8 s and 143 MB at m = 9 (fresh
# process, one BLAS thread, 2-vCPU Xeon VM), most of it the (seeds x monomials
# x N) temporary of the monomial values: 84 MiB for the 480 seeds of m = 9, and
# at m = 10 (up to 1024 seeds, 512 monomials, N = 55) it would take 440 MiB.
MAX_CRITICAL_M = 9
# `print-w --format json`, the largest of the three formats, takes 0.37 s and
# 47 MB at m = 24, 0.57 s and 62 MB at m = 25, and 0.81 s and 80 MB at m = 26
# (fresh process, same VM); text and latex take as long in 31-49 MB, and
# time and memory grow some 1.3-1.5x per m.
MAX_PRINT_M = 25


@lru_cache(maxsize=None)
def _coordinates() -> tuple[Fraction, ...]:
    """The 162 sample coordinates, built on the first draw: the value of the
    draws x, y of `rational_stream` is at index 9 (x % 18) + y % 9."""
    return tuple(Fraction(num + (num >= 0), den + 1) for num in range(-9, 9) for den in range(9))


def rational_stream(seed: int):
    """Small random rationals: numerator in [-9,9]\\{0}, denominator in [1,9].

    Each value takes two splitmix64 draws x, y: numerator x % 18 - 9, plus 1
    if that is not negative, and denominator y % 9 + 1.  It is read from
    one table of the 162 Fractions, not built by a gcd per draw."""
    table, gen = _coordinates(), splitmix64(seed)
    for x in gen:
        yield table[9 * (x % 18) + next(gen) % 9]


def sample_b(m: int, stream) -> list[Fraction]:
    """One torus point, drawn once: `rational_stream` never yields 0.  Every
    divisor D_l(u2bar(b)) is a monomial in b with coefficient 1, so no point
    is on a divisor and none is redrawn."""
    return [next(stream) for _ in range(m * (m + 1) // 2)]


def _emit(text: str, out: str | None) -> None:
    """Write the report to the file `out`, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(payload: dict, out: str | None) -> None:
    """Write a JSON report, stamped with `SCHEMA` over any schema it holds."""
    _emit(json.dumps({**payload, "schema": SCHEMA}, sort_keys=True), out)


# -- print-w ------------------------------------------------------------------


def cmd_print_w(args: SimpleNamespace) -> int:
    from lgmirror import superpotential as sp

    terms = sp.symbolic_W(args.m)
    if args.format == "json":
        _report({"m": args.m, "terms": sp.render_json_terms(terms)}, args.out)
    else:
        _emit(sp.render_text(terms) if args.format == "text" else sp.render_latex(terms), args.out)
    return 0


# -- verify -------------------------------------------------------------------


def _pi_map(m: int) -> tuple[list[dict], dict]:
    """The pi images of D_j and N_j, j = 2..m, against wedge_v and wedge_v_plus."""
    from lgmirror import clifford as cl

    records = []
    for j in range(2, m + 1):
        okD = cl.pi_map(cl.build_D(j, m)) == cl.wedge_v(j, m)
        okN = cl.pi_map(cl.build_N(j, m)) == cl.wedge_v_plus(j, m)
        records.append({"j": j, "ok": okD and okN, "detail": "" if okD and okN else f"pi image wrong (D ok: {okD}, N ok: {okN})"})
    return records, {}


def _chevalley(m: int) -> tuple[list[dict], dict]:
    """The l = 1 relation and the grading of the sigma_1 table, which the report carries."""
    from lgmirror import qchevalley as qc

    ok = qc.verify_relation_l1(m)
    bad = qc.grading_violations(m)
    records = [
        {"relation": "l=1", "ok": ok, "detail": "" if ok else "sigma_1*sigma_m != sigma_{m,1} + q"},
        {"relation": "grading+positivity", "ok": not bad, "detail": "; ".join(bad)},
    ]
    conventions = (
        "quantum terms use n_alpha = (m+1) alpha^vee(omega_m), "
        "the pairing of the curve degree with the anti-canonical class"
    )
    return records, {"sigma1_table": qc.multiplication_table(m), "conventions": conventions}


def _theorem_w(m: int, q: Fraction, b: list[Fraction]) -> list:
    from lgmirror import superpotential as sp

    point = lift(b)
    return [({}, sp.verify_theorem_w(m, q, point, sp.plucker_vector(point[0], m)))]


def _em(m: int, q: Fraction, b: list[Fraction]) -> list:
    from lgmirror import superpotential as sp

    point = lift(b)
    return [({}, sp.verify_em_formula(m, point, sp.plucker_vector(point[0], m)))]


def _subword(m: int, q: Fraction, b: list[Fraction]) -> list:
    from lgmirror import superpotential as sp

    point = lift(b)
    return [({}, sp.verify_subword_route(m, point, sp.plucker_vector(point[0], m)))]


def _minors(m: int, q: Fraction, b: list[Fraction]) -> list:
    from lgmirror import grouprep as gr
    from lgmirror import superpotential as sp

    point = lift(b)
    p = sp.plucker_vector(point[0], m)
    return [({"j": j}, rep) for j, rep in sp.verify_sym_to_minors(m, p, gr.build_u2bar(point, m))]


def _fj(m: int, q: Fraction, b: list[Fraction]) -> list:
    from lgmirror import grouprep as gr
    from lgmirror import superpotential as sp

    return [({"j": j}, rep) for j, rep in sp.verify_fj_minors(m, gr.build_u2bar(lift(b), m))]


def _suite_records(suite: str, m: int, q: Fraction, trials: int, seed: int) -> tuple[list[dict], dict]:
    """Run one identity suite: its records and any extra payload."""
    *_, flags, run = _SUITES[suite]
    if not flags:
        return run(m)
    stream = rational_stream(seed)
    records = []
    for k in range(trials):
        b = sample_b(m, stream)
        coords = [str(x) for x in b]  # one list, shared by the point's records
        for fields, rep in run(m, q, b):
            records.append({"instance": k, **fields, "b": coords, "ok": rep.ok, "detail": rep.detail})
    return records, {}


def cmd_verify(args: SimpleNamespace) -> int:
    records, extra = _suite_records(args.suite, args.m, args.q, args.trials, args.seed)
    ok = all(r["ok"] for r in records)
    read = {flag: str(args.q) if flag == "q" else getattr(args, flag) for flag in _SUITES[args.suite][2]}
    payload = {"suite": args.suite, "m": args.m, **read, "ok": ok, "records": records, **extra}
    if not ok:
        payload["counterexample"] = next(r for r in records if not r["ok"])
    _report(payload, args.out)
    return 0 if ok else 1


# -- critical -----------------------------------------------------------------


def cmd_critical(args: SimpleNamespace) -> int:
    from lgmirror import jacobi as jb

    report = jb.critical_report(args.m, complex(args.q), tolerance=args.tolerance)
    _report(report, args.out)
    return 0 if report["ok"] else 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        import argparse

        raise argparse.ArgumentTypeError(f"not a rational: {text}") from exc


# The flags of each command, as argparse's add_argument keywords; each dest is
# the flag's name.  `--q` and `--t` exclude each other.
_COMMON = {
    "--m": {"type": int, "required": True, "help": "rank of the Lagrangian Grassmannian, m >= 2"},
    "--q": {"type": _fraction, "default": Fraction(1), "help": "quantum parameter (rational)"},
    "--t": {"type": float, "default": None, "help": "use q = exp(t)"},
    "--trials": {"type": int, "default": 25},
    "--seed": {"type": int, "default": 1, "help": "0 <= SEED < 2^64"},
    "--out": {"type": str, "default": None, "help": "write the report to FILE"},
}
_EXCLUSIVE = ("--q", "--t")
# The suites of `verify`, in parser order: (largest m, --trials STEP, the
# common flags it reads, which its report carries, runner).  An exact suite
# reads none: its runner takes m and gives its records and any extra payload.
# A per-point suite runs at --trials torus points drawn from --seed, and its
# runner gives the checks at one point b, each with what its record adds:
# [(fields, report)].  At the largest m a fresh run of 25 trials takes at
# most about 10 s and 130 MB (same VM), the next m two to three times as
# long, and a trial about 1/STEP as much at each m below: `verify` takes at
# most min(1000, 25 * STEP^(limit - m)) trials.
_SUITES = {
    "minors": (14, 2, ("trials", "seed"), _minors),
    "theorem-w": (14, 2, ("q", "trials", "seed"), _theorem_w),
    "pi-map": (14, 2, (), _pi_map),
    "subword": (12, 2, ("trials", "seed"), _subword),
    "chevalley": (14, 2, (), _chevalley),
    "em": (14, 2, ("trials", "seed"), _em),
    "fj": (20, 1.5, ("trials", "seed"), _fj),
}
_PRINT_HELP = f"emit the symbolic superpotential, for m <= {MAX_PRINT_M}"
_VERIFY_HELP = (
    "run an exact identity suite; the largest m of each: "
    + ", ".join(f"{suite} {limit}" for suite, (limit, *_) in _SUITES.items())
    + "; and at most min(1000, 25*STEP^(LIMIT-m)) --trials, 25 at the limit, with STEP 2 ("
    + ", ".join(f"{suite} {step}" for suite, (_, step, *_) in _SUITES.items() if step != 2)
    + ")"
)
_CRITICAL_HELP = f"critical points and spectrum comparison, for m <= {MAX_CRITICAL_M}"
# by command: its help, its description, its flags; `verify` first takes the suite
_COMMANDS = {
    "print-w": (
        _PRINT_HELP,
        _PRINT_HELP,
        {
            "--m": {"type": int, "required": True},
            "--format": {"type": str, "choices": ("text", "latex", "json"), "default": "text"},
            "--out": {"type": str, "default": None},
        },
    ),
    "verify": ("run an exact identity suite", _VERIFY_HELP, _COMMON),
    "critical": (
        _CRITICAL_HELP,
        _CRITICAL_HELP,
        {**_COMMON, "--tolerance": {"type": float, "default": 1e-6, "help": "largest relative error of the spectrum match"}},
    ),
}


@lru_cache(maxsize=None)
def build_parser():
    """The one argparse parser of the process, built from the flag table:
    parsing reads it and changes nothing."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description="Landau-Ginzburg superpotential of LG(m): construction and exact verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, description, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, description=description)
        if command == "verify":
            p.add_argument("suite", choices=tuple(_SUITES))
        group = p.add_mutually_exclusive_group() if _EXCLUSIVE[0] in flags else None
        for flag, spec in flags.items():
            (group if flag in _EXCLUSIVE else p).add_argument(flag, **spec)
    return parser


def _q_of_t(t: float) -> Fraction:
    try:
        q = Fraction(math.exp(t)).limit_denominator(10**12)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"--t {t}: q = exp(t) is not a finite number") from exc
    if q == 0:
        raise ValueError(f"--t {t}: q = exp(t) rounds to 0 at denominators up to 10^12")
    return q


def _check_out(out: str) -> None:
    """Raise the OSError that opening `out` for writing would meet, at a
    directory or in a missing or unwritable one, without truncating it."""
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), out)


def _check(args: SimpleNamespace) -> None:
    """Refuse the flags before any work, by a ValueError naming the fault or
    the OSError of an unwritable --out; turns --t into q."""
    if args.m < 2:
        raise ValueError("need m >= 2")
    if args.command == "verify":
        name, (limit, step, *_) = f"verify {args.suite}", _SUITES[args.suite]
    else:
        name, limit, step = args.command, MAX_PRINT_M if args.command == "print-w" else MAX_CRITICAL_M, None
    if args.m > limit:
        raise ValueError(f"{name} needs m <= {limit}, got {args.m}")
    if args.command != "print-w":
        critical = args.command == "critical"
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"need 0 <= --seed < 2^64, got {args.seed}")
        if critical and not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise ValueError(f"need a finite --tolerance > 0, got {args.tolerance}")
        if args.trials < 1:
            raise ValueError("need --trials >= 1")
        if not critical and args.trials > (most := min(1000, int(25 * step ** (limit - args.m)))):
            raise ValueError(f"{name} --m {args.m} needs --trials <= {most}, got {args.trials}")
        if args.t is not None:
            args.q = _q_of_t(args.t)
        if critical and args.q == 0:
            raise ValueError("critical point search needs q != 0")
    if args.out == "":
        raise ValueError("need a file name for --out, got an empty one")
    if args.out:
        _check_out(args.out)


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The flags of a plain command line, read from the flag table, or None.
    Plain is: the command; for verify, the suite; then `--flag value`
    pairs, each an exact flag of the command given at most once, no value
    starting with "-", each value converted by its type and in its choices;
    --m given, and not both --q and --t."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, pairs = argv[0], argv[1:]
    args = {"command": command}
    if command == "verify":
        if not pairs or pairs[0] not in _SUITES:
            return None
        args["suite"], pairs = pairs[0], pairs[1:]
    flags = _COMMANDS[command][2]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if (
        2 * len(given) != len(pairs)
        or not given.keys() <= flags.keys()
        or any(value.startswith("-") for value in given.values())
        or all(flag in given for flag in _EXCLUSIVE)
    ):
        return None
    for flag, spec in flags.items():
        if flag not in given:
            if spec.get("required"):
                return None
            args[flag[2:]] = spec.get("default")
            continue
        try:
            value = spec["type"](given[flag])
        except Exception:  # argparse reports or raises it again, on its own path
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[flag[2:]] = value
    return SimpleNamespace(**args)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The flags of build_parser().parse_args(argv), by `_plain` if it can."""
    args = _plain(argv)
    return args if args is not None else SimpleNamespace(**vars(build_parser().parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    commands = {"print-w": cmd_print_w, "verify": cmd_verify, "critical": cmd_critical}
    try:
        _check(args)
        return commands[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = f"--out {exc.filename}" if args.out else "the report to stdout"
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
