"""A process that runs lgmirror commands for the benchmark, one or many.

    python3 perfbench/worker.py SRC_DIR TRACE [TRACE_FILE]

It imports `lgmirror` from SRC_DIR, then reads one JSON request per line on
stdin and answers each with one JSON line on stdout:

    {"argv": [...], "reference": bool}
                       -> {"rc": exit code, "out": report text, "seconds": wall time,
                           "refs": reference loop times before and after, if asked}
    {"totals": true}   -> the tracer's counts and self times so far (TRACE = 1)
    {"finish": true}   -> {"peak_rss_kb": ...}, then the process exits

Each command runs in-process through `lgmirror.cli.main`, one at a time.
With TRACE = 1 the tracer wraps the layers before anything else is
imported, and the spans are written to TRACE_FILE on finish.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


REFERENCE_LOOPS = 100_000


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def reference_samples(count: int = 3) -> list[float]:
    """A few reference loop times, taken around each measured operation.

    On a shared 2-vCPU VM the host's speed drifts by 10-40 % over tens of
    seconds, for the program and for this loop alike, so the benchmark
    divides each operation's time by the median of the loop times taken
    around it.  The loop runs in the worker around each in-process
    operation, and in the benchmark's own process around each fresh worker
    (every set-up, and every operation of the cold workload).
    """
    return [reference_seconds() for _ in range(count)]


def main() -> int:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src)
    channel = sys.stdout
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from lgmirror import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise ImportError(f"lgmirror imported from {cli.__file__}, not from {src}")

    def reply(payload: dict) -> None:
        channel.write(json.dumps(payload) + "\n")
        channel.flush()

    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            refs = reference_samples() if request.get("reference") else []
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(request["argv"])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception:  # a crash is reported as a result, never hidden
                rc = None
                buf.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
            refs += reference_samples() if request.get("reference") else []
            reply({"rc": rc, "out": buf.getvalue(), "seconds": seconds, "refs": refs})
        elif request.get("totals"):
            reply(tracer.totals() if tracer else {})
        elif request.get("finish"):
            if tracer and len(sys.argv) > 3:
                tracer.write(sys.argv[3])
            reply({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
