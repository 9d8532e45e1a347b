#!/usr/bin/env python3
"""Sweep the quantum parameter and tabulate critical-point spectra.

For each q on a small grid, seeds the critical points of the Laurent
superpotential from the left eigenvectors of quantum multiplication by
sigma_1, peels them to torus coordinates and polishes them, counts what
became of the 2^m eigenvalues, and compares the critical values found
against (m+1) x eigenvalues.

Usage: python3 scripts/spectrum_scan.py [--m 3]
"""

import argparse

from lgmirror import jacobi as jb

STATUSES = ("torus", "blocked", "multiple")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=3)
    args = ap.parse_args()

    grid = [0.5, 1.0, 2.0, 4.0, 1.0 + 1.0j, 0.3 - 0.7j]
    print(f"m = {args.m}: expecting up to 2^m = {2**args.m} torus critical points")
    status_header = "  ".join(f"{name:>8}" for name in STATUSES)
    print(f"{'q':>12}  {'found':>5}  {'max |grad|':>10}  {'spectrum err':>12}  {status_header}")
    for q in grid:
        report = jb.critical_report(args.m, complex(q))
        match = report["spectrum_match"]
        worst_grad = max((p["grad_norm"] for p in report["points"]), default=float("nan"))
        err = f"{match['max_rel_err']:.2e}" if match["count"] == match["expected_count"] else "count short"
        counts = "  ".join(f"{sum(s['status'] == name for s in report['seeds']):>8}" for name in STATUSES)
        print(f"{str(q):>12}  {match['count']:>5}  {worst_grad:>10.1e}  {err:>12}  {counts}")
    print()
    print("values at the last q:")
    for p in report["points"]:
        print(f"   {complex(*p['value']):.6f}")


if __name__ == "__main__":
    main()
