#!/usr/bin/env python3
"""Sweep the quantum parameter and tabulate critical-point spectra.

For each q on a small grid, runs the multi-start Newton search on the
Laurent superpotential, counts how its starts ended, and compares the
critical values against (m+1) x eigenvalues of quantum multiplication by
sigma_1.

Usage: python3 scripts/spectrum_scan.py [--m 3] [--trials 300]
"""

import argparse

from lgmirror import jacobi as jb


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    grid = [0.5, 1.0, 2.0, 4.0, 1.0 + 1.0j, 0.3 - 0.7j]
    print(f"m = {args.m}: expecting up to 2^m = {2**args.m} torus critical points")
    starts_header = "  ".join(f"{name:>13}" for name in jb.START_OUTCOMES)
    print(f"{'q':>12}  {'found':>5}  {'max |grad|':>10}  {'spectrum err':>12}  {starts_header}")
    for q in grid:
        starts: dict = {}
        pts = jb.find_critical_points(args.m, complex(q), trials=args.trials, seed=args.seed, outcomes=starts)
        rep = jb.compare_spectrum(args.m, complex(q), pts)
        worst_grad = max((p.grad_norm for p in pts), default=float("nan"))
        err = f"{rep.max_rel_err:.2e}" if rep.count == rep.expected_count else "count short"
        counts = "  ".join(f"{starts[name]:>13}" for name in jb.START_OUTCOMES)
        print(f"{str(q):>12}  {rep.count:>5}  {worst_grad:>10.1e}  {err:>12}  {counts}")
    print()
    print("values at the last q:")
    for p in pts:
        print(f"   {p.value:.6f}")


if __name__ == "__main__":
    main()
