"""Refinement study for the smooth planning instance.

Solves the sin-perturbed problem on a ladder of simultaneously doubled
grids and prints objective values, gap ratios, and PDE residual sups.
Run from the repo root:

    python3 scripts/refinement_study.py [--order 1] [--levels 4]
"""

import argparse
import time

import numpy as np

from mfgplan.grid import Grid
from mfgplan.planning import PlanningSpec, minimize
from mfgplan.recovery import recover


def solve_level(nt, nx, order):
    g = Grid(nt, nx, 1.0)
    spec = PlanningSpec(
        grid=g,
        m0=1.0 + 0.1 * np.sin(2 * np.pi * g.x),
        mT=1.0 - 0.1 * np.sin(2 * np.pi * g.x),
        order=order,
    )
    started = time.perf_counter()
    rep = minimize(spec)
    wall = time.perf_counter() - started
    sol = recover(spec, rep.pair, rep.slopes)
    return {
        "nt": nt,
        "nx": nx,
        "objective": float(rep.objective_trace[-1]),
        "iterations": rep.iterations,
        "exit_reason": rep.diagnostics["exit_reason"],
        "fp_sup": float(np.max(np.abs(sol.residual_fp))),
        "hj_sup": float(np.max(np.abs(sol.residual_hj[1:-1]))),
        "wall": wall,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=0, choices=(0, 1))
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args()

    # nt ladder 17, 33, 65, ...: node counts double with the step, ends shared
    rows = [solve_level(16 * 2**k + 1, 16 * 2**k, args.order) for k in range(args.levels)]

    print(f"{'grid':>10s} {'objective':>16s} {'fp sup':>10s} {'hj sup':>10s} "
          f"{'iters':>6s} {'wall':>7s}  exit")
    for r in rows:
        tag = f"{r['nt']}x{r['nx']}"
        print(f"{tag:>10s} {r['objective']:16.12f} {r['fp_sup']:10.2e} "
              f"{r['hj_sup']:10.2e} {r['iterations']:6d} {r['wall']:6.2f}s  {r['exit_reason']}")

    gaps = [abs(a["objective"] - b["objective"]) for a, b in zip(rows, rows[1:])]
    for k, (g1, g2) in enumerate(zip(gaps, gaps[1:])):
        print(f"objective gap ratio level {k}->{k + 1}: {g1 / g2:.2f}")
    for key in ("fp_sup", "hj_sup"):
        for k, (a, b) in enumerate(zip(rows, rows[1:])):
            print(f"{key} ratio level {k}->{k + 1}: {a[key] / b[key]:.2f}")


if __name__ == "__main__":
    main()
