"""Congestion exponent sweep: fixed-point diagnostics and certificates.

For each alpha, runs the regularized fixed point on the sin-perturbed
instance at the default single level and reports its sweep count, the
Newton-Krylov residual evaluations, the final residual, the weak-solution
pairing minimum over random test pairs, and the a-priori integral bounds.

    python3 scripts/congestion_sweep.py [--alphas 0.5 1.0 1.5] [--nx 24 --nt 13]
"""

import argparse

import numpy as np

from mfgplan.congestion import CongestionSpec, solve_congestion, weak_certificate
from mfgplan.grid import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.5, 1.0, 1.5])
    ap.add_argument("--nx", type=int, default=24)
    ap.add_argument("--nt", type=int, default=13)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = Grid(args.nt, args.nx, 1.0)
    m0 = 1.0 + 0.1 * np.sin(2 * np.pi * g.x)

    for alpha in args.alphas:
        spec = CongestionSpec(grid=g, alpha=alpha, mu=args.mu, m0=m0,
                              mT=np.ones(g.nx))
        rep = solve_congestion(spec)
        d = rep.diagnostics
        levels = d["per_eps"]
        iters = "/".join(str(lv["iterations"]) for lv in levels)
        newton = sum(lv["used_newton"] for lv in levels)
        evals = sum(lv["newton_residual_evals"] for lv in levels)
        print(f"alpha={alpha:4.2f}  converged={rep.converged}  "
              f"fp_residual={d['fp_residual_sup']:.2e}  "
              f"min_density={d['min_density']:.4f}  "
              f"iters_per_level={iters}  newton_levels={newton}  "
              f"residual_evals={evals}")

        final = levels[-1]
        print(f"            apriori: mu_energy={final['mu_energy']:.4f}  "
              f"eps_energy={final['eps_energy']:.2e}  "
              f"bound={final['bound']:.4f}  satisfied={final['satisfied']}")

        pair = weak_certificate(spec, rep.pair, np.random.default_rng(args.seed))
        print(f"            weak certificate over {pair.size} pairs: "
              f"min={np.min(pair):.4f}  mean={np.mean(pair):.4f}")


if __name__ == "__main__":
    main()
