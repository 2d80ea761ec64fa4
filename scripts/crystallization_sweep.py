#!/usr/bin/env python3
"""Sweep beta and watch the gas crystallize.

For each beta, several independently seeded runs record the variance of
normalized nearest-neighbor spacings in the bulk; every (beta, seed) run
steps in one lockstep array (`run_many`). Rising beta should
drive the variance toward zero as the configuration locks onto the
local lattice. Writes a CSV (beta, seed, spacing_var, acceptance, r_hat)
plus a per-beta mean summary to stdout.
"""

import argparse
import csv
import sys

import numpy as np

from loggas import SamplerConfig, quadratic, run_many


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--betas", default="1,2,5,10,20,50")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--steps", type=int, default=30_000)
    ap.add_argument("--out", default="crystallization.csv")
    args = ap.parse_args()

    betas = [float(b) for b in args.betas.split(",")]
    V = quadratic()
    cfgs = [
        SamplerConfig(
            n=args.n,
            beta=beta,
            V=V,
            steps=args.steps,
            burn_in=max(2_000, args.steps // 6),
            thinning=25,
            chains=2,
            seed=101 * (s + 1),
        )
        for beta in betas
        for s in range(args.seeds)
    ]
    rows = []
    for cfg, st in zip(cfgs, run_many(cfgs)):
        rows.append((cfg.beta, cfg.seed, float(np.var(st.spacing_samples)), st.acceptance, st.r_hat))
        print(f"beta={cfg.beta:<6g} seed={cfg.seed:<4d} spacing_var={rows[-1][2]:.4f}", file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "seed", "spacing_var", "acceptance", "r_hat"])
        w.writerows(rows)

    print("beta, mean spacing variance over seeds:")
    for beta in betas:
        vals = [r[2] for r in rows if r[0] == beta]
        print(f"  {beta:8g}  {np.mean(vals):.5f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
