#!/usr/bin/env python3
"""Sweep beta and watch the gas crystallize.

For each beta, several independently seeded runs record the variance of
normalized nearest-neighbor spacings in the bulk. The runs are the beta
ladder of the crystallization check (`loggas.verify.crystallization_ladder`),
all stepped in one lockstep array. Rising beta should drive the variance
toward zero as the configuration locks onto the local lattice. Writes a
CSV (beta, seed, spacing_var, acceptance, r_hat) plus a per-beta mean
summary to stdout.
"""

import argparse
import csv
import sys

from loggas.verify import crystallization_ladder


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--betas", default="1,2,5,10,20,50")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--steps", type=int, default=30_000)
    ap.add_argument("--out", default="crystallization.csv")
    args = ap.parse_args()

    betas = [float(b) for b in args.betas.split(",")]
    runs, means = crystallization_ladder(args.n, betas, args.seeds, args.steps)
    rows = [(cfg.beta, cfg.seed, var, st.acceptance, st.r_hat) for cfg, st, var in runs]
    for cfg, _, var in runs:
        print(f"beta={cfg.beta:<6g} seed={cfg.seed:<4d} spacing_var={var:.4f}", file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "seed", "spacing_var", "acceptance", "r_hat"])
        w.writerows(rows)

    print("beta, mean spacing variance over seeds:")
    for beta, mean in zip(betas, means):
        print(f"  {beta:8g}  {mean:.5f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
