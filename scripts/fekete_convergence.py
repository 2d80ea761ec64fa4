#!/usr/bin/env python3
"""Ground-state convergence of the next-order energy at Fekete points.

Minimizes w_n for a doubling ladder of n, records f_n beside its exact
value at the Hermite zeros (`hermite_energy`) and its gap to the limiting
magnitude 1/2, and cross-checks each minimizer against the scaled
Hermite-root oracle. The runs are the ladder of the fekete-oracle and
ground-state-limit checks (`loggas.verify.ground_state_ladder`). The gap
shrinks roughly like 1/n.
"""

import argparse
import csv

import numpy as np

from loggas.verify import ground_state_ladder


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ns", default="16,32,64,128,256")
    ap.add_argument("--out", default="fekete_convergence.csv")
    args = ap.parse_args()

    rows = []
    for res, oracle, grad_at_oracle, exact_f_n, dt in ground_state_ladder(int(v) for v in args.ns.split(",")):
        n, f_n = res.config.n, res.breakdown.f_n
        oracle_gap = float(np.max(np.abs(res.config.points - oracle.points)))
        rows.append([n, repr(f_n), repr(exact_f_n), repr(abs(abs(f_n) - 0.5)), repr(oracle_gap), repr(grad_at_oracle), f"{dt:.2f}"])
        print(
            f"n={n:<5d} f_n={f_n:+.10f} (exact {exact_f_n:+.10f})  | |f_n|-1/2 | = {abs(abs(f_n)-0.5):.6f}  "
            f"oracle_gap={oracle_gap:.2e}  ({dt:.2f}s)"
        )

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "f_n", "exact_f_n", "gap_to_half", "oracle_sup_gap", "oracle_grad_sup", "seconds"])
        w.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
