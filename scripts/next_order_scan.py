#!/usr/bin/env python3
"""Scan the next-order partition quantity with the exact quadratic formula.

next_order(n, beta) = (log Z + (beta/2) n^2 F - (beta/2) n log n)/(n beta)

stays bounded in n at fixed beta and converges in beta toward a limit of
magnitude 1/4 (the sign comes out positive; see the ground-state scan
for the matching -f_n/2 story at beta -> infinity).
"""

import argparse
import csv

from loggas import equilibrium_for, mehta_log_z, next_order_report, quadratic


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ns", default="8,16,32,64,128,256,512")
    ap.add_argument("--betas", default="1,2,10,100,1000,10000")
    ap.add_argument("--out", default="next_order.csv")
    args = ap.parse_args()

    _, consts = equilibrium_for(quadratic())
    ns = [int(v) for v in args.ns.split(",")]
    betas = [float(v) for v in args.betas.split(",")]

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "beta", "log_z", "next_order"])
        for n in ns:
            for beta in betas:
                rep = next_order_report(n, beta, consts, mehta_log_z(n, beta))
                w.writerow([n, beta, repr(rep.log_z), repr(rep.next_order)])

    # quick view: the beta -> large column at each n
    print(f"{'n':>6} " + " ".join(f"b={b:<9g}" for b in betas))
    for n in ns:
        vals = [
            next_order_report(n, b, consts, mehta_log_z(n, b)).next_order for b in betas
        ]
        print(f"{n:>6} " + " ".join(f"{v:<11.6f}" for v in vals))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
