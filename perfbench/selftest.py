#!/usr/bin/env python3
"""Checks of the benchmark's own parts: its oracles and its span arithmetic.

    python3 perfbench/selftest.py

The oracles in `oracles.py` must agree with the routes they stand in for
before the benchmark may judge loggas by them. In particular the scipy
Hermite roots replace `loggas.hermite_oracle`, which costs tens of
seconds at n = 512 and is cached, so a second call in the same process
would hide that cost; here the two must agree to 1e-12 for n <= 64.
Exits 1 if any check fails.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import loggas  # noqa: E402

import oracles  # noqa: E402
from spans import Span, self_times  # noqa: E402


def hermite_reference() -> float:
    return max(float(np.max(np.abs(oracles.quadratic_fekete(n) - loggas.hermite_oracle(n).points)))
               for n in range(2, 65))


def mehta() -> float:
    errs = [abs(oracles.mehta_log_z(n, b) - loggas.mehta_log_z(n, b)) / abs(loggas.mehta_log_z(n, b))
            for n in (1, 2, 3, 8, 64) for b in (0.5, 1.0, 2.0, 4.0, 20.0)]
    errs.append(abs(oracles.mehta_log_z(2, 2.0) - math.log(math.pi)))
    return max(errs)


def quartic_log_z() -> float:
    q = loggas.quadrature_log_z(2, 2.0, loggas.quartic())
    return abs(oracles.quartic_log_z_n2_beta2() - q) / abs(q)


def pair_sums() -> float:
    rng = np.random.default_rng(7)
    errs = []
    for n in (2, 9, 40):
        x = np.sort(rng.normal(size=n))
        V = loggas.quartic()
        cfg = loggas.Configuration(x)
        w = loggas.energy(cfg, V)
        errs.append(abs(oracles.energy(x, 0.25 * x ** 4) - w) / abs(w))
        g = loggas.gradient(cfg, V)
        errs.append(float(np.max(np.abs(oracles.gradient(x, x ** 3) - g)) / np.max(np.abs(g))))
    for N in (1, 5, 16):
        pts = oracles.random_periodic(rng, N, 0.3)
        w = loggas.periodic_w(loggas.PeriodicConfig(N, pts))
        errs.append(abs(oracles.periodic_w(N, pts) - w) / max(1.0, abs(w)))
    errs.append(abs(oracles.periodic_w(8, np.arange(8.0)) - oracles.LATTICE_W))
    return max(errs)


def quantiles() -> float:
    q = loggas.semicircle_equilibrium().quantiles(257)
    return float(np.max(np.abs(oracles.semicircle_quantiles(257) - q)))


def random_periodic_law() -> float:
    """Gap floor holds, points stay in [0, N), and the law is rotation invariant."""
    rng = np.random.default_rng(3)
    firsts = []
    for _ in range(2000):
        pts = oracles.random_periodic(rng, 12, 0.3)
        gaps = np.diff(np.append(pts, pts[0] + 12))
        if gaps.min() < 0.3 - 1e-12 or pts.min() < 0 or pts.max() >= 12 or np.any(np.diff(pts) <= 0):
            return math.inf
        firsts.append(pts[0])
    # the smallest point of a rotation-invariant law is not pinned to 0
    return 0.0 if np.mean(firsts) > 0.2 else math.inf


def virial_identity() -> float:
    """E[sum x^2] = 2/beta + n - 1 at n = 2 by a fine tensor grid."""
    t = np.linspace(-7.0, 7.0, 1401)
    x1, x2 = np.meshgrid(t, t, indexing="ij")
    worst = 0.0
    for beta in (1.0, 2.0, 4.0):
        weight = np.abs(x1 - x2) ** beta * np.exp(-(beta * 2 / 4.0) * (x1 ** 2 + x2 ** 2))
        mean = float(np.sum(weight * (x1 ** 2 + x2 ** 2)) / np.sum(weight))
        worst = max(worst, abs(mean - oracles.sum_sq_mean(2, beta)) / oracles.sum_sq_mean(2, beta))
    return worst


def span_self_times() -> float:
    spans = [Span(0, "job", "a", None, 0, 0.0, 10.0), Span(1, "x.f", "", 0, 0, 1.0, 4.0),
             Span(2, "x.g", "", 0, 0, 3.0, 6.0), Span(3, "x.h", "", 1, 0, 2.0, 3.0)]
    got = self_times(spans)
    want = {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    return max(abs(got[k] - v) for k, v in want.items())


# (check, tolerance): the n = 2 quadrature and quantile tolerances are those
# of verify; the grid behind the virial check is first order at the diagonal
CHECKS = (
    (hermite_reference, 1e-12),
    (mehta, 1e-12),
    (quartic_log_z, 1e-6),
    (pair_sums, 1e-12),
    (quantiles, 1e-8),
    (random_periodic_law, 0.0),
    (virial_identity, 1e-3),
    (span_self_times, 1e-12),
)


def main() -> int:
    bad = 0
    for check, tol in CHECKS:
        err = check()
        ok = err <= tol
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {check.__name__}: {err:.2e} (tol {tol:.0e})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
