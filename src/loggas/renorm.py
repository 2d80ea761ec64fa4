"""Renormalized energy of N-periodic point configurations.

For N points a_1 < ... < a_N on the circle R/(N Z), density one, the
energy per unit length against the uniform background has the closed form

    W = -(pi/N) sum_{i != j} log|2 sin(pi (a_i - a_j)/N)| - pi log(2 pi / N),

minimized exactly by the integer lattice at -pi log(2 pi). Dilating a
density-1 configuration to density m sends W to m (W - pi log m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigError

__all__ = ["PeriodicConfig", "periodic_w", "lattice_min", "rescale_w", "lattice"]

#: minimal separation (relative to the period) below which two points
#: are treated as coincident; the energy genuinely diverges there
COINCIDENCE_RTOL = 1e-12


@dataclass(frozen=True)
class PeriodicConfig:
    """N finite, strictly increasing points in [0, N) on the circle R/(N Z);
    anything else raises ValueError."""

    period: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        if pts.ndim != 1 or len(pts) != self.period:
            raise ValueError("need exactly N points for period N")
        # written so that NaN, which fails every comparison, fails it too
        if not np.all((pts >= 0.0) & (pts < self.period)):
            raise ValueError("points must be finite and lie in [0, N)")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing")

    def translated(self, t: float) -> "PeriodicConfig":
        return PeriodicConfig(self.period, np.sort((self.points + t) % self.period))


def lattice(N: int) -> PeriodicConfig:
    """The integer lattice 0, 1, ..., N-1 as a PeriodicConfig."""
    return PeriodicConfig(N, np.arange(N, dtype=float))


def periodic_w(config: PeriodicConfig) -> float:
    """Closed-form renormalized energy of a periodic configuration.

    Raises DegenerateConfigError if two points coincide modulo N (the
    energy is +infinity there; a silent huge float would poison
    minimization tests).
    """
    N = config.period
    pts = config.points
    i, j = np.triu_indices(N, 1)
    d = pts[i] - pts[j]
    # circle distance in units of the period
    frac = np.abs(d) / N
    frac = np.minimum(frac, 1.0 - frac)
    if np.any(frac < COINCIDENCE_RTOL):
        raise DegenerateConfigError("coincident points: renormalized energy diverges")
    terms = np.log(np.abs(2.0 * np.sin(np.pi * d / N)))
    # compensated sum: the lattice identities are tested at 1e-12
    pair_sum = math.fsum(terms.tolist())
    return -(math.pi / N) * 2.0 * pair_sum - math.pi * math.log(2.0 * math.pi / N)


def lattice_min(m: float) -> float:
    """Minimal energy over density-m configurations: -pi m log(2 pi m)."""
    if m <= 0:
        raise ValueError("density must be positive")
    return -math.pi * m * math.log(2.0 * math.pi * m)


def rescale_w(w_unit: float, m: float) -> float:
    """Energy of a density-1 configuration dilated to density m."""
    if m <= 0:
        raise ValueError("density must be positive")
    return m * (w_unit - math.pi * math.log(m))
