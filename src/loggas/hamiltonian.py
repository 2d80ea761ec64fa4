"""The n-particle energy w_n, its gradient, and next-order functionals.

    w_n(x) = -sum_{i != j} log|x_i - x_j| + n sum_i V(x_i)

The exact splitting w_n = n^2 F(mu0) - n log n + n f_n isolates the
next-order term f_n; subtracting the effective-potential mass gives
f_hat = f_n - 2 sum_i zeta(x_i) <= f_n. `energy` and `gradient` trust
the checks of `Configuration` and apply one formula at every n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigError
from .model import EquilibriumMeasure, ModelConstants, Potential, zeta

__all__ = ["Configuration", "EnergyBreakdown", "energy", "gradient", "breakdown", "discrepancy"]


@dataclass(frozen=True)
class Configuration:
    """Finite, strictly increasing particle positions at original scale,
    with a finite span x[-1] - x[0]. Coincident points raise
    DegenerateConfigError, any other breach ValueError."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or len(pts) < 1:
            raise ValueError("need at least one point")
        # finite ends and increasing points (NaN compares false) make every
        # point finite; Python floats give inf - inf = nan without a warning
        if not math.isfinite(float(pts[-1]) - float(pts[0])):
            raise ValueError("points and their span must be finite")
        if np.any(pts[1:] == pts[:-1]):
            raise DegenerateConfigError("coincident points: logarithmic energy diverges")
        if not np.all(pts[1:] > pts[:-1]):
            raise ValueError("points must be finite and strictly increasing")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class EnergyBreakdown:
    """w_n split into macroscopic, logarithmic, and next-order parts.

    Stored so that w_n = leading - log_term + n * f_n holds exactly as an
    algebraic identity of the stored floats.
    """

    w_n: float
    leading: float
    log_term: float
    f_n: float
    f_hat: float
    zeta_sum: float


def energy(config: Configuration, V: Potential) -> float:
    """w_n with each unordered pair counted twice."""
    pts = config.points
    n = len(pts)
    i, j = np.triu_indices(n, 1)
    interaction = -2.0 * math.fsum(np.log(pts[j] - pts[i]).tolist())
    confinement = n * math.fsum(np.asarray(V.eval(pts), dtype=float).tolist())
    return interaction + confinement


def gradient(config: Configuration, V: Potential) -> np.ndarray:
    """Gradient of w_n: component i is -2 sum_{j != i} 1/(x_i - x_j) + n V'(x_i)."""
    pts = config.points
    n = len(pts)
    diff = pts[:, None] - pts[None, :]
    np.fill_diagonal(diff, np.inf)
    return -2.0 * (1.0 / diff).sum(axis=1) + n * np.asarray(V.deriv(pts), dtype=float)


def breakdown(
    config: Configuration,
    V: Potential,
    mu: EquilibriumMeasure,
    consts: ModelConstants,
) -> EnergyBreakdown:
    """Split w_n by the exact identity w_n = n^2 F - n log n + n f_n."""
    n = config.n
    w = energy(config, V)
    leading = n * n * consts.mean_field_energy
    log_term = n * math.log(n)
    f_n = (w - leading + log_term) / n
    zs = float(np.sum(zeta(mu, V, consts.c, config.points)))
    return EnergyBreakdown(
        w_n=w,
        leading=leading,
        log_term=log_term,
        f_n=f_n,
        f_hat=f_n - 2.0 * zs,
        zeta_sum=zs,
    )


def check_beta(beta: float) -> None:
    """ValueError unless beta is the inverse temperature of a Gibbs law: 0 < beta < inf."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}")


def window_bounds(x0: float, R: float, n: int) -> tuple[float, float]:
    """The closed count window [x0 - R/n, x0 + R/n] of radius R/n around x0
    at n points; ValueError unless x0 is finite and R finite and > 0."""
    if not (math.isfinite(x0) and math.isfinite(R) and R > 0):
        raise ValueError(f"window (x0, R) = ({x0}, {R}) needs a finite x0 and a finite R > 0")
    r = R / n
    return x0 - r, x0 + r


def discrepancy(
    config: Configuration,
    mu: EquilibriumMeasure,
    x0: float,
    R: float,
) -> float:
    """Count fluctuation D(x0, R) over the window of radius R/n around x0.

    Counts configuration points in the closed interval
    [x0 - R/n, x0 + R/n] (`window_bounds`) minus n times the mu-mass of
    the same interval. Boundary points count fully.
    """
    lo, hi = window_bounds(x0, R, config.n)
    count = int(np.count_nonzero((config.points >= lo) & (config.points <= hi)))
    return count - config.n * mu.interval_mass(lo, hi)
