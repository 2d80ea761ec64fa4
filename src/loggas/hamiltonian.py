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


#: elements in one row block of the pair-difference matrix (256 kB of
#: doubles), so that a block and its temporaries stay in cache
BLOCK_ELEMENTS = 1 << 15
#: rows in one block at most: sqrt(BLOCK_ELEMENTS / 8) = 64, so that the
#: r x r corner an `energy` block discards is at most a sixteenth of it
BLOCK_ROWS = math.isqrt(BLOCK_ELEMENTS // 8)
_CORNER = np.tri(BLOCK_ROWS, dtype=bool)


def _block_rows(n: int) -> int:
    """Rows per block of the n-column pair matrix; n <= 64 is one block."""
    return max(1, min(BLOCK_ELEMENTS // n, BLOCK_ROWS))


def energy(config: Configuration, V: Potential) -> float:
    """w_n with each unordered pair counted twice.

    The pair sum is the correctly rounded sum of the terms
    t = log(x_j - x_i), i < j: the float that `math.fsum` of their list
    returns, at every n. Rows [a0, a1) of the pair-difference matrix form
    one block, x[a0:] - x[a0:a1, None], whose corner c <= r is set to 1
    and so adds log 1 = 0. Each block is summed exactly:

    - frexp gives t = m 2^e with 1/2 <= |m| < 1; a = m 2^27 is a multiple
      of 2^-26 and splits exactly into h = floor(a), |h| <= 2^27, and
      f = a - h, a multiple of 2^-26 in [0, 1): t = (h + f) 2^(e-27);
    - h and f are summed in bins of e (`np.bincount`). A block has fewer
      than 2^26 terms, so a partial sum of h is an integer below 2^53 in
      size and one of f a multiple of 2^-26 below 2^26: exact in any order;
    - bin e gives the two exact floats sum(h) 2^(e-27) and
      sum(f) 2^(e-27). A gap is a double from 2^-1074 to below 2^1024,
      and the doubles next to 1 are 1 - 2^-53 and 1 + 2^-52, so a pair
      log is 0 or has 2^-53 <= |t| < 745: e >= -52, and no part is
      subnormal.

    One `math.fsum` over every block's parts, about 1,200 floats at
    n = 1024, rounds the exact total once.
    """
    pts = config.points
    n = len(pts)
    rows = _block_rows(n)
    parts = []
    for a0 in range(0, n, rows):
        a1 = min(n, a0 + rows)
        r = a1 - a0
        t = pts[a0:] - pts[a0:a1, None]
        np.copyto(t[:, :r], 1.0, where=_CORNER[:r, :r])
        t = np.log(t, out=t).ravel()
        e = np.frexp(t, out=(t, None))[1]
        t *= 2.0 ** 27
        h = np.floor(t)
        t -= h
        e0 = int(e.min())
        e -= e0
        sum_h = np.bincount(e, weights=h)
        k = np.arange(e0 - 27, e0 - 27 + len(sum_h))
        parts += np.ldexp(sum_h, k).tolist()
        parts += np.ldexp(np.bincount(e, weights=t), k).tolist()
    interaction = -2.0 * math.fsum(parts)
    confinement = n * math.fsum(np.asarray(V.eval(pts), dtype=float).tolist())
    return interaction + confinement


def gradient(config: Configuration, V: Potential) -> np.ndarray:
    """Gradient of w_n: component i is -2 sum_{j != i} 1/(x_i - x_j) + n V'(x_i).

    Rows [a0, a1) of 1/(x_i - x_j), with inf on the diagonal so that its
    terms are 0, form one contiguous block. numpy reduces each contiguous
    row on its own, so a row sums in the same pairwise order, and to the
    same float, as in the full n x n matrix.
    """
    pts = config.points
    n = len(pts)
    rows = _block_rows(n)
    s = np.empty(n)
    for a0 in range(0, n, rows):
        a1 = min(n, a0 + rows)
        d = pts[a0:a1, None] - pts
        d.ravel()[a0::n + 1] = np.inf
        np.divide(1.0, d, out=d)
        d.sum(axis=1, out=s[a0:a1])
    return -2.0 * s + n * np.asarray(V.deriv(pts), dtype=float)


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
