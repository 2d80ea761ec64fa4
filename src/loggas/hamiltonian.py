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
    and so adds log 1 = 0. Each block of L terms is summed exactly by
    error-free extraction (`_extracted_sums`; Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 31 (2008) 189, their ExtractVector). With 2^M >= L + 2
    and sigma = 2^(M + e), where 2^e > max |t|, one pass takes

        q = (sigma + t) - sigma,    t <- t - q,

    both exact: q is t rounded to a multiple of 2^-53 sigma, and the new
    residual t has |t| <= 2^-53 sigma. Every q is a multiple of 2^-53 sigma
    of size at most 2^e, so any partial sum of the L values q is below
    sigma and exact, and `q.sum()` is the exact sum in whatever order
    numpy adds. Passes repeat until the residual is zero. A gap is a
    double from 2^-1074 to below 2^1024, and the doubles next to 1 are
    1 - 2^-53 and 1 + 2^-52, so a pair log is 0 or has
    2^-53 <= |t| < 745: a multiple of 2^-105 with e <= 10. A pass lowers
    e by at least 52 - M, and a nonzero residual keeps e >= -104, so a
    block takes at most 1 + 114 // (52 - M) passes (4 at L = 2^15),
    usually 2; `ArithmeticError` if it ever takes more.

    One `math.fsum` over every block's sums, about 70 floats at n = 1024,
    rounds the exact total once.
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
        parts += _extracted_sums(np.log(t, out=t).ravel())
    interaction = -2.0 * math.fsum(parts)
    confinement = n * math.fsum(np.asarray(V.eval(pts), dtype=float).tolist())
    return interaction + confinement


def _extracted_sums(t: np.ndarray) -> list[float]:
    """One float per extraction pass (see `energy`), whose exact sum is that
    of the pair logs t; t is overwritten by the residual."""
    q = np.empty_like(t)
    m = (len(t) + 1).bit_length()
    sums = []
    # the passes that `energy` bounds, and one more that finds t all zero
    for _ in range(2 + 114 // (52 - m)):
        top = float(np.abs(t, out=q).max())
        if not top:
            return sums
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        np.add(t, sigma, out=q)
        q -= sigma
        t -= q
        sums.append(float(q.sum()))
    raise ArithmeticError("error-free extraction of a pair-log block did not terminate")


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
