"""The n-particle energy w_n, its gradient, and next-order functionals.

    w_n(x) = -sum_{i != j} log|x_i - x_j| + n sum_i V(x_i)

The exact splitting w_n = n^2 F(mu0) - n log n + n f_n isolates the
next-order term f_n; subtracting the effective-potential mass gives
f_hat = f_n - 2 sum_i zeta(x_i) <= f_n. `energy` and `gradient` trust
the checks of `Configuration` and apply one formula at every n >= 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

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
#: the strict corner a mirrored block also discards, counted from its right end
_STRICT = np.tri(BLOCK_ROWS, k=-1, dtype=bool)


def _block_rows(n: int) -> int:
    """Rows per block of the n-column pair matrix; n <= 64 is one block."""
    return max(1, min(BLOCK_ELEMENTS // n, BLOCK_ROWS))


def energy(config: Configuration, V: Potential) -> float:
    """w_n with each unordered pair counted twice.

    The pair sum is the correctly rounded sum S of the terms
    t = log(x_j - x_i), i < j: the float that `math.fsum` of their list
    returns, at every n. Rows [a0, a1) of the pair-difference matrix form
    one block, x[a0:] - x[a0:a1, None], whose corner c <= r is set to 1
    and so adds log 1 = 0.

    Extraction. A block of L terms is split by error-free extraction
    (`_extracted_sums`; Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31
    (2008) 189, their ExtractVector). With 2^M >= L + 2 and
    sigma = 2^(M + e), where 2^e > max |t|, one pass takes

        q = (sigma + t) - sigma,    r = t - q,

    both exact: q is t rounded to a multiple of 2^-53 sigma, and
    |r| <= 2^-53 sigma. Every q is a multiple of 2^-53 sigma of size at
    most 2^e, so any partial sum of the L values q is below sigma and
    exact, and `q.sum()` is the exact sum in whatever order numpy adds.

    Certificate. One pass per block, and the residuals summed in floats,
    `r.sum()`. In any order of addition that float is within
    gamma_(L-1) sum |r| of the exact residual sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 4.2; an addition whose
    result is subnormal is exact, so no underflow term enters), and
    gamma_(L-1) = (L-1) 2^-53 / (1 - (L-1) 2^-53) < L 2^-52 and
    sum |r| <= L 2^-53 sigma give the bound b = L^2 2^-105 sigma, a
    double exactly (L <= 2^15). So the exact sum P of the blocks' floats
    (q sums and r sums) lies within B = sum b of S. `math.fsum` rounds
    P - B and P + B correctly, each b a list entry of its own, so B is
    never rounded; rounding to nearest is monotone, so if the two agree,
    the float between them, round(S), is that one float. They differ
    when S, or P, lies within B of a rounding boundary, above all when S
    is exactly the midpoint of two doubles: an a-priori B cannot certify
    a tie, and at n = 3 about one normal draw in six sums to one. Then
    the answer is the definition, `math.fsum` over every pair log,
    streamed one block at a time (`_pair_blocks`).

    Mirror. When x == -x[::-1] exactly (an O(n) test), pair (i, j) and
    its mirror (n-1-j, n-1-i) have the same exact difference
    x_j - x_i = (-x_i) - (-x_j), so the same rounded float and the same
    log. The pairs with i + j < n - 1 are then summed at weight 2 (a
    doubling, exact), and the n // 2 self-mirror pairs
    log(x_(n-1-i) - x_i) join the list as they are. That is the same
    multiset of logs, so the same S and the same float, from half the
    matrix: rows i < (n - 1) // 2, a block over columns [a0, n - 1 - a0),
    whose row k also has its right corner, the last k columns, set to 1.

    One `math.fsum` over the blocks' floats, 64 at n = 1024 (two a
    block), and their bounds rounds the total once.
    """
    pts = config.points
    n = len(pts)
    mirrored = np.array_equal(pts, -pts[::-1])
    weight = 2.0 if mirrored else 1.0
    sums, bounds = [], []
    for t in _pair_blocks(pts, mirrored):
        q, r, b = _extracted_sums(t)
        sums += [weight * q, weight * r]
        bounds.append(weight * b)
    if mirrored:
        sums += np.log(pts[::-1][:n // 2] - pts[:n // 2]).tolist()
    pairs = math.fsum(sums + [-b for b in bounds])
    if pairs != math.fsum(sums + bounds):
        pairs = math.fsum(chain.from_iterable(t.tolist() for t in _pair_blocks(pts, False)))
    interaction = -2.0 * pairs
    confinement = n * math.fsum(np.asarray(V.eval(pts), dtype=float).tolist())
    return interaction + confinement


def _pair_blocks(pts: np.ndarray, mirrored: bool) -> Iterator[np.ndarray]:
    """The pair logs of `pts` one block of rows at a time, flat, with
    log 1 = 0 in the discarded corners: the pairs i < j, or if `mirrored`
    those with i + j < n - 1 (see `energy`)."""
    n = len(pts)
    rows = _block_rows(n)
    end = (n - 1) // 2 if mirrored else n
    for a0 in range(0, end, rows):
        a1 = min(end, a0 + rows)
        r = a1 - a0
        t = pts[a0:n - 1 - a0 if mirrored else n] - pts[a0:a1, None]
        np.copyto(t[:, :r], 1.0, where=_CORNER[:r, :r])
        if mirrored:
            np.copyto(t[:, :-r - 1:-1], 1.0, where=_STRICT[:r, :r])
        yield np.log(t, out=t).ravel()


def _extracted_sums(t: np.ndarray) -> tuple[float, float, float]:
    """One extraction pass on the pair logs t (see `energy`): the exact
    sum of its q, the float sum of its residual r, and the bound b on
    that float's error; t is overwritten by r. When max |t| = 0, every q
    and r is exactly 0, and so is b."""
    q = np.abs(t)
    top = float(q.max())
    e = (len(t) + 1).bit_length() + math.frexp(top)[1]
    sigma = math.ldexp(1.0, e)
    np.add(t, sigma, out=q)
    q -= sigma
    t -= q
    # b = L^2 2^-105 sigma
    return float(q.sum()), float(t.sum()), math.ldexp(len(t) ** 2, e - 105) if top else 0.0


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
    return _split(config, energy(config, V), V, mu, consts)


def _split(
    config: Configuration,
    w: float,
    V: Potential,
    mu: EquilibriumMeasure,
    consts: ModelConstants,
) -> EnergyBreakdown:
    """`breakdown` of a configuration whose w_n is already known to be w."""
    leading, log_term, f_n = _next_order(w, config.n, consts.mean_field_energy)
    zs = float(np.sum(zeta(mu, V, consts.c, config.points)))
    return EnergyBreakdown(
        w_n=w,
        leading=leading,
        log_term=log_term,
        f_n=f_n,
        f_hat=f_n - 2.0 * zs,
        zeta_sum=zs,
    )


def _next_order(w: float | np.ndarray, n: int, F: float) -> tuple[float, float, float | np.ndarray]:
    """The split w = leading - log_term + n f_n of w_n (a float or an
    array of them) at n points: (n^2 F, n log n, f_n)."""
    leading = n * n * F
    log_term = n * math.log(n)
    return leading, log_term, (w - leading + log_term) / n


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
