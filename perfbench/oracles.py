"""Reference values the benchmark checks loggas against.

Everything here is written from the definitions with numpy and scipy
alone and imports nothing from loggas, so a defect in the package cannot
hide in its own reference. Each oracle is cheap: the whole set for one
workload is built in well under a second.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, roots_hermite

LATTICE_W = -math.pi * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# w_n and the quadratic ground state


def quadratic_fekete(n: int) -> np.ndarray:
    """Minimizer of w_n for V = x^2/2: sqrt(2/n) times the Hermite roots."""
    return roots_hermite(n)[0] * math.sqrt(2.0 / n)


def energy(x: np.ndarray, v: np.ndarray) -> float:
    """w_n from sorted points x and the potential values v = V(x)."""
    i, j = np.triu_indices(len(x), 1)
    return float(-2.0 * np.sum(np.log(x[j] - x[i])) + len(x) * np.sum(v))


def gradient(x: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Gradient of w_n from points x and the derivative values dv = V'(x)."""
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    inv = 1.0 / d
    np.fill_diagonal(inv, 0.0)
    return -2.0 * inv.sum(axis=1) + len(x) * dv


# ---------------------------------------------------------------------------
# semicircle law of the quadratic model


def semicircle_density(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * math.pi)


def semicircle_cdf(x: np.ndarray) -> np.ndarray:
    t = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + t * np.sqrt(4.0 - t * t) / (4.0 * math.pi) + np.arcsin(t / 2.0) / math.pi


def semicircle_quantiles(n: int) -> np.ndarray:
    """Points with mass (i + 1/2)/n to their left, by vectorised bisection."""
    q = (np.arange(n) + 0.5) / n
    lo, hi = np.full(n, -2.0), np.full(n, 2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sum_sq_mean(n: int, beta: float) -> float:
    """E[sum x_i^2] under the quadratic Gibbs law, exact for every n and beta.

    Scaling x -> (1 + e) x in Z gives n + beta n (n - 1)/2 = (beta n / 2) E[S].
    """
    return 2.0 / beta + (n - 1.0)


# ---------------------------------------------------------------------------
# partition functions


def mehta_log_z(n: int, beta: float) -> float:
    """log Z for V = x^2/2 from Mehta's integral at gamma = beta/2.

    With x = s t, s = sqrt(2/(beta n)), the weight becomes exp(-t^2/2) and
    the Vandermonde factor picks up s^(beta n (n-1)/2).
    """
    g = beta / 2.0
    log_s = 0.5 * math.log(2.0 / (beta * n))
    j = np.arange(1, n + 1)
    log_mehta = 0.5 * n * math.log(2.0 * math.pi) + float(np.sum(gammaln(1.0 + j * g))) - n * gammaln(1.0 + g)
    return (n + beta * n * (n - 1) / 2.0) * log_s + log_mehta


def quartic_log_z_n2_beta2() -> float:
    """log Z at n = 2, beta = 2, V = x^4/4, in closed form.

    The weight is (x1 - x2)^2 exp(-(x1^4 + x2^4)/2); expanding the square
    leaves 2 m0 m2 with m_k = int x^k exp(-x^4/2) dx = Gamma((k+1)/4) 2^((k+1)/4) / 2.
    """
    m0 = 0.5 * 2.0 ** 0.25 * math.gamma(0.25)
    m2 = 0.5 * 2.0 ** 0.75 * math.gamma(0.75)
    return math.log(2.0 * m0 * m2)


# ---------------------------------------------------------------------------
# periodic configurations


def periodic_w(period: int, points: np.ndarray) -> float:
    """Renormalized energy of N points on R/(N Z) by the pair formula."""
    d = points[:, None] - points[None, :]
    s = np.abs(2.0 * np.sin(math.pi * d / period))
    np.fill_diagonal(s, 1.0)
    return float(-(math.pi / period) * np.sum(np.log(s)) - math.pi * math.log(2.0 * math.pi / period))


def random_periodic(rng: np.random.Generator, period: int, min_gap: float) -> np.ndarray:
    """Uniform points on R/(N Z) conditioned on every circular gap >= min_gap.

    Drawn exactly through the spacings: min_gap plus a uniform (Dirichlet)
    split of the slack, then a uniform rotation.
    """
    e = rng.exponential(size=period)
    gaps = min_gap + (period - period * min_gap) * e / e.sum()
    pts = np.sort((rng.uniform(0.0, period) + np.cumsum(gaps)) % period)
    return pts


# ---------------------------------------------------------------------------
# equilibrium measures on a grid


def _f2(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = t * t * (2.0 * np.log(a) - 3.0) / 4.0
    return np.where(a == 0.0, 0.0, out)


def equilibrium_residual(nodes: np.ndarray, weights: np.ndarray, v: np.ndarray) -> float:
    """max |U + V/2 - c| over the support of a grid measure.

    U is the logarithmic potential of the cell-uniform measure, integrated
    exactly over source and target cells; c is the median over the interior
    80 percent of the support, the definition the solver is documented to use.
    """
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    lo = np.concatenate([[2.0 * nodes[0] - mids[0]], mids])
    hi = np.concatenate([mids, [2.0 * nodes[-1] - mids[-1]]])
    h = hi - lo
    ii = _f2(hi[:, None] - lo[None, :]) + _f2(lo[:, None] - hi[None, :])
    ii -= _f2(hi[:, None] - hi[None, :]) + _f2(lo[:, None] - lo[None, :])
    r = (-ii / (h[:, None] * h[None, :])) @ weights + v / 2.0
    sup = np.nonzero(weights > 1e-10)[0]
    cut = max(1, int(0.1 * len(sup)))
    interior = sup[cut : len(sup) - cut] if len(sup) > 2 * cut else sup
    c = float(np.median(r[interior]))
    return float(np.max(np.abs(r[sup] - c)))
