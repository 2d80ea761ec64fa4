"""Partition functions of the Gibbs law and the next-order quantity.

    Z_n^beta = int exp(-(beta/2) w_n(x)) dx,
    next_order = (log Z + (beta/2) n^2 F(mu0) - (beta/2) n log n) / (n beta).

For the quadratic model Z is a Gaussian Selberg (Mehta) integral and is
evaluated in closed form in the log domain. For n <= 3 a tensor
Gauss-Legendre rule over the ordered region, summed in the log domain,
provides the independent oracle for any V; thermodynamic integration
along a potential path extends log Z estimates to larger n.

Sign convention recorded from the exact quadratic oracle: next_order
converges to +alpha/2 = +0.25 as beta grows (and the Fekete f_n to
-alpha = -0.5, consistently through the Laplace principle
next_order -> -f_n/2). Tests therefore pin magnitudes and record the
observed sign rather than asserting a sign that the asymptotic theory
leaves ambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConvergenceError
from .fekete import minimize
from .hamiltonian import check_beta, energy
from .model import ModelConstants, Potential, blend, equilibrium_for, quadratic
from .sampler import SamplerConfig, run_many

__all__ = [
    "PartitionReport",
    "mehta_log_z",
    "quadrature_log_z",
    "thermo_log_z",
    "next_order_report",
    "next_order_sweep",
]


#: blocks of the thermodynamic error bar, shared out among the chains
ERROR_BLOCKS = 16


@dataclass(frozen=True)
class PartitionReport:
    n: int
    beta: float
    log_z: float
    method: str
    next_order: float
    error_bar: float


def mehta_log_z(n: int, beta: float) -> float:
    """Closed-form log Z for the quadratic model.

    Substituting x = t sqrt(2/(beta n)) reduces Z to Mehta's integral
    M_n(gamma) = (2 pi)^{n/2} prod_{j<=n} Gamma(1 + j gamma)/Gamma(1 + gamma)
    at gamma = beta/2, all evaluated through log-gamma so that the
    n(n-1) beta/4 exponents never overflow.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")
    check_beta(beta)
    g = beta / 2.0
    jac = (n / 2.0 + beta * n * (n - 1) / 4.0) * math.log(2.0 / (beta * n))
    mehta = (n / 2.0) * math.log(2.0 * math.pi) + float(
        np.sum(gammaln(1.0 + g * np.arange(1, n + 1)) - gammaln(1.0 + g))
    )
    return jac + mehta


def _gauss_axes(lo: np.ndarray, hi: np.ndarray, nodes: int) -> tuple[list, list]:
    """Gauss-Legendre nodes and weights on each interval [lo_k, hi_k]."""
    t, wt = np.polynomial.legendre.leggauss(nodes)
    r, m = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return [mk + rk * t for mk, rk in zip(m, r)], [rk * wt for rk in r]


def _grow_box(log_f, peak: float, a: np.ndarray, b: np.ndarray, beta: float):
    """The box [a - h, b + h] in (x_1, u_1, ...), u clipped at 0, whose
    margins h start at 0.5/sqrt(beta) and grow by sqrt(2) while the
    integrand on a face across that axis exceeds 1e-16 of exp(peak)."""
    half = np.full(len(a), 0.5 / math.sqrt(beta))
    for _ in range(30):  # up to 2^15 times the starting margin
        lo, hi = a - half, b + half
        lo[1:] = np.maximum(lo[1:], 0.0)
        # 40 Gauss nodes per axis with both ends added: index 0 and -1 are the faces
        pts, _ = _gauss_axes(lo, hi, 40)
        vals = log_f(*np.meshgrid(*map(np.hstack, zip(lo, pts, hi)), indexing="ij", sparse=True))
        loud = np.array([np.take(vals, [0, -1], axis=k).max() for k in range(len(a))]) >= peak + math.log(1e-16)
        if not loud.any():
            return lo, hi
        half[loud] *= math.sqrt(2.0)
    raise ConvergenceError("integration box kept growing; V may not confine")


def quadrature_log_z(n: int, beta: float, V: Potential | None = None) -> float:
    """log Z by a tensor Gauss-Legendre rule over the ordered region, n <= 3.

    Coordinates (x_1, u_1, ..., u_{n-1}) with gaps x_{k+1} - x_k = u_k^p,
    p = max(2, 1/beta), turn the |gap|^beta factor into a power of u of
    order at least 2, smooth enough at u = 0. The integrand is divided by
    its value at the Fekete set, where w_n is least, so no beta can
    underflow or overflow it, and summed one x_1 slab at a time. The box
    is centred on the Fekete set (`_grow_box`). The nodes per axis double
    from 40 until two rules agree to 1e-11, else ConvergenceError.

    An even V whose Fekete set x* is not its own mirror -x*[::-1] has the
    mirror as a second minimum of the same w_n. When the box is disjoint
    from its mirror image, that image carries the same integral, and
    log 2 is added; else one box is grown over both sets.
    """
    if n not in (1, 2, 3):
        raise ValueError("tensor quadrature supports n in {1, 2, 3}")
    check_beta(beta)
    if V is None:
        V = quadratic()
    ground = minimize(n, V, seed=0, multistart=1).config
    w_ref = energy(ground, V)
    p = max(2.0, 1.0 / beta)

    def coords(x):
        return np.concatenate([x[:1], np.diff(x) ** (1.0 / p)])

    def log_f(x1, *u):
        # log of exp(-(beta/2)(w_n - w_ref)) prod p u_k^(p-1); x1 and u broadcast
        g = [uk**p for uk in u]
        with np.errstate(divide="ignore"):
            w = n * sum(V.eval(x1 + sum(g[:k])) for k in range(n))
            w = w - 2.0 * sum(np.log(sum(g[i:j])) for i in range(n) for j in range(i + 1, n))
            return -(beta / 2.0) * (w - w_ref) + sum(math.log(p) + (p - 1.0) * np.log(uk) for uk in u)

    centre = coords(ground.points)
    peak = float(log_f(*centre))
    lo, hi = _grow_box(log_f, peak, centre, centre, beta)
    log_images = 0.0
    mirror = -ground.points[::-1]
    if V.even and not np.allclose(mirror, ground.points, rtol=0.0, atol=1e-6):
        # the image of the box under x -> -x[::-1]: x_1 becomes -x_n, and the u reverse
        image_lo = np.concatenate([[-(hi[0] + np.sum(hi[1:] ** p))], lo[:0:-1]])
        image_hi = np.concatenate([[-(lo[0] + np.sum(lo[1:] ** p))], hi[:0:-1]])
        if np.any((image_hi < lo) | (image_lo > hi)):
            log_images = math.log(2.0)
        else:
            twin = coords(mirror)
            lo, hi = _grow_box(log_f, peak, np.minimum(centre, twin), np.maximum(centre, twin), beta)

    prev = change = math.inf
    for nodes in (40, 80, 160, 320, 640):
        pts, wts = _gauss_axes(lo, hi, nodes)
        u = np.meshgrid(*pts[1:], indexing="ij", sparse=True)
        w_u = math.prod(np.meshgrid(*wts[1:], indexing="ij", sparse=True))
        total = sum(w1 * np.sum(np.exp(log_f(x1, *u) - peak) * w_u) for x1, w1 in zip(pts[0], wts[0]))
        val = peak + math.log(total)
        change, prev = abs(val - prev), val
        if change <= 1e-11:
            return math.log(math.factorial(n)) - (beta / 2.0) * w_ref + val + log_images
    raise ConvergenceError(f"tensor rule did not settle at {nodes} nodes per axis", residual=change)


def thermo_log_z(
    n: int,
    beta: float,
    V: Potential,
    sampler_cfg=None,
    grid: int = 16,
) -> tuple[float, float]:
    """log Z for general V by thermodynamic integration from the quadratic
    reference along V_t = (1-t) x^2/2 + t V at fixed beta.

        d/dt log Z(t) = < -(beta n / 2) sum_i (V - x^2/2)(x_i) >_{V_t}

    integrated by Gauss-Legendre in t; each expectation is the mean of the
    integrand over the `samples` of one Metropolis run at V_t, and every
    node's chains run in one lockstep array (`run_many`). Returns
    (estimate, error bar); the error bar propagates the block-mean
    variance of each node through the quadrature weights.
    Raises ValueError, before any chain runs, if a given `sampler_cfg` has
    another n or beta than the arguments or a chain would keep fewer
    samples than it has error-bar blocks, and ConvergenceError if any
    node's chains fail the R-hat check.
    """
    ref = quadratic()
    t_nodes, t_weights = np.polynomial.legendre.leggauss(grid)
    t_nodes = 0.5 * (t_nodes + 1.0)
    t_weights = 0.5 * t_weights

    if sampler_cfg is None:
        sampler_cfg = SamplerConfig(n=n, beta=beta, V=V, steps=20_000, burn_in=4_000,
                                    thinning=5, chains=2, seed=9000)
    elif (sampler_cfg.n, sampler_cfg.beta) != (n, beta):
        raise ValueError(f"sampler_cfg has n={sampler_cfg.n}, beta={sampler_cfg.beta}"
                         f" but log Z is asked at n={n}, beta={beta}")
    kept, blocks = sampler_cfg.steps // sampler_cfg.thinning, _blocks_per_chain(sampler_cfg.chains)
    if kept < blocks:
        raise ValueError(f"each chain keeps {kept} samples, fewer than its {blocks} error-bar blocks")
    cfgs = [sampler_cfg.replaced(V=blend(ref, V, float(t)), seed=sampler_cfg.seed + k)
            for k, t in enumerate(t_nodes)]

    total = mehta_log_z(n, beta)
    var = 0.0
    for t, wt, cfg, stats in zip(t_nodes, t_weights, cfgs, run_many(cfgs)):
        if not stats.converged:
            raise ConvergenceError(
                f"thermodynamic node t={t:.3f} failed the R-hat diagnostic",
                residual=stats.r_hat,
            )
        # integrand of the coupling derivative, sum_i (V - x^2/2)(x_i), per sample
        obs = (V.eval(stats.samples) - ref.eval(stats.samples)).sum(axis=1)
        mean = float(np.mean(obs))
        bm = _chain_block_means(obs.reshape(cfg.chains, -1))
        se = float(np.std(bm, ddof=1) / math.sqrt(len(bm)))
        total += wt * (-(beta * n / 2.0) * mean)
        var += (wt * beta * n / 2.0 * se) ** 2
    return total, math.sqrt(var)


def _chain_block_means(traces: np.ndarray) -> np.ndarray:
    """Means of about ERROR_BLOCKS consecutive blocks, cut inside each
    chain's own trace (one row of `traces` per chain), chain by chain.

    Each chain gets `_blocks_per_chain` blocks, so no block mixes chains.
    Block means absorb the residual autocorrelation of a thinned trace.
    """
    per = _blocks_per_chain(len(traces))
    return np.array([np.mean(b) for trace in traces for b in np.array_split(trace, per)])


def _blocks_per_chain(chains: int) -> int:
    return max(1, ERROR_BLOCKS // chains)


def next_order_report(
    n: int,
    beta: float,
    consts: ModelConstants,
    log_z: float,
    method: str = "exact-quadratic",
    error_bar: float = 0.0,
) -> PartitionReport:
    """Assemble the next-order quantity from a log-partition value."""
    no = (log_z + (beta / 2.0) * n * n * consts.mean_field_energy - (beta / 2.0) * n * math.log(n)) / (
        n * beta
    )
    return PartitionReport(
        n=n,
        beta=beta,
        log_z=log_z,
        method=method,
        next_order=no,
        error_bar=error_bar / (n * beta) if error_bar else 0.0,
    )


def next_order_sweep(ns, betas) -> list[PartitionReport]:
    """The next-order reports of x^2/2 from its exact log Z (`mehta_log_z`)
    over the grid ns x betas, n-major."""
    _, consts = equilibrium_for(quadratic())
    return [next_order_report(n, beta, consts, mehta_log_z(n, beta)) for n in ns for beta in betas]
