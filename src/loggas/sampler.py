"""Metropolis sampling of the Gibbs law exp(-(beta/2) w_n) / Z.

Single-site random-walk proposals with O(n) energy updates. All chains of
a run step in lockstep as one (chains, n) array: each step proposes one
move per chain, and one vectorised energy change, accept rule and move
serve every chain at once. Each chain draws its proposals from its own RNG
stream spawned from the master seed (numpy SeedSequence.spawn), in chunks
whose sizes do not depend on the chain count, so runs are bit-reproducible
and a chain's output is the same however many chains run beside it.
Every statistic, R-hat diagnostic included, is then computed from the
array of retained samples and their energies in one pass (`_statistics`). Each chain's proposal scale adapts toward 30-50 percent
acceptance during burn-in only; it is frozen afterward so the invariant
law is exact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fekete import minimize, quantile_start
from .hamiltonian import Configuration, energy
from .model import EquilibriumMeasure, Potential, equilibrium_for, zeta

__all__ = ["SamplerConfig", "GasStatistics", "run", "metropolis_accept"]

AUDIT_INTERVAL = 10_000
AUDIT_RTOL = 1e-8
ADAPT_WINDOW = 500
CHUNK = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Run parameters for the Metropolis sampler.

    `steps` counts post-burn-in steps per chain; `windows` lists the
    (x0, R) count windows, each covering the closed interval of radius
    R/n around x0 (none gives the one window (0, n)).
    """

    n: int
    beta: float
    V: Potential
    steps: int = 100_000
    burn_in: int = 10_000
    thinning: int = 50
    chains: int = 4
    seed: int = 0
    init: str = "fekete"
    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.burn_in < 1 or self.thinning < 1:
            raise ValueError("burn_in and thinning must be at least 1")
        if self.chains < 1 or self.steps < 1:
            raise ValueError("need at least one chain and one step")
        if self.init not in ("fekete", "quantile"):
            raise ValueError("init must be 'fekete' or 'quantile'")

    def replaced(self, **kw) -> "SamplerConfig":
        return dataclasses.replace(self, **kw)

    @property
    def initial_step_scale(self) -> float:
        return 1.0 / (self.n * math.sqrt(self.beta))


@dataclass
class GasStatistics:
    """Statistics of a sampler run, all computed from its samples.

    `samples` holds the thinned configurations, chain-major, one sorted
    row per retained step. `count_traces[(x0, R)]` is the count of each
    row in the window of radius R/n around x0; `spacing_samples` are the
    bulk nearest-neighbour gaps scaled by n times the equilibrium density.
    `f_n_trace` and `zeta_trace` (sum of zeta over each row) are empty
    unless V has a closed form (`equilibrium_for`). `acceptance` and
    `chain_acceptance` count post-burn-in proposals only; `step_scales`
    holds each chain's proposal scale as frozen at the end of burn-in.
    """

    count_traces: dict[tuple[float, float], np.ndarray]
    spacing_samples: np.ndarray
    f_n_trace: np.ndarray
    zeta_trace: np.ndarray
    mean_energy: float
    mean_energy_se: float
    r_hat: float
    converged: bool
    acceptance: float
    samples: np.ndarray
    chain_acceptance: np.ndarray
    step_scales: np.ndarray


def metropolis_accept(delta, beta: float, u):
    """Accept a move of energy change `delta` given uniform draw `u` in [0, 1).

    Accepts when u < min(1, exp(-(beta/2) delta)), elementwise on arrays;
    scalar arguments give a bool. A non-finite `delta` is always rejected.
    """
    ok = np.isfinite(delta) & (u < np.exp(np.minimum(-0.5 * beta * delta, 0.0)))
    return ok if ok.ndim else bool(ok)


def _delta_energy(pts: np.ndarray, sites: np.ndarray, xp: np.ndarray, xi: np.ndarray,
                  V: Potential) -> np.ndarray:
    """Change of w_n when row c of `pts` moves its site sites[c] from xi[c] to xp[c].

    O(n) per row by differencing. A proposal onto an existing point makes
    a log 0 = -inf term, so its change is +inf and it is never accepted.
    """
    m, n = pts.shape
    z = np.concatenate([xp, xi])
    # distances of every point to the new (d[0]) and old (d[1]) position;
    # the moved site's own entry is set to 1 so that its log is 0
    d = np.abs(pts - z.reshape(2, m, 1))
    d[:, np.arange(m), sites] = 1.0
    with np.errstate(divide="ignore"):
        logs = np.log(d).sum(axis=2)
    v = np.asarray(V.eval(z), dtype=float)
    return -2.0 * (logs[0] - logs[1]) + n * (v[:m] - v[m:])


def _advance(pts: np.ndarray, w: np.ndarray, sites: np.ndarray, dx: np.ndarray, u: np.ndarray,
             V: Potential, beta: float) -> np.ndarray:
    """One Metropolis step of every row: row c proposes moving site sites[c] by dx[c].

    Updates the sorted rows `pts` and their cached energies `w` in place and
    returns the accepted mask.
    """
    rows = np.arange(len(pts))
    xi = pts[rows, sites]
    xp = xi + dx
    delta = _delta_energy(pts, sites, xp, xi, V)
    acc = metropolis_accept(delta, beta, u)
    pts[rows, sites] = np.where(acc, xp, xi)
    np.add(w, delta, out=w, where=acc)
    # an accepted move may cross a neighbour; the other rows are sorted
    # already and have no ties, so sorting leaves them as they are
    pts.sort(axis=1)
    return acc


def _initial_config(cfg: SamplerConfig, chain_idx: int, rng: np.random.Generator,
                    mu: EquilibriumMeasure | None) -> np.ndarray:
    if cfg.init == "fekete" and chain_idx == 0:
        return np.array(minimize(cfg.n, cfg.V, seed=0, multistart=1, tol=1e-8 * cfg.n).config.points)
    base = quantile_start(cfg.n, mu)
    gap = float(np.min(np.diff(base))) if cfg.n > 1 else 1.0
    pts = np.sort(base + rng.normal(0.0, 0.3 * gap, cfg.n))
    while np.any(np.diff(pts) <= 0):
        pts = np.sort(base + rng.normal(0.0, 0.3 * gap, cfg.n))
    return pts


def _run_chains(cfg: SamplerConfig):
    """Step every chain of `cfg` in lockstep.

    Returns the thinned samples (chains, kept, n), their energies
    (chains, kept), the post-burn-in accept count of each chain and each
    chain's final step scale.
    """
    n, V = cfg.n, cfg.V
    mu = (equilibrium_for(V) or (None, None))[0]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.chains)]
    pts = np.array([_initial_config(cfg, c, rng, mu) for c, rng in enumerate(rngs)])
    w = np.array([energy(Configuration(row), V) for row in pts])
    scale = np.full(cfg.chains, cfg.initial_step_scale)
    window_acc = np.zeros(cfg.chains, dtype=np.int64)
    accepted = np.zeros(cfg.chains, dtype=np.int64)
    samples, energies = [], []

    total = cfg.burn_in + cfg.steps
    done = 0
    while done < total:
        # each chain draws its chunk in its own stream, in the order and
        # sizes that make it independent of the other chains
        m = min(CHUNK, total - done)
        sites = np.stack([rng.integers(0, n, m) for rng in rngs], axis=1)
        moves = np.stack([rng.normal(0.0, 1.0, m) for rng in rngs], axis=1)
        us = np.stack([rng.random(m) for rng in rngs], axis=1)
        for k in range(m):
            gstep = done + k
            acc = _advance(pts, w, sites[k], scale * moves[k], us[k], V, cfg.beta)
            if gstep < cfg.burn_in:
                window_acc += acc
                if (gstep + 1) % ADAPT_WINDOW == 0:
                    rate = window_acc / ADAPT_WINDOW
                    scale = np.where(rate > 0.5, scale * 1.3, np.where(rate < 0.3, scale / 1.3, scale))
                    window_acc[:] = 0
            else:
                accepted += acc
            if (gstep + 1) % AUDIT_INTERVAL == 0:
                for c in range(cfg.chains):
                    w_true = energy(Configuration(pts[c]), V)
                    if abs(w[c] - w_true) > AUDIT_RTOL * max(1.0, abs(w_true)):
                        raise RuntimeError(
                            f"energy cache of chain {c} drifted: cached {float(w[c])!r} vs exact {w_true!r}"
                        )
                    w[c] = w_true
            if gstep >= cfg.burn_in and (gstep - cfg.burn_in + 1) % cfg.thinning == 0:
                samples.append(pts.copy())
                energies.append(w.copy())
        done += m
    return np.stack(samples, axis=1), np.stack(energies, axis=1), accepted, scale


def _gelman_rubin(X: np.ndarray) -> float:
    """Classic R-hat of equal-length chain series, one row per chain."""
    m, L = X.shape
    if m < 2:
        return 1.0
    if L < 2:
        return math.inf
    within = X.var(axis=1, ddof=1).mean()
    between = L * X.mean(axis=1).var(ddof=1)
    if within == 0:
        return 1.0 if between == 0 else math.inf
    var_plus = (L - 1) / L * within + between / L
    return math.sqrt(var_plus / within)


def _statistics(cfg: SamplerConfig, chain_samples: np.ndarray, chain_energies: np.ndarray,
                chain_acceptance: np.ndarray, step_scales: np.ndarray) -> GasStatistics:
    """Every field of `GasStatistics` from the (chains, kept, n) samples and
    their (chains, kept) energies, as array expressions."""
    n, chains = cfg.n, len(chain_samples)
    mu, consts = equilibrium_for(cfg.V) or (None, None)
    flat = chain_samples.reshape(-1, n)
    energies = chain_energies.ravel()
    r_hat = _gelman_rubin(chain_energies)
    if chains > 1:
        se = float(np.std(chain_energies.mean(axis=1), ddof=1) / math.sqrt(chains))
    else:
        se = float(np.std(energies, ddof=1) / math.sqrt(len(energies)))

    windows = cfg.windows or ((0.0, float(n)),)
    count_traces = {}
    for x0, R in windows:
        x0, r = float(x0), float(R) / n
        inside = (flat >= x0 - r) & (flat <= x0 + r)
        count_traces[(x0, float(R))] = inside.sum(axis=1).astype(float)

    # normalized nearest-neighbor spacings from the bulk (central half)
    lo_i, hi_i = n // 4, max(n // 4 + 1, (3 * n) // 4)
    gaps = np.diff(flat, axis=1)[:, lo_i:hi_i]
    left = flat[:, lo_i:hi_i]
    dens = mu.density(left) if mu is not None else np.full_like(left, 1.0)
    spacing_samples = (n * dens * gaps).ravel()

    if consts is not None:
        f_n_trace = (energies - n * n * consts.mean_field_energy + n * math.log(n)) / n
        zeta_trace = zeta(mu, cfg.V, consts.c, flat).sum(axis=1)
    else:
        f_n_trace = zeta_trace = np.array([])

    return GasStatistics(
        count_traces=count_traces,
        spacing_samples=spacing_samples,
        f_n_trace=f_n_trace,
        zeta_trace=zeta_trace,
        mean_energy=float(np.mean(energies)),
        mean_energy_se=se,
        r_hat=r_hat,
        converged=bool(r_hat <= 1.1),
        acceptance=float(np.mean(chain_acceptance)),
        samples=flat,
        chain_acceptance=chain_acceptance,
        step_scales=step_scales,
    )


def run(cfg: SamplerConfig, threads: int = 1) -> GasStatistics:
    """Run all chains and compute their statistics from the samples.

    The chains step in lockstep in one process; `threads` is accepted for
    old callers and ignored. The R-hat diagnostic is computed on the
    energy traces; statistics are returned (not suppressed) even when the
    diagnostic fails, with `converged` set accordingly.
    """
    chain_samples, chain_energies, accepted, scales = _run_chains(cfg)
    return _statistics(cfg, chain_samples, chain_energies, accepted / cfg.steps, scales)
