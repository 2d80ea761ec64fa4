"""Metropolis sampling of the Gibbs law exp(-(beta/2) w_n) / Z.

Single-site random-walk proposals with O(n) energy updates. All chains of
every config step in lockstep as one (rows, n) array, one row per chain:
each step proposes one move per row, and one vectorised energy change,
accept rule and move serve every row at once. Configs run together
(`run_many`) share n and the step counts; each row keeps its config's
beta, V and seed. V of every row is one Horner pass (`model.horner`)
over the columns of the run's coefficient matrix, one row of
coefficients per chain, collapsed to one row when all chains share V.
Each chain draws its proposals from its own RNG stream spawned from its
config's seed (numpy SeedSequence.spawn), in chunks whose sizes do not
depend on the row count, so runs are bit-reproducible and a chain's
output is the same whatever chains or configs run beside it. A run owns
one workspace, and each chunk builds its flat site indices, its scaled
steps and its accept thresholds (`metropolis_accept` as a bound on the
energy change), so a step allocates no array of n entries and accepts
each row with one comparison. The accept counts of the adaptation
windows and of the post-burn-in steps are sums over the chunk's
(steps, rows) buffer of accept flags. Every statistic, R-hat diagnostic
included, is then computed from the array of retained samples and their
energies in one pass (`_statistics`). Each chain's proposal
scale adapts toward 30-50 percent acceptance during burn-in only; it is
frozen afterward so the invariant law is exact.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .fekete import jittered, minimize, quantile_start
from .hamiltonian import Configuration, check_beta, energy, window_bounds
from .model import Potential, equilibrium_for, horner, zeta

__all__ = ["SamplerConfig", "GasStatistics", "run", "run_many", "metropolis_accept"]

AUDIT_INTERVAL = 10_000
AUDIT_RTOL = 1e-8
ADAPT_WINDOW = 500
CHUNK = 4096
LOG_EXP_UNDERFLOW = -1075 * math.log(2)


@dataclass(frozen=True)
class SamplerConfig:
    """Run parameters for the Metropolis sampler.

    `steps` counts post-burn-in steps per chain; `windows` lists the
    (x0, R) count windows, each covering the closed interval of radius
    R/n around x0 (`window_bounds`; none gives the one window (0, n)).
    """

    n: int
    beta: float
    V: Potential
    steps: int = 100_000
    burn_in: int = 10_000
    thinning: int = 50
    chains: int = 4
    seed: int = 0
    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        check_beta(self.beta)
        if self.burn_in < 1 or self.thinning < 1:
            raise ValueError("burn_in and thinning must be at least 1")
        if self.n < 1 or self.chains < 1 or self.steps < 1:
            raise ValueError("need at least one particle, one chain and one step")
        if self.steps < self.thinning:
            raise ValueError("steps must be at least thinning, so that each chain keeps a sample")
        for x0, R in self.windows:
            window_bounds(x0, R, self.n)

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
    row in the window of radius R/n around x0. `spacing_samples` (the bulk
    nearest-neighbour gaps unfolded by n mu0), `f_n_trace` and `zeta_trace`
    (sum of zeta over each row) need mu0, so they are empty unless V has a
    closed form (`equilibrium_for`). `acceptance` and
    `chain_acceptance` count post-burn-in proposals only; `step_scales`
    holds each chain's proposal scale as frozen at the end of burn-in;
    `cache_drift` holds each chain's largest relative gap between its
    cached and exact energy over the energy audits (0.0 when the run ends
    before the first audit). `steps_per_s`, each chain's steps (burn-in
    included) per second of the stepping loop, is shared by a lockstep run.
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
    cache_drift: np.ndarray
    steps_per_s: float


def _accept_threshold(beta, u):
    """-(2/beta) log u, the energy change below which a move with uniform
    draw `u` is accepted. Broadcasts a per-row `beta` against the columns
    of a (steps, rows) block of draws.

    log u is floored at log 2^-1075, below which exp rounds to 0: a draw
    u = 0 then accepts just the moves whose exp(-(beta/2) delta) is
    positive in floating point, as the exp form of the rule does, not
    every finite delta.
    """
    with np.errstate(divide="ignore"):
        return (-2.0 / beta) * np.maximum(np.log(u), LOG_EXP_UNDERFLOW)


def metropolis_accept(delta, beta: float, u):
    """Accept a move of energy change `delta` given uniform draw `u` in [0, 1).

    Accepts when delta < -(2/beta) log u (`_accept_threshold`), which is
    u < min(1, exp(-(beta/2) delta)) written as a threshold on delta;
    elementwise on arrays, and scalar arguments give a bool. A non-finite
    delta from the kernel is always rejected: +inf and NaN fail `<`, and
    -inf cannot arise there, since every cached energy is finite.
    """
    ok = np.less(delta, _accept_threshold(beta, u))
    return ok if ok.ndim else bool(ok)


def _delta_energy(pts: np.ndarray, at: np.ndarray, z: np.ndarray, d: np.ndarray,
                  V: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Change of w_n when row c of `pts` moves its point at flat index at[c] from z[1, c, 0] to z[0, c, 0].

    `z` is the (2, rows, 1) column of new and old positions and `d` the
    (2, rows, n) workspace, both contiguous, so that their `ravel`s are
    views: at[rows + c] = at[c] + rows n is that site in d[1]. `V` maps
    z.ravel() to V of each row at its two entries, as a `Potential` or
    `horner` on the run's tiled coefficient columns do. O(n) per row by
    differencing. A proposal onto an existing point makes a log 0 = -inf
    term (the caller ignores the divide error), so its change is +inf and
    it is never accepted.
    """
    m, n = pts.shape
    # distances of every point to the new (d[0]) and old (d[1]) position;
    # the moved site's own entry is set to 1 so that its log is 0
    np.abs(np.subtract(pts, z, out=d), out=d)
    d.ravel()[at] = 1.0
    logs = np.add.reduce(np.log(d, out=d), axis=2)
    v = V(z.ravel())
    return -2.0 * (logs[0] - logs[1]) + n * (v[:m] - v[m:])


def _tiled_columns(Vs: Sequence[Potential]) -> list:
    """`horner` columns of the (rows, degree + 1) coefficient matrix of the
    rows' potentials, tiled for z = (xp, xi) as two copies of the rows; a
    matrix whose rows are all equal collapses to its first row, as floats
    that broadcast (a float multiplies faster than a numpy scalar). An
    all-zero column is None."""
    C = np.zeros((len(Vs), max(len(V.coeffs) for V in Vs)))
    for r, V in enumerate(Vs):
        C[r, :len(V.coeffs)] = V.coeffs
    columns = np.concatenate([C, C]).T.copy() if np.any(C != C[0]) else C[0].tolist()
    return [col if np.any(col) else None for col in columns]


def _run_chains(cfgs: Sequence[SamplerConfig]):
    """Step every chain of every config in `cfgs` in lockstep, one row per chain.

    The configs must share n, steps, burn_in and thinning (else
    ValueError); each row keeps its config's beta, V and seed stream.
    Returns, rows in config order, the thinned samples (rows, kept, n),
    their energies (rows, kept), the post-burn-in accept count of each
    row, each row's final step scale and its largest relative
    energy-cache drift, and the steps per second of each chain.

    One workspace per run (z = (xp, xi), the distances d, each row's flat
    offset in d[0] then d[1], a flat view of the points); per chunk, the
    flat site indices, the steps scale * moves, redone after each burn-in
    adaptation, the `_accept_threshold`s and a (steps, rows) buffer of
    accept flags, summed at each adaptation and at the chunk's end into
    the window and post-burn-in counts; and the `_tiled_columns` of the
    rows' coefficients, over which one `horner` pass gives V of every row
    at z.
    """
    if not cfgs:
        raise ValueError("need at least one config")
    first = cfgs[0]
    shape = (first.n, first.steps, first.burn_in, first.thinning)
    if any((cfg.n, cfg.steps, cfg.burn_in, cfg.thinning) != shape for cfg in cfgs):
        raise ValueError("configs run together must share n, steps, burn_in and thinning")
    n, burn_in, thinning = first.n, first.burn_in, first.thinning
    rngs, starts, Vs, chain_of = [], [], [], []
    for cfg in cfgs:
        mu = (equilibrium_for(cfg.V) or (None, None))[0]
        own = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.chains)]
        # chain 0 starts at the Fekete set, the others at jittered quantiles
        starts.append(minimize(cfg.n, cfg.V, seed=0, multistart=1, tol=1e-8 * cfg.n).config.points)
        base = quantile_start(cfg.n, mu)
        starts += [jittered(base, 0.3, rng) for rng in own[1:]]
        rngs += own
        Vs += [cfg.V] * cfg.chains
        chain_of += range(cfg.chains)
    pts = np.array(starts)
    rows = len(pts)
    w = np.array([energy(Configuration(row), V) for row, V in zip(pts, Vs)])
    chains = [cfg.chains for cfg in cfgs]
    betas = [cfg.beta for cfg in cfgs]
    # a beta that every row shares stays a scalar: that spares an array op per step
    beta = betas[0] if len(set(betas)) == 1 else np.repeat(betas, chains)
    scale = np.repeat([cfg.initial_step_scale for cfg in cfgs], chains)
    V_rows = partial(horner, _tiled_columns(Vs))
    window_acc = np.zeros(rows, dtype=np.int64)
    accepted = np.zeros(rows, dtype=np.int64)
    drift = np.zeros(rows)
    samples = np.empty((rows, first.steps // thinning, n))
    energies = np.empty(samples.shape[:2])

    # z[:, c, 0] = (xp, xi) of row c; pf is a flat view of pts, which
    # pts.sort(axis=1) keeps, since it sorts in place
    z, d, offsets = np.empty((2, rows, 1)), np.empty((2, rows, n)), np.arange(2 * rows) * n
    xp, xi = z[:, :, 0]
    pf = pts.reshape(-1)

    total = burn_in + first.steps
    done = 0
    t0 = time.perf_counter()
    with np.errstate(divide="ignore"):
        while done < total:
            # each chain draws its chunk in its own stream, in the order and
            # sizes that make it independent of the other rows
            m = min(CHUNK, total - done)
            sites = np.stack([rng.integers(0, n, m) for rng in rngs], axis=1)
            at = np.concatenate([sites, sites], axis=1) + offsets
            moves = np.stack([rng.normal(0.0, 1.0, m) for rng in rngs], axis=1)
            thr = _accept_threshold(beta, np.stack([rng.random(m) for rng in rngs], axis=1))
            dx = scale * moves
            accs = np.empty((m, rows), dtype=bool)
            # the burn-in steps of this chunk, and the first step whose
            # accepts are not yet in window_acc
            burn, lo = min(m, max(0, burn_in - done)), 0
            for k in range(m):
                gstep = done + k
                flat = at[k, :rows]
                xi[:] = pf[flat]
                np.add(xi, dx[k], out=xp)
                delta = _delta_energy(pts, at[k], z, d, V_rows)
                acc = np.less(delta, thr[k], out=accs[k])
                np.copyto(xi, xp, where=acc)
                pf[flat] = xi
                # the energies after the moves, kept where accepted
                np.copyto(w, np.add(w, delta, out=delta), where=acc)
                # an accepted move may cross a neighbour; the other rows are
                # sorted already and have no ties, so sorting leaves them be
                pts.sort(axis=1)
                if k < burn and (gstep + 1) % ADAPT_WINDOW == 0:
                    rate = (window_acc + accs[lo:k + 1].sum(axis=0)) / ADAPT_WINDOW
                    scale = np.where(rate > 0.5, scale * 1.3, np.where(rate < 0.3, scale / 1.3, scale))
                    window_acc[:], lo = 0, k + 1
                    np.multiply(scale, moves[k + 1:], out=dx[k + 1:])
                if (gstep + 1) % AUDIT_INTERVAL == 0:
                    for r, V in enumerate(Vs):
                        w_true = energy(Configuration(pts[r]), V)
                        gap, size = abs(w[r] - w_true), max(1.0, abs(w_true))
                        drift[r] = max(drift[r], gap / size)
                        if gap > AUDIT_RTOL * size:
                            raise RuntimeError(
                                f"energy cache of chain {chain_of[r]} drifted: cached {float(w[r])!r} vs exact {w_true!r}"
                            )
                        w[r] = w_true
                if gstep >= burn_in and (gstep - burn_in + 1) % thinning == 0:
                    kept = (gstep - burn_in + 1) // thinning - 1
                    samples[:, kept] = pts
                    energies[:, kept] = w
            window_acc += accs[lo:burn].sum(axis=0)
            accepted += accs[burn:].sum(axis=0)
            done += m
    steps_per_s = total / (time.perf_counter() - t0)
    return samples, energies, accepted, scale, drift, steps_per_s


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
                chain_acceptance: np.ndarray, step_scales: np.ndarray,
                cache_drift: np.ndarray, steps_per_s: float) -> GasStatistics:
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
        lo, hi = window_bounds(float(x0), float(R), n)
        count_traces[(float(x0), float(R))] = ((flat >= lo) & (flat <= hi)).sum(axis=1).astype(float)

    if consts is not None:
        # nearest-neighbour spacings from the bulk (central half), unfolded by n mu0
        lo_i, hi_i = n // 4, max(n // 4 + 1, (3 * n) // 4)
        gaps = np.diff(flat, axis=1)[:, lo_i:hi_i]
        spacing_samples = (n * mu.density(flat[:, lo_i:hi_i]) * gaps).ravel()
        f_n_trace = (energies - n * n * consts.mean_field_energy + n * math.log(n)) / n
        zeta_trace = zeta(mu, cfg.V, consts.c, flat).sum(axis=1)
    else:
        spacing_samples = f_n_trace = zeta_trace = np.array([])

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
        cache_drift=cache_drift,
        steps_per_s=steps_per_s,
    )


def run_many(cfgs: Sequence[SamplerConfig]) -> list[GasStatistics]:
    """Run the chains of every config in one lockstep array and compute each
    config's statistics from its own rows.

    The configs must share n, steps, burn_in and thinning, else ValueError;
    beta, V, seed, chain count and windows may differ. Each config's
    result equals its separate `run`, bit for bit.
    """
    samples, energies, accepted, scales, drift, steps_per_s = _run_chains(cfgs)
    out, lo = [], 0
    for cfg in cfgs:
        rows = slice(lo, lo + cfg.chains)
        lo += cfg.chains
        out.append(_statistics(cfg, samples[rows], energies[rows], accepted[rows] / cfg.steps,
                               scales[rows], drift[rows], steps_per_s))
    return out


def run(cfg: SamplerConfig, threads: int = 1) -> GasStatistics:
    """Run all chains and compute their statistics from the samples.

    The one-config case of `run_many`; `threads` is accepted for old
    callers and ignored. The R-hat diagnostic is computed on the energy
    traces; statistics are returned (not suppressed) even when the
    diagnostic fails, with `converged` set accordingly.
    """
    return run_many([cfg])[0]
