"""Metropolis sampling of the Gibbs law exp(-(beta/2) w_n) / Z.

Single-site random-walk proposals with O(n) energy updates. All chains of
every config step in lockstep as one (rows, n) array, one row per chain,
and one vectorised pass, accept rule and move serve every row at once.
Configs run together (`run_many`) share n and the step counts; each row
keeps its config's beta, V and seed. V of every row is one Horner pass
(`model.horner`) over the columns of the run's coefficient matrix, one
row of coefficients per chain, collapsed to one row when all chains
share V. Each chain draws its proposals from its own RNG stream spawned
from its config's seed (numpy SeedSequence.spawn), in chunks whose sizes
do not depend on the row count, so runs are bit-reproducible and a
chain's output is the same whatever chains or configs run beside it.

The steps run in blocks of at most K = max(1, min(BLOCK_SITES, n // 2))
steps. Every adaptation, audit, thinning and chunk boundary ends a
block, so all rows share the schedule (`_block_schedule`). In each block,
each row moves distinct sites, drawn as uniform distinct ranks of its
sorted points from its own stream (`_distinct_sites`). That keeps the
Gibbs law exactly. Relabel the sorted points by a uniform random
permutation: the labelled configuration then has the symmetric Gibbs
law, and uniform distinct ranks become uniform distinct labels that do
not depend on it. Each step is a Metropolis update of one fixed label,
which leaves that law invariant, and so does their composition (Tierney,
Ann. Statist. 22 (1994) 1701). One pass computes every step's energy
change against the points at the block's start, and a K x K table of
pair corrections (`_pair_corrections`) holds what an accepted earlier
step adds to a later step's change, so the steps themselves are an
accept comparison and a masked add each (`_Blocks.step`). K <= n / 2
keeps the table's 4 K^2 logs per row within the pass's 2 K n. Points are
written back and rows sorted once per block.

Each chunk builds its flat site indices, its scaled steps and its
accept thresholds (`metropolis_accept` as a bound on the energy change),
and a run owns one workspace, so a block allocates no array of n
entries. The accept counts of the adaptation windows and of the
post-burn-in steps are sums over the chunk's (steps, rows) buffer of
accept flags. Every statistic, R-hat diagnostic included, is then
computed from the array of retained samples and their energies in one
pass (`_statistics`). Each chain's proposal scale adapts toward 30-50
percent acceptance during burn-in only; it is frozen afterward so the
invariant law is exact.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fekete import jittered, minimize, quantile_start
from .hamiltonian import Configuration, _next_order, check_beta, energy, window_bounds
from .model import Potential, equilibrium_for, horner, zeta

__all__ = ["SamplerConfig", "GasStatistics", "run", "run_many", "metropolis_accept"]

AUDIT_INTERVAL = 10_000
AUDIT_RTOL = 1e-8
ADAPT_WINDOW = 500
CHUNK = 4096
BLOCK_SITES = 16
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


def _block_schedule(done: int, m: int, burn_in: int, thinning: int,
                    size: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The blocks of the chunk of `m` steps that follows step `done`: their
    starts as offsets into the chunk, then `m`, and each step's block and
    position in it.

    A block ends after every step that closes an adaptation window
    (burn-in only), an audit interval or a thinning interval (after
    burn-in), at the chunk's end, and after `size` steps. The schedule
    depends on the run's shape alone, so every row shares it.
    """
    g = np.arange(done + 1, done + m + 1)
    cut = (g % AUDIT_INTERVAL == 0) | ((g <= burn_in) & (g % ADAPT_WINDOW == 0))
    cut |= (g > burn_in) & ((g - burn_in) % thinning == 0)
    # the first step after the last cut, then the position in its block
    t = np.arange(m)
    after = np.zeros(m, dtype=t.dtype)
    after[1:] = np.where(cut[:-1], t[1:], 0)
    pos = (t - np.maximum.accumulate(after)) % size
    first = pos == 0
    return np.flatnonzero(first).tolist() + [m], np.cumsum(first) - 1, pos


def _distinct_sites(ranks: np.ndarray, block: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sites of the (steps, rows) `ranks`, where step t is at position
    pos[t] of block block[t] and ranks[t] < n - pos[t]: the step takes the
    ranks[t]-th smallest site (0-based) that its block's earlier steps
    left free, so each block's sites are distinct, and uniform when the
    ranks are.

    Decoded backwards, as a Lehmer code: for each position i from the
    last but one down to the first, every later site at or above site i
    moves up by one. One pass per position serves every block.
    """
    s = np.zeros((pos.max() + 1, block[-1] + 1, ranks.shape[1]), dtype=ranks.dtype)
    s[pos, block] = ranks
    for i in range(len(s) - 2, -1, -1):
        later = s[i + 1:]
        later += later >= s[i]
    return s[pos, block]


class _Blocks:
    """The workspace of a lockstep run, and the step of one block of its
    (rows, n) points `pts`, which it sorts in place.

    A block of L steps views the front of z as the (2 L, rows) proposed
    positions p of its steps over their old positions o, and the front of
    D as the (2 L, rows, n) log-distances of every point to them. The
    rows' `horner` columns are tiled to the length of the flat z.
    """

    def __init__(self, pts: np.ndarray, size: int, columns: list):
        rows, n = pts.shape
        self.pts, self.pf, self.n = pts, pts.reshape(-1), n
        z, self.D = np.empty(2 * size * rows), np.empty(2 * size * rows * n)
        # per block length L: z as a flat, a (2 L, rows) and a (2 L, rows, 1)
        # array, its p and o, D as a (2 L, rows, n) array, and the tiled
        # columns
        self.views = [None]
        for L in range(1, size + 1):
            zL = z[:2 * L * rows]
            z2 = zL.reshape(2 * L, rows)
            tiled = [c if c is None or np.isscalar(c) else np.tile(c, 2 * L) for c in columns]
            self.views.append((zL, z2, z2[..., None], z2[:L], z2[L:], self.D[:2 * L * rows * n].reshape(2 * L, rows, n),
                               tiled))

    def sites(self, sites: np.ndarray, block: np.ndarray, pos: np.ndarray,
              lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of the (steps, rows) `sites` at positions `pos` of
        blocks block[t] of `lengths`: into `pts`, made from `sites` in
        place, and (steps, 2 rows) into the block's D, where each step's
        own distance to its p and o is set to 1 so that its log is 0."""
        rows, n = self.pts.shape
        at = sites
        at += np.arange(rows) * n
        # D[a L + l, r, j] of a block of L steps is at ((a L + l) rows + r) n + j
        at_d = np.empty((len(at), 2, rows), dtype=at.dtype)
        np.add(at, (pos * rows * n)[:, None], out=at_d[:, 0])
        np.add(at_d[:, 0], (lengths[block] * rows * n)[:, None], out=at_d[:, 1])
        return at, at_d.reshape(len(at), 2 * rows)

    def step(self, w: np.ndarray, at: np.ndarray, at_d: np.ndarray, dx: np.ndarray,
             thr: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Run one block of L = len(at) steps on every row: step l moves
        the site at flat index at[l] by dx[l] if its energy change is below
        thr[l]. Writes the accept flags to `acc`, adds the accepted changes
        to the energies `w`, moves and sorts the points, and returns each
        step's energy change given the steps before it.

        A move onto a point is never accepted: onto a point present at the
        block's start, the pass gives +inf; onto the new position of a site
        moved earlier in the block, the pair correction does. A move onto
        the old position of such a site gets +inf from the pass and -inf
        from the correction, so NaN, and is rejected too, though its true
        change is finite; that has probability zero. Needs divide and
        invalid errors ignored.
        """
        L, n = len(at), self.n
        zf, z, zc, p, o, D, columns = self.views[L]
        o[:] = self.pf[at]
        np.add(o, dx, p)
        # every step's change against the points at the block's start
        np.abs(np.subtract(self.pts, zc, D), D)
        self.D[at_d] = 1.0
        logs = np.add.reduce(np.log(D, D), axis=2)
        v = horner(columns, zf).reshape(z.shape)
        delta = -2.0 * (logs[:L] - logs[L:]) + n * (v[:L] - v[L:])
        if L == 1:
            # the same sum as below, in one masked add
            np.add(w, delta[0], w, where=np.less(delta[0], thr[0], acc[0]))
        else:
            # step k's accept decides whether its pair corrections reach the
            # later steps; the accepted changes then sum in step order,
            # whatever the row count (np.sum would pair them up when there
            # is one row)
            C = _pair_corrections(z.T)
            for k in range(L - 1):
                ok = np.less(delta[k], thr[k], acc[k])
                np.add(delta[k + 1:], C[k, k + 1:], delta[k + 1:], where=ok)
            np.less(delta[-1], thr[-1], acc[-1])
            w += np.add.accumulate(np.where(acc, delta, 0.0), axis=0)[-1]
        np.copyto(o, p, where=acc)
        self.pf[at] = o
        # accepted moves may cross neighbours; rows with none are sorted
        # already and have no ties, so sorting leaves them be
        self.pts.sort(axis=1)
        return delta


def _pair_corrections(Z: np.ndarray) -> np.ndarray:
    """The (L, L, rows) table C[k, l] = -2 (log|p_l - p_k| - log|o_l - p_k|
    - log|p_l - o_k| + log|o_l - o_k|) of a block's (rows, 2 L) positions
    Z = (p, o): what step k moving its site adds to the energy change of
    step l > k. Entries with l <= k are unused."""
    rows, L = len(Z), Z.shape[1] // 2
    # A[r, a, l, b, k] = log|Z[r, a L + l] - Z[r, b L + k]|, built row-major
    # so that the differences and logs run over long contiguous rows
    Z = np.ascontiguousarray(Z)
    A = Z[:, :, None] - Z[:, None, :]
    A = np.log(np.abs(A, out=A), out=A).reshape(rows, 2, L, 2, L)
    Q = A[:, 0] - A[:, 1]
    C = Q[:, :, 0] - Q[:, :, 1]
    C *= -2.0
    return C.transpose(2, 1, 0)


def _row_columns(Vs: Sequence[Potential]) -> list:
    """`horner` columns of the (rows, degree + 1) coefficient matrix of the
    rows' potentials, each a (rows,) array (`_Blocks` tiles them to a
    block's positions); a matrix whose rows are all equal collapses to its
    first row, as floats (a float multiplies faster than a numpy scalar).
    An all-zero column is None."""
    C = np.zeros((len(Vs), max(len(V.coeffs) for V in Vs)))
    for r, V in enumerate(Vs):
        C[r, :len(V.coeffs)] = V.coeffs
    columns = C.T.copy() if np.any(C != C[0]) else C[0].tolist()
    return [col if np.any(col) else None for col in columns]


def _run_chains(cfgs: Sequence[SamplerConfig]):
    """Step every chain of every config in `cfgs` in lockstep, one row per chain.

    The configs must share n, steps, burn_in and thinning (else
    ValueError); each row keeps its config's beta, V and seed stream.
    Returns, rows in config order, the thinned samples (rows, kept, n),
    their energies (rows, kept), the post-burn-in accept count of each
    row, each row's final step scale and its largest relative
    energy-cache drift, and the steps per second of each chain.

    The steps run in blocks (`_block_schedule`), each one `_Blocks.step`
    in the run's workspace. Per chunk: the flat indices of each block's
    distinct sites (`_distinct_sites`) in the points and in the
    workspace, the steps scale * moves, redone after each burn-in
    adaptation, the `_accept_threshold`s and a (steps, rows) buffer of
    accept flags, summed at each adaptation and at the chunk's end into
    the window and post-burn-in counts.
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
    beta = np.repeat([cfg.beta for cfg in cfgs], chains)
    scale = np.repeat([cfg.initial_step_scale for cfg in cfgs], chains)
    window_acc = np.zeros(rows, dtype=np.int64)
    accepted = np.zeros(rows, dtype=np.int64)
    drift = np.zeros(rows)
    samples = np.empty((rows, first.steps // thinning, n))
    energies = np.empty(samples.shape[:2])

    per_block = max(1, min(BLOCK_SITES, n // 2))
    blocks = _Blocks(pts, per_block, _row_columns(Vs))
    step = blocks.step

    total = burn_in + first.steps
    done = 0
    t0 = time.perf_counter()
    with np.errstate(divide="ignore", invalid="ignore"):
        while done < total:
            # each chain draws its chunk in its own stream, in the order and
            # sizes that make it independent of the other rows
            m = min(CHUNK, total - done)
            bounds, block, pos = _block_schedule(done, m, burn_in, thinning, per_block)
            ranks = np.stack([rng.integers(0, n - pos) for rng in rngs], axis=1)
            at, at_d = blocks.sites(_distinct_sites(ranks, block, pos), block, pos, np.diff(bounds))
            moves = np.stack([rng.normal(0.0, 1.0, m) for rng in rngs], axis=1)
            thr = _accept_threshold(beta, np.stack([rng.random(m) for rng in rngs], axis=1))
            dx = scale * moves
            accs = np.empty((m, rows), dtype=bool)
            # the burn-in steps of this chunk, and the first step whose
            # accepts are not yet in window_acc
            burn, lo = min(m, max(0, burn_in - done)), 0
            for a, b in zip(bounds[:-1], bounds[1:]):
                step(w, at[a:b], at_d[a:b], dx[a:b], thr[a:b], accs[a:b])
                g = done + b
                if b <= burn and g % ADAPT_WINDOW == 0:
                    rate = (window_acc + accs[lo:b].sum(axis=0)) / ADAPT_WINDOW
                    scale = np.where(rate > 0.5, scale * 1.3, np.where(rate < 0.3, scale / 1.3, scale))
                    window_acc[:], lo = 0, b
                    np.multiply(scale, moves[b:], out=dx[b:])
                if g % AUDIT_INTERVAL == 0:
                    for r, V in enumerate(Vs):
                        w_true = energy(Configuration(pts[r]), V)
                        gap, size = abs(w[r] - w_true), max(1.0, abs(w_true))
                        drift[r] = max(drift[r], gap / size)
                        if gap > AUDIT_RTOL * size:
                            raise RuntimeError(
                                f"energy cache of chain {chain_of[r]} drifted: cached {float(w[r])!r} vs exact {w_true!r}"
                            )
                        w[r] = w_true
                if g > burn_in and (g - burn_in) % thinning == 0:
                    kept = (g - burn_in) // thinning - 1
                    samples[:, kept] = pts
                    energies[:, kept] = w
            window_acc += accs[lo:burn].sum(axis=0)
            accepted += accs[burn:].sum(axis=0)
            done += m
            # free the chunk's arrays before the next chunk draws its own
            del ranks, at, at_d, moves, thr, dx, accs
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
        f_n_trace = _next_order(energies, n, consts.mean_field_energy)[2]
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
