"""Acceptance cross-checks: every closed form against an independent route.

Each check returns a CheckResult, named after its function and timed by
`_check`; `run_all` executes the full battery in order. The same functions back the `loggas verify` subcommand and the
acceptance test suite, so each check has exactly one implementation.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fekete as fekete_mod
from . import field as field_mod
from . import model as model_mod
from . import partition as partition_mod
from . import renorm as renorm_mod
from . import sampler as sampler_mod
from .hamiltonian import Configuration, _next_order, energy, gradient

#: min W = -pi log 2 pi, the energy of the integer lattice
LATTICE_W = renorm_mod.lattice_min(1.0)
#: largest relative error of the field quadrature against the closed-form W
FIELD_RTOL = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(fn):
    """Make `fn`, which returns (passed, detail), a timed check returning a
    CheckResult named after it: check_lattice_value -> "lattice-value"."""
    name = fn.__name__.removeprefix("check_").replace("_", "-")

    @functools.wraps(fn)
    def check(*args, **kwargs) -> CheckResult:
        t0 = time.perf_counter()
        passed, detail = fn(*args, **kwargs)
        return CheckResult(name, passed, detail, time.perf_counter() - t0)

    return check


def random_periodic_points(rng, N: int, min_gap: float = 0.04) -> np.ndarray:
    """Sorted uniform points in [0, N) with a circular gap floor."""
    for _ in range(500):
        pts = np.sort(rng.uniform(0.0, N, N))
        gaps = np.diff(pts, append=pts[0] + N)
        if gaps.min() > min_gap:
            return pts
    raise RuntimeError("could not draw a well-separated configuration")


def field_cases(rng, k: int) -> list[tuple[str, renorm_mod.PeriodicConfig]]:
    """Named configurations for the field quadrature: the lattices N = 1,
    2 and 8, then k random ones of period 2..16, each kept only when
    |w| >= 0.5, so that the relative error against w is meaningful."""
    if k < 0:
        raise ValueError(f"the number of random configurations must be at least 0, got {k}")
    cases = [(f"lattice-{N}", renorm_mod.lattice(N)) for N in (1, 2, 8)]
    while len(cases) < 3 + k:
        N = int(rng.integers(2, 17))
        cfg = renorm_mod.PeriodicConfig(N, random_periodic_points(rng, N))
        if abs(renorm_mod.periodic_w(cfg)) >= 0.5:
            cases.append((f"random-{len(cases) - 3}", cfg))
    return cases


def field_errors(cases) -> list[tuple[str, int, float, float, float, float, float]]:
    """(name, N, w, w_quad, eta, y_cut, rel) for each named configuration:
    the closed form w = periodic_w against the field quadrature w_quad at
    eta = 1e-3 and y_cut = max(N, 4), and their relative error."""
    rows = []
    for name, cfg in cases:
        w = renorm_mod.periodic_w(cfg)
        eta, y_cut = 1e-3, float(max(cfg.period, 4.0))
        w_quad = field_mod.w_quadrature(field_mod.make_field(cfg), eta=eta, y_cut=y_cut)
        rows.append((name, cfg.period, w, w_quad, eta, y_cut, abs(w_quad - w) / abs(w)))
    return rows


# ---------------------------------------------------------------------------
# criteria


@_check
def check_lattice_value() -> tuple[bool, str]:
    worst = 0.0
    for N in range(1, 65):
        w = renorm_mod.periodic_w(renorm_mod.lattice(N))
        worst = max(worst, abs(w - LATTICE_W))
    return worst <= 1e-12, f"max |w_N - (-pi log 2pi)| = {worst:.2e} over N=1..64"


@_check
def check_lattice_optimality() -> tuple[bool, str]:
    rng = np.random.default_rng(20240)
    min_excess = math.inf
    for _ in range(1000):
        N = int(rng.integers(2, 65))
        pts = random_periodic_points(rng, N, 1e-9 * N)
        w = renorm_mod.periodic_w(renorm_mod.PeriodicConfig(N, pts))
        min_excess = min(min_excess, w - LATTICE_W)
    if min_excess < -1e-12:
        return False, f"random config beat the lattice by {-min_excess:.2e}"
    min_pert = math.inf
    for N in (2, 8, 32):
        base = np.arange(N, dtype=float)
        for k in range(5):
            v = rng.normal(size=N)
            v -= v.mean()  # pure translations leave w unchanged
            v *= 1e-2 / np.abs(v).max()
            pts = np.sort((base + v) % N)
            w = renorm_mod.periodic_w(renorm_mod.PeriodicConfig(N, pts))
            min_pert = min(min_pert, w - LATTICE_W)
        single = base.copy()
        single[0] += 1e-2
        w = renorm_mod.periodic_w(renorm_mod.PeriodicConfig(N, single))
        min_pert = min(min_pert, w - LATTICE_W)
    ok = min_pert > 0.0
    return ok, (
        f"1000 random configs all >= lattice - 1e-12 (min excess {min_excess:.2e}); "
        f"1e-2 perturbations raise w by >= {min_pert:.2e}"
    )


@_check
def check_field_equivalence(fast: bool = False) -> tuple[bool, str]:
    rows = field_errors(field_cases(np.random.default_rng(1137), 5 if fast else 20))
    worst = max(row[-1] for row in rows)
    return worst <= FIELD_RTOL, f"max relative quadrature error {worst:.2%} over {len(rows)} configs"


def ground_state_ladder(ns):
    """The Fekete ladder of x^2/2: one start of `minimize` per n, never
    jittered as x^2/2 is convex, so no seed enters. Returns, per n, the
    result, the Hermite-root oracle, sup |gradient| at the oracle, the exact
    f_n (breakdown's f_n of `hermite_energy`) and the solve's seconds."""
    V = model_mod.quadratic()
    F = model_mod.equilibrium_for(V)[1].mean_field_energy
    rows = []
    for n in ns:
        t0 = time.perf_counter()
        res = fekete_mod.minimize(n, V, multistart=1)
        seconds = time.perf_counter() - t0
        oracle = fekete_mod.hermite_oracle(n)
        rows.append((res, oracle, float(np.abs(gradient(oracle, V)).max()),
                     _next_order(fekete_mod.hermite_energy(n), n, F)[2], seconds))
    return rows


@_check
def check_fekete_oracle() -> tuple[bool, str]:
    ladder = ground_state_ladder([*range(2, 65), 128, 256, 512, 1024])
    worst_gap = max(float(np.abs(res.config.points - oracle.points).max()) for res, oracle, *_ in ladder)
    worst_grad = max(grad / res.config.n for res, _, grad, *_ in ladder)
    ok = worst_gap <= 1e-8 and worst_grad <= 1e-9
    return ok, (
        f"sup |minimizer - scaled Hermite roots| = {worst_gap:.2e} (tol 1e-8), "
        f"grad/n at oracle = {worst_grad:.2e} (tol 1e-9), n=2..64,128,256,512,1024"
    )


@_check
def check_ground_state_limit() -> tuple[bool, str]:
    """|f_n| at minimizers approaches alpha = 1/2 monotonically, and f_n
    is the exact f_n of the Hermite zeros (`fekete.hermite_energy`).

    The distance ||f_n| - 1/2| must decrease strictly along
    n in {16, 32, ..., 1024} and end below 0.15, and |f_n - exact f_n|
    stay within 1e-11 (8 ulp of w_n is 1.4e-12 in f_n at n = 1024). The
    sign of f_n itself is pinned separately in the regression suite.
    """
    ladder = ground_state_ladder((16, 32, 64, 128, 256, 512, 1024))
    vals = [res.breakdown.f_n for res, *_ in ladder]
    dists = [abs(abs(v) - 0.5) for v in vals]
    err = max(abs(res.breakdown.f_n - exact) for res, _, _, exact, _ in ladder)
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    ok = decreasing and dists[-1] < 0.15 and err <= 1e-11
    return ok, (
        f"f_n = {', '.join(f'{v:.6f}' for v in vals)}; "
        f"||f_n|-1/2| = {', '.join(f'{d:.6f}' for d in dists)} strictly decreasing: {decreasing}; "
        f"max |f_n - exact f_n| = {err:.1e} (tol 1e-11)"
    )


@_check
def check_partition_oracles() -> tuple[bool, str]:
    worst2 = 0.0
    for beta in (0.5, 1.0, 2.0, 4.0):
        m = partition_mod.mehta_log_z(2, beta)
        q = partition_mod.quadrature_log_z(2, beta)
        worst2 = max(worst2, abs(q - m) / abs(m))
    worst3 = 0.0
    for beta in (1.0, 2.0):
        m = partition_mod.mehta_log_z(3, beta)
        q = partition_mod.quadrature_log_z(3, beta)
        worst3 = max(worst3, abs(q - m) / abs(m))
    exact = abs(partition_mod.mehta_log_z(2, 2.0) - math.log(math.pi))
    ok = worst2 <= 1e-6 and worst3 <= 1e-5 and exact <= 1e-10
    return ok, (
        f"n=2 rel err {worst2:.2e} (tol 1e-6), n=3 rel err {worst3:.2e} (tol 1e-5), "
        f"|log Z(2,2) - log pi| = {exact:.2e}"
    )


@_check
def check_next_order_bounds() -> tuple[bool, str]:
    reps = partition_mod.next_order_sweep((8, 16, 32, 64, 128, 256, 512), (2.0,))
    worst = max(abs(rep.next_order) for rep in reps)
    (rep,) = partition_mod.next_order_sweep((256,), (1e4,))
    gap = abs(abs(rep.next_order) - 0.25)
    ok = worst <= 1.0 and gap <= 0.05
    return ok, (
        f"max |next_order| = {worst:.4f} at beta=2 (bound 1.0); "
        f"|next_order| at n=256, beta=1e4 is {abs(rep.next_order):.4f} (target 0.25 +/- 0.05)"
    )


@_check
def check_gibbs_macroscopics(fast: bool = False) -> tuple[bool, str]:
    cfg = sampler_mod.SamplerConfig(
        n=32, beta=2.0, V=model_mod.quadratic(),
        steps=20_000 if fast else 100_000,
        burn_in=4_000 if fast else 10_000,
        thinning=50, chains=8, seed=71,
        windows=((0.0, 32.0),),
    )
    stats = sampler_mod.run(cfg)
    mu = model_mod.semicircle_equilibrium()
    expected = 32.0 * mu.interval_mass(-1.0, 1.0)
    means = stats.count_traces[(0.0, 32.0)].reshape(cfg.chains, -1).mean(axis=1)
    mean = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    ok = abs(mean - expected) <= 3.0 * se and stats.converged
    return ok, (
        f"count in [-1,1]: {mean:.4f} vs {expected:.4f} (3 sigma = {3 * se:.4f}); "
        f"R_hat = {stats.r_hat:.4f} (<= 1.1)"
    )


def crystallization_ladder(n: int, betas, seeds: int, steps: int):
    """The beta ladder of the crystallization experiment on x^2/2, run in one
    lockstep array: for each beta, `seeds` runs seeded 101 (s + 1), each with
    a burn-in of max(2000, steps // 6), thinning 25 and 2 chains. Returns the
    (config, statistics, spacing variance) of each run, beta-major, and for
    each beta the mean spacing variance over its seeds."""
    V = model_mod.quadratic()
    cfgs = [
        sampler_mod.SamplerConfig(n=n, beta=beta, V=V, steps=steps, burn_in=max(2_000, steps // 6),
                                  thinning=25, chains=2, seed=101 * (s + 1))
        for beta in betas
        for s in range(seeds)
    ]
    runs = [(cfg, st, float(np.var(st.spacing_samples))) for cfg, st in zip(cfgs, sampler_mod.run_many(cfgs))]
    means = [float(np.mean([var for *_, var in runs[i:i + seeds]])) for i in range(0, len(runs), seeds)]
    return runs, means


@_check
def check_crystallization(fast: bool = False) -> tuple[bool, str]:
    _, means = crystallization_ladder(32, (1.0, 5.0, 20.0, 50.0), 5, 10_000 if fast else 30_000)
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    return decreasing, (
        "mean spacing variance over 5 seeds at beta=1,5,20,50: "
        + ", ".join(f"{v:.4f}" for v in means)
        + f"; strictly decreasing: {decreasing}"
    )


@_check
def check_equilibrium_solver() -> tuple[bool, str]:
    V = model_mod.quadratic()
    grid = np.linspace(-3.0, 3.0, 2000)
    mu = model_mod.solve_equilibrium(V, grid, tol=1e-3)
    exact = model_mod.semicircle_equilibrium()
    sup = float(np.abs(mu.density(grid) - exact.density(grid)).max())
    # the solver's residual is on cell averages of U (its kernel K w);
    # recompute it from the point values of U at the nodes of the
    # numerical support, against the c that K w gives
    c = model_mod.model_constants(mu, V).c
    on = mu.weights > 1e-10
    U = model_mod.log_potential(mu, grid[on])
    resid = float(np.abs(U + 0.5 * V(grid[on]) - c).max())
    ok = sup <= 2e-2 and resid <= 1e-3
    return ok, f"sup density error {sup:.4f} (tol 0.02), equilibrium residual {resid:.2e} (tol 1e-3)"


@_check
def check_gradient_and_field() -> tuple[bool, str]:
    rng = np.random.default_rng(99)
    V_pool = [model_mod.quadratic(), model_mod.quartic(), model_mod.double_well()]
    worst_fd = 0.0
    for k in range(50):
        n = int(rng.integers(3, 13))
        for _ in range(200):
            x = np.sort(rng.normal(0.0, 1.2, n))
            if np.diff(x).min() > 0.02:
                break
        V = V_pool[k % 3]
        cfg = Configuration(x)
        g = gradient(cfg, V)
        for i in rng.choice(n, size=3, replace=False):
            h = 1e-5 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (energy(Configuration(np.sort(xp)), V) - energy(Configuration(np.sort(xm)), V)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - g[i]) / max(abs(g[i]), 1e-8))
    if worst_fd > 1e-6:
        return False, f"gradient FD relative error {worst_fd:.2e} > 1e-6"

    worst_mirror = 0.0
    worst_div = 0.0
    decay_ok = True
    for cfg in (
        renorm_mod.lattice(4),
        renorm_mod.PeriodicConfig(6, random_periodic_points(rng, 6)),
        renorm_mod.PeriodicConfig(12, random_periodic_points(rng, 12)),
    ):
        f = field_mod.make_field(cfg)
        N = cfg.period
        xs = rng.uniform(0.0, N, 100)
        ys = rng.uniform(0.2, 2.5, 100) * rng.choice([-1.0, 1.0], 100)
        ex, ey = f.field(xs, ys)
        mex, mey = f.field(xs, -ys)
        scale = 1.0 + np.hypot(ex, ey)
        worst_mirror = max(
            worst_mirror,
            float(np.max(np.abs(mex - ex) / scale)),
            float(np.max(np.abs(mey + ey) / scale)),
        )
        h = 1e-5
        dist = np.min(
            np.abs((xs[:, None] - cfg.points[None, :] + N / 2) % N - N / 2), axis=1
        )
        keep = (dist > 0.25) & (np.abs(ys) > 0.2)
        exp_, _ = f.field(xs[keep] + h, ys[keep])
        exm_, _ = f.field(xs[keep] - h, ys[keep])
        _, eyp_ = f.field(xs[keep], ys[keep] + h)
        _, eym_ = f.field(xs[keep], ys[keep] - h)
        div = (exp_ - exm_) / (2 * h) + (eyp_ - eym_) / (2 * h)
        worst_div = max(worst_div, float(np.max(np.abs(div))))
        # decay envelope exp(-2 pi y / N), factor-2 slack for x oscillation
        xg = np.linspace(0.0, N, 40, endpoint=False)
        amp = []
        for y in (N, 1.5 * N, 2.0 * N):
            gx, gy = f.field(xg, np.full_like(xg, y))
            amp.append(np.hypot(gx, gy).max() * math.exp(2.0 * math.pi * y / N))
        decay_ok &= amp[1] <= 2.0 * amp[0] and amp[2] <= 2.0 * amp[0]
    ok = worst_mirror <= 1e-10 and worst_div <= 1e-4 and decay_ok
    return ok, (
        f"gradient FD {worst_fd:.2e} (tol 1e-6); mirror defect {worst_mirror:.2e}; "
        f"max |div E| {worst_div:.2e} (tol 1e-4); decay envelope holds: {decay_ok}"
    )


ALL_CHECKS = (
    check_lattice_value,
    check_lattice_optimality,
    check_field_equivalence,
    check_fekete_oracle,
    check_ground_state_limit,
    check_partition_oracles,
    check_next_order_bounds,
    check_gibbs_macroscopics,
    check_crystallization,
    check_equilibrium_solver,
    check_gradient_and_field,
)

_FAST_AWARE = {check_field_equivalence, check_gibbs_macroscopics, check_crystallization}


def run_all(fast: bool = False) -> list[CheckResult]:
    out = []
    for fn in ALL_CHECKS:
        out.append(fn(fast) if fast and fn in _FAST_AWARE else fn())
    return out
