"""The benchmark's workloads: inputs drawn from the seed, references, jobs.

A workload builder runs at set-up. It draws every random input from the
benchmark seed, computes the reference values the outputs are checked
against (from `oracles`, never from loggas), and returns the job list
that one pass runs. Each job calls into loggas inside `tracer.span`
blocks named `layer.function`, checks what comes back, and returns named
observations. A failed check raises `CheckFailed`; a failed statistical
test raises `StatisticalMiss`, which the runner may repeat once on a
fresh random stream (see `worker.run_job`).

Pass/fail tolerances are the ones `loggas.verify` already uses: 1e-8 sup
norm for Fekete sets, 1e-6 and 1e-5 relative for n = 2 and n = 3
quadrature, 1 percent for the field quadrature, 1e-12 for closed forms,
1e-6 relative for gradients, 2e-2 and 1e-3 for the equilibrium density
and residual, R-hat <= 1.1 and 3 standard errors for sampler means.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

LAYERS = ("hamiltonian", "fekete", "sampler", "partition", "field", "renorm", "model")

# sampler run lengths shared by the gibbs configs, as in `verify --fast`
STEPS, BURN_IN, THINNING = 20_000, 4_000, 50


class CheckFailed(Exception):
    """An output missed its reference."""


class StatisticalMiss(CheckFailed):
    """A sampler statistic fell outside its 3-standard-error band or R-hat gate."""


@dataclass
class Job:
    name: str
    run: Callable[[int], dict]  # attempt number -> observations
    e2e: str | None = None  # named end-to-end metric this job's time feeds
    traced_only: bool = False  # part of traced runs only, never of wall_s


@dataclass
class Context:
    loggas: object
    tracer: object
    seed: int
    shared: dict = field(default_factory=dict)

    def seed_for(self, tag: str, attempt: int = 0) -> int:
        """A 32-bit seed for one input, fixed by the benchmark seed and the tag."""
        ss = np.random.SeedSequence([self.seed, attempt, zlib.crc32(tag.encode())])
        return int(ss.generate_state(1)[0])

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng(self.seed_for(tag))


def _require(ok: bool, message: str, kind=CheckFailed) -> None:
    if not ok:
        raise kind(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _quadratic(x):
    return 0.5 * x * x


# ---------------------------------------------------------------------------
# one tiny call per layer: the set-up warm-up, and the first jobs of a pass


def probe_jobs(ctx: Context) -> list[Job]:
    L, tr = ctx.loggas, ctx.tracer
    V = L.quadratic()
    x8 = np.sort(ctx.rng("probe.hamiltonian").normal(0.0, 1.0, 8))
    cfg8 = L.Configuration(x8)
    w8 = oracles.energy(x8, _quadratic(x8))
    fek8 = oracles.quadratic_fekete(8)
    q16 = oracles.semicircle_quantiles(16)
    mehta4 = oracles.mehta_log_z(4, 2.0)
    lat4 = L.lattice(4)
    lat2 = L.make_field(L.lattice(2))
    mu = L.semicircle_equilibrium()
    xs = np.linspace(0.1, 1.9, 7)
    ys = np.full(7, 0.7)

    def hamiltonian(_):
        with tr.span("hamiltonian.energy", "n8"):
            w = L.energy(cfg8, V)
        _require(_rel(w, w8) <= 1e-12, f"energy {w!r} vs {w8!r}")
        return {}

    def fekete(_):
        with tr.span("fekete.minimize", "n8"):
            res = L.minimize(8, V, seed=ctx.seed_for("probe.fekete"), multistart=1)
        gap = float(np.max(np.abs(res.config.points - fek8)))
        _require(gap <= 1e-8, f"n=8 Fekete gap {gap:.2e}")
        return {}

    def sampler(attempt):
        cfg = L.SamplerConfig(n=4, beta=2.0, V=V, steps=400, burn_in=100, thinning=10, chains=1,
                              seed=ctx.seed_for("probe.sampler", attempt))
        with tr.span("sampler.run", "n4"):
            stats = L.run(cfg)
        s = stats.samples
        _require(s.shape == (40, 4) and bool(np.all(np.diff(s, axis=1) > 0)), "bad n=4 samples")
        return {}

    def partition(_):
        with tr.span("partition.mehta_log_z", "n4"):
            z = L.mehta_log_z(4, 2.0)
        _require(_rel(z, mehta4) <= 1e-12, f"mehta_log_z(4, 2) {z!r} vs {mehta4!r}")
        return {}

    def field_(_):
        with tr.span("field.field", "lattice2"):
            ex, ey = lat2.field(xs, ys)
            mex, mey = lat2.field(xs, -ys)
        defect = float(max(np.max(np.abs(mex - ex)), np.max(np.abs(mey + ey))))
        _require(defect <= 1e-10, f"mirror defect {defect:.2e}")
        return {}

    def renorm(_):
        with tr.span("renorm.periodic_w", "lattice4"):
            w = L.periodic_w(lat4)
        _require(abs(w - oracles.LATTICE_W) <= 1e-12, f"lattice(4) w = {w!r}")
        return {}

    def model(_):
        with tr.span("model.quantiles", "n16"):
            q = mu.quantiles(16)
        _require(float(np.max(np.abs(q - q16))) <= 1e-8, "semicircle quantiles off")
        return {}

    fns = dict(hamiltonian=hamiltonian, fekete=fekete, sampler=sampler, partition=partition,
               field=field_, renorm=renorm, model=model)
    return [Job(f"probe.{layer}", fns[layer]) for layer in LAYERS]


# ---------------------------------------------------------------------------
# ground-state: fekete and hamiltonian


def ground_state(ctx: Context) -> list[Job]:
    L, tr = ctx.loggas, ctx.tracer
    V = L.quadratic()
    jobs = []

    def minimize_job(n):
        ref = oracles.quadratic_fekete(n)

        def run(_):
            with tr.span("fekete.minimize", f"n{n}"):
                res = L.minimize(n, V, seed=ctx.seed_for(f"minimize.n{n}"), multistart=1)
            gap = float(np.max(np.abs(res.config.points - ref)))
            _require(res.converged and gap <= 1e-8, f"n={n}: converged={res.converged}, gap {gap:.2e}")
            return {f"fekete.iterations.n{n}": res.iterations,
                    f"fekete.accepted_steps.n{n}": len(res.energy_trace) - 1,
                    f"fekete.oracle_gap.n{n}": gap}

        return Job(f"minimize.n{n}", run, "fekete_n512_s" if n == 512 else None)

    for n in (64, 256, 512):
        jobs.append(minimize_job(n))

    def energy_gradient_job(n, calls=5):
        x = np.sort(ctx.rng(f"hamiltonian.n{n}").normal(0.0, 1.0, n))
        cfg = L.Configuration(x)
        w_ref = oracles.energy(x, _quadratic(x))
        g_ref = oracles.gradient(x, x)

        def run(_):
            for _ in range(calls):
                with tr.span("hamiltonian.energy", f"n{n}"):
                    w = L.energy(cfg, V)
                with tr.span("hamiltonian.gradient", f"n{n}"):
                    g = L.gradient(cfg, V)
                _require(_rel(w, w_ref) <= 1e-12, f"energy n={n}: {w!r} vs {w_ref!r}")
                err = float(np.max(np.abs(g - g_ref)) / np.max(np.abs(g_ref)))
                _require(err <= 1e-6, f"gradient n={n}: relative error {err:.2e}")
            return {}

        return Job(f"energy_gradient.n{n}", run)

    for n in (256, 1024):
        jobs.append(energy_gradient_job(n))

    mu = L.semicircle_equilibrium()
    q_ref = oracles.semicircle_quantiles(1024)

    def quantiles(_):
        with tr.span("model.quantiles", "n1024"):
            q = mu.quantiles(1024)
        err = float(np.max(np.abs(q - q_ref)))
        _require(err <= 1e-8, f"semicircle quantiles off by {err:.2e}")
        return {}

    jobs.append(Job("quantiles.n1024", quantiles))
    return jobs


# ---------------------------------------------------------------------------
# gibbs: the Metropolis sampler on the quadratic model


def _three_se(per_chain: np.ndarray, ref: float) -> float:
    """(mean - ref) in units of the standard error of the chain means, as in verify."""
    m = per_chain.mean(axis=1)
    return float((m.mean() - ref) / (m.std(ddof=1) / math.sqrt(len(m))))


def gibbs(ctx: Context) -> list[Job]:
    L, tr = ctx.loggas, ctx.tracer
    V = L.quadratic()
    mass = float(oracles.semicircle_cdf(1.0) - oracles.semicircle_cdf(-1.0))

    def config(tag, n, beta, chains, attempt):
        return L.SamplerConfig(n=n, beta=beta, V=V, steps=STEPS, burn_in=BURN_IN, thinning=THINNING,
                               chains=chains, seed=ctx.seed_for(f"sampler.{tag}", attempt),
                               windows=((0.0, float(n)),))

    def sampler_job(tag, n, beta, chains):
        def run(attempt):
            cfg = config(tag, n, beta, chains, attempt)
            with tr.span("sampler.run", tag):
                stats = L.run(cfg)
            steps = chains * (STEPS + BURN_IN)
            counts = stats.count_traces[(0.0, float(n))].reshape(chains, -1)
            count_z = _three_se(counts, n * mass)
            obs = {f"sampler.r_hat.{tag}": stats.r_hat,
                   f"sampler.acceptance.{tag}": stats.acceptance,
                   f"sampler.chain_steps.{tag}": steps,
                   f"sampler.count_z.{tag}": count_z,
                   "chain_steps": steps}
            if tag == "n32_b2":
                ctx.shared["n32_b2"] = (attempt, stats.samples)
            _require(stats.r_hat <= 1.1, f"{tag}: R-hat {stats.r_hat:.4f}", StatisticalMiss)
            if beta == 2.0 and n == 32:
                _require(abs(count_z) <= 3.0, f"{tag}: window count {count_z:+.2f} SE off", StatisticalMiss)
            if beta != 2.0:
                # n mu([-1, 1]) is the large-n count; at beta = 20 the gas has
                # crystallized onto the Fekete count, so check the exact virial
                # identity for sum x^2 instead
                sum_sq = (stats.samples ** 2).sum(axis=1).reshape(chains, -1)
                z = _three_se(sum_sq, oracles.sum_sq_mean(n, beta))
                obs[f"sampler.sum_sq_z.{tag}"] = z
                _require(abs(z) <= 3.0, f"{tag}: sum x^2 {z:+.2f} SE off", StatisticalMiss)
            return obs

        return Job(f"sampler.{tag}", run)

    def threads_job(_):
        if "n32_b2" not in ctx.shared:
            raise CheckFailed("the threads=1 run of n32_b2 did not complete")
        attempt, samples = ctx.shared.pop("n32_b2")
        with tr.span("sampler.run", "n32_b2_t2"):
            stats = L.run(config("n32_b2", 32, 2.0, 8, attempt), threads=2)
        _require(np.array_equal(stats.samples, samples), "threads=2 changed the samples")
        return {"chain_steps": 8 * (STEPS + BURN_IN)}

    # The threads=2 rerun feeds only sampler.thread_speedup. Its time swings
    # by a third with the load on the second core, which the speed meter
    # cannot see from the first, so it stays out of untraced runs and wall_s.
    return [
        sampler_job("n32_b2", 32, 2.0, 8),
        Job("sampler.n32_b2_t2", threads_job, traced_only=True),
        sampler_job("n128_b2", 128, 2.0, 4),
        sampler_job("n32_b20", 32, 20.0, 8),
    ]


# ---------------------------------------------------------------------------
# confinement: non-quadratic V through model, fekete and partition


def confinement(ctx: Context) -> list[Job]:
    L, tr = ctx.loggas, ctx.tracer
    potentials = (
        ("quartic", L.quartic(), lambda x: 0.25 * x ** 4, lambda x: x ** 3),
        ("double_well", L.double_well(), lambda x: 0.25 * x ** 4 - x * x, lambda x: x ** 3 - 2.0 * x),
    )
    jobs = []

    def equilibrium_job(name, V, v):
        R = V.growth_check_radius
        grid = np.linspace(-R, R, 1500)

        def run(_):
            with tr.span("model.solve_equilibrium", f"{name}_M1500"):
                mu = L.solve_equilibrium(V, grid)
            with tr.span("model.model_constants", name):
                consts = L.model_constants(mu, V)
            resid = oracles.equilibrium_residual(grid, mu.weights, v(grid))
            _require(resid <= 1e-3, f"{name}: equilibrium residual {resid:.2e}")
            _require(all(map(math.isfinite, (consts.c, consts.mean_field_energy, consts.alpha))),
                     f"{name}: non-finite constants {consts}")
            return {}

        return Job(f"equilibrium.{name}", run)

    def minimize_job(name, V, dv, n=128):
        def run(_):
            with tr.span("fekete.minimize", f"{name}_n{n}"):
                res = L.minimize(n, V, seed=ctx.seed_for(f"minimize.{name}"), multistart=1)
            x = res.config.points
            g = float(np.max(np.abs(oracles.gradient(x, dv(x)))))
            _require(res.converged and g <= 1e-10 * n, f"{name}: converged={res.converged}, |grad| {g:.2e}")
            return {f"fekete.iterations.{name}_n{n}": res.iterations}

        return Job(f"minimize.{name}_n{n}", run)

    for name, V, v, dv in potentials:
        jobs.append(equilibrium_job(name, V, v))
    for name, V, v, dv in potentials:
        jobs.append(minimize_job(name, V, dv))

    log_z = oracles.quartic_log_z_n2_beta2()

    def quadrature(_):
        with tr.span("partition.quadrature_log_z", "quartic_n2"):
            q = L.quadrature_log_z(2, 2.0, L.quartic())
        _require(_rel(q, log_z) <= 1e-6, f"quartic n=2 log Z {q!r} vs {log_z!r}")
        return {}

    thermo_grid, thermo_chains = 8, 2

    def thermo(attempt):
        cfg = L.SamplerConfig(n=2, beta=2.0, V=L.quartic(), steps=STEPS, burn_in=BURN_IN, thinning=5,
                              chains=thermo_chains, seed=ctx.seed_for("thermo", attempt))
        with tr.span("partition.thermo_log_z", "quartic_n2"):
            est, err = L.thermo_log_z(2, 2.0, L.quartic(), sampler_cfg=cfg, grid=thermo_grid)
        z = (est - log_z) / err
        _require(abs(z) <= 3.0, f"thermo log Z {z:+.2f} error bars off", StatisticalMiss)
        return {"partition.thermo_z.quartic_n2": z,
                "chain_steps": thermo_grid * thermo_chains * (STEPS + BURN_IN)}

    jobs.append(Job("quadrature_log_z.quartic_n2", quadrature))
    jobs.append(Job("thermo_log_z.quartic_n2", thermo))
    return jobs


# ---------------------------------------------------------------------------
# oracles: the independent routes behind the cross-checks


# periods of the random field configurations; fixed so every seed costs the same
RANDOM_PERIODS = (4, 8, 12)
# smallest circular gap; above 0.255 the charge patches all have one size
RANDOM_MIN_GAP = 0.3


def oracle_routes(ctx: Context) -> list[Job]:
    L, tr = ctx.loggas, ctx.tracer
    jobs = []

    def quadrature_job(n, beta):
        tag = "n2" if n == 2 else f"n{n}_b{beta:g}"
        ref = oracles.mehta_log_z(n, beta)
        tol = 1e-6 if n == 2 else 1e-5

        def run(_):
            with tr.span("partition.quadrature_log_z", tag):
                q = L.quadrature_log_z(n, beta)
            err = _rel(q, ref)
            _require(err <= tol, f"log Z(n={n}, beta={beta:g}) relative error {err:.2e}")
            return {} if n == 2 else {f"partition.quadrature_rel_err.{tag}": err}

        return Job(f"quadrature_log_z.n{n}_b{beta:g}", run, "log_z_n3_s" if n == 3 else None)

    for beta in (0.5, 1.0, 2.0, 4.0):
        jobs.append(quadrature_job(2, beta))
    jobs.append(quadrature_job(3, 2.0))

    def periodic_config(tag, N):
        rng = ctx.rng(f"field.{tag}")
        while True:
            pts = oracles.random_periodic(rng, N, RANDOM_MIN_GAP)
            # as in verify: keep |w| away from zero so a relative error means something
            if abs(oracles.periodic_w(N, pts)) >= 0.5:
                return L.PeriodicConfig(N, pts)

    def field_job(name, tag, cfg):
        w_ref = oracles.periodic_w(cfg.period, cfg.points)

        def run(_):
            with tr.span("renorm.periodic_w", tag):
                w = L.periodic_w(cfg)
            _require(abs(w - w_ref) <= 1e-12 * max(1.0, abs(w_ref)), f"periodic_w {w!r} vs {w_ref!r}")
            with tr.span("field.w_quadrature", tag):
                wq = L.w_quadrature(L.make_field(cfg))
            err = _rel(wq, w)
            _require(err <= 0.01, f"{tag}: field quadrature off by {err:.2%}")
            return {"field.rel_err_max": err}

        return Job(f"w_quadrature.{name}", run, "w_quadrature_s")

    jobs.append(field_job("lattice8", "lattice8", L.lattice(8)))
    for N in RANDOM_PERIODS:
        jobs.append(field_job(f"random_N{N}", "random", periodic_config(f"N{N}", N)))

    cfg16 = periodic_config("N16", 16)
    w16 = oracles.periodic_w(16, cfg16.points)

    def periodic_w16(_):
        with tr.span("renorm.periodic_w", "N16"):
            w = L.periodic_w(cfg16)
        _require(abs(w - w16) <= 1e-12 * max(1.0, abs(w16)), f"periodic_w N=16 {w!r} vs {w16!r}")
        return {}

    jobs.append(Job("periodic_w.N16", periodic_w16))

    grid = np.linspace(-3.0, 3.0, 2000)
    dens_ref = oracles.semicircle_density(grid)

    def equilibrium(_):
        V = L.quadratic()
        with tr.span("model.solve_equilibrium", "quadratic_M2000"):
            mu = L.solve_equilibrium(V, grid)
        dens_err = float(np.max(np.abs(mu.weights / (grid[1] - grid[0]) - dens_ref)))
        resid = oracles.equilibrium_residual(grid, mu.weights, _quadratic(grid))
        _require(dens_err <= 2e-2 and resid <= 1e-3,
                 f"semicircle density error {dens_err:.4f}, residual {resid:.2e}")
        return {"model.density_err.quadratic_M2000": dens_err}

    jobs.append(Job("equilibrium.quadratic_M2000", equilibrium))
    return jobs


def derived(metrics: dict) -> dict:
    """Ratios of calibrated span times, once a traced run has them."""
    out = {}
    for key, steps in metrics.items():
        tag = key.removeprefix("sampler.chain_steps.")
        if tag != key and f"sampler.run_s.{tag}" in metrics:
            out[f"sampler.chain_steps_per_s.{tag}"] = steps / metrics[f"sampler.run_s.{tag}"]
    if "sampler.run_s.n32_b2_t2" in metrics:
        out["sampler.thread_speedup.n32_b2"] = metrics["sampler.run_s.n32_b2"] / metrics["sampler.run_s.n32_b2_t2"]
    return out


WORKLOADS = {
    "ground-state": ground_state,
    "gibbs": gibbs,
    "confinement": confinement,
    "oracles": oracle_routes,
}
