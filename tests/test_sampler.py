import dataclasses
import decimal
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from loggas import (
    GasStatistics,
    SamplerConfig,
    blend,
    double_well,
    metropolis_accept,
    minimize,
    polynomial,
    quadratic,
    quartic,
    run,
    run_many,
)
from loggas.hamiltonian import Configuration, energy
from loggas.model import horner
from loggas.sampler import AUDIT_RTOL, _delta_energy, _tiled_columns

V2 = quadratic()


def test_accept_rules():
    assert metropolis_accept(-1.0, 2.0, 0.999999)
    assert metropolis_accept(0.0, 2.0, 0.999999)
    assert not metropolis_accept(math.inf, 2.0, 0.0)
    assert not metropolis_accept(math.nan, 2.0, 0.0)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.01, 100.0),
)
@example(moves=[(2.0**-52, 1.0 - 2.0**-53)], beta=0.75)  # exp(-(beta/2) delta) rounds to u, yet exceeds it
@example(moves=[(30.0, 0.0)], beta=50.0)  # delta past the u = 0 floor 2150 log(2) / beta
def test_accept_matches_rule(moves, beta):
    deltas, us = (np.array(col) for col in zip(*moves))
    got = metropolis_accept(deltas, beta, us).tolist()
    assert got == [metropolis_accept(delta, beta, u) for delta, u in moves]
    for ok, (delta, u) in zip(got, moves):
        assert _exact_accept(delta, beta, u) in (None, ok)


def _exact_accept(delta, beta, u):
    """u < min(1, exp(-(beta/2) delta)) decided at 50 digits from the exact
    values of the floats, as delta < T = -(2/beta) log u, with log 0 floored
    at -1075 log 2 where exp underflows to 0 (`metropolis_accept`). None
    when delta is within 8 ulp of T: the float threshold rounds three times
    (log, 2/beta and their product), so there the rule may go either way."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        T = -2 / D(beta) * (D(u).ln() if u > 0 else -1075 * D(2).ln())
        return None if abs(D(delta) - T) <= 8 * D(2) ** -52 * T else D(delta) < T


def test_proposal_onto_existing_point_rejected():
    # the one row moves its site 0 from -0.5 onto the point at 0.1; its flat
    # index is 0 in pts and d[0], and 3 in d[1]
    pts = np.array([[-0.5, 0.1, 0.9]])
    with np.errstate(divide="ignore"):
        delta = _delta_energy(pts, np.array([0, 3]), np.array([[[0.1]], [[-0.5]]]), np.empty((2, 1, 3)), V2)[0]
    assert delta == math.inf
    assert not metropolis_accept(delta, 2.0, 0.0)


def test_run_keeps_rows_sorted_and_energy_cache_exact():
    # 2,000 steps stay below the first energy audit, so every cached energy
    # is the sum of accepted deltas
    cfg = SamplerConfig(n=6, beta=2.0, V=V2, steps=2_000, burn_in=1, thinning=1, chains=1)
    out = run(cfg)
    assert np.all(np.diff(out.samples, axis=1) > 0)
    assert 0.0 < out.acceptance <= 1.0
    exact = np.mean([energy(Configuration(row), V2) for row in out.samples])
    assert out.mean_energy == pytest.approx(exact, rel=1e-10)
    assert np.array_equal(out.cache_drift, [0.0])


def test_detailed_balance_three_state_toy():
    # discrete chain driven by the same acceptance rule; transition counts
    # between each pair must balance within 3 sigma
    E = np.array([0.0, 0.7, 1.5])
    beta = 2.0
    rng = np.random.default_rng(12345)
    steps = 1_000_000
    others = np.array([[1, 2], [0, 2], [0, 1]])
    picks = rng.integers(0, 2, steps)
    us = rng.random(steps)
    # the proposal and its verdict at every step from each of the three
    # states, so that the walk itself only looks them up
    targets = others[:, picks]
    accepts = metropolis_accept(E[targets] - E[:, None], beta, us)
    targets, accepts = targets.tolist(), accepts.tolist()
    counts = [[0] * 3 for _ in range(3)]
    s = 0
    for k in range(steps):
        if accepts[s][k]:
            t = targets[s][k]
            counts[s][t] += 1
            s = t
    for i in range(3):
        for j in range(i + 1, 3):
            diff = abs(counts[i][j] - counts[j][i])
            sigma = math.sqrt(counts[i][j] + counts[j][i])
            assert diff <= 3.0 * sigma, (i, j, counts)


def test_single_particle_matches_gaussian():
    # n=1, beta=2, V=x^2/2: the marginal is exactly standard normal
    cfg = SamplerConfig(
        n=1,
        beta=2.0,
        V=V2,
        steps=100_000,
        burn_in=5_000,
        thinning=50,
        chains=2,
        seed=42,
    )
    xs = run(cfg).samples[:, 0]
    assert len(xs) == 4000
    _, p = sps.kstest(xs, "norm")
    assert p > 0.01


def _short_run(beta, seed):
    cfg = SamplerConfig(
        n=16,
        beta=beta,
        V=V2,
        steps=20_000,
        burn_in=4_000,
        thinning=20,
        chains=2,
        seed=seed,
    )
    return run(cfg)


def test_thermal_excess_above_ground_state():
    ground = minimize(16, V2, seed=0).breakdown.f_n
    hot = _short_run(2.0, 7)
    cold = _short_run(8.0, 7)
    assert np.mean(hot.f_n_trace) > ground
    assert np.mean(cold.f_n_trace) > ground
    # colder chain sits closer to the minimum
    assert np.mean(cold.f_n_trace) < np.mean(hot.f_n_trace)
    # and strays outside the equilibrium support less often
    assert np.mean(np.abs(cold.samples) > 2.0) < np.mean(np.abs(hot.samples) > 2.0)
    assert np.all(np.isfinite(hot.f_n_trace))
    assert np.all(hot.zeta_trace >= -1e-12)


def test_statistics_shapes_and_mass():
    out = _short_run(2.0, 3)
    assert out.samples.shape == (2 * 1000, 16)
    assert np.all(np.diff(out.samples, axis=1) > 0)
    assert out.converged == (out.r_hat <= 1.1)
    assert 0.0 < out.acceptance < 1.0


def test_runs_are_reproducible_and_thread_invariant():
    cfg = SamplerConfig(n=8, beta=2.0, V=V2, steps=4_000, burn_in=1_000, thinning=10, chains=2, seed=9)
    a = run(cfg)
    b = run(cfg)
    c = run(cfg, threads=2)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)
    assert a.mean_energy == b.mean_energy == c.mean_energy


def test_chains_do_not_depend_on_chain_count():
    # 10,500 steps cross a 4096-step chunk boundary and an energy audit
    cfg = SamplerConfig(n=8, beta=2.0, V=V2, steps=9_500, burn_in=1_000, thinning=10, chains=2, seed=4)
    two = run(cfg)
    five = run(cfg.replaced(chains=5))
    assert np.array_equal(five.samples[: len(two.samples)], two.samples)
    assert np.array_equal(five.step_scales[:2], two.step_scales)
    assert np.array_equal(five.chain_acceptance[:2], two.chain_acceptance)


def _assert_same_statistics(a: GasStatistics, b: GasStatistics):
    for f in dataclasses.fields(GasStatistics):
        if f.name == "steps_per_s":  # a wall-clock rate, not a function of the samples
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            assert all(np.array_equal(x[k], y[k]) for k in x), f.name
        else:
            assert np.array_equal(x, y), f.name


def test_configs_do_not_depend_on_ladder():
    # 10,500 steps cross a 4096-step chunk boundary and an energy audit; the
    # two blends of one pair sit apart, with a plain V between them
    Q = quartic()
    base = SamplerConfig(n=8, beta=2.0, V=V2, steps=9_500, burn_in=1_000, thinning=10, chains=2, seed=4)
    ladder = [
        base.replaced(V=blend(V2, Q, 0.25), windows=((0.0, 4.0),)),
        base.replaced(beta=5.0, chains=3, seed=11),
        base.replaced(beta=1.0, V=blend(V2, Q, 0.8), chains=1, seed=5,
                      windows=((0.5, 2.0), (0.0, 8.0))),
    ]
    together = run_many(ladder)
    assert len(together) == len(ladder)
    # one lockstep run, one rate
    assert len({stats.steps_per_s for stats in together}) == 1
    for cfg, stats in zip(ladder, together):
        _assert_same_statistics(stats, run(cfg))
        assert stats.cache_drift.shape == (cfg.chains,)
        assert np.all((stats.cache_drift >= 0.0) & (stats.cache_drift <= AUDIT_RTOL))


_LADDER_ROWS = st.one_of(
    st.sampled_from([V2, quartic(), double_well()]),
    st.tuples(st.sampled_from([V2, double_well()]), st.sampled_from([quartic(), double_well()]),
              st.floats(0.0, 1.0)),
    st.builds(lambda low, top: polynomial([*low, top]),
              st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(0.01, 2.0)),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_LADDER_ROWS, min_size=1, max_size=6), st.data())
def test_tiled_coefficients_give_each_rows_own_v(rows, data):
    # a (a, b, t) row is blend(a, b, t), whose coefficients are the blended ones
    Vs = []
    for row in rows:
        if isinstance(row, tuple):
            a, b, t = row
            ca, cb = (np.pad(V.coeffs, (0, 5 - len(V.coeffs))) for V in (a, b))
            row = blend(a, b, t)
            assert row.coeffs == tuple(np.trim_zeros((1.0 - t) * ca + t * cb, "b").tolist())
        Vs.append(row)
    # z = (xp, xi) of every row, as the lockstep step lays it out; padding a
    # row with zeros and adding another row's coefficient column that is
    # zero in this row leave its Horner pass exact (up to the sign of zero)
    m = len(Vs)
    z = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * m, max_size=2 * m))).reshape(2, m)
    v = horner(_tiled_columns(Vs), z.ravel())
    for r, V in enumerate(Vs):
        assert np.array_equal(v[[r, m + r]], V.eval(z[:, r])), V.label


def _digest(stats: GasStatistics) -> str:
    h = hashlib.sha256()
    for a in (stats.samples, stats.step_scales, stats.cache_drift):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_kernel_output_pinned():
    # 11,000 steps cross a 4096-step chunk boundary, two burn-in
    # adaptations and an energy audit. Any change to the step kernel's
    # arithmetic or to the order of its draws changes the digests, and so
    # does any change to the starts: the semicircle quantiles (every V
    # without a closed form starts from them too) and the Fekete set of
    # chain 0.
    Q = quartic()
    base = SamplerConfig(n=8, beta=2.0, V=V2, steps=10_000, burn_in=1_000, thinning=10, chains=2, seed=4)
    assert _digest(run(base)) == "23cc64233cf9d0899fea3955c6be776191d1a45ab30229997b74a93e594b3c6b"
    # one coefficient matrix: a quadratic row, padded with zeros, between
    # two quartic blends
    ladder = [
        base.replaced(V=blend(V2, Q, 0.25), chains=1, seed=11),
        base.replaced(beta=5.0, V=quadratic(), seed=7),
        base.replaced(beta=1.0, V=blend(V2, Q, 0.8), chains=1, seed=5),
    ]
    assert [_digest(s) for s in run_many(ladder)] == [
        "eb9fc9d17e689129a33bd800a2f4aae1ae225dffc4cc3169995f099d60df1487",
        "cb4e2c4652c9462776e64fd45cf0cffabb31f599417252ef26df676f4aadab08",
        "5557c007af67cbea2c3779a60ba249ce5295bfae5c61674348e263fde5dfac83",
    ]


def _accept_digest(stats: GasStatistics) -> str:
    h = hashlib.sha256(_digest(stats).encode())
    h.update(np.ascontiguousarray(stats.chain_acceptance, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_accept_counts_pinned():
    # burn-in 4,700 ends inside the second 4096-step chunk and 200 steps
    # into an adaptation window, so the burn-in and post-burn-in accept
    # counts split inside one chunk; the ladder gives each config its own
    # beta, and one config has a single chain
    base = SamplerConfig(n=8, beta=2.0, V=V2, steps=6_000, burn_in=4_700, thinning=10, chains=2, seed=4)
    assert _accept_digest(run(base)) == "3727c1786d8cfc7dbd0a67f15d17a249eb84b21fb2ced3c2f2e6313bad905548"
    ladder = [
        base.replaced(beta=5.0, seed=7),
        base.replaced(beta=0.5, V=quartic(), chains=1, seed=5),
        base.replaced(beta=20.0, chains=3, seed=11),
    ]
    assert [_accept_digest(s) for s in run_many(ladder)] == [
        "924043e54a88578125e2b47bffcaab2e7461c3892d838fad007b65024b53b219",
        "1fb7b355dbeb9e0a1efc5b6dfb4588c06f99535e4270c2cb75b8ac0a2c5059e1",
        "0505cc82aadf917c9d866687c4c9f5316fcad716d520d1c14ff4783ff52298ac",
    ]


@pytest.mark.parametrize("field", ["n", "steps", "burn_in", "thinning"])
def test_ladder_rejects_configs_of_other_shape(field):
    cfg = SamplerConfig(n=4, beta=2.0, V=V2, steps=100, burn_in=10, thinning=5, chains=1)
    with pytest.raises(ValueError):
        run_many([cfg, cfg.replaced(**{field: getattr(cfg, field) + 1})])


def test_acceptance_is_mean_of_chain_acceptance():
    out = _short_run(2.0, 3)
    assert out.chain_acceptance.shape == (2,)
    assert out.step_scales.shape == (2,)
    assert out.acceptance == np.mean(out.chain_acceptance)
    assert np.all((out.chain_acceptance > 0.0) & (out.chain_acceptance < 1.0))


def test_polynomial_half_x_squared_keeps_traces():
    cfg = SamplerConfig(n=8, beta=2.0, V=V2, steps=1_000, burn_in=500, thinning=10, chains=2, seed=6)
    a = run(cfg.replaced(V=polynomial([0.0, 0.0, 0.5])))
    b = run(cfg)
    assert a.f_n_trace.size == a.zeta_trace.size == len(a.samples) > 0
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.f_n_trace, b.f_n_trace)
    assert a.spacing_samples.size > 0
    assert np.array_equal(a.spacing_samples, b.spacing_samples)


def test_spacings_need_a_closed_form():
    # without mu0 the gaps cannot be unfolded, so like f_n and zeta they are empty
    stats = run(SamplerConfig(n=8, beta=2.0, V=quartic(), steps=1_000, burn_in=500, thinning=10,
                              chains=2, seed=6))
    assert len(stats.samples) > 0
    assert stats.spacing_samples.size == stats.f_n_trace.size == stats.zeta_trace.size == 0


def test_config_validation():
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            SamplerConfig(n=4, beta=beta, V=V2)
    with pytest.raises(ValueError):
        SamplerConfig(n=4, beta=1.0, V=V2, burn_in=0)
    with pytest.raises(ValueError):
        SamplerConfig(n=4, beta=1.0, V=V2, steps=40, thinning=50)


@pytest.mark.parametrize("window", [(0.0, 0.0), (0.0, -3.0), (0.0, math.nan), (0.0, math.inf),
                                    (math.nan, 1.0), (-math.inf, 1.0)])
def test_config_rejects_bad_windows(window):
    # a window of R <= 0 or NaN would count 0 in every sample
    with pytest.raises(ValueError):
        SamplerConfig(n=4, beta=1.0, V=V2, windows=((0.0, 4.0), window))


def test_config_rejects_no_particles():
    # caught where the config is built, before the window bounds divide by n
    with pytest.raises(ValueError, match="particle"):
        SamplerConfig(n=0, beta=1.0, V=V2, windows=((0.0, 4.0),))
