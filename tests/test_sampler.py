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
    minimize,
    polynomial,
    quadratic,
    quartic,
    run,
    run_many,
)
from loggas.hamiltonian import Configuration, energy
from loggas.model import horner
from loggas.sampler import AUDIT_RTOL, _accept_threshold, _Blocks, _distinct_sites, _row_columns

V2 = quadratic()


def _accepts(delta, beta, u):
    """The block kernel's accept rule: delta below the threshold of u."""
    return np.less(delta, _accept_threshold(beta, u))


def test_accept_rules():
    assert _accepts(-1.0, 2.0, 0.999999)
    assert _accepts(0.0, 2.0, 0.999999)
    assert not _accepts(math.inf, 2.0, 0.0)
    assert not _accepts(math.nan, 2.0, 0.0)


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
    got = _accepts(deltas, beta, us).tolist()
    assert got == [_accepts(delta, beta, u) for delta, u in moves]
    for ok, (delta, u) in zip(got, moves):
        assert _exact_accept(delta, beta, u) in (None, ok)


def _exact_accept(delta, beta, u):
    """u < min(1, exp(-(beta/2) delta)) decided at 50 digits from the exact
    values of the floats, as delta < T = -(2/beta) log u, with log 0 floored
    at -1075 log 2 where exp underflows to 0 (`_accept_threshold`). None
    when delta is within 8 ulp of T: the float threshold rounds three times
    (log, 2/beta and their product), so there the rule may go either way."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        T = -2 / D(beta) * (D(u).ln() if u > 0 else -1075 * D(2).ln())
        return None if abs(D(delta) - T) <= 8 * D(2) ** -52 * T else D(delta) < T


def _one_block(points, Vs, sites, dx, thr):
    """Run one block on sorted `points` (rows, n): step l moves site
    sites[l, r] of row r by dx[l, r] and is accepted where its change is
    below thr[l, r]. Returns the energies before, the block's deltas and
    accept flags, the energies it cached and the points after."""
    pts = np.array(points, dtype=float)
    sites, dx, thr = np.array(sites), np.array(dx, dtype=float), np.array(thr, dtype=float)
    L = len(sites)
    blocks = _Blocks(pts, L, _row_columns(Vs))
    w0 = np.array([energy(Configuration(row), V) for row, V in zip(pts, Vs)])
    w, acc = w0.copy(), np.empty(sites.shape, dtype=bool)
    at, at_d = blocks.sites(sites, np.zeros(L, dtype=int), np.arange(L), np.array([L]))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = blocks.step(w, at, at_d, dx, thr, acc)
    return w0, delta, acc, w, pts


def test_proposal_onto_existing_point_rejected():
    # row 0, step 0: site 0 lands on the point at 0.25, present since the
    # block's start. Row 1: step 0 moves site 2 from 0.75 to 0.5 and is
    # accepted; step 1 lands site 0 on 0.5. Both changes are +inf, so no
    # threshold accepts them.
    points = [[-0.5, 0.25, 0.75], [-0.5, 0.25, 0.75]]
    sites = [[0, 2], [1, 0]]
    dx = [[0.75, -0.25], [0.125, 1.0]]
    w0, delta, acc, w, pts = _one_block(points, [V2, V2], sites, dx, np.full((2, 2), np.inf))
    assert delta[0, 0] == math.inf and not acc[0, 0]
    assert math.isfinite(delta[0, 1]) and acc[0, 1]
    assert delta[1, 1] == math.inf and not acc[1, 1]
    assert not _accepts(math.inf, 2.0, 0.0)
    # row 0's step 1 (site 1, 0.25 -> 0.375) is finite and accepted, and
    # every cached energy is exact
    assert acc[1, 0] and np.array_equal(pts, [[-0.5, 0.375, 0.75], [-0.5, 0.25, 0.5]])
    for r in range(2):
        assert w[r] == pytest.approx(energy(Configuration(pts[r]), V2), rel=1e-12)


def test_landing_on_a_vacated_point_is_rejected():
    # step 0 moves site 2 from 0.75 to 0.5; step 1 lands site 0 on 0.75,
    # which step 0 left. Against the block's start the change is +inf and
    # the pair correction -inf, so their sum is NaN and the move is
    # rejected, though its true change is finite: a loss of measure zero
    sites, dx = [[2], [0]], [[-0.25], [1.25]]
    w0, delta, acc, w, pts = _one_block([[-0.5, 0.25, 0.75]], [V2], sites, dx, np.full((2, 1), np.inf))
    assert acc[0, 0] and math.isnan(delta[1, 0]) and not acc[1, 0]
    assert np.array_equal(pts, [[-0.5, 0.25, 0.5]])


_ROW_VS = [V2, quartic(), double_well(), blend(V2, quartic(), 0.3)]


@pytest.mark.parametrize("pattern", ["all", "none", "alternating", "random"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_deltas_are_exact_energy_changes(pattern, seed):
    # every step's delta, given the accepted steps before it in the block,
    # equals energy(after) - energy(before) of its own row; the block's
    # moves are wide enough to cross neighbours
    rng = np.random.default_rng(seed)
    n, L, rows = 12, 6, len(_ROW_VS)
    points = np.sort(rng.normal(0.0, 1.0, (rows, n)), axis=1)
    sites = np.stack([rng.permutation(n)[:L] for _ in range(rows)], axis=1)
    dx = rng.normal(0.0, 0.4, (L, rows))
    force = {"all": np.ones((L, rows), dtype=bool), "none": np.zeros((L, rows), dtype=bool),
             "alternating": (np.arange(L)[:, None] + np.arange(rows)) % 2 == 0,
             "random": rng.random((L, rows)) < 0.5}[pattern]
    w0, delta, acc, w, pts = _one_block(points, _ROW_VS, sites, dx, np.where(force, np.inf, -np.inf))
    assert np.array_equal(acc, force)
    for r, V in enumerate(_ROW_VS):
        x, before = points[r].copy(), w0[r]
        for l in range(L):
            moved = x.copy()
            moved[sites[l, r]] += dx[l, r]
            after = energy(Configuration(np.sort(moved)), V)
            assert abs(delta[l, r] - (after - before)) <= 1e-12 * max(1.0, abs(before)), (r, l)
            if force[l, r]:
                x, before = moved, after
        assert np.array_equal(pts[r], np.sort(x))
        assert abs(w[r] - before) <= 1e-12 * max(1.0, abs(before))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=12), st.integers(10, 16), st.data())
def test_block_sites_are_the_ranked_free_sites(lengths, n, data):
    # each step takes the rank-th smallest site its block has left free
    pos = np.concatenate([np.arange(L) for L in lengths])
    block = np.repeat(np.arange(len(lengths)), lengths)
    ranks = np.array([data.draw(st.integers(0, n - 1 - k)) for k in pos])[:, None]
    sites = _distinct_sites(ranks, block, pos)[:, 0].tolist()
    free = []
    for t, (k, j) in enumerate(zip(pos, ranks[:, 0])):
        free = list(range(n)) if k == 0 else free
        assert sites[t] == free.pop(j)


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
    accepts = _accepts(E[targets] - E[:, None], beta, us)
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


def _block_z(traces: np.ndarray, ref: float, blocks: int = 10) -> float:
    """(mean - ref) in standard errors of the means of `blocks` consecutive
    blocks cut inside each chain's trace (one row per chain)."""
    means = np.array([b.mean() for trace in traces for b in np.array_split(trace, blocks)])
    return float((means.mean() - ref) / (means.std(ddof=1) / math.sqrt(len(means))))


def test_two_particle_gaps_follow_the_exact_law():
    # n = 2, V = x^2/2: the Gibbs density is g^beta exp(-beta g^2 / 4) in the
    # gap g times a Gaussian in x1 + x2, so beta g^2 / 4 ~ Gamma((beta + 1) / 2)
    betas = (1.0, 2.0, 5.0)
    cfgs = [SamplerConfig(n=2, beta=beta, V=V2, steps=60_000, burn_in=5_000, thinning=30, chains=4,
                          seed=17 + k) for k, beta in enumerate(betas)]
    for beta, stats in zip(betas, run_many(cfgs)):
        g = np.diff(stats.samples, axis=1)[:, 0]
        assert len(g) == 8_000
        _, p = sps.kstest(beta * g * g / 4.0, sps.gamma((beta + 1.0) / 2.0).cdf)
        assert p > 0.01, (beta, p)


def test_sum_of_squares_meets_the_virial_identity():
    # scaling x -> (1 + e) x in Z gives E[sum x^2] = n - 1 + 2 / beta for
    # V = x^2/2; at n = 8 a block holds 4 steps, so the pair corrections act
    n, betas = 8, (1.0, 2.0, 5.0)
    cfgs = [SamplerConfig(n=n, beta=beta, V=V2, steps=60_000, burn_in=5_000, thinning=20, chains=4,
                          seed=29 + k) for k, beta in enumerate(betas)]
    for beta, cfg, stats in zip(betas, cfgs, run_many(cfgs)):
        sum_sq = (stats.samples ** 2).sum(axis=1).reshape(cfg.chains, -1)
        z = _block_z(sum_sq, n - 1.0 + 2.0 / beta)
        assert abs(z) <= 3.0, (beta, z)


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


def test_one_chain_alone_equals_its_ladder_row_in_full_blocks():
    # at n = 32 a block holds 16 steps, enough for a sum over them to take
    # another order when a run has a single row; the cached energies must
    # not, so the lone chain's statistics, the drift of its energy audit at
    # step 10,000 included, equal its row's in a ladder
    cfg = SamplerConfig(n=32, beta=2.0, V=V2, steps=10_000, burn_in=500, thinning=10, chains=1, seed=8)
    _assert_same_statistics(run(cfg), run_many([cfg.replaced(chains=3, seed=2), cfg])[1])


_LADDER_ROWS = st.one_of(
    st.sampled_from([V2, quartic(), double_well()]),
    st.tuples(st.sampled_from([V2, double_well()]), st.sampled_from([quartic(), double_well()]),
              st.floats(0.0, 1.0)),
    st.builds(lambda low, top: polynomial([*low, top]),
              st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(0.01, 2.0)),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_LADDER_ROWS, min_size=1, max_size=6), st.integers(1, 4), st.data())
def test_tiled_coefficients_give_each_rows_own_v(rows, L, data):
    # a (a, b, t) row is blend(a, b, t), whose coefficients are the blended ones
    Vs = []
    for row in rows:
        if isinstance(row, tuple):
            a, b, t = row
            ca, cb = (np.pad(V.coeffs, (0, 5 - len(V.coeffs))) for V in (a, b))
            row = blend(a, b, t)
            assert row.coeffs == tuple(np.trim_zeros((1.0 - t) * ca + t * cb, "b").tolist())
        Vs.append(row)
    # z = (p, o) of every step of a block of L steps, as the block kernel
    # lays it out; padding a row with zeros and adding another row's
    # coefficient column that is zero in this row leave its Horner pass
    # exact (up to the sign of zero)
    m = len(Vs)
    z = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * L * m, max_size=2 * L * m)))
    columns = _Blocks(np.zeros((m, 2 * L)), L, _row_columns(Vs)).views[L][-1]
    v = horner(columns, z).reshape(2, L, m)
    z = z.reshape(2, L, m)
    for r, V in enumerate(Vs):
        assert np.array_equal(v[..., r], V.eval(z[..., r])), V.label


def _digest(stats: GasStatistics) -> str:
    h = hashlib.sha256()
    for a in (stats.samples, stats.step_scales, stats.cache_drift):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_kernel_output_pinned():
    # 11,000 steps cross a 4096-step chunk boundary, two burn-in
    # adaptations and an energy audit. Any change to the block kernel's
    # arithmetic, to its site schedule or to the order of its draws changes
    # the digests, and so does any change to the starts: the semicircle
    # quantiles (every V without a closed form starts from them too) and
    # the Fekete set of chain 0.
    Q = quartic()
    base = SamplerConfig(n=8, beta=2.0, V=V2, steps=10_000, burn_in=1_000, thinning=10, chains=2, seed=4)
    assert _digest(run(base)) == "8bf1f71c09c3e8372a12473e3e3137a82f6e98a29447afaec5f685bf5d1f41af"
    # one coefficient matrix: a quadratic row, padded with zeros, between
    # two quartic blends
    ladder = [
        base.replaced(V=blend(V2, Q, 0.25), chains=1, seed=11),
        base.replaced(beta=5.0, V=quadratic(), seed=7),
        base.replaced(beta=1.0, V=blend(V2, Q, 0.8), chains=1, seed=5),
    ]
    assert [_digest(s) for s in run_many(ladder)] == [
        "5d93dc8d5717aa5bc96891d05093f74d20fade8732d3804b9bb76d6f56d9ff0d",
        "d70bc26b9fe09736135ff92d0b39e213787f1ebe306ebaba19657b5ea2996cda",
        "45c8171cec2cee63931198f65536be80756de44a4de50f79656678556ab8e4b1",
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
    assert _accept_digest(run(base)) == "e76943c09dca5e5381884bc74df7f0ee001ed0a477d0d70e492e21bd71894e78"
    ladder = [
        base.replaced(beta=5.0, seed=7),
        base.replaced(beta=0.5, V=quartic(), chains=1, seed=5),
        base.replaced(beta=20.0, chains=3, seed=11),
    ]
    assert [_accept_digest(s) for s in run_many(ladder)] == [
        "45a3936ad45418907f680fbec9426b0ee0ad5a214a701f72e45292fec10da3ea",
        "781f996f159fffbf06470f2cbc440b977c9e52af4a14d1fd74f74a6ae7c74d28",
        "b6cb8bc4bdd208a0b9ff8f2cb148a0ce3bad50469221e2ab5009f47dc7f0468b",
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
