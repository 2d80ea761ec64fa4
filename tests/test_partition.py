import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import integrate

from loggas import (
    SamplerConfig,
    blend,
    double_well,
    mehta_log_z,
    minimize,
    model_constants,
    next_order_report,
    quadratic,
    quadrature_log_z,
    quartic,
    run,
    semicircle_equilibrium,
    thermo_log_z,
)
from loggas import fekete, partition
from loggas.hamiltonian import Configuration, energy
from loggas.partition import _chain_block_means

V2 = quadratic()
CONSTS = model_constants(semicircle_equilibrium(), V2)


def test_single_particle_closed_form():
    for beta in (0.5, 1.0, 2.0, 17.0):
        assert mehta_log_z(1, beta) == pytest.approx(math.log(2.0 * math.sqrt(math.pi / beta)), rel=1e-13)


def test_two_particle_beta_two():
    assert mehta_log_z(2, 2.0) == pytest.approx(math.log(math.pi), abs=1e-12)


# quartic, n = 2, beta = 2: Z = int int (x - y)^2 exp(-(x^4 + y^4)/2) = 2 m_0 m_2
# with m_k = int x^k exp(-x^4/2) dx = Gamma((k+1)/4) 2^((k+1)/4) / 2
QUARTIC_M = [math.gamma((k + 1) / 4.0) * 2.0 ** ((k + 1) / 4.0) / 2.0 for k in (0, 2)]


@pytest.mark.parametrize(
    "n, beta, V, exact",
    [
        (1, 0.5, V2, mehta_log_z(1, 0.5)),
        (1, 2.0, V2, mehta_log_z(1, 2.0)),
        (2, 1.0, V2, mehta_log_z(2, 1.0)),
        # |gap|^(1/2): the gap exponent is not an integer
        (3, 0.5, V2, mehta_log_z(3, 0.5)),
        (2, 2.0, quartic(), math.log(2.0 * QUARTIC_M[0] * QUARTIC_M[1])),
    ],
    ids=["n1-b0.5", "n1-b2", "n2-b1", "n3-b0.5", "quartic-n2-b2"],
)
def test_quadrature_agrees_at_small_n(n, beta, V, exact):
    # the full (n, beta) battery runs in the acceptance suite
    assert quadrature_log_z(n, beta, V) == pytest.approx(exact, rel=1e-10)


def test_quadrature_rejects_large_n():
    with pytest.raises(ValueError):
        quadrature_log_z(4, 1.0, V2)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_beta_must_be_finite_and_positive(beta, monkeypatch):
    # each route raises where beta enters, before any quadrature rule or chain runs
    def no_chains(cfgs):
        raise AssertionError("chains ran")

    monkeypatch.setattr("loggas.partition.run_many", no_chains)
    cfg = SamplerConfig(n=2, beta=2.0, V=quartic(), steps=100, burn_in=100, thinning=5, chains=2)
    for route in (lambda: mehta_log_z(3, beta), lambda: quadrature_log_z(2, beta),
                  lambda: thermo_log_z(2, beta, quartic()),
                  lambda: thermo_log_z(2, beta, quartic(), sampler_cfg=cfg, grid=2)):
        with pytest.raises(ValueError, match="beta"):
            route()


def test_laplace_slope_two_particles():
    # -2 dlogZ/dbeta -> min w_2 = 1 - log 2 as beta grows
    w_min = 1.0 - math.log(2.0)
    b1, b2 = 2000.0, 4000.0
    slope = -2.0 * (mehta_log_z(2, b2) - mehta_log_z(2, b1)) / (b2 - b1)
    assert slope == pytest.approx(w_min, abs=1e-2)
    # the same check through the quadrature route at moderate beta
    b1, b2 = 100.0, 200.0
    slope_q = -2.0 * (quadrature_log_z(2, b2, V2) - quadrature_log_z(2, b1, V2)) / (b2 - b1)
    assert slope_q == pytest.approx(w_min, abs=0.1)


def test_quadrature_counts_both_double_well_minima():
    # at n = 3 the Fekete set of x^4/4 - x^2 is not its own mirror, and the
    # mirror set is a second minimum of w_3; at beta = 100 each carries half
    # of Z. Laplace's value over both, log 3! + log 2 - (beta/2) w*
    # + (n/2) log 2 pi - (1/2) log det((beta/2) H), is O(1/beta) = 0.004
    # off; one minimum alone is log 2 = 0.69 low
    V, n, beta = double_well(), 3, 100.0
    x = minimize(n, V, seed=0).config.points
    assert not np.allclose(-x[::-1], x, atol=1e-3)
    H = fekete.hessian(x, V)
    sign, logdet = np.linalg.slogdet(0.5 * beta * H)
    assert sign > 0
    w_star = energy(Configuration(x), V)
    laplace = (math.log(math.factorial(n)) + math.log(2.0) - 0.5 * beta * w_star
               + 0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet)
    assert quadrature_log_z(n, beta, V) == pytest.approx(laplace, abs=0.02)
    # at n = 1 both wells are the two minima of V itself, and Z is one integral
    z, _ = integrate.quad(lambda t: math.exp(-0.5 * beta * V.eval(t)), -4.0, 4.0,
                          points=[-math.sqrt(2.0), math.sqrt(2.0)], epsabs=0.0, epsrel=1e-13)
    assert quadrature_log_z(1, beta, V) == pytest.approx(math.log(z), rel=1e-10)


def test_quadrature_grows_one_box_over_overlapping_double_well_minima(monkeypatch):
    # at n = 3 and beta = 2 the box around the double well's Fekete set
    # overlaps its mirror image, so a second box is grown over both sets
    # and no log 2 is added; the independent check is thermodynamic
    # integration from x^2/2
    boxes = []
    real = partition._grow_box

    def spy(*args):
        boxes.append(args)
        return real(*args)

    monkeypatch.setattr(partition, "_grow_box", spy)
    V = double_well()
    quad = quadrature_log_z(3, 2.0, V)
    assert len(boxes) == 2
    est, err = thermo_log_z(3, 2.0, V)
    assert abs(quad - est) <= 3.0 * err


def test_next_order_report_fields():
    rep = next_order_report(8, 2.0, CONSTS, mehta_log_z(8, 2.0))
    assert rep.method == "exact-quadratic"
    assert rep.n == 8 and rep.beta == 2.0
    expect = (rep.log_z + 8.0 * 8.0 * 0.75 - 8.0 * math.log(8.0)) / 16.0
    assert rep.next_order == pytest.approx(expect, rel=1e-12)
    d = asdict(rep)
    assert set(d) == {"n", "beta", "log_z", "method", "next_order", "error_bar"}


def test_next_order_bounded_in_n():
    vals = [
        next_order_report(n, 2.0, CONSTS, mehta_log_z(n, 2.0)).next_order
        for n in (8, 16, 32, 64, 128, 256, 512)
    ]
    assert max(vals) - min(vals) < 0.5
    assert all(abs(v) < 1.0 for v in vals)


def test_single_particle_next_order_limit():
    # n=1: next_order -> F/2 = 0.375 from below as beta -> infinity
    no = next_order_report(1, 1e6, CONSTS, mehta_log_z(1, 1e6)).next_order
    assert no == pytest.approx(0.375, abs=1e-4)


def test_zero_temperature_matches_fekete():
    # Laplace principle: next_order -> -f_n(Fekete)/2 at beta = 1e6
    for n in (4, 8):
        f_n = minimize(n, V2, seed=0).breakdown.f_n
        no = next_order_report(n, 1e6, CONSTS, mehta_log_z(n, 1e6)).next_order
        assert no == pytest.approx(-f_n / 2.0, abs=1e-3)


def test_next_order_limit_sign():
    # regression pin: the exact quadratic oracle gives a positive limit
    no = next_order_report(256, 1e4, CONSTS, mehta_log_z(256, 1e4)).next_order
    assert no == pytest.approx(0.2510051376526506, abs=1e-9)


def test_thermo_degenerate_path():
    # V equal to the reference: every expectation is identically zero
    est, err = thermo_log_z(
        2,
        2.0,
        V2,
        sampler_cfg=SamplerConfig(n=2, beta=2.0, V=V2, steps=2_000, burn_in=500, thinning=5, chains=2, seed=1),
        grid=4,
    )
    assert est == pytest.approx(mehta_log_z(2, 2.0), abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_thermo_equals_node_by_node_runs():
    # reference: one `run` per node and 16 blocks over the chain-major
    # samples; with 2 chains of 400 kept samples those blocks align with
    # the chains, so the per-chain blocks of thermo_log_z are the same
    n, beta, Q, ref = 2, 2.0, quartic(), quadratic()
    cfg = SamplerConfig(n=n, beta=beta, V=Q, steps=2_000, burn_in=500, thinning=5, chains=2, seed=3)
    t_nodes, t_weights = np.polynomial.legendre.leggauss(4)
    total, var = mehta_log_z(n, beta), 0.0
    for k, (t, wt) in enumerate(zip(0.5 * (t_nodes + 1.0), 0.5 * t_weights)):
        stats = run(cfg.replaced(V=blend(ref, Q, float(t)), seed=cfg.seed + k))
        assert stats.converged
        obs = (Q.eval(stats.samples) - ref.eval(stats.samples)).sum(axis=1)
        bm = np.array([np.mean(b) for b in np.array_split(obs, 16)])
        se = float(np.std(bm, ddof=1) / math.sqrt(16))
        total += wt * (-(beta * n / 2.0) * float(np.mean(obs)))
        var += (wt * beta * n / 2.0 * se) ** 2
    assert thermo_log_z(n, beta, Q, sampler_cfg=cfg, grid=4) == (total, math.sqrt(var))


def test_error_blocks_stay_inside_chains():
    # 3 chains of 101 samples, chain c reading c throughout: a block that
    # straddled two chains would have a mean strictly between them
    traces = np.repeat(np.arange(3.0)[:, None], 101, axis=1)
    assert _chain_block_means(traces).tolist() == [0.0] * 5 + [1.0] * 5 + [2.0] * 5


def test_thermo_rejects_fewer_samples_than_blocks():
    # 30 steps thinned by 5 keep 6 samples per chain against 16 // 2 = 8
    # blocks, which would leave empty blocks and a NaN error bar
    cfg = SamplerConfig(n=2, beta=2.0, V=quartic(), steps=30, burn_in=500, thinning=5, chains=2, seed=4)
    with pytest.raises(ValueError, match=r"keeps 6 samples.* 8 error-bar blocks"):
        thermo_log_z(2, 2.0, quartic(), sampler_cfg=cfg, grid=2)


def test_thermo_rejects_a_config_at_another_n_or_beta(monkeypatch):
    # the chains would sample cfg's gas while the reference and weight use the arguments
    def no_chains(cfgs):
        raise AssertionError("chains ran")

    monkeypatch.setattr("loggas.partition.run_many", no_chains)
    cfg = SamplerConfig(n=2, beta=5.0, V=quartic(), steps=2_000, burn_in=500, thinning=5, chains=2, seed=1)
    with pytest.raises(ValueError, match=r"beta=5\.0.*beta=2\.0"):
        thermo_log_z(2, 2.0, quartic(), sampler_cfg=cfg, grid=4)
    with pytest.raises(ValueError, match=r"n=3.*n=2"):
        thermo_log_z(2, 2.0, quartic(), sampler_cfg=cfg.replaced(n=3, beta=2.0), grid=4)


@pytest.fixture(scope="module")
def thermo_quartic_runs():
    def one(steps, seed):
        cfg = SamplerConfig(
            n=2, beta=2.0, V=quartic(), steps=steps, burn_in=2_000, thinning=5, chains=2, seed=seed
        )
        return thermo_log_z(2, 2.0, quartic(), sampler_cfg=cfg, grid=8)

    return one(5_000, 100), one(20_000, 100)


def test_thermo_matches_quadrature(thermo_quartic_runs):
    (est, err), _ = thermo_quartic_runs
    oracle = quadrature_log_z(2, 2.0, quartic())
    assert err > 0.0
    assert abs(est - oracle) <= 3.0 * err


def test_thermo_error_bar_scaling(thermo_quartic_runs):
    (_, err1), (est4, err4) = thermo_quartic_runs
    # 4x the steps should roughly halve the error bar
    ratio = err4 / err1
    assert 0.3 <= ratio <= 0.8
    oracle = quadrature_log_z(2, 2.0, quartic())
    assert abs(est4 - oracle) <= 3.0 * err4
