import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loggas import DegenerateConfigError, PeriodicConfig, lattice, lattice_min, periodic_w, rescale_w

LATTICE_W = -math.pi * math.log(2.0 * math.pi)


def random_config(rng, N):
    pts = np.sort(rng.uniform(0.0, N, N))
    while np.min(np.diff(np.append(pts, pts[0] + N))) < 1e-6:
        pts = np.sort(rng.uniform(0.0, N, N))
    return PeriodicConfig(N, pts)


def test_lattice_value_n_independent():
    for N in (1, 2, 3, 7, 16, 64):
        assert periodic_w(lattice(N)) == pytest.approx(LATTICE_W, abs=1e-12)


def test_two_point_examples():
    # hand evaluations of the pair formula
    assert periodic_w(PeriodicConfig(2, np.array([0.0, 1.0]))) == pytest.approx(LATTICE_W, abs=1e-12)
    half = periodic_w(PeriodicConfig(2, np.array([0.0, 0.5])))
    assert half == pytest.approx(-math.pi * math.log(math.pi * math.sqrt(2.0)), abs=1e-12)


def test_coincident_points_raise():
    with pytest.raises(DegenerateConfigError):
        periodic_w(PeriodicConfig(3, np.array([0.0, 1.0, 1.0 + 1e-15])))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        PeriodicConfig(2, np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        PeriodicConfig(2, np.array([0.0, 2.5]))
    with pytest.raises(ValueError):
        PeriodicConfig(0, np.array([]))


@pytest.mark.parametrize("points", [[np.nan, 1.0], [0.0, np.nan], [0.0, np.inf], [-np.inf, 1.0]])
def test_non_finite_config_rejected(points):
    # a NaN fails no range comparison, so it used to reach periodic_w as W = nan
    with pytest.raises(ValueError):
        PeriodicConfig(2, np.array(points))


def shift_rounding(cfg, t):
    """Bound on the change of W made by rounding x + t in a shift by t.

    Each point moves by at most ulp(N + t)/2, and |dW/da_k| is at most
    sum_j 2 pi/(N d_kj), d the circle distance (|cot u| <= 1/u on
    (0, pi/2]); the factor 2 over that covers the second order.
    """
    N, x = cfg.period, cfg.points
    d = np.abs(x[:, None] - x[None, :])
    d = np.minimum(d, N - d)[~np.eye(N, dtype=bool)]
    return math.ulp(N + t) * float(np.sum(2.0 * math.pi / (N * d)))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 24), st.floats(0.0, 50.0), st.integers(0, 10_000))
# two points 3.7e-4 apart: the shift's own rounding moves W by 1.3e-11
@example(N=3, t=31.0, seed=86)
def test_translation_invariance(N, t, seed):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, N)
    w0 = periodic_w(cfg)
    shifted = np.sort((cfg.points + t) % N)
    bound = 1e-12 * max(1.0, abs(w0)) + shift_rounding(cfg, t)
    assert periodic_w(PeriodicConfig(N, shifted)) == pytest.approx(w0, abs=bound)


def test_translation_bound_sees_a_point_moved_by_1e_9():
    N, t = 3, 31.0
    cfg = random_config(np.random.default_rng(86), N)
    w0 = periodic_w(cfg)
    bound = 1e-12 * max(1.0, abs(w0)) + shift_rounding(cfg, t)
    shifted = np.sort((cfg.points + t) % N)
    for k in range(N):
        moved = shifted.copy()
        moved[k] += 1e-9
        assert abs(periodic_w(PeriodicConfig(N, moved)) - w0) > bound


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 16), st.integers(0, 10_000))
# two points 3.2e-5 apart: rounding cfg.points + N moves W by 1.4e-11
@example(N=6, seed=745)
def test_doubling_consistency(N, seed):
    # period-2N concatenation of a config with its translate: same average;
    # the translate cfg.points + N is itself rounded, as in a shift by N
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, N)
    w0 = periodic_w(cfg)
    doubled = PeriodicConfig(2 * N, np.concatenate([cfg.points, cfg.points + N]))
    bound = 1e-12 * max(1.0, abs(w0)) + shift_rounding(cfg, N)
    assert periodic_w(doubled) == pytest.approx(w0, abs=bound)


def test_doubling_bound_sees_a_point_moved_by_1e_9():
    N = 6
    cfg = random_config(np.random.default_rng(745), N)
    w0 = periodic_w(cfg)
    bound = 1e-12 * max(1.0, abs(w0)) + shift_rounding(cfg, N)
    doubled = np.concatenate([cfg.points, cfg.points + N])
    for k in range(2 * N):
        moved = doubled.copy()
        moved[k] += 1e-9
        assert abs(periodic_w(PeriodicConfig(2 * N, moved)) - w0) > bound


def test_lattice_min_values():
    assert lattice_min(1.0) == pytest.approx(LATTICE_W, abs=1e-14)
    assert lattice_min(1.0 / (2.0 * math.pi)) == pytest.approx(0.0, abs=1e-14)
    assert lattice_min(2.0) == pytest.approx(-2.0 * math.pi * math.log(4.0 * math.pi), abs=1e-12)
    with pytest.raises(ValueError):
        lattice_min(0.0)
    with pytest.raises(ValueError):
        lattice_min(-1.0)


def test_rescale_identities():
    w = periodic_w(lattice(5))
    assert rescale_w(w, 1.0) == w
    assert rescale_w(0.0, math.e) == pytest.approx(-math.pi * math.e, rel=1e-14)
    for m in (0.5, 1.0, 2.0, math.pi):
        assert rescale_w(LATTICE_W, m) == pytest.approx(lattice_min(m), rel=1e-13)


def test_translated_helper():
    cfg = lattice(4).translated(0.25)
    assert periodic_w(cfg) == pytest.approx(LATTICE_W, abs=1e-12)
    assert np.all(cfg.points >= 0.0) and np.all(cfg.points < 4.0)
