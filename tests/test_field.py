import dataclasses
import math

import numpy as np
import pytest

from loggas import PeriodicConfig, lattice, make_field, periodic_w, w_quadrature
from loggas.verify import field_cases, random_periodic_points

LATTICE_W = -math.pi * math.log(2.0 * math.pi)

# w_quadrature(make_field(cfg)) for field_cases(default_rng(1137), 5), as
# computed from the field's cot-sum form
PINNED_W = {
    "lattice-1": -5.774270921792953,
    "lattice-2": -5.773884999296943,
    "lattice-8": -5.7738849992969214,
    "random-0": -0.5511944886032324,
    "random-1": -3.120453619077333,
    "random-2": 2.6957409167470994,
    "random-3": 3.6110990835992607,
    "random-4": -2.7865110157622888,
}


def cot_sum_field(cfg, x, y):
    """Reference E = (Re S, -Im S - pi sign y), S = (pi/N) sum_i cot(pi (z - a_i)/N)."""
    N = cfg.period
    w = np.pi * ((x + 1j * y)[..., None] - cfg.points) / N
    S = (np.pi / N) * (np.cos(w) / np.sin(w)).sum(axis=-1)
    return S.real, -S.imag - np.pi * np.sign(y)


@pytest.mark.parametrize("N", [1, 2, 5, 12])
def test_field_matches_cot_sum(N):
    rng = np.random.default_rng(300 + N)
    cfg = PeriodicConfig(N, random_periodic_points(rng, N))
    # random points in both half-planes up to |y| = N (higher up the
    # reference loses digits to its -Im S - pi cancellation), and points
    # at r = 1e-2 and 1e-4 from each charge at random angles
    r = np.repeat([1e-2, 1e-4], 8 * N)
    th = rng.uniform(0.0, 2.0 * np.pi, r.size)
    a = np.tile(cfg.points, 16)
    xs = np.concatenate([rng.uniform(0.0, N, 400), a + r * np.cos(th)])
    ys = np.concatenate([rng.uniform(-N, N, 400), r * np.sin(th)])
    ex, ey = make_field(cfg).field(xs, ys)
    rx, ry = cot_sum_field(cfg, xs, ys)
    assert np.max(np.hypot(ex - rx, ey - ry) / np.hypot(rx, ry)) <= 1e-10


def test_field_finite_far_from_the_line():
    # cos/sin of pi z/N overflow to nan here; the exponential form does not
    N = 4
    cfg = PeriodicConfig(N, np.array([0.3, 1.2, 2.0, 3.5]))
    xs = np.linspace(0.0, N, 9)
    with np.errstate(all="ignore"):
        assert np.all(np.isnan(cot_sum_field(cfg, xs, np.full_like(xs, 300.0 * N))[0]))
    for y in (300.0 * N, -300.0 * N):
        ex, ey = make_field(cfg).field(xs, np.full_like(xs, y))
        assert np.all(np.isfinite(ex)) and np.all(np.isfinite(ey))
        assert np.max(np.hypot(ex, ey)) <= 1e-300


def test_w_quadrature_pinned():
    for name, cfg in field_cases(np.random.default_rng(1137), 5):
        assert w_quadrature(make_field(cfg)) == pytest.approx(PINNED_W[name], rel=1e-11, abs=0.0)


def test_midpoint_field_vanishes():
    f = make_field(lattice(1))
    ex, ey = f.field(0.5, 0.0)
    assert abs(ex) <= 1e-13
    assert abs(ey) <= 1e-13


@pytest.mark.parametrize("y", [2.0, 3.0, 4.0])
def test_vertical_decay_closed_form(y):
    # above a unit lattice the vertical component is pi*coth(pi y) - pi
    f = make_field(lattice(1))
    ex, ey = f.field(0.0, y)
    expect = math.pi / math.tanh(math.pi * y) - math.pi
    assert abs(ex) <= 1e-12
    assert ey == pytest.approx(expect, rel=1e-10)
    # magnitude envelope ~ 2 pi e^{-2 pi y}
    assert math.hypot(float(ex), float(ey)) == pytest.approx(2.0 * math.pi * math.exp(-2.0 * math.pi * y), rel=1e-3)


def test_bounded_after_removing_singularity():
    # the singular part at a charge is exactly the unit point-charge field
    # grad log|z - p|; removing it leaves a bounded remainder
    f = make_field(lattice(4))
    p = 1.0  # a charge
    vals = []
    for r in (1e-2, 1e-4, 1e-6):
        for th in (0.3, 2.0, 4.4):
            x = p + r * math.cos(th)
            y = r * math.sin(th)
            ex, ey = f.field(x, y)
            sx = (x - p) / r**2
            sy = y / r**2
            vals.append(math.hypot(float(ex) - sx, float(ey) - sy))
    assert max(vals) < 10.0


def test_potential_matches_field_gradient():
    f = make_field(PeriodicConfig(3, np.array([0.2, 1.1, 2.4])))
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(0.0, 3.0)
        y = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        ex, ey = f.field(x, y)
        gx = (f.potential(x + h, y) - f.potential(x - h, y)) / (2.0 * h)
        gy = (f.potential(x, y + h) - f.potential(x, y - h)) / (2.0 * h)
        assert float(ex) == pytest.approx(-gx, abs=2e-5)
        assert float(ey) == pytest.approx(-gy, abs=2e-5)


@pytest.mark.parametrize("N", [1, 2, 5, 12])
def test_potential_finite_far_from_the_line(N):
    # sin(pi z/N) overflows above |y| ~ 226 N; H decays to 0 like the field
    f = make_field(PeriodicConfig(N, np.sort(np.random.default_rng(N).uniform(0.0, N, N))))
    xs = np.linspace(0.0, N, 7)
    for y in (300.0 * N, -300.0 * N):
        h = f.potential(xs, np.full_like(xs, y))
        assert np.all(np.isfinite(h))
        assert np.max(np.abs(h)) <= 1e-12


def test_mirror_symmetry():
    f = make_field(PeriodicConfig(5, np.array([0.1, 1.3, 2.2, 3.8, 4.5])))
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 5.0, 50)
    ys = rng.uniform(0.1, 2.5, 50)
    ex_u, ey_u = f.field(xs, ys)
    ex_d, ey_d = f.field(xs, -ys)
    assert np.max(np.abs(ex_u - ex_d)) <= 1e-12
    assert np.max(np.abs(ey_u + ey_d)) <= 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(23)
    pts = random_periodic_points(rng, 6)
    cfg = PeriodicConfig(6, pts)
    t = 1.37
    shifted = PeriodicConfig(6, np.sort((pts + t) % 6.0))
    f0 = make_field(cfg)
    f1 = make_field(shifted)
    xs = rng.uniform(0.0, 6.0, 40)
    ys = rng.uniform(-2.0, 2.0, 40)
    e0 = np.array(f0.field(xs, ys))
    e1 = np.array(f1.field((xs + t) % 6.0, ys))
    assert np.max(np.abs(e0 - e1)) <= 1e-10


def test_lattice_quadrature_matches_pair_formula():
    w = w_quadrature(make_field(lattice(1)), eta=1e-3, y_cut=6.0)
    assert abs(w - LATTICE_W) / abs(LATTICE_W) <= 0.01


def test_random_config_quadrature_matches_pair_formula():
    rng = np.random.default_rng(940)
    cfg = PeriodicConfig(4, random_periodic_points(rng, 4))
    w_ref = periodic_w(cfg)
    w = w_quadrature(make_field(cfg), eta=1e-3)
    assert abs(w - w_ref) / abs(w_ref) <= 0.01


def test_eta_stability():
    # halving eta moves the answer by < 0.2% of the reference magnitude
    f = make_field(lattice(2))
    a = w_quadrature(f, eta=1e-3)
    b = w_quadrature(f, eta=5e-4)
    assert abs(a - b) / abs(LATTICE_W) < 0.002


def test_eta_too_large_rejected():
    f = make_field(lattice(1))
    with pytest.raises(ValueError):
        w_quadrature(f, eta=0.5)
    with pytest.raises(ValueError):
        w_quadrature(f, eta=1e-3, y_cut=0.5)  # y_cut below the period


def test_non_finite_density_raises():
    f = make_field(lattice(1))
    bad = dataclasses.replace(f, field=lambda x, y: (np.full(np.shape(x), np.inf), np.zeros(np.shape(x))))
    with pytest.raises(FloatingPointError):
        w_quadrature(bad)


def test_non_finite_density_near_a_charge_raises():
    # inf only within 0.1 of the charge: inside the polar patch (s = 1/8),
    # never at a bulk or tail node
    f = make_field(lattice(1))

    def field(x, y):
        ex, ey = f.field(x, y)
        near = np.hypot((x + 0.5) % 1.0 - 0.5, y) < 0.1
        return np.where(near, np.inf, ex), ey

    with pytest.raises(FloatingPointError):
        w_quadrature(dataclasses.replace(f, field=field))


def test_energy_density_positive():
    f = make_field(PeriodicConfig(2, np.array([0.3, 1.2])))
    xs = np.linspace(0.0, 2.0, 9)
    ys = np.full_like(xs, 0.7)
    assert np.all(f.energy_density(xs, ys) >= 0.0)
