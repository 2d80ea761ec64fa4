import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from hypothesis import given, settings, strategies as st

from loggas import (
    BUILTIN_POTENTIALS,
    BracketError,
    blend,
    double_well,
    equilibrium_for,
    log_potential,
    mean_field_energy,
    model_constants,
    polynomial,
    quadratic,
    quartic,
    semicircle_equilibrium,
    solve_equilibrium,
    zeta,
)
from loggas.model import (
    EquilibriumMeasure,
    _cell_edges,
    _log_kernel,
    alpha,
    measure_from_json,
    measure_to_json,
)

MU = semicircle_equilibrium()
V2 = quadratic()


def uniform_measure(lo, hi, n=4000):
    """Grid measure with constant density 1/(hi-lo) on [lo, hi].

    Cell-center nodes make every cell width exactly (hi-lo)/n.
    """
    h = (hi - lo) / n
    nodes = lo + h * (np.arange(n) + 0.5)
    w = np.full(n, 1.0 / n)
    return EquilibriumMeasure(((lo, hi),), nodes, w, None)


def test_semicircle_density_and_mass():
    assert MU.density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert MU.density(2.0) == 0.0
    assert MU.density(5.0) == 0.0
    assert MU.interval_mass(-2.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    # central third of the semicircle
    assert MU.interval_mass(-1.0, 1.0) == pytest.approx(1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi), abs=1e-12)


def test_semicircle_cdf_vectorized():
    def scalar_cdf(x):
        if x <= -2.0:
            return 0.0
        if x >= 2.0:
            return 1.0
        return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) + math.asin(x / 2.0) / math.pi

    x = np.linspace(-2.5, 2.5, 1001)
    # the angle form against the asin form, at rounding level (2.2e-16 measured)
    np.testing.assert_allclose(MU.cdf(x), [scalar_cdf(v) for v in x], rtol=0.0, atol=4.4e-16)
    assert np.array_equal(MU.cdf(np.array([-3.0, -2.0, 2.0, 3.0])), [0.0, 0.0, 1.0, 1.0])
    assert type(MU.interval_mass(-1.0, 1.0)) is float


def test_log_potential_closed_form():
    assert log_potential(MU, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert log_potential(MU, 2.0) == pytest.approx(-0.5, abs=1e-10)
    assert log_potential(MU, -2.0) == pytest.approx(-0.5, abs=1e-10)
    # far field: U(x) ~ -log|x|
    assert log_potential(MU, 1e6) == pytest.approx(-math.log(1e6), abs=1e-5)
    assert log_potential(MU, -1e6) == pytest.approx(-math.log(1e6), abs=1e-5)


def test_log_potential_vectorized():
    xs = np.array([-3.0, 0.0, 1.0, 2.5])
    vals = log_potential(MU, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == pytest.approx(float(log_potential(MU, float(x))), rel=1e-12)


def test_zeta_closed_form():
    assert zeta(MU, V2, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert zeta(MU, V2, 0.5, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert zeta(MU, V2, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)
    r = math.sqrt(5.0)
    expect = 3.0 * r / 4.0 - math.log((3.0 + r) / 2.0)
    assert zeta(MU, V2, 0.5, 3.0) == pytest.approx(expect, rel=1e-12)
    assert zeta(MU, V2, 0.5, 3.0) == pytest.approx(0.7146273330056, abs=1e-10)


@settings(deadline=None, max_examples=60)
@given(st.floats(-30.0, 30.0))
def test_zeta_nonnegative(x):
    assert zeta(MU, V2, 0.5, x) >= -1e-12


def test_model_constants_quadratic():
    consts = model_constants(MU, V2)
    assert consts.c == pytest.approx(0.5, abs=1e-12)
    assert consts.mean_field_energy == pytest.approx(0.75, abs=1e-12)
    assert consts.alpha == pytest.approx(0.5, abs=1e-12)
    # c = F - (1/2) int V dmu0; for V = x^2/2 the moment is 1
    moment = 0.5 * 1.0
    assert consts.c == pytest.approx(consts.mean_field_energy - 0.5 * moment, abs=1e-6)


def test_equilibrium_for_reads_the_coefficients_not_the_label():
    mu, consts = equilibrium_for(V2)
    assert mu.closed_form == "semicircle"
    assert (consts.c, consts.mean_field_energy, consts.alpha) == (0.5, 0.75, 0.5)
    assert equilibrium_for(dataclasses.replace(V2, label="renamed")) is not None
    assert equilibrium_for(dataclasses.replace(quartic(), label="quadratic")) is None
    # blending in none of the quartic leaves exactly x^2/2
    assert blend(V2, quartic(), 0.0).coeffs == (0.0, 0.0, 0.5)
    assert equilibrium_for(blend(V2, quartic(), 0.0)) is not None
    for V in (quartic(), double_well(), blend(V2, quartic(), 1e-3), polynomial([0.0, 0.0, 1.0])):
        assert equilibrium_for(V) is None, V.label


def test_polynomial_half_x_squared_is_quadratic():
    xs = np.linspace(-5.0, 5.0, 1001)
    for coeffs in ([0.0, 0.0, 0.5], [0, 0, 0.5, 0, 0]):
        p = polynomial(coeffs)
        assert p.coeffs == V2.coeffs == (0.0, 0.0, 0.5)
        assert equilibrium_for(p)[0].closed_form == "semicircle"
        assert np.array_equal(p.eval(xs), V2.eval(xs))
        assert np.array_equal(p.deriv(xs), V2.deriv(xs))
    # x^2/2 by Horner is (0.5 x) x, the bits of 0.5 x^2; V' = 1 x is x
    assert np.array_equal(V2.eval(xs), 0.5 * xs**2)
    assert np.array_equal(V2.deriv(xs), xs)
    assert equilibrium_for(polynomial([0.0, 0.0, 0.5, 0.0, 1e-3])) is None


def test_semicircle_needs_half_x_squared():
    for V in (quartic(), polynomial([0.0, 0.0, 1.0])):
        with pytest.raises(ValueError):
            model_constants(MU, V)


def test_semicircle_log_potential_far_field_has_no_cancellation():
    # U = -u - e^(-2u)/2 with |x| = 2 cosh u; for large |x| that is
    # -log|x| + 1/(2 x^2) + 1/(2 x^4) + O(x^-6), kept to full relative precision
    for x in (1e3, -1e4, 1e10, -1e12, 3e150):
        far = -math.log(abs(x)) + 0.5 * x**-2.0 + 0.5 * x**-4.0
        assert log_potential(MU, x) == pytest.approx(far, rel=1e-15, abs=0.0)
    assert log_potential(MU, math.inf) == -math.inf


def test_second_derivative_from_the_coefficients():
    xs = np.linspace(-5.0, 5.0, 101)
    assert np.array_equal(V2.deriv2(xs), np.ones_like(xs))
    assert V2.deriv_coeffs == ((0.0, 1.0), (1.0,))
    for V in (quartic(), double_well(), blend(V2, quartic(), 0.3), polynomial([1.0, -2.0, 0.5, 0.1, 0.3, 0.0, 0.2])):
        d2 = np.polynomial.polynomial.polyder(V.coeffs, 2)
        assert np.allclose(V.deriv2(xs), np.polynomial.polynomial.polyval(xs, d2), rtol=1e-14, atol=1e-12)


def test_zeta_closed_form_shifts_with_c():
    xs = np.linspace(-6.0, 6.0, 121)
    assert np.array_equal(zeta(MU, V2, 0.7, xs), zeta(MU, V2, 0.5, xs) + (0.5 - 0.7))
    generic = log_potential(MU, xs) + V2.eval(xs) / 2.0 - 0.7
    assert np.allclose(zeta(MU, V2, 0.7, xs), generic, atol=1e-12)


def test_alpha_uniform_measures():
    # density m on an interval of length 1/m has alpha = log(2 pi m)
    for m in (0.5, 1.0, 4.0):
        mu = uniform_measure(0.0, 1.0 / m)
        assert alpha(mu) == pytest.approx(math.log(2.0 * math.pi * m), abs=1e-6)
    # density 1/(2 pi) on length 2 pi: alpha = 0
    mu = uniform_measure(-math.pi, math.pi)
    assert alpha(mu) == pytest.approx(0.0, abs=1e-6)


def test_mean_field_energy_semicircle():
    assert mean_field_energy(MU, V2) == pytest.approx(0.75, abs=1e-8)
    assert alpha(semicircle_equilibrium()) == pytest.approx(0.5, abs=1e-12)


def test_quantiles_balanced():
    q = MU.quantiles(101)
    assert np.all(np.diff(q) > 0)
    assert q[50] == pytest.approx(0.0, abs=1e-12)
    # each quantile splits mass as promised
    for i in (0, 30, 100):
        assert MU.interval_mass(-2.0, q[i]) == pytest.approx((i + 0.5) / 101, abs=1e-10)


def test_potentials():
    assert V2.eval(3.0) == pytest.approx(4.5)
    assert quartic().eval(2.0) == pytest.approx(4.0)
    assert double_well().eval(0.0) == pytest.approx(0.0)
    p = polynomial([0.0, 0.0, 0.5])
    assert p.eval(3.0) == pytest.approx(4.5)
    assert set(BUILTIN_POTENTIALS) >= {"quadratic", "quartic", "double-well"}
    for name, make in BUILTIN_POTENTIALS.items():
        assert len(make().coeffs) % 2 == 1 and make().coeffs[-1] > 0.0, name
    # trailing zeros are trimmed, and the label is not compared
    assert polynomial([1.0, 0.0, 2.0, 0.0, -0.0]).coeffs == (1.0, 0.0, 2.0)
    # a potential is its coefficients: the label is its only other field
    assert [f.name for f in dataclasses.fields(V2)] == ["coeffs", "label"]
    assert polynomial([0.0, 0.0, 0.5]) == V2 and hash(polynomial([0.0, 0.0, 0.5])) == hash(V2)
    # linear growth cannot beat the log; an odd degree, a negative leading
    # coefficient or a constant does not confine either
    for coeffs in ([1.0, -2.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -0.5], [3.0], [], [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, -1e-9]):
        with pytest.raises(ValueError, match="does not confine"):
            polynomial(coeffs)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            polynomial([0.0, 0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            polynomial([bad, 0.0, 0.5])


def test_blend_endpoints():
    vb = blend(V2, quartic(), 0.0)
    assert vb.eval(1.7) == pytest.approx(V2.eval(1.7), rel=1e-14)
    vb = blend(V2, quartic(), 1.0)
    assert vb.eval(1.7) == pytest.approx(quartic().eval(1.7), rel=1e-14)
    vb = blend(V2, quartic(), 0.25)
    assert vb.eval(1.7) == pytest.approx(0.75 * V2.eval(1.7) + 0.25 * quartic().eval(1.7), rel=1e-14)


def test_solver_recovers_semicircle():
    grid = np.linspace(-3.0, 3.0, 2000)
    mu = solve_equilibrium(V2, grid)
    xs = np.linspace(-2.5, 2.5, 501)
    err = np.max(np.abs(mu.density(xs) - MU.density(xs)))
    assert err <= 2e-2
    lo, hi = mu.support[0][0], mu.support[-1][1]
    assert lo == pytest.approx(-2.0, abs=3e-2)
    assert hi == pytest.approx(2.0, abs=3e-2)


def test_solver_constants_refinement_stable():
    g1 = np.linspace(-3.0, 3.0, 2000)
    g2 = np.linspace(-3.0, 3.0, 3000)
    c1 = model_constants(solve_equilibrium(V2, g1), V2)
    c2 = model_constants(solve_equilibrium(V2, g2), V2)
    assert c1.alpha == pytest.approx(c2.alpha, abs=1e-4)
    assert c1.mean_field_energy == pytest.approx(c2.mean_field_energy, abs=1e-4)
    # and both sit near the closed-form values
    assert c1.mean_field_energy == pytest.approx(0.75, abs=5e-3)
    assert c1.c == pytest.approx(0.5, abs=5e-3)


def test_solver_quartic_support_shrinks():
    # stronger confinement concentrates the gas
    grid = np.linspace(-3.0, 3.0, 1200)
    mu = solve_equilibrium(quartic(), grid)
    assert mu.support[-1][1] < 1.9
    assert mu.interval_mass(-3.0, 3.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("V, grid", [(V2, np.linspace(-3.0, 3.0, 2000)),
                                     (quartic(), np.linspace(-4.0, 4.0, 1500))], ids=["quadratic", "quartic"])
def test_solved_support_is_the_closed_hull_of_the_density(V, grid):
    mu = solve_equilibrium(V, grid)
    lo, hi = mu.support[0]
    assert mu.interval_mass(lo, hi) == pytest.approx(1.0, abs=1e-12)
    assert mu.density(np.nextafter(lo, -np.inf)) == 0.0 and mu.density(np.nextafter(hi, np.inf)) == 0.0
    assert mu.density(lo) > 0.0 and mu.density(np.nextafter(hi, -np.inf)) > 0.0


# (V, known support edges or None); the double well x^4/4 - x^2 is the
# critical case whose density sqrt(4 - x^2) x^2 / (2 pi) vanishes at 0
BRACKET_CASES = [
    (V2, (-2.0, 2.0)),
    (quartic(), (-(16.0 / 3.0) ** 0.25, (16.0 / 3.0) ** 0.25)),
    (double_well(), (-2.0, 2.0)),
    (polynomial([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / 6.0]), None),
    (polynomial([0.0, 0.0, 0.0, 0.0, 1e-4]), (-(4e4 / 3.0) ** 0.25, (4e4 / 3.0) ** 0.25)),
    (polynomial([5000.0, -100.0, 0.5]), (98.0, 102.0)),
    (polynomial([0.0, 0.3, -0.5, 0.1, 0.2]), None),
    (polynomial([0.0, 0.0, -3.0, 0.0, 0.25]), None),
]


@pytest.mark.parametrize("V, edges", BRACKET_CASES, ids=[str(V.coeffs) for V, _ in BRACKET_CASES])
def test_derived_bracket_holds_the_support(V, edges):
    R = V.growth_check_radius
    grid = np.linspace(-R, R, 2000)
    mu = solve_equilibrium(V, grid)
    assert mu.weights[0] == 0.0 and mu.weights[-1] == 0.0
    if edges is not None:
        cell = grid[1] - grid[0]
        assert mu.support[0][0] == pytest.approx(edges[0], abs=2 * cell)
        assert mu.support[0][1] == pytest.approx(edges[1], abs=2 * cell)


def test_derived_radii_and_minimizers():
    # R from the coefficients alone; the shifted x^2/2 pays for its shift
    radii = [V.growth_check_radius for V in (V2, quartic(), double_well(), polynomial([5000.0, -100.0, 0.5]))]
    assert radii == pytest.approx([4.810, 2.229, 2.808, 244.856], abs=1e-3)
    assert V2.argmin == 0.0 and polynomial([5000.0, -100.0, 0.5]).argmin == pytest.approx(100.0, rel=1e-12)
    assert abs(double_well().argmin) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_support_on_an_end_node_raises():
    # x^2/2 shifted to 100 has its support at [98, 102], far right of [-8, 8]
    with pytest.raises(BracketError, match="grid ends"):
        solve_equilibrium(polynomial([5000.0, -100.0, 0.5]), np.linspace(-8.0, 8.0, 2000))
    with pytest.raises(BracketError):
        solve_equilibrium(V2, np.linspace(-1.5, 1.5, 600))


def test_measure_json_roundtrip():
    grid = np.linspace(-3.0, 3.0, 400)
    mu = solve_equilibrium(V2, grid)
    consts = model_constants(mu, V2)
    text = measure_to_json(mu, consts)
    mu2, c2 = measure_from_json(text)
    assert np.allclose(mu2.nodes, mu.nodes)
    assert np.allclose(mu2.weights, mu.weights)
    assert c2.alpha == pytest.approx(consts.alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# the log kernel of the solver grid

NONUNIFORM_4 = np.array([-1.0, -0.2, 0.5, 2.0])


def _nonuniform(m, seed=7):
    return np.sort(np.random.default_rng(seed).uniform(-3.0, 3.0, m))


def _f2(t):
    """t^2 (2 log|t| - 3)/4, with 0 log 0 = 0."""
    a = np.abs(t)
    return t * t * (2.0 * np.log(np.where(a == 0.0, 1.0, a)) - 3.0) / 4.0


def _four_term_kernel(nodes):
    """The kernel as four f2 passes over M x M differences of cells centred on their nodes."""
    h = np.diff(_cell_edges(nodes))
    lo, hi = nodes - 0.5 * h, nodes + 0.5 * h
    ii = np.zeros((len(nodes), len(nodes)))
    for sign, a, b in ((1.0, hi, lo), (1.0, lo, hi), (-1.0, hi, hi), (-1.0, lo, lo)):
        ii += sign * _f2(a[:, None] - b[None, :])
    return -ii / (h[:, None] * h[None, :])


def test_cell_widths_are_the_edge_differences():
    for nodes in (np.linspace(-4.0, 4.0, 1500), _nonuniform(400), NONUNIFORM_4):
        e = _cell_edges(nodes)
        assert len(e) == len(nodes) + 1 and np.all(np.diff(e) > 0)
        # nodes sit in their cells, and the widths are the ones density, alpha and quantiles use
        assert np.all((e[:-1] < nodes) & (nodes < e[1:]))
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        lo = np.concatenate([[nodes[0] - (mids[0] - nodes[0])], mids])
        hi = np.concatenate([mids, [nodes[-1] + (nodes[-1] - mids[-1])]])
        assert np.array_equal(np.diff(e), hi - lo)


@pytest.mark.parametrize(
    "nodes", [np.linspace(-4.0, 4.0, 1500), _nonuniform(400), NONUNIFORM_4], ids=["linspace", "random", "four"]
)
def test_log_kernel_integrates_log_over_the_whole_interval(nodes):
    # sum_ij h_i h_j K_ij = -iint_{[e_0, e_M]^2} log|x - y| = -L^2 (log L - 3/2)
    e = _cell_edges(nodes)
    h = np.diff(e)
    L = e[-1] - e[0]
    K = _log_kernel(nodes)
    assert np.array_equal(K, K.T)
    assert h @ K @ h == pytest.approx(-L * L * (math.log(L) - 1.5), rel=1e-12)


def test_log_kernel_entries_match_dblquad():
    e = _cell_edges(NONUNIFORM_4)
    h = np.diff(e)
    K = _log_kernel(NONUNIFORM_4)

    def minus_log(y, x):
        return -math.log(abs(x - y))

    for i in range(4):
        for j in range(4):
            if i == j:
                # split at y = x so that the log singularity sits on an end of the inner integral
                pieces = ((e[i], lambda x: x), (lambda x: x, e[i + 1]))
            else:
                pieces = ((e[j], e[j + 1]),)
            exact = sum(dblquad(minus_log, e[i], e[i + 1], lo, hi, epsabs=1e-13, epsrel=1e-13)[0] for lo, hi in pieces)
            assert K[i, j] == pytest.approx(exact / (h[i] * h[j]), abs=1e-12), (i, j)


def test_log_kernel_matches_the_four_term_formula_on_a_uniform_grid():
    nodes = np.linspace(-4.0, 4.0, 1500)
    e = _cell_edges(nodes)
    h = np.diff(e)
    K = _log_kernel(nodes)
    ref = _four_term_kernel(nodes)
    # each formula sums four f2 values of rounded edge differences; count
    # every one of those eight as off by four roundings (difference, square,
    # log, product), each of them at most eps max|f2|, before the division
    f2_max = np.abs(_f2(np.subtract.outer(e, e))).max()
    bound = 8 * 4 * np.finfo(float).eps * f2_max / np.multiply.outer(h, h)
    assert np.all(np.abs(K - ref) <= bound)


def test_solver_reports_iterations_and_residual():
    mu = solve_equilibrium(quartic(), np.linspace(-3.0, 3.0, 400))
    assert isinstance(mu.iterations, int) and mu.iterations % 25 == 0
    assert 0.0 <= mu.residual < 1e-3
    assert MU.iterations is None and MU.residual is None
    mu2, _ = measure_from_json(measure_to_json(mu))
    assert (mu2.iterations, mu2.residual) == (mu.iterations, mu.residual)
    # JSON written before these keys existed still loads
    obj = json.loads(measure_to_json(mu))
    del obj["iterations"], obj["residual"]
    mu3, _ = measure_from_json(json.dumps(obj))
    assert mu3.iterations is None and mu3.residual is None
    assert np.array_equal(mu3.weights, mu.weights)


# ---------------------------------------------------------------------------
# the grid measure: one piecewise-constant density on the cells of _cell_edges


def _random_measure(m=12, seed=3):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-1.0, 2.0, m))
    w = rng.uniform(0.1, 1.0, m)
    return EquilibriumMeasure(((nodes[0], nodes[-1]),), nodes, w / w.sum(), None)


GRID_MEASURES = [uniform_measure(0.0, 2.0, 40), _random_measure()]
GRID_IDS = ["uniform", "nonuniform"]


def _cell_density(mu):
    e = _cell_edges(mu.nodes)
    return e, mu.weights / np.diff(e)


def _exact_mass(mu, a, b):
    e, d = _cell_density(mu)
    return float(np.dot(d, np.clip(np.minimum(b, e[1:]) - np.maximum(a, e[:-1]), 0.0, None)))


@pytest.mark.parametrize("mu", GRID_MEASURES, ids=GRID_IDS)
def test_grid_density_is_zero_outside_the_cells_and_integrates_to_one(mu):
    e, d = _cell_density(mu)
    h0, hM = e[1] - e[0], e[-1] - e[-2]
    outside = np.array([e[0] - 0.3 * h0, e[0] - 1e-9, e[-1] + 1e-9, e[-1] + 0.3 * hM, -50.0, 50.0])
    assert np.all(mu.density(outside) == 0.0)
    # each cell's interior reads that cell's density
    inside = e[:-1] + np.array([0.1, 0.5, 0.9])[:, None] * np.diff(e)
    assert np.array_equal(mu.density(inside), np.broadcast_to(d, inside.shape))
    total = quad(mu.density, e[0] - 1.0, e[-1] + 1.0, points=e, limit=200, epsabs=1e-13)[0]
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu", GRID_MEASURES, ids=GRID_IDS)
def test_grid_interval_mass_counts_partial_cells(mu):
    e = _cell_edges(mu.nodes)
    h = np.diff(e)
    # ends inside cells: across several cells, from below the grid, and within one cell
    pairs = ((e[3] + 0.3 * h[3], e[9] + 0.7 * h[9]), (e[0] - 0.5, e[5] + 0.2 * h[5]), (e[4] + 0.1 * h[4], e[4] + 0.6 * h[4]))
    for a, b in pairs:
        assert mu.interval_mass(a, b) == pytest.approx(_exact_mass(mu, a, b), abs=1e-12), (a, b)
    assert mu.interval_mass(e[0] - 1.0, e[-1] + 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [*GRID_MEASURES, MU], ids=[*GRID_IDS, "semicircle"])
def test_quantiles_invert_the_cdf(mu):
    for n in (1, 4, 7, 100):
        q = mu.quantiles(n)
        assert np.all(np.diff(q) > 0)
        assert np.allclose(mu.cdf(q), (np.arange(n) + 0.5) / n, rtol=0.0, atol=1e-12), n


def _quad_log_potential(mu, x):
    """-int log|x - y| dmu(y), one quad per cell, split at x inside its cell."""
    e, d = _cell_density(mu)
    total = 0.0
    for k in range(len(d)):
        ends = (e[k], x, e[k + 1]) if e[k] < x < e[k + 1] else (e[k], e[k + 1])
        for lo, hi in zip(ends[:-1], ends[1:]):
            total -= d[k] * quad(lambda y: math.log(abs(x - y)), lo, hi, epsabs=1e-15, epsrel=1e-13)[0]
    return total


@pytest.mark.parametrize("mu", GRID_MEASURES, ids=GRID_IDS)
def test_grid_log_potential_is_the_cell_integral(mu):
    e = _cell_edges(mu.nodes)
    xs = np.array([mu.nodes[7], e[5], e[0], e[-1] + 0.4, e[0] - 2.5])
    exact = [_quad_log_potential(mu, x) for x in xs]
    assert np.allclose(log_potential(mu, xs), exact, rtol=0.0, atol=1e-12)
    assert log_potential(mu, xs[0]) == pytest.approx(exact[0], abs=1e-12)


def test_zeta_of_the_solved_quadratic_meets_the_solver_residual():
    mu = solve_equilibrium(V2, np.linspace(-3.0, 3.0, 2000))
    c = model_constants(mu, V2).c
    lo, hi = mu.support[0]
    z = np.abs(zeta(mu, V2, c, np.linspace(lo, hi, 4001))).max()
    assert z < 1e-3
    # U at any point of the support misses c - V/2 by no more than the
    # solver's cell averages of U did, up to a factor 2 of slack
    assert z <= 2.0 * mu.residual


def test_malformed_measures_raise():
    grid = dict(support=((0.0, 1.0),), closed_form=None)
    nodes, w = np.array([0.0, 0.5, 1.0]), np.full(3, 1.0 / 3.0)
    bad = [
        (dict(support=((-2.0, 2.0),), nodes=None, weights=None, closed_form="semicirc"), "unknown closed form"),
        (dict(support=((-2.0, 2.0),), nodes=nodes, weights=w, closed_form="semicircle"), "carries no nodes"),
        (dict(grid, nodes=None, weights=w), "needs nodes and weights"),
        (dict(grid, nodes=nodes, weights=None), "needs nodes and weights"),
        (dict(grid, nodes=np.array([0.5]), weights=np.array([1.0])), "at least 2"),
        (dict(grid, nodes=np.array([0.0, 0.5, 0.4]), weights=w), "strictly increasing"),
        (dict(grid, nodes=np.array([0.0, 0.5, 0.5]), weights=w), "strictly increasing"),
        (dict(grid, nodes=np.array([0.0, 0.5, math.inf]), weights=w), "finite"),
        (dict(grid, nodes=np.array([math.nan, 0.5, 1.0]), weights=w), "finite"),
        (dict(grid, nodes=nodes, weights=np.array([0.5, 0.5])), "one per node"),
        (dict(grid, nodes=nodes, weights=np.array([0.6, -0.1, 0.5])), "non-negative"),
        (dict(grid, nodes=nodes, weights=np.array([0.5, math.nan, 0.5])), "finite"),
        (dict(grid, nodes=nodes, weights=np.array([0.5, 0.3, 0.3])), "sum to 1"),
    ]
    for fields, message in bad:
        with pytest.raises(ValueError, match=message):
            EquilibriumMeasure(**fields)
    EquilibriumMeasure(**dict(grid, nodes=nodes, weights=w + np.array([5e-10, 0.0, 0.0])))
    # the same checks hold for a measure read back from JSON
    good = json.loads(measure_to_json(EquilibriumMeasure(**dict(grid, nodes=nodes, weights=w))))
    for key, value in (("nodes", [0.0, 0.5, 0.4]), ("closed_form", "semicirc")):
        with pytest.raises(ValueError):
            measure_from_json(json.dumps(dict(good, **{key: value})))
