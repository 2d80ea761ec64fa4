import contextlib
import math

import numpy as np
import pytest

from scipy.special import roots_hermite

from loggas import (double_well, energy, gradient, hermite_oracle, minimize, polynomial, quadratic, quartic,
                    semicircle_equilibrium)
from loggas import fekete
from loggas.errors import ConvergenceError
from loggas.fekete import MAX_ITER, quantile_start

V2 = quadratic()
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_two_point_minimizer():
    res = minimize(2, V2, seed=0)
    assert res.converged
    assert np.allclose(res.config.points, [-INV_SQRT2, INV_SQRT2], atol=1e-10)


def test_single_point_minimizer():
    res = minimize(1, V2, seed=0)
    assert res.converged
    assert res.config.points[0] == pytest.approx(0.0, abs=1e-10)


def test_single_point_result_is_complete():
    # n = 1 runs the same Newton solve as n >= 2, so it reports the same
    # semicircle breakdown (F = 3/4, so f_1 = w_1 - 3/4) and energy trace
    res = minimize(1, V2, multistart=1)
    assert res.breakdown is not None
    assert res.breakdown.f_n == pytest.approx(-0.75, abs=1e-12)
    assert res.energy_trace and res.energy_trace[-1] == res.breakdown.w_n


def test_single_point_is_the_global_minimum_of_v():
    # V' = x (1 - 0.06 x + 4e-4 x^2) has roots 0 and 75 -+ 25 sqrt 5; the
    # local minimum at 0 has V = 0, the global one at 75 + 25 sqrt 5 has V = -6931.36
    V = polynomial([0.0, 0.0, 0.5, -0.02, 1e-4])
    res = minimize(1, V)
    assert res.converged
    assert res.config.points[0] == pytest.approx(75.0 + 25.0 * math.sqrt(5.0), abs=1e-9)


def test_single_point_runs_one_descent():
    # V's global minimizer is the one-point Fekete set, so jittered
    # restarts around it would only add solves and let rounding pick the
    # reported iteration count
    V = polynomial([0.0, 0.0, 0.5, -0.02, 1e-4])
    one, three = minimize(1, V, multistart=1), minimize(1, V, multistart=3)
    assert one.iterations == three.iterations == 0
    assert np.array_equal(one.config.points, three.config.points)


def test_single_point_double_well_is_a_well():
    # the quantile start x = 0 is the double well's stationary maximum
    res = minimize(1, double_well())
    assert abs(res.config.points[0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_polynomial_half_x_squared_solves_as_quadratic():
    # same V, so the same semicircle start, points and breakdown
    a = minimize(16, polynomial([0.0, 0.0, 0.5]), multistart=1)
    b = minimize(16, V2, multistart=1)
    assert a.breakdown is not None
    assert a.breakdown == b.breakdown
    assert np.array_equal(a.config.points, b.config.points)


def test_oracle_small_cases():
    assert hermite_oracle(1).points[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(hermite_oracle(2).points, [-INV_SQRT2, INV_SQRT2], atol=1e-13)


@pytest.mark.parametrize("n", [4, 8, 32])
def test_oracle_stationarity(n):
    g = gradient(hermite_oracle(n), V2)
    assert np.max(np.abs(g)) <= 1e-9 * n


@pytest.mark.parametrize("n", [100, 300, 800, 1024])
def test_oracle_matches_scipy_hermite_roots(n):
    # up to n = 1024, the range the solver covers
    roots = hermite_oracle(n).points * math.sqrt(n / 2.0)
    assert np.max(np.abs(roots - roots_hermite(n)[0])) <= 1e-12


def test_oracle_interlacing():
    # roots of successive degrees interlace
    for n in (5, 12, 33):
        a = hermite_oracle(n).points * math.sqrt(n / 2.0)
        b = hermite_oracle(n + 1).points * math.sqrt((n + 1) / 2.0)
        assert np.all(b[:-1] < a) and np.all(a < b[1:])


def test_minimize_matches_oracle_16():
    res = minimize(16, V2, seed=0)
    assert res.converged
    assert np.max(np.abs(res.config.points - hermite_oracle(16).points)) <= 1e-8


def test_newton_converges_fast_to_hermite_roots():
    # scipy's Gauss-Hermite nodes are the reference here, a route
    # independent of both the optimizer and hermite_oracle
    res = minimize(256, V2, multistart=1)
    assert res.converged and res.iterations <= 10
    ref = math.sqrt(2.0 / 256) * roots_hermite(256)[0]
    assert np.max(np.abs(res.config.points - ref)) <= 1e-12


@pytest.mark.parametrize(
    "V, n",
    [(double_well(), 1), (double_well(), 2), (double_well(), 3), (double_well(), 16), (quartic(), 16)],
    ids=["double_well-1", "double_well-2", "double_well-3", "double_well-16", "quartic-16"],
)
def test_nonconvex_and_quartic_converge(V, n):
    # the double well is not convex, so its Hessian needs a Levenberg shift
    res = minimize(n, V, multistart=1)
    assert res.converged
    assert np.max(np.abs(gradient(res.config, V))) <= 1e-10 * n
    trace = np.asarray(res.energy_trace)
    assert np.all(np.diff(trace) <= 1e-14 * np.maximum(1.0, np.abs(trace[:-1])))


@pytest.mark.parametrize("n", [3, 5, 7, 31])
def test_double_well_first_start_leaves_the_saddle(n):
    # the double well's quantile start keeps the middle point of odd n at
    # 0, a saddle of w_n; jittered, one start reaches the three-start minimum
    V = double_well()
    one, three = minimize(n, V, multistart=1), minimize(n, V, multistart=3)
    assert one.converged
    assert energy(one.config, V) == pytest.approx(energy(three.config, V), rel=1e-9)
    if n == 3:
        assert one.iterations <= 10


def test_first_start_is_jittered_exactly_where_v_is_not_convex():
    # the seed only draws jitter, so it moves the single start of the
    # double well (V'' < 0 near 0) and not that of the convex quartic
    def pts(V, seed):
        return minimize(8, V, seed=seed, multistart=1).config.points

    assert np.array_equal(pts(quartic(), 0), pts(quartic(), 1))
    assert not np.array_equal(pts(double_well(), 0), pts(double_well(), 1))


def test_quantile_start_without_a_closed_form_is_the_semicircle():
    for n in (1, 2, 17):
        assert np.array_equal(quantile_start(n), semicircle_equilibrium().quantiles(n))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError):
        minimize(3, V2, tol=tol)


def test_minimizer_support_near_equilibrium():
    # excess beyond [-2, 2] shrinks with n; delta_64 < 0.2
    res = minimize(64, V2, seed=0, multistart=1)
    delta = max(0.0, float(np.max(np.abs(res.config.points))) - 2.0)
    assert delta < 0.2


def test_every_accepted_step_decreases_energy():
    res = minimize(32, V2, seed=0, multistart=1)
    trace = np.asarray(res.energy_trace)
    assert len(trace) >= 2
    d = np.diff(trace)
    scale = np.maximum(1.0, np.abs(trace[:-1]))
    # non-increasing to rounding; the early phase strictly decreases
    assert np.all(d <= 1e-14 * scale)
    assert np.all(d[: len(d) // 2] < 0.0)
    assert trace[-1] == pytest.approx(res.breakdown.w_n, rel=1e-12)


def test_next_order_trend():
    f = []
    for n in (16, 32, 64):
        res = minimize(n, V2, seed=11, multistart=1)
        assert res.converged
        f.append(res.breakdown.f_n)
    # increasing toward the limit, magnitude gap to 1/2 shrinking
    assert f[0] < f[1] < f[2]
    gaps = [abs(abs(x) - 0.5) for x in f]
    assert gaps[0] > gaps[1] > gaps[2]


def test_ground_state_next_order_sign():
    # regression pin: the next-order term of the minimizer is negative,
    # approaching -1/2 from below
    res = minimize(64, V2, seed=11, multistart=1)
    assert res.breakdown.f_n == pytest.approx(-0.509302006349782, abs=1e-6)


def test_nonconverged_flagged():
    # no float gradient reaches 1e-300, so the descent stalls when no
    # halved step lowers w or the gradient, long before MAX_ITER
    res = minimize(24, V2, seed=0, tol=1e-300, multistart=1)
    assert not res.converged and 0 < res.iterations < MAX_ITER
    assert res.grad_norm > 0.0


def test_deterministic_given_seed():
    a = minimize(12, V2, seed=5)
    b = minimize(12, V2, seed=5)
    assert np.array_equal(a.config.points, b.config.points)
    assert a.iterations == b.iterations


def two_factorisation_step(pts, g, V, mirrored):
    """The Newton step before the Gershgorin certificate and the fold: a
    Cholesky test of the full H at s = 0, then at the floor s, and an LU
    solve at the first s that passes; `mirrored` is ignored."""
    H = pts[:, None] - pts[None, :]
    np.fill_diagonal(H, np.inf)
    H *= H
    np.divide(-2.0, H, out=H)
    nvpp = len(pts) * V.deriv2(pts)
    diag = nvpp - H.sum(axis=1)
    floor = max(0.0, -float(np.min(nvpp))) + 1e-12 * float(np.max(np.abs(diag)))
    for tests, shift in enumerate((0.0, floor), start=1):
        np.fill_diagonal(H, diag + shift)
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(H)
            return np.linalg.solve(H, -g), tests
    raise ConvergenceError("the Levenberg shift did not make the w_n Hessian positive definite")


def recorded_minimize(monkeypatch, step, n, V):
    """minimize(n, V) with `step` as its Newton step, and the (x, g, d)
    triples of every call."""
    steps = []

    def recording_step(pts, g, V, mirrored):
        d, tests = step(pts, g, V, mirrored)
        steps.append((pts.copy(), g.copy(), d))
        return d, tests

    with monkeypatch.context() as m:
        m.setattr(fekete, "_newton_step", recording_step)
        res = minimize(n, V)
    return res, steps


# convex and not even: V'' = 1 + 0.6 x + 0.6 x^2 >= 0.85
CONVEX_NOT_EVEN = polynomial([0.0, 0.3, 0.5, 0.1, 0.05])
FOLDED = [(V2, 256), (quartic(), 16), (quartic(), 17)]
FOLDED_IDS = ["quadratic-256", "quartic-16", "quartic-17"]


@pytest.mark.parametrize("V, n", [*FOLDED, (double_well(), 16), (CONVEX_NOT_EVEN, 16)],
                         ids=[*FOLDED_IDS, "double_well-16", "convex_not_even-16"])
def test_newton_iterates_match_the_two_factorisation_step(monkeypatch, V, n):
    new, new_steps = recorded_minimize(monkeypatch, fekete._newton_step, n, V)
    ref, ref_steps = recorded_minimize(monkeypatch, two_factorisation_step, n, V)
    assert new.mirrored == (V.even and V.convex)
    assert len(new_steps) == len(ref_steps) and new.iterations == ref.iterations
    if new.mirrored:
        # the folded and the full solve round differently; both end at the
        # one minimizer, to 8 ulp of the largest |x|
        scale = float(np.max(np.abs(ref.config.points)))
        assert np.max(np.abs(new.config.points - ref.config.points)) <= 8 * 2.0 ** -52 * scale
    else:
        for (x, _, d), (x_ref, _, d_ref) in zip(new_steps, ref_steps):
            assert np.array_equal(x, x_ref) and np.array_equal(d, d_ref)
        assert np.array_equal(new.config.points, ref.config.points)
        assert new.energy_trace == ref.energy_trace
    assert new.cholesky_tests < ref.cholesky_tests
    # Gershgorin certifies every step of a convex V, the odd-n quartic's
    # folded steps among them (V''(0) = 0 is the dropped middle row); V'' < 0
    # needs a Cholesky test
    assert (new.cholesky_tests > 0) == (np.min(V.deriv2(new.config.points)) < 0)


@pytest.mark.parametrize("V, n", FOLDED, ids=FOLDED_IDS)
def test_folded_steps_are_the_full_newton_steps(monkeypatch, V, n):
    res, steps = recorded_minimize(monkeypatch, fekete._newton_step, n, V)
    assert res.mirrored and steps
    for x, g, d in steps:
        assert np.array_equal(x, -x[::-1]) and np.array_equal(d, -d[::-1])
        full = np.linalg.solve(fekete.hessian(x, V), -g)
        # the two solves' rounding, and g's rounding asymmetry (|g + g[::-1]|
        # about 2e-13 at n = 256) through H^-1, which the fold drops
        assert np.max(np.abs(d - full)) <= 1e-9 * np.max(np.abs(full)) + 1e-12
    assert np.array_equal(res.config.points, -res.config.points[::-1])


@pytest.mark.parametrize("n", [8, 9, 64, 65])
def test_fold_at_the_hermite_zeros_has_the_even_hessian_eigenvalues(n):
    # H = n {1, ..., n} at x*; the antisymmetric eigenvectors carry the even
    # multiples, so a sign error or a wrong mirror column moves them by O(1)
    F = fekete._fold(fekete._hessian_rows(hermite_oracle(n).points, V2, n // 2)[0])
    assert np.array_equal(F, F.T)
    assert np.max(np.abs(np.linalg.eigvalsh(F) / n - 2.0 * np.arange(1, n // 2 + 1))) <= 1e-10


@pytest.mark.parametrize("n", [4, 16, 128])
def test_hessian_at_the_hermite_zeros_has_eigenvalues_n_times_1_to_n(n):
    # the whole spectrum, odd multiples (symmetric eigenvectors) included,
    # which the fold above does not see
    H = fekete.hessian(hermite_oracle(n).points, V2)
    assert np.array_equal(H, H.T)
    assert np.max(np.abs(np.linalg.eigvalsh(H) / n - np.arange(1, n + 1))) <= 1e-10


@pytest.mark.parametrize("V, n", [(V2, 1), (V2, 2), (V2, 17), (V2, 512), (polynomial([0, 0, 0.5]), 17)],
                         ids=["quadratic-1", "quadratic-2", "quadratic-17", "quadratic-512", "polynomial-17"])
def test_breakdown_holds_the_energy_of_the_returned_points(V, n):
    # minimize hands its winning start's w_n to the breakdown rather than
    # computing it again; it is the same float
    res = minimize(n, V)
    assert res.breakdown.w_n == energy(res.config, V)


@pytest.mark.parametrize("V", [V2, quartic(), CONVEX_NOT_EVEN], ids=["quadratic", "quartic", "convex_not_even"])
def test_convex_v_starts_once(V):
    # w_n has one minimizer, so further starts would only repeat the descent
    a, b = minimize(16, V, seed=0), minimize(16, V, seed=5, multistart=1)
    assert np.array_equal(a.config.points, b.config.points) and a.iterations == b.iterations


#: relative bound on |w_n - hermite_energy(n)|, in units of 2^-52
HERMITE_ENERGY_ULPS = 8


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512, 1024, 2048, 4096])
def test_hermite_energy_is_the_energy_of_the_oracle(n):
    exact = fekete.hermite_energy(n)
    assert abs(energy(hermite_oracle(n), V2) - exact) <= HERMITE_ENERGY_ULPS * 2.0 ** -52 * abs(exact)


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 2048])
def test_hermite_energy_is_the_minimum(n):
    exact = fekete.hermite_energy(n)
    assert abs(minimize(n, V2).breakdown.w_n - exact) <= HERMITE_ENERGY_ULPS * 2.0 ** -52 * abs(exact)


def test_levenberg_floor_is_certified_where_n_2_52_sets_the_margin(monkeypatch):
    # MARGIN below n 2^-52, as it is at every n past 4503: the margin is then
    # n 2^-52 max |diag A|, and the Levenberg floor still meets Gershgorin
    # with no Cholesky test of its own, so a step makes at most one
    monkeypatch.setattr(fekete, "MARGIN", 1e-20)
    tests, factored, solved = [], [], []
    real_step, real_factors, real_solve = fekete._newton_step, fekete._factors, np.linalg.solve

    def counting_step(pts, g, V, mirrored):
        d, t = real_step(pts, g, V, mirrored)
        tests.append(t)
        return d, t

    def recording_factors(A):
        factored.append(real_factors(A))
        return factored[-1]

    def recording_solve(A, b):
        solved.append(A.copy())
        return real_solve(A, b)

    monkeypatch.setattr(fekete, "_newton_step", counting_step)
    monkeypatch.setattr(fekete, "_factors", recording_factors)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    res = minimize(16, double_well())
    assert res.converged and max(tests) == 1 and res.cholesky_tests == sum(tests) == len(factored)
    # some steps take the floor, and every matrix solved is positive definite
    assert not all(factored) and len(solved) == len(tests)
    for A in solved:
        np.linalg.cholesky(A)
