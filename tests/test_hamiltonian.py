import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loggas import (
    Configuration,
    DegenerateConfigError,
    breakdown,
    discrepancy,
    energy,
    gradient,
    model_constants,
    polynomial,
    quadratic,
    quartic,
    semicircle_equilibrium,
)
from loggas import hamiltonian
from loggas.hamiltonian import BLOCK_ELEMENTS, BLOCK_ROWS, _block_rows, _extracted_sums, _pair_blocks

MU = semicircle_equilibrium()
V2 = quadratic()
CONSTS = model_constants(MU, V2)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def sorted_config(rng, n, scale=1.2, gap=0.01):
    # additive ramp guarantees the minimum gap without rejection
    pts = np.sort(rng.normal(0.0, scale, n)) + gap * np.arange(n)
    return Configuration(pts)


def test_two_point_value():
    cfg = Configuration(np.array([-INV_SQRT2, INV_SQRT2]))
    assert energy(cfg, V2) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)


def test_single_point():
    assert energy(Configuration(np.array([0.0])), V2) == 0.0
    assert energy(Configuration(np.array([1.5])), V2) == pytest.approx(1.125, rel=1e-14)
    g = gradient(Configuration(np.array([1.5])), V2)
    assert g.shape == (1,)
    assert g[0] == pytest.approx(1.5, rel=1e-14)


def test_coincident_points_rejected():
    with pytest.raises(DegenerateConfigError):
        Configuration(np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        Configuration(np.array([1.0, 0.0]))  # unsorted is a usage error
    # a subnormal but nonzero gap is still a valid (huge) energy
    assert np.isfinite(energy(Configuration(np.array([0.0, 1e-300])), V2))


@pytest.mark.parametrize("points", [
    [np.nan, 1.0], [0.0, np.nan, 2.0], [0.0, np.inf], [-np.inf, 0.0], [np.nan], [np.inf],
    [-1e308, 1e308],  # finite points, but the span overflows
])
def test_non_finite_points_rejected(points):
    with pytest.raises(ValueError):
        Configuration(np.array(points))


@pytest.mark.parametrize("V", [quadratic(), quartic()], ids=["quadratic", "quartic"])
@pytest.mark.parametrize("x", [0.0, -0.0, 0.3, -1.7, 1e-200, 5.0])
def test_single_point_is_the_confinement(V, x):
    # n = 1 has no pairs: w_1 = V(x) and its gradient V'(x), bit for bit
    cfg = Configuration(np.array([x]))
    assert energy(cfg, V) == float(V.eval(np.array([x]))[0])
    assert np.array_equal(gradient(cfg, V), V.deriv(np.array([x])))


def fsum_energy(pts, V):
    """The list form of w_n: math.fsum over the n(n-1)/2 pair logs."""
    n = len(pts)
    i, j = np.triu_indices(n, 1)
    return -2 * math.fsum(np.log(pts[j] - pts[i]).tolist()) + n * math.fsum(V(pts).tolist())


def full_matrix_gradient(pts, V):
    """The n x n form of the w_n gradient: row sums of 1/(x_i - x_j)."""
    diff = pts[:, None] - pts[None, :]
    np.fill_diagonal(diff, np.inf)
    return -2.0 * (1.0 / diff).sum(axis=1) + len(pts) * V.deriv(pts)


def exactness_cases():
    rng = np.random.default_rng(2300)
    r = BLOCK_ROWS
    cases = {
        "n1": np.array([0.7]),
        "n2": np.array([-0.3, 1.9]),
        # gaps one ulp off 1: pair logs near +-1e-16
        "gap-1+ulp": np.array([0.0, 1.0 + 2.0 ** -52]),
        "gap-1-ulp": np.array([0.0, 1.0 - 2.0 ** -53]),
        "ulp-spaced": 1.0 + 2.0 ** -52 * np.arange(40),
        "unit-ulp-chain": np.arange(70) * (1.0 + 2.0 ** -52),
        # a subnormal gap: a pair log near -744
        "subnormal-gap": np.array([-1.0, 0.0, 5e-324, 1e-300, 2.0]),
    }
    # one block's rows -1, +0, +1 and twice; then a width whose rows the
    # element budget sets (63)
    for n in (r - 1, r, r + 1, 2 * r, BLOCK_ELEMENTS // r + 3):
        cases[f"n{n}"] = np.sort(rng.normal(0.0, 1.0, n))
    for scale in (1e-150, 1e150):
        cases[f"scale{scale:g}"] = np.sort(rng.normal(0.0, scale, 3 * r // 2))
    # np.sum rounds these pair logs differently from math.fsum
    cases["pairwise-witness"] = np.sort(np.random.default_rng(7).normal(0.0, 1.0, 200))
    # one block with a log near 345 and logs near 1e-16, whose last bits
    # lie about 2^-105: most of the block is left in the one pass's residual
    cases["large-and-near-1"] = np.concatenate(
        [[-1e150], np.cumsum([0.0, 1 + 2.0 ** -52, 1 - 2.0 ** -53, 1 + 2.0 ** -51, 1 + 3 * 2.0 ** -52])])
    # a first block of exactly BLOCK_ELEMENTS terms (64 rows of 512)
    cases["full-block"] = np.sort(rng.normal(0.0, 1.0, BLOCK_ELEMENTS // BLOCK_ROWS))
    # a first block of 43 rows of 762, 2^15 - 2 terms, so 2^M = L + 2
    # exactly; every log lies in [248, 256), just under 2^8, so the
    # block's extracted parts sum to within 5 % of sigma = 2^(M + 8)
    cases["tight-2^M"] = 1e108 * np.arange(762.0)
    # mirrored points, x == -x[::-1]: half the pairs at weight 2. Odd n has
    # a zero middle point; 2r + 1 and 2r + 2 points fill one block of r
    # rows, 2r + 3 start a second; at 1025 the element budget sets the rows
    for n in (2, 3, 2 * r + 1, 2 * r + 2, 2 * r + 3, 1025):
        x = np.sort(rng.normal(0.0, 1.0, n))
        cases[f"mirror-n{n}"] = 0.5 * (x - x[::-1])
    cases["mirror-scale1e150"] = 1e150 * cases[f"mirror-n{2 * r + 3}"]
    cases["mirror-near-1"] = np.cumsum([0.0, *[1 + 2.0 ** -52, 1 - 2.0 ** -53] * 40]) - 40.0
    return cases


CASES = exactness_cases()


# so weak that the pair sum still sets w_n at |x| = 1e150, where x^2/2
# swamps it
V_FLAT = polynomial([0.0, 0.0, 1e-300])


@pytest.mark.parametrize("name", list(CASES))
def test_energy_is_the_correctly_rounded_pair_sum(name):
    pts = CASES[name]
    assert energy(Configuration(pts), V2) == fsum_energy(pts, V2)
    assert energy(Configuration(pts), V_FLAT) == fsum_energy(pts, V_FLAT)


def pair_logs(pts):
    i, j = np.triu_indices(len(pts), 1)
    return np.log(pts[j] - pts[i])


def one_pass_is_exact(t):
    # the identities of the certificate in `energy`: after one pass, the q
    # sum and the residual r add up to the block exactly (math.fsum rounds
    # correctly, so it returns 0 exactly when they and -t cancel), and the
    # float sum of r is within b of its exact sum
    r = t.copy()
    q_sum, r_sum, bound = _extracted_sums(r)
    return (math.fsum([q_sum, *r.tolist(), *(-t).tolist()]) == 0.0
            and abs(math.fsum([r_sum, *(-r).tolist()])) <= bound)


def test_mirror_cases_are_mirrored():
    for name in [k for k in CASES if k.startswith("mirror")]:
        pts = CASES[name]
        assert np.array_equal(pts, -pts[::-1]) and np.all(np.diff(pts) > 0), name
    assert CASES["mirror-n3"][1] == 0.0
    assert np.all(np.abs(np.diff(CASES["mirror-near-1"]) - 1) <= 2.0 ** -51)


@pytest.mark.parametrize("name", list(CASES))
def test_one_pass_bound_covers_the_residual_sum(name):
    # on the blocks `energy` certifies: every row block of the pair
    # matrix, and of its mirror half where the points are mirrored
    pts = CASES[name]
    for mirrored in {False, bool(np.array_equal(pts, -pts[::-1]))}:
        for t in _pair_blocks(pts, mirrored):
            assert one_pass_is_exact(t)


@pytest.mark.parametrize("name", list(CASES))
def test_extraction_is_exact_on_every_block(name):
    # on the flat list of pair logs, cut into blocks of BLOCK_ELEMENTS
    t = pair_logs(CASES[name])
    for a in range(0, len(t), BLOCK_ELEMENTS):
        assert one_pass_is_exact(t[a:a + BLOCK_ELEMENTS])


@pytest.mark.parametrize("length", [2 ** 15 - 2, 2 ** 15 - 1, BLOCK_ELEMENTS])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_extraction_is_exact_where_the_parts_near_sigma(length, sign):
    # every term just under 2^8, so the extracted parts of a block of
    # 2^M - 2 terms sum to just under sigma = 2^(M + 8); with half that
    # sigma, a sum of parts rounds in about half of these draws
    for seed in range(4):
        t = sign * np.random.default_rng(seed).uniform(255.0, 256.0, length)
        assert one_pass_is_exact(t)


def test_block_boundary_cases_are_what_they_claim():
    assert _block_rows(512) * 512 == BLOCK_ELEMENTS
    L = _block_rows(762) * 762
    assert 2 ** (L + 1).bit_length() == L + 2
    pts = CASES["tight-2^M"]
    assert 128 <= math.log(pts[1] - pts[0]) and math.log(pts[-1] - pts[0]) < 256


def test_pairwise_witness_separates_the_sums():
    # so that a kernel summing pairwise fails the equality on this case
    pts = CASES["pairwise-witness"]
    i, j = np.triu_indices(len(pts), 1)
    t = np.log(pts[j] - pts[i])
    assert float(np.sum(t)) != math.fsum(t.tolist())


def same_gradient(pts):
    # a subnormal gap overflows 1/(x_i - x_j) on both sides, to the same inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array_equal(gradient(Configuration(pts), V2), full_matrix_gradient(pts, V2),
                              equal_nan=True)


@pytest.mark.parametrize("name", list(CASES))
def test_gradient_matches_the_full_matrix_form(name):
    assert same_gradient(CASES[name])


SORTED_DISTINCT = st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=3 * BLOCK_ROWS // 2,
                           unique=True).map(sorted).map(np.array)


@settings(deadline=None, max_examples=60)
@given(SORTED_DISTINCT)
def test_kernels_match_their_references_on_any_points(pts):
    assume(np.all(np.diff(pts) > 0))
    assert energy(Configuration(pts), V2) == fsum_energy(pts, V2)
    assert same_gradient(pts)


# points whose neighbours lie within a few ulp of 1 apart, so that the
# adjacent pair logs are near 1e-16, and maybe one far point whose logs
# are near 345
NEAR_1_GAPS = st.tuples(
    st.lists(st.floats(1 - 2.0 ** -50, 1 + 2.0 ** -49), min_size=1, max_size=3 * BLOCK_ROWS // 2),
    st.booleans(),
).map(lambda c: np.concatenate([[-1e150] if c[1] else [], np.cumsum([0.0] + c[0])]))


@settings(deadline=None, max_examples=60)
@given(NEAR_1_GAPS)
def test_energy_is_exact_on_near_1_gaps(pts):
    assert energy(Configuration(pts), V_FLAT) == fsum_energy(pts, V_FLAT)
    assert one_pass_is_exact(pair_logs(pts))


def mirror(half, middle):
    return np.concatenate([-half[::-1], [0.0] if middle else [], half])


# mirrored configurations, x == -x[::-1]: even and odd n (a zero middle
# point), sizes whose (n - 1) // 2 summed rows cross the 64-row block
# boundary, points up to 1e150, and near-1 gaps throughout (the middle gap
# of even n too)
MIRRORED = st.one_of(
    st.tuples(st.lists(st.floats(0.0, 1e150, exclude_min=True), min_size=1, max_size=3 * BLOCK_ROWS // 2,
                       unique=True).map(sorted).map(np.array), st.booleans()),
    st.tuples(st.lists(st.floats(1 - 2.0 ** -50, 1 + 2.0 ** -49), min_size=1, max_size=3 * BLOCK_ROWS // 2),
              st.booleans()).map(lambda c: (np.cumsum([c[0][0] * (1.0 if c[1] else 0.5), *c[0][1:]]), c[1])),
).map(lambda c: mirror(*c))


@settings(deadline=None, max_examples=80)
@given(MIRRORED)
def test_energy_is_exact_on_mirrored_points(pts):
    assume(np.all(np.diff(pts) > 0))
    assert np.array_equal(pts, -pts[::-1])
    assert energy(Configuration(pts), V2) == fsum_energy(pts, V2)
    assert energy(Configuration(pts), V_FLAT) == fsum_energy(pts, V_FLAT)


def spy_pair_blocks(monkeypatch):
    """Record the `mirrored` flag of every `_pair_blocks` walk: `energy`
    walks once to certify, and once more, unmirrored, for the definition."""
    calls = []
    real = hamiltonian._pair_blocks

    def spy(pts, mirrored):
        calls.append(mirrored)
        return real(pts, mirrored)

    monkeypatch.setattr(hamiltonian, "_pair_blocks", spy)
    return calls


def test_mirrored_points_sum_half_the_pairs(monkeypatch):
    # the mirror route runs exactly where x == -x[::-1]
    calls = spy_pair_blocks(monkeypatch)
    x = np.sort(np.random.default_rng(5).normal(0.0, 1.0, 9))
    for pts, mirrored in ((x, False), (0.5 * (x - x[::-1]), True), (mirror(np.array([1.0]), True), True)):
        energy(Configuration(pts), V2)
        assert calls[0] == mirrored
        del calls[:]


def is_tie(pts):
    """Whether the exact pair-log sum is the midpoint of two doubles."""
    logs = pair_logs(pts).tolist()
    s = math.fsum(logs)
    return abs(math.fsum([*logs, -s])) == math.ulp(s) / 2


def test_exact_ties_fall_back_to_full_extraction(monkeypatch):
    # an a-priori bound cannot certify a sum that sits on a rounding
    # midpoint: at n = 3 about one normal draw in six does, and each must
    # take the definition, math.fsum over every pair log, and so still
    # round correctly
    calls = spy_pair_blocks(monkeypatch)
    rng = np.random.default_rng(2800)
    ties = 0
    for _ in range(200):
        pts = np.sort(rng.normal(0.0, 1.0, 3))
        del calls[:]
        assert energy(Configuration(pts), V2) == fsum_energy(pts, V2)
        if is_tie(pts):
            ties += 1
            assert calls == [False, False]
    assert ties >= 20


def test_random_points_are_certified_in_one_pass(monkeypatch):
    calls = spy_pair_blocks(monkeypatch)
    for n in (1024, 1025):
        x = np.sort(np.random.default_rng(n).normal(0.0, 1.0, n))
        for pts, mirrored in ((x, False), (0.5 * (x - x[::-1]), True)):
            assert energy(Configuration(pts), V2) == fsum_energy(pts, V2)
            assert calls == [mirrored]
            del calls[:]


def test_all_zero_pair_logs_are_certified_in_one_pass(monkeypatch):
    # at n = 1 and at [0, 1] every pair log is exactly 0, so every q and r
    # is 0 and the bound is 0: no second walk for the definition
    calls = spy_pair_blocks(monkeypatch)
    for pts in ([0.3], [0.0, 1.0], [0.1, 0.7, 2.0]):
        pts = np.array(pts)
        assert energy(Configuration(pts), V2) == fsum_energy(pts, V2)
        assert calls == [False]
        del calls[:]


def test_gradient_zero_at_two_point_minimizer():
    cfg = Configuration(np.array([-INV_SQRT2, INV_SQRT2]))
    assert np.max(np.abs(gradient(cfg, V2))) <= 1e-12


def test_gradient_antisymmetric_for_mirrored_pair():
    # even V: mirror symmetry flips the gradient componentwise
    for v in (V2, quartic()):
        cfg = Configuration(np.array([-1.3, 0.4]))
        mirrored = Configuration(np.array([-0.4, 1.3]))
        g = gradient(cfg, v)
        gm = gradient(mirrored, v)
        assert np.allclose(g, -gm[::-1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [3, 10, 50])
def test_gradient_matches_finite_differences(n):
    rng = np.random.default_rng(4000 + n)
    for _ in range(4):
        cfg = sorted_config(rng, n)
        g = gradient(cfg, V2)

        def at(i, dx):
            pts = cfg.points.copy()
            pts[i] += dx
            return energy(Configuration(pts), V2)

        for i in rng.choice(n, size=min(3, n), replace=False):
            # fourth-order stencil keeps truncation below the target even
            # when a neighbor sits close and the third derivative blows up
            h = 1e-4 * max(1.0, abs(cfg.points[i]))
            fd = (8.0 * (at(i, h) - at(i, -h)) - (at(i, 2 * h) - at(i, -2 * h))) / (12.0 * h)
            assert abs(fd - g[i]) / max(abs(g[i]), 1e-8) <= 1e-6


def test_breakdown_two_point():
    cfg = Configuration(np.array([-INV_SQRT2, INV_SQRT2]))
    b = breakdown(cfg, V2, MU, CONSTS)
    # (w_2 - 4 F + 2 log 2) / 2 with w_2 = 1 - log 2 and F = 3/4
    assert b.f_n == pytest.approx((math.log(2.0) - 2.0) / 2.0, rel=1e-12)
    assert b.zeta_sum == pytest.approx(0.0, abs=1e-12)
    assert b.f_hat == pytest.approx(b.f_n, rel=1e-12)


@pytest.mark.parametrize("n", [2, 16, 128, 512])
def test_breakdown_reassembles(n):
    rng = np.random.default_rng(n)
    cfg = sorted_config(rng, n, scale=1.5, gap=1e-4)
    b = breakdown(cfg, V2, MU, CONSTS)
    w = b.leading - b.log_term + n * b.f_n
    assert w == pytest.approx(b.w_n, rel=1e-9)
    assert b.w_n == pytest.approx(energy(cfg, V2), rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 40), st.integers(0, 10_000))
def test_f_hat_below_f_n(n, seed):
    rng = np.random.default_rng(seed)
    cfg = sorted_config(rng, n, scale=2.0, gap=1e-3)
    b = breakdown(cfg, V2, MU, CONSTS)
    assert b.f_hat <= b.f_n + 1e-12
    assert b.zeta_sum >= -1e-12


def test_discrepancy_conventions():
    n = 10
    cfg = Configuration(np.linspace(5.0, 6.0, n))  # far from the window
    # window centered at 0 with radius R/n = 1: mass of [-1, 1]
    mass = MU.interval_mass(-1.0, 1.0)
    assert discrepancy(cfg, MU, 0.0, n * 1.0) == pytest.approx(-n * mass, rel=1e-12)
    # far window sees neither points nor mass
    assert discrepancy(cfg, MU, 40.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        discrepancy(cfg, MU, 0.0, -1.0)


@pytest.mark.parametrize("window", [(0.0, 0.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                    (math.inf, 1.0)])
def test_discrepancy_rejects_bad_windows(window):
    # the window check of SamplerConfig: a NaN centre or radius would return nan
    with pytest.raises(ValueError):
        discrepancy(Configuration(np.array([-1.0, 0.0, 1.0])), MU, *window)


def test_discrepancy_quantiles_balanced():
    # quantile points track the measure: every window within one particle
    n = 64
    cfg = Configuration(MU.quantiles(n))
    rng = np.random.default_rng(7)
    for _ in range(40):
        x0 = rng.uniform(-2.2, 2.2)
        R = rng.uniform(0.1, 3.0) * n / 2.0
        assert abs(discrepancy(cfg, MU, x0, R)) <= 1.0 + 1e-9


def test_discrepancy_boundary_points_count():
    cfg = Configuration(np.array([-1.0, 0.0, 1.0]))
    d = discrepancy(cfg, MU, 0.0, 3.0)  # radius 1, closed interval
    assert d == pytest.approx(3 - 3 * MU.interval_mass(-1.0, 1.0), rel=1e-12)
