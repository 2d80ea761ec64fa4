"""Weighted Fekete sets: minimizers of w_n, with an independent oracle.

For the quadratic model the minimizer is known in closed form up to the
root-finding: the scaled roots sqrt(2/n) y_k of the degree-n physicists'
Hermite polynomial satisfy sum_{j != i} 1/(y_i - y_j) = y_i, which makes
the w_n gradient vanish identically. The oracle computes those roots as
the eigenvalues of the symmetric tridiagonal Jacobi matrix of the
orthonormal Hermite recurrence (Golub and Welsch, Math. Comp. 23 (1969)
221), zero diagonal and off-diagonal sqrt(k/2), k = 1..n-1, with LAPACK's
tridiagonal eigensolver; `hermite_energy` gives their w_n exactly. It
shares no code path with the optimizer it checks, which solves with LU
factorisations of the w_n Hessian (`hessian`), certified positive
definite at every n: by Gershgorin, else by a Cholesky test, else by
Gershgorin at the Levenberg floor. For an even convex V,
such as x^2/2 and the quartic, the one minimizer is mirror-symmetric, and
each Newton step is solved on the mirror half: an n // 2 square fold of
the Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import Configuration, EnergyBreakdown, _split, energy, gradient
from .model import EquilibriumMeasure, Potential, equilibrium_for, quadratic, semicircle_equilibrium

__all__ = ["FeketeResult", "minimize", "hessian", "hermite_oracle", "hermite_energy"]

#: Newton steps per start before `minimize` gives up on the tolerance
MAX_ITER = 2000


@dataclass(frozen=True)
class FeketeResult:
    config: Configuration
    grad_norm: float
    iterations: int
    converged: bool
    breakdown: EnergyBreakdown | None
    # w_n after each accepted step of the winning start; monotone
    # non-increasing, strictly decreasing until decrements drop below ulp
    energy_trace: tuple[float, ...] = ()
    # whether the Newton steps were folded onto the mirror half (V even and convex)
    mirrored: bool = False
    # Cholesky tests of the Newton matrices, over every start
    cholesky_tests: int = 0


# ---------------------------------------------------------------------------
# Hermite-root oracle


def _hermite_roots(n: int) -> np.ndarray:
    # imported here so that `import loggas` does not load scipy.linalg
    from scipy.linalg import eigvalsh_tridiagonal

    y = eigvalsh_tridiagonal(np.zeros(n), np.sqrt(np.arange(1, n) / 2.0))
    # enforce exact symmetry, so the middle root of odd n is exactly 0
    return 0.5 * (y - y[::-1])


def hermite_oracle(n: int) -> Configuration:
    """Stationary configuration of the quadratic model: sqrt(2/n) times
    the roots of the degree-n physicists' Hermite polynomial."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Configuration(math.sqrt(2.0 / n) * _hermite_roots(n))


def hermite_energy(n: int) -> float:
    """w_n at `hermite_oracle(n)`, the minimum of w_n for x^2/2, in closed
    form: (n(n-1)/2)(1 + log n) - sum_{k=1..n} k log k, from Stieltjes's
    discriminant of H_n (Szego, Orthogonal Polynomials, 1939, 6.71) and
    the sum n(n-1)/2 of its squared zeros; the rounded terms are summed
    exactly (`math.fsum`) and rounded once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    half = n * (n - 1) / 2.0
    return math.fsum([half, half * math.log(n), *(-k * math.log(k) for k in range(2, n + 1))])


# ---------------------------------------------------------------------------
# optimizer


def quantile_start(n: int, mu: EquilibriumMeasure | None) -> np.ndarray:
    """The start rule of the solver and the sampler: the midpoint quantiles
    of `mu`, V's closed-form equilibrium measure, or else the semicircle's."""
    return (semicircle_equilibrium() if mu is None else mu).quantiles(n)


def jittered(base: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """The jittered-start rule of the solver and the sampler: `base` plus a
    normal draw of `scale` times its smallest gap (1 for a single point),
    sorted, and redrawn until strictly increasing."""
    sd = scale * (float(np.min(np.diff(base))) if len(base) > 1 else 1.0)
    while True:
        x0 = np.sort(base + rng.normal(0.0, sd, len(base)))
        if np.all(np.diff(x0) > 0):
            return x0


#: relative margin of the Levenberg floor and the Gershgorin certificate
#: (n 2^-52 where larger, past n = 4503; see `_newton_step`)
MARGIN = 1e-12


def _factors(H: np.ndarray) -> bool:
    """Whether the Cholesky factorisation of H succeeds."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _hessian_rows(pts: np.ndarray, V: Potential, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `rows` rows of the w_n Hessian H of the n `pts`, and n V'' at their points.

    H is n diag V'' (exact, from V's coefficients) plus the positive
    semidefinite Laplacian with off-diagonal -2/(x_i-x_j)^2, so each row
    sums to n V''(x_i).
    """
    H = pts[:rows, None] - pts[None, :]
    np.fill_diagonal(H, np.inf)
    H *= H
    np.divide(-2.0, H, out=H)
    nvpp = len(pts) * V.deriv2(pts[:rows])
    np.fill_diagonal(H, nvpp - H.sum(axis=1))
    return H, nvpp


def hessian(pts: np.ndarray, V: Potential) -> np.ndarray:
    """The n x n Hessian of w_n at the n ordered `pts`: off-diagonal
    -2/(x_i-x_j)^2, and on the diagonal n V''(x_i) minus the off-diagonal
    row sum (`_hessian_rows` with every row)."""
    return _hessian_rows(pts, V, len(pts))[0]


def _fold(H: np.ndarray) -> np.ndarray:
    """F_ij = H_ij - H_{i,n-1-j} from the first m = n // 2 rows of H:
    half of P^T H P, with P's column i the antisymmetric e_i - e_{n-1-i}."""
    m = len(H)
    return H[:, :m] - H[:, ::-1][:, :m]


def _newton_step(pts: np.ndarray, g: np.ndarray, V: Potential, mirrored: bool) -> tuple[np.ndarray, int]:
    """Solve (H + s I) d = -g with the w_n Hessian H (`_hessian_rows`);
    return d and the number of Cholesky tests made.

    Unmirrored, A = H. Row i of A + s I has diagonal minus off-diagonal
    sum n V''(x_i) + s, so by Gershgorin A + s I is positive definite once
    min n V'' + s >= m = max(MARGIN, n 2^-52) max |diag A|, where n 2^-52
    covers the rounding of the row sums at every n (MARGIN sets m up to
    n = 4503). So s = 0 with no factorisation where min n V'' >= m (every
    step of a V with V'' > 0); else s = 0 if A passes a Cholesky test;
    else the floor s = max(0, -n min V'') + m, which meets the
    certificate by construction. One LU solve gives d.

    Mirrored (V even and convex, pts == -pts[::-1] exactly), A is the fold
    F = (1/2) P^T H P of `_fold`, built from rows i < n // 2 alone:

    1. V'' >= 0 makes w_n strictly convex on ordered points: its Laplacian
       part is strictly convex off translations, and n sum V(x_i + t) is
       strictly convex in t. So w_n has one minimizer, and as V is even,
       its mirror image -x[::-1] is a minimizer too: it is symmetric.
    2. On symmetric points H commutes with the mirror and g is
       antisymmetric, so Newton's d is antisymmetric, d = P d_h, and
       (P^T H P) d_h = -P^T g reads F d_h = -g_h, g_h = (g_i - g_{n-1-i})/2:
       the fold is Newton's step restricted to the symmetric points, and
       d = [d_h, 0 at odd n's middle, -d_h reversed] keeps every iterate
       exactly symmetric, since rounding commutes with negation.
    3. F is symmetric bit for bit, as x_{n-1-j} = -x_j exactly. Its
       off-diagonal -2/(x_i-x_j)^2 + 2/(x_i+x_j)^2 is negative (x_i, x_j <
       0), and row i sums to n V''(x_i) plus 4/(x_i-x_k)^2 over the mirror
       half k >= n - n // 2 and, at odd n, 2/x_i^2 from the middle point.
       So the certificate above holds on F with min n V'' over rows
       i < n // 2, F + s I is the fold of H + s I, and the odd-n quartic,
       whose V''(0) = 0 sits on the dropped middle row, is certified too.
    """
    n = len(pts)
    rows = n // 2 if mirrored else n
    A, nvpp = _hessian_rows(pts, V, rows)
    if mirrored:
        A = _fold(A)
        g = 0.5 * (g[:rows] - g[::-1][:rows])
    diag = A.diagonal().copy()
    low = float(np.min(nvpp))
    margin = max(MARGIN, n * 2.0 ** -52) * float(np.max(np.abs(diag)))
    tests = 0
    if low < margin:
        tests = 1
        if not _factors(A):
            np.fill_diagonal(A, diag + (max(0.0, -low) + margin))
    d = np.linalg.solve(A, -g)
    if mirrored:
        d = np.concatenate([d, np.zeros(n % 2), -d[::-1]])
    return d, tests


def _descend(x0: np.ndarray, V: Potential, tol: float,
             mirrored: bool) -> tuple[np.ndarray, float, float, int, bool, list[float], int]:
    """At most MAX_ITER Newton steps on w_n from the ordered start x0,
    mirrored or not (see `_newton_step`). Each is halved until the points
    stay ordered and w falls, or rises by at most rounding noise while the
    gradient falls; the trace keeps min w so far. Returns the final points,
    their w_n and gradient sup-norm, the step count, convergence, the
    trace and the number of Cholesky tests.
    """
    pts = np.array(x0)
    w = w_pts = energy(Configuration(pts), V)
    g = gradient(Configuration(pts), V)
    gn = float(np.max(np.abs(g)))
    trace = [w]
    tests = 0
    for it in range(MAX_ITER):
        if gn <= tol:
            return pts, w_pts, gn, it, True, trace, tests
        d, step_tests = _newton_step(pts, g, V, mirrored)
        tests += step_tests
        slack = 1e-14 * max(1.0, abs(w))
        step = 1.0
        for _ in range(60):
            cand = pts + step * d
            if np.all(np.diff(cand) > 0):
                w_new = energy(Configuration(cand), V)
                if w_new <= w + slack:
                    g_new = gradient(Configuration(cand), V)
                    gn_new = float(np.max(np.abs(g_new)))
                    if w_new < w or gn_new < gn:
                        pts, w_pts, g, gn = cand, w_new, g_new, gn_new
                        w = min(w, w_new)
                        trace.append(w)
                        break
            step *= 0.5
        else:
            return pts, w_pts, gn, it, False, trace, tests
    return pts, w_pts, gn, MAX_ITER, gn <= tol, trace, tests


def minimize(
    n: int,
    V: Potential | None = None,
    seed: int = 0,
    tol: float | None = None,
    multistart: int = 3,
) -> FeketeResult:
    """Minimize w_n by Newton's method on its Hessian.

    Each step solves with the Hessian, Levenberg-shifted where V is not
    convex, and is halved until it keeps the points ordered and lowers
    w_n, for at most MAX_ITER steps per start (see `_descend`).

    Parameters
    ----------
    n : int
        Number of particles.
    V : Potential, optional
        Confining potential; defaults to the canonical quadratic model.
    seed : int
        Master seed; `multistart` jittered starts are derived from it and
        the best final energy wins (ties broken by gradient norm).
    tol : float, optional
        Positive sup-norm gradient target; defaults to 1e-10 * n (scale-aware).

    The starts are the quantiles of `quantile_start`, all but the first
    jittered by 0.2 times the smallest gap (`jittered`); so is the first
    where V'' < 0 at a start point, since it can be a saddle of w_n (the
    double well's 0 at odd n). A convex V starts once, unjittered: w_n
    then has one minimizer (`_newton_step`), so more starts would only
    repeat the descent; so does n = 1, at V's global minimizer. For an
    even convex V that start is mirrored exactly, x0 = (base -
    base[::-1]) / 2, and every Newton step is folded onto the mirror half.

    Returns
    -------
    FeketeResult
        With `converged` false (and diagnostics kept) if no start reached
        the tolerance; `breakdown` is None when V has no closed form.
    """
    if V is None:
        V = quadratic()
    if tol is None:
        tol = 1e-10 * n
    elif not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mu, consts = equilibrium_for(V) or (None, None)
    # V's global minimizer (`Potential.argmin`) for n = 1
    base = np.array([V.argmin]) if n == 1 else quantile_start(n, mu)
    if n == 1 or V.convex:
        multistart = 1
    mirrored = n > 1 and V.even and V.convex
    if mirrored:
        base = 0.5 * (base - base[::-1])

    rng_master = np.random.default_rng(seed)
    runs = []
    for start in range(multistart):
        rng = np.random.default_rng(rng_master.integers(0, 2**63 - 1))
        x0 = base if start == 0 and np.all(V.deriv2(base) >= 0) else jittered(base, 0.2, rng)
        runs.append(_descend(x0, V, tol, mirrored))
    # lowest final energy wins, ties to the smaller gradient, then the earlier start
    pts, w, gn, its, ok, trace, _ = min(runs, key=lambda r: r[1:3])
    cfg = Configuration(pts)
    bd = _split(cfg, w, V, mu, consts) if mu is not None else None
    return FeketeResult(cfg, gn, its, ok, bd, tuple(trace), mirrored, sum(r[-1] for r in runs))
