"""Weighted Fekete sets: minimizers of w_n, with an independent oracle.

For the quadratic model the minimizer is known in closed form up to the
root-finding: the scaled roots sqrt(2/n) y_k of the degree-n physicists'
Hermite polynomial satisfy sum_{j != i} 1/(y_i - y_j) = y_i, which makes
the w_n gradient vanish identically. The oracle computes those roots as
the eigenvalues of the symmetric tridiagonal Jacobi matrix of the
orthonormal Hermite recurrence (Golub and Welsch, Math. Comp. 23 (1969)
221), zero diagonal and off-diagonal sqrt(k/2), k = 1..n-1, with LAPACK's
tridiagonal eigensolver. It shares no code path with the optimizer it
checks, which solves with LU factorisations of the w_n Hessian, certified
positive definite by Gershgorin or else by a Cholesky test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .hamiltonian import Configuration, EnergyBreakdown, breakdown, energy, gradient
from .model import EquilibriumMeasure, Potential, equilibrium_for, quadratic, semicircle_equilibrium

__all__ = ["FeketeResult", "minimize", "hermite_oracle"]

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


#: relative margin of the Levenberg floor, and of the Gershgorin certificate
MARGIN = 1e-12


def _factors(H: np.ndarray) -> bool:
    """Whether the Cholesky factorisation of H succeeds."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_step(pts: np.ndarray, g: np.ndarray, V: Potential, n: int) -> np.ndarray:
    """Solve (H + s I) d = -g with the full w_n Hessian H: n diag V'' (exact,
    from V's coefficients) plus the positive semidefinite Laplacian with
    off-diagonal -2/(x_i-x_j)^2.

    Row i of H + s I has diagonal minus off-diagonal sum n V''(x_i) + s,
    so by Gershgorin H + s I is positive definite once min n V'' + s >= m =
    MARGIN max |diag|, while n 2^-52 <= MARGIN keeps the rounding of the
    row sums inside m. So s = 0 with no factorisation where min n V'' >= m
    (every step of x^2/2, and of the quartic at even n); else s = 0 if H
    passes a Cholesky test; else the floor s = max(0, -n min V'') + m,
    which meets the certificate by construction. Past n = MARGIN 2^52 the
    certificate lapses: the floor then takes a Cholesky test too, and
    ConvergenceError if H + s I fails it. One LU solve gives d.
    """
    H = pts[:, None] - pts[None, :]
    np.fill_diagonal(H, np.inf)
    H *= H
    np.divide(-2.0, H, out=H)
    nvpp = n * V.deriv2(pts)
    diag = nvpp - H.sum(axis=1)
    low = float(np.min(nvpp))
    margin = MARGIN * float(np.max(np.abs(diag)))
    certifiable = n * 2.0 ** -52 <= MARGIN
    np.fill_diagonal(H, diag)
    if not (certifiable and low >= margin) and not _factors(H):
        np.fill_diagonal(H, diag + (max(0.0, -low) + margin))
        if not (certifiable or _factors(H)):
            raise ConvergenceError("the Levenberg shift did not make the w_n Hessian positive definite")
    return np.linalg.solve(H, -g)


def _descend(x0: np.ndarray, V: Potential, n: int,
             tol: float) -> tuple[np.ndarray, float, float, int, bool, list[float]]:
    """At most MAX_ITER Newton steps on w_n from the ordered start x0. Each
    is halved until the points stay ordered and w falls, or rises by at most
    rounding noise while the gradient falls; the trace keeps min w so far.
    Returns the final points, their w_n and gradient sup-norm, the step
    count, convergence and the trace.
    """
    pts = np.array(x0)
    w = w_pts = energy(Configuration(pts), V)
    g = gradient(Configuration(pts), V)
    gn = float(np.max(np.abs(g)))
    trace = [w]
    for it in range(MAX_ITER):
        if gn <= tol:
            return pts, w_pts, gn, it, True, trace
        d = _newton_step(pts, g, V, n)
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
            return pts, w_pts, gn, it, False, trace
    return pts, w_pts, gn, MAX_ITER, gn <= tol, trace


def minimize(
    n: int,
    V: Potential | None = None,
    seed: int = 0,
    tol: float | None = None,
    multistart: int = 3,
) -> FeketeResult:
    """Minimize w_n by Newton's method on its full Hessian.

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
    double well's 0 at odd n). n = 1 starts once, at V's global minimizer.

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
    if n == 1:
        # V's global minimizer (`Potential.argmin`), so one start suffices
        base = np.array([V.argmin])
        multistart = 1
    else:
        base = quantile_start(n, mu)

    rng_master = np.random.default_rng(seed)
    runs = []
    for start in range(multistart):
        rng = np.random.default_rng(rng_master.integers(0, 2**63 - 1))
        x0 = base if start == 0 and np.all(V.deriv2(base) >= 0) else jittered(base, 0.2, rng)
        runs.append(_descend(x0, V, n, tol))
    # lowest final energy wins, ties to the smaller gradient, then the earlier start
    pts, _, gn, its, ok, trace = min(runs, key=lambda r: r[1:3])
    cfg = Configuration(pts)
    bd = breakdown(cfg, V, mu, consts) if mu is not None else None
    return FeketeResult(cfg, gn, its, ok, bd, tuple(trace))
