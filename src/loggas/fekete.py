"""Weighted Fekete sets: minimizers of w_n, with an independent oracle.

For the quadratic model the minimizer is known in closed form up to the
root-finding: the scaled roots sqrt(2/n) y_k of the degree-n physicists'
Hermite polynomial satisfy sum_{j != i} 1/(y_i - y_j) = y_i, which makes
the w_n gradient vanish identically. The oracle computes those roots by
Newton iteration on the orthonormal three-term recurrence

    h_0 = pi^{-1/4},  h_{k+1}(y) = y sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1},

with initial brackets supplied level by level through root interlacing,
so it shares no code path with the optimizer it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .hamiltonian import Configuration, EnergyBreakdown, breakdown, energy, gradient
from .model import EquilibriumMeasure, Potential, equilibrium_for, quadratic

__all__ = ["FeketeResult", "minimize", "hermite_oracle"]


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


def _orthonormal_hermite(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """h_n and h_n' = sqrt(2 n) h_{n-1} by the stable recurrence, both times
    a power of two per point: Newton reads only sign(h_n) and h_n / h_n',
    and rescaling every 32 levels keeps degrees 700 and up from overflowing
    near the edge roots without changing any rounding."""
    h_prev = np.full_like(y, math.pi ** -0.25)
    if n == 0:
        return h_prev, np.zeros_like(y)
    h_cur = y * math.sqrt(2.0) * h_prev
    for k in range(1, n):
        h_prev, h_cur = h_cur, y * math.sqrt(2.0 / (k + 1)) * h_cur - math.sqrt(
            k / (k + 1.0)
        ) * h_prev
        if k % 32 == 0:
            _, e = np.frexp(np.maximum(np.abs(h_prev), np.abs(h_cur)))
            h_prev, h_cur = np.ldexp(h_prev, -e), np.ldexp(h_cur, -e)
    return h_cur, math.sqrt(2.0 * n) * h_prev


def _newton_roots(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection-safeguarded Newton for all n roots at once.

    lo/hi bracket each root; the recurrence changes sign across it.
    """
    x = 0.5 * (lo + hi)
    flo, _ = _orthonormal_hermite(lo, n)
    for _ in range(200):
        f, fp = _orthonormal_hermite(x, n)
        # keep the bracket current
        same = np.sign(f) == np.sign(flo)
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / fp
        x_new = x - step
        bad = ~np.isfinite(x_new) | (x_new <= lo) | (x_new >= hi)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        if np.max(np.abs(x_new - x)) < 1e-15 * max(1.0, float(np.max(np.abs(x)))):
            return x_new
        x = x_new
    raise ConvergenceError(f"Hermite root iteration stalled at degree {n}")


# unsymmetrised roots of every level climbed so far, level k at index k - 1
_hermite_levels = [np.array([0.0])]


def _hermite_roots(n: int) -> np.ndarray:
    # climb the recurrence on from the highest cached level: roots of level
    # k+1 interlace those of level k, with the outermost brackets closed by
    # the classical bound sqrt(2k+2)
    while len(_hermite_levels) < n:
        m = len(_hermite_levels) + 1
        bound = math.sqrt(2.0 * m) + 1.0
        roots = _hermite_levels[-1]
        lo = np.concatenate([[-bound], roots])
        hi = np.concatenate([roots, [bound]])
        _hermite_levels.append(_newton_roots(m, lo, hi))
    # enforce exact symmetry; the recurrence is even or odd in y
    roots = _hermite_levels[n - 1]
    return 0.5 * (roots - roots[::-1])


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
    of `mu`, or Gaussian quantiles as a generic confined start."""
    if mu is not None:
        return mu.quantiles(n)
    from scipy.special import ndtri

    return ndtri((np.arange(n) + 0.5) / n)


def _newton_step(pts: np.ndarray, g: np.ndarray, V: Potential, n: int) -> np.ndarray:
    """Solve (H + s I) d = -g with the full w_n Hessian H: n diag V'' (by
    central differencing of V') plus the positive semidefinite Laplacian
    with off-diagonal -2/(x_i-x_j)^2. So s = 0 when H factors; else the
    Levenberg shift s starts above the Gershgorin bound -n min V'' and
    grows tenfold while rounding still defeats the Cholesky factorisation.
    """
    H = pts[:, None] - pts[None, :]
    np.fill_diagonal(H, np.inf)
    H *= H
    np.divide(-2.0, H, out=H)
    h = 1e-6 * max(1.0, float(np.max(np.abs(pts))))
    nvpp = n * (np.asarray(V.deriv(pts + h)) - np.asarray(V.deriv(pts - h))) / (2.0 * h)
    diag = nvpp - H.sum(axis=1)
    shift = 0.0
    for _ in range(20):
        np.fill_diagonal(H, diag + shift)
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            floor = max(0.0, -float(np.min(nvpp))) + 1e-12 * float(np.max(np.abs(diag)))
            shift = max(10.0 * shift, floor)
            continue
        # numpy has no triangular solve: one LU beats two through the factor
        return np.linalg.solve(H, -g)
    raise ConvergenceError("no Levenberg shift made the w_n Hessian positive definite")


def _descend(x0: np.ndarray, V: Potential, n: int, tol: float,
             max_iter: int) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Newton iteration on w_n from the ordered start x0. Each step is
    halved until the points stay ordered and w falls, or rises by at most
    rounding noise while the gradient falls; the trace keeps min w so far.
    """
    pts = np.array(x0)
    w = energy(Configuration(pts), V)
    g = gradient(Configuration(pts), V)
    gn = float(np.max(np.abs(g)))
    trace = [w]
    for it in range(max_iter):
        if gn <= tol:
            return pts, gn, it, True, trace
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
                        pts, g, gn = cand, g_new, gn_new
                        w = min(w, w_new)
                        trace.append(w)
                        break
            step *= 0.5
        else:
            return pts, gn, it, False, trace
    return pts, gn, max_iter, gn <= tol, trace


def minimize(
    n: int,
    V: Potential | None = None,
    seed: int = 0,
    tol: float | None = None,
    max_iter: int = 2000,
    multistart: int = 3,
) -> FeketeResult:
    """Minimize w_n by Newton's method on its full Hessian.

    Each step solves with the Hessian, Levenberg-shifted where V is not
    convex, and is halved until it keeps the points ordered and lowers
    w_n (see `_descend`).

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
        Sup-norm gradient target; defaults to 1e-10 * n (scale-aware).

    The starts are the quantiles of V's closed-form equilibrium measure
    (`equilibrium_for`), Gaussian quantiles when V has none; a single
    point starts from a bounded scalar search on V instead.

    Returns
    -------
    FeketeResult
        With `converged` false (and diagnostics kept) if no start reached
        the tolerance; `breakdown` is None when V has no closed form.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if V is None:
        V = quadratic()
    if tol is None:
        tol = 1e-10 * n
    mu, consts = equilibrium_for(V) or (None, None)
    if n == 1:
        # a bounded scalar search, not the quantile x = 0, which is a
        # stationary maximum of the double well
        from scipy.optimize import minimize_scalar

        R = V.growth_check_radius
        res = minimize_scalar(lambda t: float(np.asarray(V.eval(np.array([t])))[0]),
                              bounds=(-R, R), method="bounded", options={"xatol": 1e-12})
        base = np.array([float(res.x)])
    else:
        base = quantile_start(n, mu)

    rng_master = np.random.default_rng(seed)
    jitter = 0.2 * (float(np.min(np.diff(base))) if n > 1 else 1.0)
    runs = []
    for start in range(multistart):
        rng = np.random.default_rng(rng_master.integers(0, 2**63 - 1))
        x0 = base
        if start > 0:
            x0 = np.sort(base + rng.normal(0.0, jitter, n))
            while np.any(np.diff(x0) <= 0):
                x0 = np.sort(base + rng.normal(0.0, jitter, n))
        pts, gn, its, ok, trace = _descend(x0, V, n, tol, max_iter)
        runs.append((energy(Configuration(pts), V), gn, pts, its, ok, trace))
    # lowest final energy wins, ties to the smaller gradient, then the earlier start
    _, gn, pts, its, ok, trace = min(runs, key=lambda r: r[:2])
    cfg = Configuration(pts)
    bd = breakdown(cfg, V, mu, consts) if mu is not None else None
    return FeketeResult(cfg, gn, its, ok, bd, tuple(trace))
