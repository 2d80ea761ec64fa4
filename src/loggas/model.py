"""Confining potentials, equilibrium measures, and mean-field constants.

The macroscopic state of the gas is the probability measure minimizing

    F(mu) = -iint log|x - y| dmu(x) dmu(y) + int V dmu,

whose minimizer mu0 (the equilibrium measure) is characterized by the
optimality condition U(x) + V(x)/2 = c on the support and >= c outside,
where U is the logarithmic potential of mu0 and c the Robin constant.
A potential is its ascending polynomial coefficients, and `horner` is the
one evaluation of V and V' (the sampler runs it on a matrix of them).
This module provides the quadratic closed form (semicircle), a simplex
projected-gradient solver for general V, and the derived constants
c, F(mu0), and alpha = int m0 log(2 pi m0). `equilibrium_for` is the one
place that maps a potential to its closed form, by its coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, ConvergenceError

__all__ = [
    "Potential",
    "EquilibriumMeasure",
    "ModelConstants",
    "quadratic",
    "quartic",
    "double_well",
    "polynomial",
    "blend",
    "BUILTIN_POTENTIALS",
    "semicircle_equilibrium",
    "equilibrium_for",
    "solve_equilibrium",
    "log_potential",
    "zeta",
    "mean_field_energy",
    "alpha",
    "model_constants",
    "measure_to_json",
    "measure_from_json",
]


# ---------------------------------------------------------------------------
# potentials


#: ascending coefficients of x^2/2, the one V with a closed-form equilibrium measure
SEMICIRCLE_V = (0.0, 0.0, 0.5)


def horner(columns, x):
    """sum_k columns[k] x^k by Horner's rule, starting from columns[-1] * x.

    Each column is a scalar or an array that broadcasts against x, with at
    least two columns. A None column stands for zero, and its add is
    skipped: x^2/2 costs two multiplies, (0.5 x) x, which equals
    0.5 (x x) bit for bit, and x' = 1 x is x.
    """
    acc = columns[-1] * x
    for c in columns[-2:0:-1]:
        if c is not None:
            acc += c
        acc *= x
    return acc if columns[0] is None else acc + columns[0]


@dataclass(frozen=True)
class Potential:
    """A confining polynomial field V(x) = sum_k coeffs[k] x^k.

    Parameters
    ----------
    coeffs : tuple of float
        Ascending coefficients, stored with trailing zeros trimmed. They
        must be finite, and V must confine (V(x)/2 - log|x| -> infinity):
        an even degree of at least 2 with a positive leading coefficient.
        Anything else raises ValueError.
    growth_check_radius : float
        Radius R of the bracket [-R, R] that equilibrium solves and the
        one-point Fekete search use.
    label : str
        Short human-readable name, for display only; not compared.
    """

    coeffs: tuple[float, ...]
    growth_check_radius: float
    label: str = field(default="polynomial", compare=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError(f"polynomial coefficients must be finite, got {c.tolist()}")
        c = tuple(np.trim_zeros(c, "b").tolist())
        if len(c) < 3 or len(c) % 2 == 0 or c[-1] <= 0.0:
            raise ValueError(
                f"V with coefficients {list(c)} does not confine: it needs an even degree"
                " of at least 2 and a positive leading coefficient"
            )
        object.__setattr__(self, "coeffs", c)

    @cached_property
    def _columns(self) -> tuple:
        return tuple(c or None for c in self.coeffs)

    @cached_property
    def _deriv_columns(self) -> tuple:
        return tuple(k * c or None for k, c in enumerate(self.coeffs))[1:]

    def eval(self, x):
        """V(x), elementwise."""
        return horner(self._columns, np.asarray(x, dtype=float))

    def deriv(self, x):
        """V'(x), elementwise, from the differentiated coefficients."""
        return horner(self._deriv_columns, np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.eval(x)


def polynomial(coeffs: Sequence[float]) -> Potential:
    """Potential from ascending coefficients: V(x) = sum_k coeffs[k] x^k.

    Raises ValueError for non-finite coefficients or a V that does not
    confine (see `Potential`).
    """
    return Potential(tuple(coeffs), growth_check_radius=8.0)


def quadratic() -> Potential:
    """The canonical quadratic model V(x) = x^2/2 (semicircle equilibrium)."""
    return replace(polynomial(SEMICIRCLE_V), growth_check_radius=4.0, label="quadratic")


def quartic() -> Potential:
    """V(x) = x^4/4."""
    return replace(polynomial([0.0, 0.0, 0.0, 0.0, 0.25]), growth_check_radius=4.0, label="quartic")


def double_well() -> Potential:
    """V(x) = x^4/4 - x^2 (two symmetric wells)."""
    return replace(polynomial([0.0, 0.0, -1.0, 0.0, 0.25]), growth_check_radius=6.0, label="double-well")


def blend(a: Potential, b: Potential, t: float) -> Potential:
    """The polynomial (1-t) a + t b, blended coefficient by coefficient."""
    size = max(len(a.coeffs), len(b.coeffs))
    ca, cb = (np.pad(V.coeffs, (0, size - len(V.coeffs))) for V in (a, b))
    return Potential(
        tuple((1.0 - t) * ca + t * cb),
        growth_check_radius=max(a.growth_check_radius, b.growth_check_radius),
        label=f"blend({a.label},{b.label},{t:g})",
    )


BUILTIN_POTENTIALS: dict[str, Callable[[], Potential]] = {
    "quadratic": quadratic,
    "quartic": quartic,
    "double-well": double_well,
}


# ---------------------------------------------------------------------------
# equilibrium measures


@dataclass(frozen=True)
class EquilibriumMeasure:
    """A probability measure on a finite union of closed intervals.

    Either a tagged closed form (`closed_form == "semicircle"`) or a
    discrete measure of point masses `weights` at `nodes` (atoms standing
    for cells of the solver grid). A measure from `solve_equilibrium`
    also records the solver's `iterations` and its final optimality
    `residual`; both are None for a closed form.
    """

    support: tuple[tuple[float, float], ...]
    nodes: np.ndarray | None
    weights: np.ndarray | None
    closed_form: str | None
    iterations: int | None = None
    residual: float | None = None

    def density(self, x) -> np.ndarray:
        """Density m0(x); for grid measures, weight over cell width."""
        x = np.asarray(x, dtype=float)
        if self.closed_form == "semicircle":
            return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)
        h = _cell_widths(self.nodes)
        out = np.zeros_like(x)
        idx = np.searchsorted(self.nodes, x)
        idx = np.clip(idx, 0, len(self.nodes) - 1)
        left = np.clip(idx - 1, 0, len(self.nodes) - 1)
        pick = np.where(
            np.abs(x - self.nodes[left]) < np.abs(x - self.nodes[idx]), left, idx
        )
        near = np.abs(x - self.nodes[pick]) <= h[pick]
        out[near] = (self.weights[pick] / h[pick])[near]
        return out

    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of [lo, hi]."""
        if hi <= lo:
            return 0.0
        if self.closed_form == "semicircle":
            return float(_semicircle_cdf(hi) - _semicircle_cdf(lo))
        inside = (self.nodes >= lo) & (self.nodes <= hi)
        return float(self.weights[inside].sum())

    def quantiles(self, n: int) -> np.ndarray:
        """Midpoint quantiles x_i with mass ((i + 1/2)/n) to the left."""
        q = (np.arange(n) + 0.5) / n
        if self.closed_form == "semicircle":
            return _semicircle_quantiles(q)
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        cum /= cum[-1]
        return np.interp(q, cum[1:], self.nodes)


def _cell_edges(nodes: np.ndarray) -> np.ndarray:
    """Edges e_0 < ... < e_M of the solver cells: the midpoints between
    neighbouring nodes, and each end node mirrored across its one midpoint."""
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    return np.concatenate([[nodes[0] - (mids[0] - nodes[0])], mids, [nodes[-1] + (nodes[-1] - mids[-1])]])


def _cell_widths(nodes: np.ndarray) -> np.ndarray:
    return np.diff(_cell_edges(nodes))


# math.asin elementwise: numpy's SIMD arcsin differs from it in the last bit
# for about one input in twelve, which moves the quantiles that start the
# Fekete solver and the sampler
_asin = np.frompyfunc(math.asin, 1, 1)


def _semicircle_cdf(x):
    """Semicircle mass left of x, elementwise; exactly 0 below -2 and 1 above 2."""
    t = np.clip(x, -2.0, 2.0)
    arc = np.asarray(_asin(t / 2.0), dtype=float)
    return 0.5 + t * np.sqrt(4.0 - t * t) / (4.0 * math.pi) + arc / math.pi


def _semicircle_quantiles(q: np.ndarray) -> np.ndarray:
    lo = np.full_like(q, -2.0)
    hi = np.full_like(q, 2.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lower = _semicircle_cdf(mid) < q
        lo = np.where(lower, mid, lo)
        hi = np.where(lower, hi, mid)
    return 0.5 * (lo + hi)


def semicircle_equilibrium() -> EquilibriumMeasure:
    """Equilibrium measure of the quadratic model: density sqrt(4-x^2)/(2 pi)."""
    return EquilibriumMeasure(
        support=((-2.0, 2.0),),
        nodes=None,
        weights=None,
        closed_form="semicircle",
    )


# ---------------------------------------------------------------------------
# logarithmic potential, effective potential, constants

#: exact values of the quadratic closed form
SEMICIRCLE_C = 0.5
SEMICIRCLE_F = 0.75
SEMICIRCLE_ALPHA = 0.5


def _semicircle_log_potential(x: np.ndarray) -> np.ndarray:
    # U(x) = 1/2 - x^2/4 inside [-2,2]. Outside, base + zeta suffers
    # cancellation at large |x| (x^2/4 terms of size 1e11 against an O(1)
    # answer), so use the algebraically equivalent stable form
    # 1/2 - a/(a + r) - log((a + r)/2), r = sqrt(a^2 - 4), a = |x|.
    x = np.asarray(x, dtype=float)
    res = 0.5 - x * x / 4.0
    out = np.abs(x) > 2.0
    if np.any(out):
        a = np.abs(x[out])
        r = np.sqrt(a * a - 4.0)
        res[out] = 0.5 - a / (a + r) - np.log((a + r) / 2.0)
    return res


def _semicircle_zeta(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    z = np.zeros_like(ax)
    out = ax > 2.0
    if np.any(out):
        a = ax[out]
        r = np.sqrt(a * a - 4.0)
        z[out] = a * r / 4.0 - np.log((a + r) / 2.0)
    return z


def log_potential(mu: EquilibriumMeasure, x):
    """U(x) = -int log|x - y| dmu(y); scalar in, scalar out.

    Closed-form semicircle uses the exact piecewise formula; grid measures
    sum -w_i log|x - node_i| with the evaluation cell regularized by the
    self-energy of a uniform blob of its width.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if mu.closed_form == "semicircle":
        u = _semicircle_log_potential(x)
    else:
        d = np.abs(x[:, None] - mu.nodes[None, :])
        h = _cell_widths(mu.nodes)[None, :]
        # blob self-energy -log(h/e) replaces the divergent -log 0
        near = d < 0.5 * h
        terms = np.where(near, -np.log(h / math.e), -np.log(np.where(near, 1.0, d)))
        u = terms @ mu.weights
    return float(u[0]) if scalar else u


def zeta(mu: EquilibriumMeasure, V: Potential, c: float, x) -> np.ndarray:
    """Effective potential zeta = U + V/2 - c; zero on the support, >= 0 off it.

    The semicircle paired with V = x^2/2 (coefficients SEMICIRCLE_V) uses
    the exact zeta of x^2/2 shifted by SEMICIRCLE_C - c; any other pair
    sums U and V.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if mu.closed_form == "semicircle" and V.coeffs == SEMICIRCLE_V:
        z = _semicircle_zeta(x) + (SEMICIRCLE_C - c)
    else:
        z = log_potential(mu, x) + V.eval(x) / 2.0 - c
    return float(z[0]) if scalar else z


def _semicircle_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights of int f dmu0 = sum_k wts_k f(2 sin t_k) for the semicircle.

    x = 2 sin t turns m0(x) dx into (2/pi) cos^2 t dt on [-pi/2, pi/2],
    where a 256-node Gauss-Legendre rule in t is applied.
    """
    t, wt = np.polynomial.legendre.leggauss(256)
    t = 0.5 * np.pi * t
    return t, np.cos(t) ** 2 * wt


def mean_field_energy(mu: EquilibriumMeasure, V: Potential) -> float:
    """F(mu) = -iint log|x-y| dmu dmu + int V dmu.

    The semicircle path integrates U + V against mu (-iint log = int U
    dmu) with a fixed 256-node Gauss-Legendre rule in x = 2 sin t. Grid
    measures use the quadratic form with blob-regularized diagonal.
    """
    if mu.closed_form == "semicircle":
        t, wts = _semicircle_rule()
        x = 2.0 * np.sin(t)
        return float(np.dot(wts, _semicircle_log_potential(x) + V.eval(x)))
    return _grid_energy(_log_kernel(mu.nodes), mu.weights, V.eval(mu.nodes))


def _grid_energy(K: np.ndarray, w: np.ndarray, Vn: np.ndarray) -> float:
    """F of the grid measure of weights w, given its log kernel K and V at its nodes."""
    return float(w @ K @ w + np.dot(w, Vn))


def alpha(mu: EquilibriumMeasure) -> float:
    """The entropy-like constant alpha = int m0 log(2 pi m0) dx.

    For the semicircle 2 pi m0(2 sin t) = 2 cos t, integrated with the
    fixed Gauss-Legendre rule of `mean_field_energy`.
    """
    if mu.closed_form == "semicircle":
        t, wts = _semicircle_rule()
        return float(np.dot(wts, np.log(2.0 * np.cos(t))))
    h = _cell_widths(mu.nodes)
    w = mu.weights
    pos = w > 0
    dens = w[pos] / h[pos]
    return float(np.dot(w[pos], np.log(2.0 * np.pi * dens)))


@dataclass(frozen=True)
class ModelConstants:
    """Derived constants of an equilibrium measure: Robin constant c,
    mean-field energy F(mu0), and alpha."""

    c: float
    mean_field_energy: float
    alpha: float


def model_constants(mu: EquilibriumMeasure, V: Potential) -> ModelConstants:
    """Compute (c, F, alpha) for a measure-potential pair.

    A closed-form measure returns the exact constants of `equilibrium_for`
    ((1/2, 3/4, 1/2) for the semicircle) and raises ValueError unless it
    is the closed form of V's coefficients. Grid measures extract c as the
    median of U + V/2 over the interior 80 percent of the numerical
    support, which is robust to edge cells.
    """
    if mu.closed_form is not None:
        closed = equilibrium_for(V)
        if closed is None or closed[0].closed_form != mu.closed_form:
            raise ValueError(f"the {mu.closed_form} measure is not the equilibrium of V = {V.label}")
        return closed[1]
    K = _log_kernel(mu.nodes)
    Vn = V.eval(mu.nodes)
    c = _robin_constant(K @ mu.weights + Vn / 2.0, mu.weights)
    return ModelConstants(c, _grid_energy(K, mu.weights, Vn), alpha(mu))


def _robin_constant(r: np.ndarray, w: np.ndarray) -> float:
    """c from r = K w + V/2 of the grid measure of weights w: the median of r
    over the interior 80 percent of its support w > 1e-10."""
    idx = np.where(w > 1e-10)[0]
    cut = max(1, int(0.1 * len(idx)))
    interior = idx[cut : len(idx) - cut] if len(idx) > 2 * cut else idx
    return float(np.median(r[interior]))


def equilibrium_for(V: Potential) -> tuple[EquilibriumMeasure, ModelConstants] | None:
    """The closed-form equilibrium measure of V and its constants (c, F,
    alpha), or None when V has no closed form (`solve_equilibrium` then
    applies). Decided by V's coefficients alone: x^2/2 (SEMICIRCLE_V) has
    the semicircle; no solve, no cache."""
    if V.coeffs == SEMICIRCLE_V:
        return semicircle_equilibrium(), ModelConstants(SEMICIRCLE_C, SEMICIRCLE_F, SEMICIRCLE_ALPHA)
    return None


def _log_kernel(nodes: np.ndarray) -> np.ndarray:
    """K_ij = -(1/(h_i h_j)) iint_{cell_i x cell_j} log|x - y| dx dy.

    Exact for the piecewise-constant measure on the cells between the
    edges e of `_cell_edges`, diagonal included, so the quadratic form
    w K w converges at second order instead of first. With f2(t) =
    t^2 (2 log|t| - 3)/4, the second antiderivative of log|t|, the double
    integral is the mixed second difference of G_kl = f2(e_k - e_l):

        K_ij = -(G[i+1,j] + G[i,j+1] - G[i+1,j+1] - G[i,j]) / (h_i h_j),

    so one log pass over the (M+1)^2 edge differences builds all of K. G
    is symmetric bit for bit and K is divided by the outer product h h^T,
    so K equals K.T exactly.
    """
    e = _cell_edges(nodes)
    h = np.diff(e)
    # in place, and each square buffer is freed before the next one is
    # made, so no more than two are alive at once
    G = np.subtract.outer(e, e)
    half_sq = G * G
    half_sq *= 0.5
    np.abs(G, out=G)
    # 0 log 0 = 0: log 1 on the diagonal, then times t^2 = 0
    np.fill_diagonal(G, 1.0)
    np.log(G, out=G)
    G -= 1.5
    G *= half_sq
    del half_sq
    K = np.add(G[1:, :-1], G[:-1, 1:])
    K -= G[1:, 1:]
    K -= G[:-1, :-1]
    del G
    K /= np.multiply.outer(-h, h)
    return K


# ---------------------------------------------------------------------------
# equilibrium solver


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, len(v) + 1)
    rho = np.nonzero(u + (1.0 - css) / k > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def solve_equilibrium(
    V: Potential,
    grid: np.ndarray,
    tol: float = 1e-3,
    max_iter: int = 5000,
) -> EquilibriumMeasure:
    """Minimize the discretized mean-field energy over measures on `grid`.

    Projected gradient descent on the probability simplex with
    Barzilai-Borwein step sizes, on the log kernel of `_log_kernel` (the
    exact cell-pair integrals, built once per solve). Convergence is
    declared when the optimality residual max |U + V/2 - c| over the
    numerical support drops below `tol`; it is checked every 25
    iterations. The returned measure carries the iteration count and
    that final residual.

    Raises
    ------
    BracketError
        If mass piles up on the grid endpoints (support exceeds bracket).
    ConvergenceError
        If the residual is still above `tol` after `max_iter` iterations.
    """
    nodes = np.asarray(grid, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 8:
        raise ValueError("grid must be a 1-d array of at least 8 nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    M = len(nodes)
    K = _log_kernel(nodes)
    Vn = V.eval(nodes)
    w = np.full(M, 1.0 / M)
    g = 2.0 * (K @ w) + Vn

    # spectral norm estimate for the first step
    z = np.cos(np.arange(M))
    for _ in range(20):
        z = K @ z
        z /= np.linalg.norm(z)
    step = 1.0 / (2.0 * abs(float(z @ (K @ z))) + 1.0)

    def residual_and_c(wv):
        sup = wv > 1e-10
        if sup.sum() < 4:
            return np.inf, 0.0, sup
        r = K @ wv + Vn / 2.0
        c = _robin_constant(r, wv)
        return float(np.max(np.abs(r[sup] - c))), c, sup

    res = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_new = _project_simplex(w - step * g)
        g_new = 2.0 * (K @ w_new) + Vn
        s = w_new - w
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-300:
            step = float(s @ s) / sy
            step = min(max(step, 1e-12), 1e6)
        else:
            step *= 1.5
        w, g = w_new, g_new
        if iterations % 25 == 0 or iterations == max_iter:
            res, _, _ = residual_and_c(w)
            if res < tol:
                break
    res, c, sup = residual_and_c(w)

    # endpoint pile-up means the true support leaks out of the bracket
    w_interior = np.median(w[sup]) if sup.any() else 0.0
    if w[0] > max(10.0 * w_interior, 1e-6) or w[-1] > max(10.0 * w_interior, 1e-6):
        raise BracketError(
            "equilibrium mass accumulates on the grid endpoints; enlarge the bracket"
        )
    if res >= tol:
        raise ConvergenceError(
            f"equilibrium solver stalled at residual {res:.3e} (tol {tol:.1e})",
            residual=res,
        )

    idx = np.where(sup)[0]
    return EquilibriumMeasure(
        support=((float(nodes[idx[0]]), float(nodes[idx[-1]])),),
        nodes=nodes,
        weights=w,
        closed_form=None,
        iterations=iterations,
        residual=res,
    )


# ---------------------------------------------------------------------------
# serialization


def measure_to_json(mu: EquilibriumMeasure, consts: ModelConstants | None = None) -> str:
    """Serialize a measure (and optional constants) to the documented schema."""
    if consts is None:
        obj_consts = None
    else:
        obj_consts = {
            "c": consts.c,
            "F": consts.mean_field_energy,
            "alpha": consts.alpha,
        }
    obj = {
        "support": [[a, b] for a, b in mu.support],
        "nodes": None if mu.nodes is None else [float(v) for v in mu.nodes],
        "weights": None if mu.weights is None else [float(v) for v in mu.weights],
        "closed_form": mu.closed_form,
        "iterations": mu.iterations,
        "residual": mu.residual,
        "constants": obj_consts,
    }
    return json.dumps(obj, indent=2)


def measure_from_json(text: str) -> tuple[EquilibriumMeasure, ModelConstants | None]:
    obj = json.loads(text)
    mu = EquilibriumMeasure(
        support=tuple((float(a), float(b)) for a, b in obj["support"]),
        nodes=None if obj["nodes"] is None else np.asarray(obj["nodes"], dtype=float),
        weights=None if obj["weights"] is None else np.asarray(obj["weights"], dtype=float),
        closed_form=obj["closed_form"],
        iterations=obj.get("iterations"),
        residual=obj.get("residual"),
    )
    consts = None
    if obj.get("constants"):
        c = obj["constants"]
        consts = ModelConstants(c["c"], c["F"], c["alpha"])
    return mu, consts
