"""Confining potentials, equilibrium measures, and mean-field constants.

The macroscopic state of the gas is the probability measure minimizing

    F(mu) = -iint log|x - y| dmu(x) dmu(y) + int V dmu,

whose minimizer mu0 (the equilibrium measure) is characterized by the
optimality condition U(x) + V(x)/2 = c on the support and >= c outside,
where U is the logarithmic potential of mu0 and c the Robin constant.
A potential is its ascending coefficients, differentiated in one place;
`horner` evaluates V, V' and V'' (the sampler, on a matrix of them).
This module provides the quadratic closed form (semicircle, in its angle
x = 2 cos theta), a simplex projected-gradient solver for general V, and
the constants c, F(mu0), and alpha = int m0 log(2 pi m0). A solved measure
is constant on each cell of `_cell_edges`, and every grid rule integrates
those cells. zeta = U + V/2 - c is one formula for every measure, and
`equilibrium_for` alone maps a potential to its closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    label : str
        Short human-readable name, for display only; not compared.

    V', V'', `argmin`, `even`, `convex` and the support bound
    `growth_check_radius` derive from coeffs.
    """

    coeffs: tuple[float, ...]
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
    def deriv_coeffs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Ascending coefficients of V' and V'', the one differentiation of V."""
        d1 = tuple(k * c for k, c in enumerate(self.coeffs))[1:]
        return d1, tuple(k * c for k, c in enumerate(d1))[1:]

    @cached_property
    def argmin(self) -> float:
        """V's global minimizer: of the real parts of the roots of V' (a
        multiple root comes back slightly complex), the one of least V."""
        x = np.polynomial.polynomial.polyroots(self.deriv_coeffs[0]).real
        return float(x[np.argmin(self.eval(x))])

    @cached_property
    def even(self) -> bool:
        """Whether V(-x) = V(x): no odd coefficient."""
        return not any(self.coeffs[1::2])

    @cached_property
    def convex(self) -> bool:
        """Whether V'' >= 0 on the line: V'' is not negative at the real
        parts of the roots of V''', which include the minimizer of V'' (a
        quadratic V'' is a positive constant, and V''' has no roots)."""
        P = np.polynomial.polynomial
        x = P.polyroots(P.polyder(self.deriv_coeffs[1])).real
        return bool(np.all(self.deriv2(x) >= 0.0))

    @cached_property
    def growth_check_radius(self) -> float:
        """R with supp mu0 inside [-R, R], from the coefficients alone (Saff
        and Totik, Logarithmic Potentials with External Fields, Thm I.1.3).

        Put K = 3/2 - log 2 + sum_{k even} c_k/(k+1) - (min V)/2; all but the
        last term is F of the uniform law on [-1, 1]. Then c = F(mu0) - (1/2)
        int V dmu0 <= K; a support point x of largest modulus has V(x)/2 -
        log(2|x|) <= c; and log(2t) < t for t > 0. So V(x)/2 - |x| - K < 0,
        and the largest |Re z| over the roots z of V/2 -+ x - K bounds |x|.
        """
        P = np.polynomial.polynomial
        uniform_F = 1.5 - math.log(2.0) + sum(c / (k + 1) for k, c in enumerate(self.coeffs) if k % 2 == 0)
        half = np.array(self.coeffs) / 2.0
        half[0] -= uniform_F - float(self.eval(self.argmin)) / 2.0
        roots = np.concatenate([P.polyroots(P.polyadd(half, [0.0, s])) for s in (-1.0, 1.0)])
        return float(np.max(np.abs(roots.real)))

    @cached_property
    def _columns(self) -> tuple:
        """`horner` columns of V, V' and V'', with None for a zero coefficient."""
        return tuple(tuple(c or None for c in cs) for cs in (self.coeffs, *self.deriv_coeffs))

    def eval(self, x):
        """V(x), elementwise."""
        return horner(self._columns[0], np.asarray(x, dtype=float))

    def deriv(self, x):
        """V'(x), elementwise, from the differentiated coefficients."""
        return horner(self._columns[1], np.asarray(x, dtype=float))

    def deriv2(self, x):
        """V''(x), elementwise; a quadratic V'' is one constant column, too few for `horner`."""
        cols = self._columns[2]
        return horner(cols, np.asarray(x, dtype=float)) if len(cols) > 1 else np.full(np.shape(x), cols[0])

    def __call__(self, x):
        return self.eval(x)


def polynomial(coeffs: Sequence[float]) -> Potential:
    """Potential from ascending coefficients: V(x) = sum_k coeffs[k] x^k.

    Raises ValueError for non-finite coefficients or a V that does not
    confine (see `Potential`).
    """
    return Potential(tuple(coeffs))


def quadratic() -> Potential:
    """The canonical quadratic model V(x) = x^2/2 (semicircle equilibrium)."""
    return Potential(SEMICIRCLE_V, label="quadratic")


def quartic() -> Potential:
    """V(x) = x^4/4."""
    return Potential((0.0, 0.0, 0.0, 0.0, 0.25), label="quartic")


def double_well() -> Potential:
    """V(x) = x^4/4 - x^2 (two symmetric wells)."""
    return Potential((0.0, 0.0, -1.0, 0.0, 0.25), label="double-well")


def blend(a: Potential, b: Potential, t: float) -> Potential:
    """The polynomial (1-t) a + t b, blended coefficient by coefficient."""
    size = max(len(a.coeffs), len(b.coeffs))
    ca, cb = (np.pad(V.coeffs, (0, size - len(V.coeffs))) for V in (a, b))
    return Potential(tuple((1.0 - t) * ca + t * cb), label=f"blend({a.label},{b.label},{t:g})")


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

    Either a tagged closed form (`closed_form == "semicircle"`) or a grid
    measure: density weights[k] / (e_k+1 - e_k) on the cell [e_k, e_k+1]
    of `_cell_edges(nodes)` and 0 outside [e_0, e_M], the one density its
    methods and `log_potential` read. A measure from `solve_equilibrium`
    also records the solver's `iterations` and its final optimality
    `residual`; both are None for a closed form. Malformed fields raise
    ValueError.
    """

    support: tuple[tuple[float, float], ...]
    nodes: np.ndarray | None
    weights: np.ndarray | None
    closed_form: str | None
    iterations: int | None = None
    residual: float | None = None

    def __post_init__(self):
        if self.closed_form not in (None, "semicircle"):
            raise ValueError(f"unknown closed form {self.closed_form!r}; expected None or 'semicircle'")
        if self.closed_form is not None:
            if self.nodes is not None or self.weights is not None:
                raise ValueError(f"the closed form {self.closed_form!r} carries no nodes or weights")
            return
        if self.nodes is None or self.weights is None:
            raise ValueError("a grid measure needs nodes and weights")
        x, w = np.asarray(self.nodes, dtype=float), np.asarray(self.weights, dtype=float)
        if x.ndim != 1 or len(x) < 2 or not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
            raise ValueError("grid nodes must be at least 2 finite, strictly increasing values")
        if w.shape != x.shape or not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("grid weights must be finite, non-negative and one per node")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"grid weights must sum to 1, got {w.sum()!r}")

    def density(self, x) -> np.ndarray:
        """Density m0(x); for grid measures, the weight over the width of the cell that holds x."""
        x = np.asarray(x, dtype=float)
        if self.closed_form == "semicircle":
            return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)
        e = _cell_edges(self.nodes)
        k = np.clip(np.searchsorted(e, x, side="right") - 1, 0, len(self.nodes) - 1)
        return np.where((x >= e[0]) & (x <= e[-1]), self.weights[k] / np.diff(e)[k], 0.0)

    def cdf(self, x):
        """Mass left of x, elementwise."""
        if self.closed_form == "semicircle":
            # x = 2 cos theta; exactly 0 below -2 and 1 above 2
            theta = np.arccos(np.clip(np.asarray(x, dtype=float) / 2.0, -1.0, 1.0))
            return 1.0 - (theta - np.sin(theta) * np.cos(theta)) / math.pi
        return np.interp(x, _cell_edges(self.nodes), np.concatenate([[0.0], np.cumsum(self.weights)]))

    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of [lo, hi]."""
        if hi <= lo:
            return 0.0
        return float(self.cdf(hi) - self.cdf(lo))

    def quantiles(self, n: int) -> np.ndarray:
        """Midpoint quantiles x_i with mass ((i + 1/2)/n) to the left, by
        60 bisections of `cdf` from [-2, 2] or from the grid's [e_0, e_M]."""
        q = (np.arange(n) + 0.5) / n
        ends = (-2.0, 2.0) if self.closed_form == "semicircle" else _cell_edges(self.nodes)[[0, -1]]
        lo = np.full_like(q, ends[0])
        hi = np.full_like(q, ends[1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lower = self.cdf(mid) < q
            lo = np.where(lower, mid, lo)
            hi = np.where(lower, hi, mid)
        return 0.5 * (lo + hi)


def _cell_edges(nodes: np.ndarray) -> np.ndarray:
    """Edges e_0 < ... < e_M of the solver cells: the midpoints between
    neighbouring nodes, and each end node mirrored across its one midpoint."""
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    return np.concatenate([[nodes[0] - (mids[0] - nodes[0])], mids, [nodes[-1] + (nodes[-1] - mids[-1])]])


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


def log_potential(mu: EquilibriumMeasure, x):
    """U(x) = -int log|x - y| dmu(y); scalar in, scalar out.

    The semicircle has U = 1/2 - x^2/4 on [-2, 2] and, off it, with |x| =
    2 cosh a, U = -a - e^(-2a)/2, which has no cancellation at large |x|
    and is evaluated only at the off-support points. A grid measure
    integrates its cells exactly: with f1(t) = t (log|t| - 1), the first
    antiderivative of log|t|, U(x) = -sum_k j_k f1(x - e_k), where j_k is
    the jump of the density at the cell edge e_k.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if mu.closed_form == "semicircle":
        u = 0.5 - x * x / 4.0
        out = np.abs(x) > 2.0
        if np.any(out):
            a = np.arccosh(np.abs(x[out]) / 2.0)
            u[out] = -a - np.exp(-2.0 * a) / 2.0
    else:
        e = _cell_edges(mu.nodes)
        jumps = np.diff(mu.weights / np.diff(e), prepend=0.0, append=0.0)
        t = np.subtract.outer(x, e)
        f1 = np.abs(t)
        # 0 log 0 = 0: log 1 where x sits on an edge, then times t = 0
        f1[f1 == 0.0] = 1.0
        np.log(f1, out=f1)
        f1 -= 1.0
        f1 *= t
        u = -(f1 @ jumps)
    return float(u[0]) if scalar else u


def zeta(mu: EquilibriumMeasure, V: Potential, c: float, x) -> np.ndarray:
    """Effective potential zeta = U + V/2 - c; zero on the support, >= 0 off it.

    One formula for every measure; V/2 and c are applied in place on U.
    """
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(log_potential(mu, x))
    z += V.eval(x) / 2.0
    z -= c
    return float(z[0]) if x.ndim == 0 else z


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
    measures use the quadratic form w K w + w V(nodes) on the exact cell
    kernel K of `_log_kernel`.
    """
    if mu.closed_form == "semicircle":
        t, wts = _semicircle_rule()
        x = 2.0 * np.sin(t)
        return float(np.dot(wts, log_potential(mu, x) + V.eval(x)))
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
    h = np.diff(_cell_edges(mu.nodes))
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
    the semicircle and the exact (1/2, 3/4, 1/2); no solve, no cache."""
    if V.coeffs == SEMICIRCLE_V:
        return semicircle_equilibrium(), ModelConstants(c=0.5, mean_field_energy=0.75, alpha=0.5)
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


#: projected-gradient iterations before `solve_equilibrium` gives up on the tolerance
MAX_ITER = 5000


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, len(v) + 1)
    rho = np.nonzero(u + (1.0 - css) / k > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def solve_equilibrium(V: Potential, grid: np.ndarray, tol: float = 1e-3) -> EquilibriumMeasure:
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
        If an end node carries mass; see `Potential.growth_check_radius`.
    ConvergenceError
        If the residual is still above `tol` after MAX_ITER iterations.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
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

    # K is symmetric, so its spectral norm is at most its largest absolute row sum
    step = 1.0 / (2.0 * float(np.max(np.sum(np.abs(K), axis=1))) + 1.0)

    def residual(wv, gv):
        sup = wv > 1e-10
        if sup.sum() < 4:
            return np.inf
        # K w + V/2, bit for bit: halving the gradient 2 K w + V is exact
        r = gv / 2.0
        return float(np.max(np.abs(r[sup] - _robin_constant(r, wv))))

    res = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        w_new = _project_simplex(w - step * g)
        g_new = 2.0 * (K @ w_new) + Vn
        s = w_new - w
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-300:
            step = min(max(float(s @ s) / sy, 1e-12), 1e6)
        else:
            step *= 1.5
        w, g = w_new, g_new
        if iterations % 25 == 0 or iterations == MAX_ITER:
            res = residual(w, g)
            if res < tol:
                break
    # res is this w's, from the last check
    sup = w > 1e-10

    # mass on an end node means the true support may leak out of the bracket
    if sup[0] or sup[-1]:
        raise BracketError(f"equilibrium mass sits on the grid ends [{nodes[0]:g}, {nodes[-1]:g}]")
    if res >= tol:
        raise ConvergenceError(
            f"equilibrium solver stalled at residual {res:.3e} (tol {tol:.1e})",
            residual=res,
        )

    # the outer edges of the end cells: the closed hull of the density
    idx = np.where(sup)[0]
    e = _cell_edges(nodes)
    return EquilibriumMeasure(
        support=((float(e[idx[0]]), float(e[idx[-1] + 1])),),
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
