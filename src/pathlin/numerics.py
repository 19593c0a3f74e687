"""Shared numerical kernels.

Fixed-step classical Runge-Kutta on a grid (node values only, no dense
output), 4th-order finite-difference differentiation of grid data, Lagrange
window interpolation, Fornberg stencil weights, and Bernstein/monomial
polynomial fitting by least squares.

rk4_step is the RK4 step of integrate, the transport propagators, the
carrier flow and the batched inverse (the single-curve inverse keeps its
own on Python floats, for speed), and stencil_windows plus
stencil_derivative are the library's only finite-difference stencil:
callers on a chart atlas re-express each node's window in the node's chart
in between.

lagrange_weights takes a batch of windows and evaluation points at once;
lagrange_integral_weights is slow (polynomial products), so its callers
build the few rows their fixed windows need once and cache them.

det, solve and column_scale are the frame algebra on one (m, m)
matrix or a stack of them: closed forms at m = 2, where np.linalg costs
20 to 50 times the arithmetic on stacks of 2 x 2 frames, and np.linalg
otherwise.

Everything here is a pure function over immutable inputs; fixed steps are
deliberate so results are reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridTooCoarse, IllConditioned, NonFiniteState, ValidationError

_UNIFORM_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """A strictly increasing time grid t_0 < ... < t_N with N >= 4 intervals."""

    nodes: np.ndarray
    uniform: bool = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1:
            raise ValidationError("grid nodes must be a 1-D sequence")
        if nodes.size < 5:
            raise GridTooCoarse(f"grid needs at least 5 nodes, got {nodes.size}")
        if not np.all(np.diff(nodes) > 0):
            raise ValidationError("grid nodes must be strictly increasing")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        spacings = np.diff(nodes)
        span = nodes[-1] - nodes[0]
        uniform = bool(np.max(np.abs(spacings - spacings[0])) < _UNIFORM_RTOL * span)
        object.__setattr__(self, "uniform", uniform)

    @staticmethod
    def regular(start: float, end: float, n: int) -> "Grid":
        """Uniform grid with n intervals (n + 1 nodes)."""
        return Grid(np.linspace(start, end, n + 1))

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def h(self) -> float:
        if not self.uniform:
            raise ValidationError("spacing h is only defined for uniform grids")
        return float((self.nodes[-1] - self.nodes[0]) / self.n_intervals)

    def require_uniform(self):
        if not self.uniform:
            raise ValidationError("operation requires a uniform grid")

    def base_node(self) -> int:
        """Node carrying parameter 0: node 0 for nonnegative grids, else the t=0 node."""
        if self.nodes[0] >= -_UNIFORM_RTOL:
            return 0
        j = int(np.argmin(np.abs(self.nodes)))
        if abs(self.nodes[j]) > 1e-9 * max(1.0, self.nodes[-1] - self.nodes[0]):
            raise ValidationError("two-sided grid has no node at t = 0")
        return j


# ---------------------------------------------------------------------------
# Runge-Kutta integration
# ---------------------------------------------------------------------------

def rk4_step(f, y, h, a, b, c):
    """One classical RK4 step of dy/dt = f(s, y) with step h.

    a, b and c are what f takes at the start, midpoint and end of the step:
    times, stage values of a coefficient, or a chart.
    """
    k1 = f(a, y)
    k2 = f(b, y + 0.5 * h * k1)
    k3 = f(b, y + 0.5 * h * k2)
    k4 = f(c, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(f, y0, grid: Grid, substeps: int = 2) -> np.ndarray:
    """Classical RK4 over each grid interval with `substeps` internal steps.

    Returns the trajectory as an (N+1, dim) array with trajectory[0] = y0
    exactly.  Raises NonFiniteState as soon as any component stops being
    finite, which typically means the state left a chart's validity region.
    """
    y = np.asarray(y0, dtype=float)
    nodes = grid.nodes
    out = np.empty((nodes.size,) + y.shape)
    out[0] = y
    for j in range(nodes.size - 1):
        h = (nodes[j + 1] - nodes[j]) / substeps
        t = nodes[j]
        for _ in range(substeps):
            y = rk4_step(f, y, h, t, t + 0.5 * h, t + h)
            t += h
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"state became non-finite in interval {j}")
        out[j + 1] = y
    return out


# ---------------------------------------------------------------------------
# Frame algebra
# ---------------------------------------------------------------------------

# At m = 2 a singular matrix makes solve divide by zero: the result is not
# finite and numpy warns, unless the caller's np.errstate says not to;
# np.linalg raises LinAlgError at other m.

def det(a) -> np.ndarray:
    """Determinants of an (m, m) matrix or of each of a stack (..., m, m)."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 2:
        return np.linalg.det(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def solve(a, b) -> np.ndarray:
    """x with a @ x = b for matrices a (..., m, m) and vectors b (..., m),
    broadcast together; at m = 2 by Cramer's rule."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1] != 2:
        return np.linalg.solve(a, b[..., None])[..., 0]
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b0, b1, d = b[..., 0], b[..., 1], det(a)
    return np.stack([(a11 * b0 - a01 * b1) / d, (a00 * b1 - a10 * b0) / d],
                    axis=-1)


def column_scale(a) -> np.ndarray:
    """The product of the column norms of an (m, m) matrix or of each of a
    stack (..., m, m): np.linalg.norm(a, axis=-2).prod(axis=-1), with the
    same bits at m = 2."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 2:
        return np.linalg.norm(a, axis=-2).prod(axis=-1)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return np.sqrt(a00 * a00 + a10 * a10) * np.sqrt(a01 * a01 + a11 * a11)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

# 4th-order first-derivative stencils (unit spacing), stored as integer
# numerators over 12 so each row sums to exactly zero in floating point:
# constants differentiate to exactly zero.  Exact on degree <= 4.
_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])        # offsets -2..2
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])      # offsets 0..4
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])        # offsets -1..3
_D1_DENOM = 12.0
# the row of a node sitting at position 0..4 of its window
_D1_ROWS = np.stack([_D1_EDGE0, _D1_EDGE1, _D1_CENTRAL,
                     -_D1_EDGE1[::-1], -_D1_EDGE0[::-1]])


@lru_cache(maxsize=None)
def stencil_windows(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The stencil windows of a uniform grid of n_nodes >= 5 nodes: (n, 5)
    node indices of each node's window and the (n,) position of each node
    in its own window.  Read-only and shared."""
    if n_nodes < 5:
        raise GridTooCoarse("differentiation needs at least 4 intervals")
    nodes = np.arange(n_nodes)
    starts = np.clip(nodes - 2, 0, n_nodes - 5)
    index = starts[:, None] + np.arange(5)
    position = nodes - starts
    index.flags.writeable = False
    position.flags.writeable = False
    return index, position


def stencil_derivative(windows: np.ndarray, h: float) -> np.ndarray:
    """Apply each node's 4th-order first-derivative row to its window.

    windows has shape (n, 5, ...): row j holds the values at node j's
    window nodes (stencil_windows(n)), already expressed in node j's chart.
    Returns (n, ...).  Each row sums to zero, so subtracting the node's own
    value changes nothing analytically but keeps constants exactly constant
    numerically.
    """
    n = windows.shape[0]
    _, position = stencil_windows(n)
    centred = windows - windows[np.arange(n), position][:, None]
    out = np.matmul(_D1_ROWS[position][:, None, :], centred.reshape(n, 5, -1))
    out /= _D1_DENOM * h
    return out.reshape((n,) + windows.shape[2:])


def differentiate(values: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative of per-node data on a uniform grid, 4th order.

    `values` has shape (N+1,) or (N+1, m); the result has the same shape.
    """
    grid.require_uniform()
    vals = np.asarray(values, dtype=float)
    n = grid.nodes.size
    if vals.shape[0] != n:
        raise ValidationError("values length does not match the grid")
    index, _ = stencil_windows(n)
    return stencil_derivative(vals[index], grid.h)


def lagrange_weights(positions: np.ndarray, x: float | np.ndarray) -> np.ndarray:
    """Weights of Lagrange interpolation through `positions` evaluated at x.

    Batched: positions (K, k) and x (K,) give the (K, k) weights of K
    windows, each row with the arithmetic of the single case."""
    p = np.asarray(positions, dtype=float).T
    w = np.ones(p.shape)
    for i in range(len(p)):
        for j in range(len(p)):
            if j != i:
                w[i] *= (x - p[j]) / (p[i] - p[j])
    return np.ascontiguousarray(w.T)


def lagrange_integral_weights(positions: np.ndarray, a: float, b: float) -> np.ndarray:
    """Weights w_i with sum_i w_i f(x_i) = integral over [a, b] of the interpolant."""
    positions = np.asarray(positions, dtype=float)
    k = positions.size
    w = np.empty(k)
    for i in range(k):
        poly = np.poly1d([1.0])
        for j in range(k):
            if j != i:
                poly *= np.poly1d([1.0, -positions[j]]) / (positions[i] - positions[j])
        anti = poly.integ()
        w[i] = anti(b) - anti(a)
    return w


def fd_weights(positions: np.ndarray, x0: float, max_order: int) -> np.ndarray:
    """Fornberg finite-difference weights.

    Returns an array W of shape (max_order + 1, len(positions)) such that
    W[k] @ f(positions) approximates the k-th derivative of f at x0, at the
    highest order of accuracy the node set supports.
    """
    x = np.asarray(positions, dtype=float)
    n = x.size
    if n < max_order + 1:
        raise GridTooCoarse("not enough nodes for the requested derivative order")
    c = np.zeros((max_order + 1, n))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


# ---------------------------------------------------------------------------
# Polynomial bases and least-squares fitting
# ---------------------------------------------------------------------------

BASES = ("bernstein", "monomial")
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class PolyCoeffs:
    """Polynomial coefficients in a fixed basis over a fixed interval.

    coefficients has shape (degree + 1, m): one length-m tuple per basis
    function.  The interval anchors the basis, so evaluation on any node set
    refers back to the interval the fit was made on.
    """

    basis: str
    degree: int
    coefficients: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValidationError(f"unknown basis {self.basis!r}")
        coeffs = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if coeffs.shape[0] != self.degree + 1:
            raise ValidationError("coefficient count must equal degree + 1")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)


def basis_matrix(nodes: np.ndarray, degree: int, basis: str,
                 interval: tuple[float, float]) -> np.ndarray:
    """Design matrix B[j, i] = phi_i(t_j) for the chosen basis on `interval`."""
    a, b = interval
    u = (np.asarray(nodes, dtype=float) - a) / (b - a)
    cols = []
    if basis == "bernstein":
        for i in range(degree + 1):
            cols.append(math.comb(degree, i) * u**i * (1.0 - u)**(degree - i))
    elif basis == "monomial":
        for i in range(degree + 1):
            cols.append(u**i)
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    return np.stack(cols, axis=1)


def fit_poly(values: np.ndarray, grid: Grid, degree: int,
             basis: str = "bernstein") -> PolyCoeffs:
    """Least-squares fit of per-node data in the grid's discrete L2 product.

    Raises IllConditioned when the normal system's condition estimate (the
    squared singular-value ratio of the design matrix) exceeds 1e12, which the
    monomial basis reaches at high degree.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float).T).T
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    if degree + 1 > grid.nodes.size:
        raise ValidationError("degree + 1 must not exceed the node count")
    interval = (float(grid.nodes[0]), float(grid.nodes[-1]))
    design = basis_matrix(grid.nodes, degree, basis, interval)
    svals = np.linalg.svd(design, compute_uv=False)
    cond = (svals[0] / svals[-1]) ** 2 if svals[-1] > 0 else np.inf
    if cond > _COND_LIMIT:
        raise IllConditioned(
            f"normal-system condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}")
    coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return PolyCoeffs(basis=basis, degree=degree, coefficients=coeffs,
                      interval=interval)


def eval_poly(coeffs: PolyCoeffs, nodes) -> np.ndarray:
    """Evaluate a PolyCoeffs at the given nodes (a Grid or an array)."""
    if isinstance(nodes, Grid):
        nodes = nodes.nodes
    design = basis_matrix(np.asarray(nodes, dtype=float), coeffs.degree,
                          coeffs.basis, coeffs.interval)
    return design @ coeffs.coefficients


def fit_residual(values: np.ndarray, grid: Grid, coeffs: PolyCoeffs) -> float:
    """Discrete L2 norm of the fit residual on the grid."""
    vals = np.atleast_2d(np.asarray(values, dtype=float).T).T
    return float(np.linalg.norm(vals - eval_poly(coeffs, grid)))
