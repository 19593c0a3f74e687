"""Chart-atlas manifold abstraction.

A model is a subclass of ManifoldModel.  It is constructed from explicit
coordinate charts with transition maps (and their Jacobians), an optional
closed-form Oracle, three array kernels from which exp/log/dist and
point_distances follow, and a conservative injectivity floor r0, and it
writes its geometry as two array hooks: metric_many, the metric at many
points of a chart, and christoffel_action_batch, the connection acting on
frame columns there.  The connection must be the Levi-Civita connection of
the metric, the one whose parallel transport the metric's oracles assume,
and the constructor probes that it is.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import NoOracle, NoOverlap, OutOfInjectivityRange, ValidationError
from .numerics import column_scale, det

INSIDE = "inside"
MARGIN = "margin"
OUTSIDE = "outside"

_FRAME_DET_FLOOR = 1e-10


def _freeze(array, shape=None) -> np.ndarray:
    arr = np.array(array, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"expected shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Point:
    """A manifold point: a chart id plus coordinates in that chart."""

    chart_id: str
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(self.coords))


class Samples(Sequence):
    """Chart-tagged points stored as arrays, read-only: `charts` holds the
    chart ids (a tuple, or for a grid of points a tuple of rows) and
    `coords` their frozen float[..., m] coordinates.  Indexing builds a
    Point, or a grid row's 1-D Samples, once and keeps it."""

    __slots__ = ("charts", "coords", "_items")

    def __init__(self, charts, coords):
        self.coords = coords = _freeze(coords)
        grid = coords.ndim == 3
        self.charts = tuple(map(tuple, charts)) if grid else tuple(charts)
        if coords.ndim not in (2, 3) or len(self.charts) != len(coords) or \
                grid and {len(r) for r in self.charts} != {coords.shape[1]}:
            raise ValidationError("samples need one chart id per point")
        self._items = [None] * len(coords)

    @classmethod
    def of(cls, points, ndim: int = 1) -> "Samples":
        """points as Samples with ndim axes: Samples pass through; Points,
        or rows of them for ndim 2, are stacked and stay the items."""
        if isinstance(points, Samples) and points.coords.ndim == ndim + 1:
            return points
        items = [cls.of(row) for row in points] if ndim == 2 else list(points)
        try:
            out = cls([p.charts if ndim == 2 else p.chart_id for p in items],
                      np.stack([p.coords for p in items]))
        except (AttributeError, ValueError):
            raise ValidationError("points must be Points of one dimension")
        out._items[:] = items
        return out

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Samples(self.charts[i], self.coords[i])
        if self._items[i] is None:
            kind = Point if self.coords.ndim == 2 else Samples
            self._items[i] = kind(self.charts[i], self.coords[i])
        return self._items[i]

    def __repr__(self) -> str:
        return f"Samples(charts={self.charts!r}, coords={self.coords!r})"

    def __reduce__(self):
        # rebuild through __init__, so a copy or an unpickled one is frozen
        return Samples, (self.charts, self.coords)


@dataclass(frozen=True)
class Tangent:
    """A tangent vector: components in the base point's coordinate frame."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        comps = _freeze(self.components)
        if comps.shape != self.base.coords.shape:
            raise ValidationError("tangent components must match the base dimension")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class Frame:
    """m columns e_i at a base point; column i holds the components e_i^j."""

    base: Point
    columns: np.ndarray

    def __post_init__(self):
        m = self.base.coords.size
        cols = _freeze(self.columns, shape=(m, m))
        require_independent_columns(cols)
        object.__setattr__(self, "columns", cols)

    def column(self, i: int) -> Tangent:
        return Tangent(self.base, self.columns[:, i])


def chart_groups(charts) -> dict[str, np.ndarray]:
    """The positions of each chart id in a sequence of chart ids, as index
    arrays keyed by chart in order of first appearance."""
    charts = charts if isinstance(charts, (list, tuple)) else list(charts)
    if charts and charts.count(charts[0]) == len(charts):
        return {charts[0]: np.arange(len(charts))}
    groups: dict[str, list[int]] = {}
    for i, chart in enumerate(charts):
        groups.setdefault(chart, []).append(i)
    return {chart: np.asarray(idx) for chart, idx in groups.items()}


def require_independent_columns(cols: np.ndarray) -> None:
    """The frame column check, for one (m, m) matrix of frame columns or a
    stack of them (..., m, m): raise ValidationError unless, for every
    matrix, the product of the column norms is finite and not zero and
    |det| >= 1e-10 * (that product)."""
    scale = column_scale(cols)
    if not ((scale > 0) & np.isfinite(scale)).all() or \
            (np.abs(det(cols)) < _FRAME_DET_FLOOR * scale).any():
        raise ValidationError("frame columns are (numerically) linearly dependent")


@dataclass(frozen=True)
class ChartSpec:
    """One coordinate chart: identity, domain classifier, and sampling data.

    domain_test_many maps (K, m) coordinates to an array of K statuses,
    INSIDE / MARGIN / OUTSIDE; MARGIN means the coordinates are still valid
    but continuation should switch charts.  domain_test is its K = 1 case,
    for one point (m,).  `center` is the chart's own origin in its
    coordinates; `sample_box` is a box strictly inside the interior used
    for seeded probing.
    """

    chart_id: str
    domain_test_many: Callable[[np.ndarray], np.ndarray]
    center: np.ndarray
    sample_box: tuple[np.ndarray, np.ndarray]
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(self.center))
        lo, hi = self.sample_box
        object.__setattr__(self, "sample_box", (_freeze(lo), _freeze(hi)))

    def domain_test(self, coords: np.ndarray) -> str:
        return str(self.domain_test_many(np.asarray(coords, float)[None])[0])


class TransitionMap:
    """Coordinate change between two charts with its Jacobian.

    `apply` may return None when the point has no image in the target chart
    (for example a stereographic projection point), which surfaces as
    NoOverlap at the model level.
    """

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray | None],
                 jacobian: Callable[[np.ndarray], np.ndarray]):
        self.apply = apply
        self.jacobian = jacobian


class Oracle:
    """Closed-form exp/log/dist for a model geometry.

    A model's oracle writes each closed form once, as three array kernels
    in one named chart, which validate nothing.  dist_from pairs p's
    coordinates, one point (m,) or K points (K, m), with K points (K, m).
    log_from returns (dists, logs) of K points from one pass, dists
    bit-equal to dist_from's; exp_from takes vectors of shape (..., m).
    Both take a single p.  exp, dist and log are the kernels' K = 1 case;
    exp returns p for |v| < 1e-300 and places any other result with
    ManifoldModel.place.
    """

    def exp(self, model: "ManifoldModel", p: Point, v: Tangent) -> Point:
        comps = model.push_tangent(v, p.chart_id).components
        if np.linalg.norm(comps) < 1e-300:   # a NaN goes on to NoOverlap
            return p
        return model.place(lambda c: self.exp_from(model, p, comps, c),
                           p.chart_id)

    def dist_from(self, model: "ManifoldModel", p: Point, chart_id: str,
                  coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_from(self, model: "ManifoldModel", p: Point, chart_id: str,
                 coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def exp_from(self, model: "ManifoldModel", p: Point, vecs: np.ndarray,
                 chart_id: str) -> np.ndarray:
        raise NotImplementedError

    def dist(self, model: "ManifoldModel", p: Point, q: Point) -> float:
        return float(self.dist_from(model, p, q.chart_id, q.coords[None])[0])

    def log(self, model: "ManifoldModel", p: Point, q: Point) -> Tangent:
        """log_p(q); OutOfInjectivityRange unless d(p, q) < r0(p)."""
        (d,), (log,) = self.log_from(model, p, q.chart_id, q.coords[None])
        if d >= model.r0(p):
            raise OutOfInjectivityRange(
                f"d(p, q) = {d:.6f} exceeds r0 = {model.r0(p):.6f}")
        return Tangent(p, log)


class ManifoldModel:
    """A chart atlas with metric, connection, and optional closed-form oracle.

    A model is a subclass that writes two hooks.  metric_many returns the
    metric g_ij at (K, m) points of one chart as (K, m, m).
    christoffel_action_batch returns M[s, l, j] = Gamma^l_{kj} r[s, k] at
    (K, m) points: the frame equation contracts the k slot of Gamma with
    the velocity and the j slot with the frame component.  Covariant
    derivatives call the action; metric, christoffel
    (Gamma[l, k, j] = Gamma^l_{kj}) and christoffel_action_floats derive
    from the two hooks.  christoffel_action_floats is the hook of both
    inverse solvers and of transport's propagators: the action entry by
    entry, on Python floats or on equal-shape arrays, elementwise.  The
    built-in models override it with closed forms that serve both.  The
    constructor probes that Gamma is the Levi-Civita connection of g.
    place is the one rule that puts a point given in every chart's
    coordinates into a chart.  r0, the conservative injectivity floor, is
    one positive number per model.
    """

    def __init__(self, name: str, dim: int, charts: Sequence[ChartSpec],
                 transitions: Mapping[tuple[str, str], TransitionMap],
                 r0: float, oracle: Oracle | None = None):
        if isinstance(r0, bool) or not isinstance(r0, (int, float)) or \
                not 0.0 < r0 < np.inf:
            raise ValidationError(
                f"r0 must be a positive finite number, not {r0!r}")
        self.name = name
        self.dim = dim
        self.charts = {c.chart_id: c for c in charts}
        self.transitions = dict(transitions)
        self._r0 = float(r0)
        self.oracle = oracle
        self._validate_compatibility()

    # -- chart bookkeeping ---------------------------------------------------

    def chart(self, chart_id: str) -> ChartSpec:
        try:
            return self.charts[chart_id]
        except KeyError:
            raise ValidationError(f"model {self.name!r} has no chart {chart_id!r}")

    def domain_status(self, point: Point) -> str:
        return self.chart(point.chart_id).domain_test(point.coords)

    def off_interior(self, groups: Mapping[str, np.ndarray],
                     coords: np.ndarray) -> np.ndarray:
        """The positions i, ascending, whose coordinates coords[i] are not
        INSIDE their chart: groups maps each chart id to its positions, as
        chart_groups does, and each chart classifies its own in one call."""
        flagged = [idx[self.chart(cid).domain_test_many(coords[idx]) != INSIDE]
                   for cid, idx in groups.items()]
        return np.sort(np.concatenate(flagged)) if flagged else np.zeros(0, int)

    def transition(self, point: Point, target: str) -> Point:
        """Re-express a point in the target chart; NoOverlap if impossible."""
        if target == point.chart_id:
            return point
        tmap = self.transitions.get((point.chart_id, target))
        if tmap is None:
            raise NoOverlap(f"no transition {point.chart_id!r} -> {target!r}")
        coords = tmap.apply(point.coords)
        if coords is None or not np.all(np.isfinite(coords)):
            raise NoOverlap(
                f"point in {point.chart_id!r} has no image in chart {target!r}")
        if self.chart(target).domain_test(coords) == OUTSIDE:
            raise NoOverlap(
                f"point in {point.chart_id!r} lies outside chart {target!r}")
        return Point(target, coords)

    def transition_jacobian(self, point: Point, target: str) -> np.ndarray:
        if target == point.chart_id:
            return np.eye(self.dim)
        tmap = self.transitions.get((point.chart_id, target))
        if tmap is None:
            raise NoOverlap(f"no transition {point.chart_id!r} -> {target!r}")
        return tmap.jacobian(point.coords)

    def push_tangent(self, t: Tangent, target: str) -> Tangent:
        """Move a tangent to another chart through the transition Jacobian."""
        if target == t.base.chart_id:
            return t
        base = self.transition(t.base, target)
        jac = self.transition_jacobian(t.base, target)
        return Tangent(base, jac @ t.components)

    def select_chart(self, point: Point) -> Point:
        """Deterministic continuation rule for a point at a chart margin.

        Candidates are all charts where the point is representable; charts
        reporting INSIDE win over MARGIN, then the chart whose center is
        nearest in its own coordinates, then the lowest chart id.
        """
        best = None
        for cid in sorted(self.charts):
            try:
                cand = self.transition(point, cid)
            except NoOverlap:
                continue
            status = self.domain_status(cand)
            if status == OUTSIDE:
                continue
            rank = (0 if status == INSIDE else 1,
                    float(np.linalg.norm(cand.coords - self.chart(cid).center)),
                    cid)
            if best is None or rank < best[0]:
                best = (rank, cand)
        if best is None:
            raise NoOverlap(f"no chart admits point {point}")
        return best[1]

    def place(self, coords_in: Callable[[str], np.ndarray],
              prefer: str) -> Point:
        """The point with coordinates coords_in(c) in chart c, in the first
        chart, prefer and then the others by id, that holds it INSIDE, else
        the first at its MARGIN; NoOverlap if none.  Division by zero in
        coords_in is silent: the result is OUTSIDE."""
        fallback = None
        for cid in sorted(self.charts, key=lambda c: (c != prefer, c)):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                coords = coords_in(cid)
            status = self.chart(cid).domain_test(coords)
            if status == INSIDE:
                return Point(cid, coords)
            if status == MARGIN and fallback is None:
                fallback = Point(cid, coords)
        if fallback is None:
            raise NoOverlap(f"no chart of {self.name!r} admits the point")
        return fallback

    # -- connection and metric ------------------------------------------------

    def metric_many(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        """The metric g_ij at (K, m) points of one chart, as (K, m, m)."""
        raise NotImplementedError

    def christoffel_action_batch(self, chart_id: str, coords: np.ndarray,
                                 r: np.ndarray) -> np.ndarray:
        """M[s, l, j] = Gamma^l_{kj}(coords[s]) r[s, k] at (K, m) points of
        one chart: the matrix that acts on frame columns."""
        raise NotImplementedError

    def christoffel_action_floats(self, chart_id: str, coords, r):
        """christoffel_action_batch entry by entry, the hook of both
        inverse solvers and of transport's propagators.  coords and r are
        m entries each, Python floats or equal-shape arrays; M is m rows of
        m entries, M[l][j] = Gamma^l_{kj}(coords) r^k elementwise: all
        floats, or all arrays of that shape, or both given as one
        (m, m, ...) array.  The single-curve inverse at m = 2 passes
        floats, the batched one the arrays of a chart's rows, transport the
        arrays of a block's stage points.  The default is the batch form,
        at K = 1 for floats; models override it with a closed form."""
        x = np.asarray(coords, dtype=float)
        action = self.christoffel_action_batch(
            chart_id, x.reshape(self.dim, -1).T,
            np.asarray(r, dtype=float).reshape(self.dim, -1).T)
        return action[0].tolist() if x.ndim == 1 else action.transpose(1, 2, 0)

    def metric(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        return self.metric_many(chart_id, np.array([coords], float))[0]

    def christoffel(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        """Gamma[l, k, j] = Gamma^l_{kj}: the action on the m coordinate
        basis vectors e_k, at one point (m,)."""
        x = np.asarray(coords, dtype=float)
        return self.christoffel_action_batch(
            chart_id, np.tile(x, (x.size, 1)), np.eye(x.size)).transpose(1, 0, 2)

    # christoffel_batch and christoffel_action are derived only because the
    # benchmark's tracer wraps every Christoffel method by name.
    def christoffel_batch(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        return np.stack([self.christoffel(chart_id, x) for x in coords])

    def christoffel_action(self, chart_id: str, coords: np.ndarray,
                           r: np.ndarray) -> np.ndarray:
        return self.christoffel_action_batch(
            chart_id, np.array([coords], float), np.array([r], float))[0]

    def inner(self, u: Tangent, v: Tangent) -> float:
        if u.base.chart_id != v.base.chart_id:
            v = self.push_tangent(v, u.base.chart_id)
        g = self.metric(u.base.chart_id, u.base.coords)
        return float(u.components @ g @ v.components)

    def g_norm(self, t: Tangent) -> float:
        return float(np.sqrt(max(self.inner(t, t), 0.0)))

    def g_norms(self, charts, coords, vectors) -> np.ndarray:
        """g_norm of vectors[j] at the point (charts[j], coords[j]) for every
        j of the (n, m) arrays: g_norm's r @ g @ r, one metric_many a chart."""
        sq = np.empty(len(vectors))
        for cid, idx in chart_groups(charts).items():
            r = vectors[idx]
            rg = np.matmul(r[:, None, :], self.metric_many(cid, coords[idx]))
            sq[idx] = np.vecdot(rg[:, 0], r)
        # np.where, not np.maximum: max(q, 0.0) keeps q unless 0.0 > q
        return np.sqrt(np.where(sq < 0.0, 0.0, sq))

    def r0(self, point: Point | None = None) -> float:
        """The injectivity floor, the same at every point."""
        return self._r0

    # -- frames ---------------------------------------------------------------

    def coordinate_frame(self, point: Point) -> Frame:
        return Frame(point, np.eye(self.dim))

    def orthonormal_frame(self, point: Point) -> Frame:
        """g-orthonormalized coordinate basis (Gram-Schmidt, column order)."""
        g = self.metric(point.chart_id, point.coords)
        cols = np.eye(self.dim)
        for i in range(self.dim):
            v = cols[:, i].copy()
            for k in range(i):
                v -= (cols[:, k] @ g @ v) * cols[:, k]
            norm = np.sqrt(v @ g @ v)
            if norm <= 0:
                raise ValidationError("metric is degenerate at the point")
            cols[:, i] = v / norm
        return Frame(point, cols)

    def frame_gram(self, frame: Frame) -> np.ndarray:
        """Gram matrix g(e_i, e_j) of a frame; the norm on its span."""
        g = self.metric(frame.base.chart_id, frame.base.coords)
        return frame.columns.T @ g @ frame.columns

    # -- oracle access ---------------------------------------------------------

    def _require_oracle(self) -> Oracle:
        if self.oracle is None:
            raise NoOracle(f"model {self.name!r} has no closed-form oracle")
        return self.oracle

    def exp_oracle(self, p: Point, v: Tangent) -> Point:
        return self._require_oracle().exp(self, p, v)

    def log_oracle(self, p: Point, q: Point) -> Tangent:
        return self._require_oracle().log(self, p, q)

    def dist_oracle(self, p: Point, q: Point) -> float:
        return self._require_oracle().dist(self, p, q)

    def point_distance(self, p: Point, q: Point) -> float:
        """Oracle distance when available, else coordinate distance in a
        common chart (the comparison metric used by the check reports)."""
        if self.oracle is not None:
            return self.dist_oracle(p, q)
        q_in_p = self.transition(q, p.chart_id)
        return float(np.linalg.norm(p.coords - q_in_p.coords))

    def point_distances(self, a: Samples, b: Samples) -> np.ndarray:
        """point_distance at each position of a and b, two Samples of one
        shape: one oracle kernel call per pair of charts, else per pair."""
        if a.coords.shape != b.coords.shape:
            raise ValidationError("paired samples must have one shape")
        pairs = list(zip(np.ravel(a.charts).tolist(),
                         np.ravel(b.charts).tolist()))
        xa, xb = a.coords.reshape(-1, self.dim), b.coords.reshape(-1, self.dim)
        if self.oracle is None:
            out = [self.point_distance(Point(ca, x), Point(cb, y))
                   for (ca, cb), x, y in zip(pairs, xa, xb)]
        else:
            out = np.empty(len(xa))
            for (ca, cb), idx in chart_groups(pairs).items():
                out[idx] = self.oracle.dist_from(self, Point(ca, xa[idx]), cb,
                                                 xb[idx])
        return np.reshape(out, a.coords.shape[:-1])

    # -- construction-time validation ------------------------------------------

    def _validate_compatibility(self, step: float = 1e-5, tol: float = 1e-6):
        """Probe that Gamma is the Levi-Civita connection of g, within tol,
        at each chart's center, sample-box corners and box middle."""
        for spec in self.charts.values():
            lo, hi = spec.sample_box
            for coords in (spec.center, lo, hi, 0.5 * (lo + hi)):
                if spec.domain_test(coords) == OUTSIDE:
                    continue
                g, gamma, nabla_g = _connection_probe(self, spec.chart_id,
                                                      coords, step)
                residuals = {
                    "metric asymmetry": np.max(np.abs(g - g.T)),
                    "metric compatibility residual": np.max(np.abs(nabla_g)),
                    "torsion": np.max(np.abs(gamma - gamma.transpose(0, 2, 1))),
                }
                for what, res in residuals.items():
                    if not res <= tol:
                        raise ValidationError(
                            f"connection is not Levi-Civita on chart "
                            f"{spec.chart_id!r}: {what} {res:.3e}")
                # Sylvester's criterion, on the det that frames already use
                if not all(np.linalg.det(g[:k, :k]) > 0.0
                           for k in range(1, self.dim + 1)):
                    raise ValidationError(
                        f"metric is not positive definite on chart "
                        f"{spec.chart_id!r}")


def _connection_probe(model: ManifoldModel, chart_id: str, coords: np.ndarray,
                      step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, Gamma, nabla g) at one point: g and its central differences from
    one metric_many call on x and x +- step e_k, Gamma[l, k, j] from one
    action call, and nabla_g[k, i, j] = d_k g_ij - Gamma^l_{ki} g_lj -
    Gamma^l_{kj} g_il."""
    x = np.asarray(coords, dtype=float)
    shifts = step * np.eye(x.size)
    gs = model.metric_many(chart_id, np.concatenate([x[None], x + shifts,
                                                     x - shifts]))
    g, plus, minus = gs[0], gs[1:x.size + 1], gs[x.size + 1:]
    gamma = model.christoffel(chart_id, x)
    nabla_g = (plus - minus) / (2.0 * step) \
        - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return g, gamma, nabla_g


def metric_compatibility_residual(model: ManifoldModel, chart_id: str,
                                  coords: np.ndarray, step: float = 1e-5) -> float:
    """Max |d_k g_ij - Gamma^l_{ki} g_lj - Gamma^l_{kj} g_il| over i, j, k,
    with d_k g from central differences; NaN if any term is NaN."""
    return float(np.max(np.abs(_connection_probe(model, chart_id, coords,
                                                 step)[2])))
