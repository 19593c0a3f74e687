"""Chart-atlas manifold abstraction.

A model is a subclass of ManifoldModel.  It is constructed from explicit
coordinate charts with transition maps (and their Jacobians), an optional
closed-form Oracle of exp/log/dist, whose array kernels also serve
point_distances, and a conservative injectivity floor r0, and it
implements the Christoffel symbols and the metric as methods.  The
connection is given as Gamma^l_{kj} directly; it must be compatible with
the metric but need not be Levi-Civita, and the constructor probes the
compatibility residual.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import NoOracle, NoOverlap, OutOfInjectivityRange, ValidationError

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
    groups: dict[str, list[int]] = {}
    for i, chart in enumerate(charts):
        groups.setdefault(chart, []).append(i)
    return {chart: np.asarray(idx) for chart, idx in groups.items()}


def require_independent_columns(cols: np.ndarray) -> None:
    """The frame column check, for one (m, m) matrix of frame columns or a
    stack of them (..., m, m): raise ValidationError unless every matrix has
    no zero column and |det| >= 1e-10 * (product of the column norms)."""
    scale = np.linalg.norm(cols, axis=-2).prod(axis=-1)
    if not (scale > 0).all() or \
            (np.abs(np.linalg.det(cols)) < _FRAME_DET_FLOOR * scale).any():
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

    A model's oracle writes each closed form once: exp, which chooses the
    chart of its result, and three array kernels in one named chart, which
    validate nothing.  dist_from pairs p's coordinates, one point (m,) or K
    points (K, m), with K points (K, m).  log_from returns (dists, logs) of
    K points from one pass, dists bit-equal to dist_from's; exp_from takes
    vectors of shape (..., m).  Both take a single p.  dist and log are the
    kernels' K = 1 case.
    """

    def exp(self, model: "ManifoldModel", p: Point, v: Tangent) -> Point:
        raise NotImplementedError

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
    """A chart atlas with connection, metric, and optional closed-form oracle.

    A model is a subclass that implements christoffel and metric.
    christoffel returns Gamma[l, k, j] = Gamma^l_{kj}; the frame equation
    contracts the k slot with the velocity and the j slot with the frame
    component.  The library reads the connection through two hooks:
    christoffel_action_batch, M[l, j] = Gamma^l_{kj} r^k at (K, m) points,
    which transport, covariant derivatives and the batched inverse call, and
    christoffel_action_floats, its form on Python floats for the
    single-curve inverse at m = 2, whose rows of floats may be tuples.
    metric_many, the metric at (K, m) points of one chart as (K, m, m) for
    g_norms, must agree with metric bit for bit.  The hooks default to
    christoffel (through christoffel_batch and christoffel_action) and to
    metric, so christoffel and metric are all a model must implement; the
    built-in models override the hooks with closed forms.
    """

    def __init__(self, name: str, dim: int, charts: Sequence[ChartSpec],
                 transitions: Mapping[tuple[str, str], TransitionMap],
                 r0, oracle: Oracle | None = None):
        self.name = name
        self.dim = dim
        self.charts = {c.chart_id: c for c in charts}
        self.transitions = dict(transitions)
        self._r0 = r0
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

    # -- connection and metric ------------------------------------------------

    def christoffel(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel_batch(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return np.stack([self.christoffel(chart_id, c) for c in coords])

    def christoffel_action(self, chart_id: str, coords: np.ndarray,
                           r: np.ndarray) -> np.ndarray:
        """M[l, j] = Gamma^l_{kj} r^k, the matrix acting on frame columns."""
        gamma = self.christoffel(chart_id, coords)
        return np.tensordot(gamma, r, axes=([1], [0]))

    def christoffel_action_batch(self, chart_id: str, coords: np.ndarray,
                                 r: np.ndarray) -> np.ndarray:
        """Batched christoffel_action over a leading axis of points."""
        gamma = self.christoffel_batch(chart_id, coords)
        return np.einsum("slkj,sk->slj", gamma, r)

    def christoffel_action_floats(self, chart_id: str, coords: list[float],
                                  r: list[float]) -> list[list[float]]:
        """christoffel_action on Python floats, the hook of the single-curve
        inverse at m = 2: coords and r are pairs of floats, the result is M
        as two rows of two floats, each row a tuple or a list.  The default
        round-trips through christoffel_action; models override it with a
        closed form where speed matters.
        """
        return self.christoffel_action(chart_id, np.array(coords),
                                       np.array(r)).tolist()

    def metric(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inner(self, u: Tangent, v: Tangent) -> float:
        if u.base.chart_id != v.base.chart_id:
            v = self.push_tangent(v, u.base.chart_id)
        g = self.metric(u.base.chart_id, u.base.coords)
        return float(u.components @ g @ v.components)

    def g_norm(self, t: Tangent) -> float:
        return float(np.sqrt(max(self.inner(t, t), 0.0)))

    def metric_many(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        """metric at (K, m) points of one chart, as a (K, m, m) array."""
        return np.stack([self.metric(chart_id, x) for x in coords])

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

    def r0(self, point: Point) -> float:
        return float(self._r0(point))

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
        for spec in self.charts.values():
            lo, hi = spec.sample_box
            probes = [spec.center, lo, hi, 0.5 * (lo + hi)]
            for coords in probes:
                if spec.domain_test(coords) == OUTSIDE:
                    continue
                res = metric_compatibility_residual(self, spec.chart_id,
                                                    coords, step)
                if res > tol:
                    raise ValidationError(
                        f"connection incompatible with metric on chart "
                        f"{spec.chart_id!r}: residual {res:.3e}")


def metric_compatibility_residual(model: ManifoldModel, chart_id: str,
                                  coords: np.ndarray, step: float = 1e-5) -> float:
    """Max |d_k g_ij - Gamma^l_{ki} g_lj - Gamma^l_{kj} g_il| with central
    differences for the metric derivative."""
    coords = np.asarray(coords, dtype=float)
    m = coords.size
    g = model.metric(chart_id, coords)
    gamma = model.christoffel(chart_id, coords)
    worst = 0.0
    for k in range(m):
        delta = np.zeros(m)
        delta[k] = step
        dg = (model.metric(chart_id, coords + delta)
              - model.metric(chart_id, coords - delta)) / (2.0 * step)
        term = dg - np.einsum("li,lj->ij", gamma[:, k, :], g) \
                  - np.einsum("lj,il->ij", gamma[:, k, :], g)
        worst = max(worst, float(np.max(np.abs(term))))
    return worst
