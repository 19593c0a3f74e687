"""Parallel transport of frames and vectors along sampled curves.

The frame equation de_i^l/dt = -e_i^j Gamma^l_{kj}(gamma) r^k is linear in
the frame, so transport is computed from per-interval RK4 propagators of the
matrix system dPhi/dt = -M(t) Phi with M[l,j] = Gamma^l_{kj} r^k.  The
propagators depend only on curve data and are built vectorized across all
intervals; frames are then chained node to node.  Curve velocities r come
from 4th-order finite-difference stencils applied to the sampled positions,
never from an analytic curve.

Chart continuation: the curve is re-expressed chart-run by chart-run.  A run
ends when a node's coordinates reach the working chart's margin; the full
state (position and every frame column) is re-expressed through the
transition at that node only, never mid-interval, and the switch is logged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ChartContinuationFailure, GridTooCoarse, NoOverlap,
                     NonFiniteState, ValidationError)
from .geometry import MARGIN, OUTSIDE, Frame, ManifoldModel, Point, Tangent
from .numerics import (Grid, _D1_CENTRAL, _D1_DENOM, _D1_EDGE0, _D1_EDGE1,
                       lagrange_weights)


@dataclass(frozen=True)
class SampledCurve:
    """A time grid with one chart-tagged point per node.

    `order` is the declared regularity of the underlying curve; `base_index`
    is the node carrying the basepoint (0 for [0,1] grids, the middle node
    for [-1,1] grids).
    """

    grid: Grid
    points: tuple[Point, ...]
    order: int = 1
    base_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) != self.grid.nodes.size:
            raise ValidationError("curve needs one point per grid node")
        if not 0 <= self.base_index < len(self.points):
            raise ValidationError("base_index outside the grid")

    @property
    def basepoint(self) -> Point:
        return self.points[self.base_index]


@dataclass(frozen=True)
class FrameField:
    """A frame per curve node plus the chart-switch log of the transport."""

    curve: SampledCurve
    frames: tuple[Frame, ...]
    switch_log: tuple[tuple[int, str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "switch_log", tuple(self.switch_log))


# ---------------------------------------------------------------------------
# Stencils and chart runs
# ---------------------------------------------------------------------------

_STENCIL_ROWS = (_D1_EDGE0, _D1_EDGE1, _D1_CENTRAL,
                 -_D1_EDGE1[::-1], -_D1_EDGE0[::-1])


def _window_start(j: int, n_nodes: int, width: int = 5) -> int:
    half = width // 2
    return int(np.clip(j - half, 0, n_nodes - width))


def _express(model: ManifoldModel, point: Point, chart_id: str, node: int) -> np.ndarray:
    try:
        return model.transition(point, chart_id).coords
    except NoOverlap as exc:
        raise ChartContinuationFailure(
            f"node {node} cannot be expressed in chart {chart_id!r}: {exc}",
            node=node)


def curve_velocities(model: ManifoldModel, curve: SampledCurve) -> tuple[Tangent, ...]:
    """4th-order finite-difference velocity at every node, each expressed in
    that node's own stored chart."""
    curve.grid.require_uniform()
    n_nodes = curve.grid.nodes.size
    if n_nodes < 5:
        raise GridTooCoarse("velocity stencils need at least 5 nodes")
    h = curve.grid.h
    charts = [p.chart_id for p in curve.points]
    if all(c == charts[0] for c in charts):
        coords = np.stack([p.coords for p in curve.points])
        from .numerics import differentiate
        vel = differentiate(coords, curve.grid)
        return tuple(Tangent(curve.points[j], vel[j]) for j in range(n_nodes))
    out = []
    for j in range(n_nodes):
        w = _window_start(j, n_nodes)
        window = np.stack([
            _express(model, curve.points[w + s], charts[j], w + s)
            for s in range(5)
        ])
        row = _STENCIL_ROWS[j - w]
        out.append(Tangent(curve.points[j],
                           (row @ (window - window[j - w])) / (_D1_DENOM * h)))
    return tuple(out)


@dataclass
class _Run:
    lo: int                  # first node, inclusive
    hi: int                  # last node, inclusive
    chart_id: str
    coords: np.ndarray       # (hi - lo + 1, m) positions in chart_id


def _build_runs(model: ManifoldModel, curve: SampledCurve, origin: int,
                stop: int, start_chart: str) -> list[_Run]:
    """Split the node range between origin and stop (inclusive, either
    direction) into chart runs following the margin-switch rule."""
    step = 1 if stop >= origin else -1
    nodes = range(origin, stop + step, step)
    runs: list[_Run] = []
    chart = start_chart
    run_nodes: list[int] = []
    run_coords: list[np.ndarray] = []

    def close_run():
        if run_nodes:
            order = slice(None) if step > 0 else slice(None, None, -1)
            runs.append(_Run(lo=min(run_nodes), hi=max(run_nodes),
                             chart_id=chart,
                             coords=np.stack(run_coords[order])))

    for j in nodes:
        coords = _express(model, curve.points[j], chart, j)
        status = model.chart(chart).domain_test(coords)
        if status == OUTSIDE:
            raise ChartContinuationFailure(
                f"node {j} left chart {chart!r} without touching its margin",
                node=j)
        run_nodes.append(j)
        run_coords.append(coords)
        if status == MARGIN and j != stop:
            switched = model.select_chart(Point(chart, coords))
            if switched.chart_id != chart:
                close_run()
                chart = switched.chart_id
                run_nodes = [j]
                run_coords = [switched.coords]
    close_run()
    return runs


# ---------------------------------------------------------------------------
# Stage data and interval propagators
# ---------------------------------------------------------------------------

def _stage_offsets(substeps: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, 2 * substeps + 1)


def _stage_values(node_values: np.ndarray, substeps: int) -> np.ndarray:
    """Lagrange interpolation of per-node data to RK4 stage times.

    node_values: (n, m) on a uniform grid; returns (n - 1, S, m) with
    S = 2 * substeps + 1 stage offsets per interval.  Windows are cubic
    (4 nodes) where the run allows, degrading gracefully on short runs.
    """
    n = node_values.shape[0]
    width = min(4, n)
    offsets = _stage_offsets(substeps)
    starts = np.clip(np.arange(n - 1) - 1, 0, n - width)
    rel = starts - np.arange(n - 1)           # window start relative to interval
    out = np.empty((n - 1, offsets.size, node_values.shape[1]))
    for shift in np.unique(rel):
        mask = rel == shift
        positions = np.arange(width) + shift
        wts = np.stack([lagrange_weights(positions, u) for u in offsets])
        idx = starts[mask][:, None] + np.arange(width)[None, :]
        out[mask] = np.einsum("us,nsm->num", wts, node_values[idx])
    return out


def _interval_propagators(m_stages: np.ndarray, h: float, substeps: int) -> np.ndarray:
    """RK4 propagators of dPhi/dt = -M(t) Phi over each interval, batched.

    m_stages: (n_int, S, m, m) values of M at the stage times.  Returns
    (n_int, m, m) with Phi mapping the frame at the left node to the right.
    """
    n_int, _, m, _ = m_stages.shape
    a = -m_stages
    phi = np.broadcast_to(np.eye(m), (n_int, m, m)).copy()
    hsub = h / substeps
    for s in range(substeps):
        a0, a1, a2 = a[:, 2 * s], a[:, 2 * s + 1], a[:, 2 * s + 2]
        k1 = a0 @ phi
        k2 = a1 @ (phi + (0.5 * hsub) * k1)
        k3 = a1 @ (phi + (0.5 * hsub) * k2)
        k4 = a2 @ (phi + hsub * k3)
        phi = phi + (hsub / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def _run_propagators(model: ManifoldModel, run: _Run, velocities, h: float,
                     substeps: int) -> np.ndarray:
    """Propagators for every interval of a chart run."""
    n_run = run.coords.shape[0]
    m = run.coords.shape[1]
    if n_run < 2:
        return np.empty((0, m, m))
    vel = np.empty((n_run, m))
    for k in range(n_run):
        node = run.lo + k
        t = velocities[node]
        if t.base.chart_id == run.chart_id:
            vel[k] = t.components
        else:
            jac = model.transition_jacobian(t.base, run.chart_id)
            vel[k] = jac @ t.components
    coords_stages = _stage_values(run.coords, substeps)
    vel_stages = _stage_values(vel, substeps)
    flat_c = coords_stages.reshape(-1, m)
    flat_v = vel_stages.reshape(-1, m)
    gamma = model.christoffel_batch(run.chart_id, flat_c)
    m_flat = np.einsum("slkj,sk->slj", gamma, flat_v)
    m_stages = m_flat.reshape(coords_stages.shape[0], -1, m, m)
    return _interval_propagators(m_stages, h, substeps)


# ---------------------------------------------------------------------------
# Public transport operations
# ---------------------------------------------------------------------------

def _check_frame_base(model: ManifoldModel, f0: Frame, point: Point):
    if f0.base.chart_id == point.chart_id and \
            np.max(np.abs(f0.base.coords - point.coords)) < 1e-10:
        return
    # near-coincident distances can be conditioning-limited for some oracles
    d = model.point_distance(f0.base, point)
    if d > 1e-7:
        raise ValidationError(
            f"frame base is {d:.2e} away from the curve's start point")


def transport_frame(model: ManifoldModel, curve: SampledCurve, f0: Frame,
                    start: int | None = None, substeps: int = 2) -> FrameField:
    """Parallel-transport a frame along the whole curve from `start`
    (default: the curve's base node), switching charts as needed."""
    if start is None:
        start = curve.base_index
    _check_frame_base(model, f0, curve.points[start])
    charts, coords, cols, switch_log = _transport_columns(
        model, curve, f0, start, substeps, curve_velocities(model, curve))
    frames = tuple(Frame(Point(c, x), e)
                   for c, x, e in zip(charts, coords, cols))
    return FrameField(curve=curve, frames=frames, switch_log=tuple(switch_log))


def _transport_columns(model: ManifoldModel, curve: SampledCurve, f0: Frame,
                       start: int, substeps: int, velocities):
    """Array core of transport_frame, given the curve's velocities.

    Returns (charts, coords, cols, switch_log): the chart id of every node,
    the (n, m) positions and (n, m, m) frame columns in those charts, and
    the sorted switch log.  The columns are not checked for independence;
    Frame does that at the API edge, require_independent_columns on arrays.
    """
    n_nodes = curve.grid.nodes.size
    h = curve.grid.h

    cols = [None] * n_nodes
    charts = [None] * n_nodes
    coords = [None] * n_nodes
    switch_log: list[tuple[int, str, str]] = []

    def sweep(stop: int):
        direction = 1 if stop >= start else -1
        runs = _build_runs(model, curve, start, stop, f0.base.chart_id)
        current = f0.columns.copy()
        chart = f0.base.chart_id
        if direction < 0:
            runs = sorted(runs, key=lambda r: -r.lo)
        for run in runs:
            entry = run.hi if direction < 0 else run.lo
            entry_coords = run.coords[entry - run.lo]
            if run.chart_id != chart:
                jac = model.transition_jacobian(
                    Point(chart, coords[entry]), run.chart_id)
                current = jac @ current
                switch_log.append((entry, chart, run.chart_id))
                chart = run.chart_id
            cols[entry] = current
            charts[entry] = chart
            coords[entry] = entry_coords
            if run.hi == run.lo:
                continue
            phis = _run_propagators(model, run, velocities, h, substeps)
            if direction > 0:
                for k in range(run.coords.shape[0] - 1):
                    current = phis[k] @ current
                    if not np.all(np.isfinite(current)):
                        raise NonFiniteState(
                            f"frame became non-finite at node {run.lo + k + 1}")
                    node = run.lo + k + 1
                    cols[node] = current
                    charts[node] = chart
                    coords[node] = run.coords[k + 1]
            else:
                for k in range(run.coords.shape[0] - 1, 0, -1):
                    current = np.linalg.solve(phis[k - 1], current)
                    if not np.all(np.isfinite(current)):
                        raise NonFiniteState(
                            f"frame became non-finite at node {run.lo + k - 1}")
                    node = run.lo + k - 1
                    cols[node] = current
                    charts[node] = chart
                    coords[node] = run.coords[k - 1]

    sweep(n_nodes - 1)
    if start > 0:
        sweep(0)

    switch_log.sort()
    return charts, np.stack(coords), np.stack(cols), switch_log


def _frame_at(model: ManifoldModel, field: FrameField, t: float) -> Frame:
    """Frame at an off-node time by windowed cubic interpolation (columns and
    position), expressed in the chart of the window's reference node."""
    grid = field.curve.grid
    nodes = grid.nodes
    if t < nodes[0] - 1e-12 or t > nodes[-1] + 1e-12:
        raise ValidationError(f"time {t} is outside the grid span")
    j = int(np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, nodes.size - 2))
    if abs(t - nodes[j]) < 1e-12:
        return field.frames[j]
    if abs(t - nodes[j + 1]) < 1e-12:
        return field.frames[j + 1]
    w = int(np.clip(j - 1, 0, nodes.size - 4))
    chart = field.frames[j].base.chart_id
    positions = (nodes[w:w + 4] - nodes[j]) / grid.h
    weights = lagrange_weights(positions, (t - nodes[j]) / grid.h)
    cols = np.zeros((model.dim, model.dim))
    xy = np.zeros(model.dim)
    for s in range(4):
        fr = field.frames[w + s]
        if fr.base.chart_id == chart:
            c, x = fr.columns, fr.base.coords
        else:
            jac = model.transition_jacobian(fr.base, chart)
            c = jac @ fr.columns
            x = model.transition(fr.base, chart).coords
        cols += weights[s] * c
        xy += weights[s] * x
    return Frame(Point(chart, xy), cols)


def transport_vector(model: ManifoldModel, curve: SampledCurve, v: Tangent,
                     from_t: float, to_t: float, substeps: int = 2,
                     field: FrameField | None = None) -> Tangent:
    """Parallel transport of a single vector between two curve times.

    Implemented through one parallel frame field: the vector's coefficients
    in the transported frame are constant, so transport solves one small
    linear system at each end.  Transporting back is the exact inverse.
    """
    if field is None:
        f0 = model.orthonormal_frame(curve.basepoint)
        field = transport_frame(model, curve, f0, substeps=substeps)
    if from_t == to_t:
        return v
    fr_a = _frame_at(model, field, from_t)
    fr_b = _frame_at(model, field, to_t)
    va = model.push_tangent(v, fr_a.base.chart_id)
    coeffs = np.linalg.solve(fr_a.columns, va.components)
    return Tangent(fr_b.base, fr_b.columns @ coeffs)


def covariant_derivative(model: ManifoldModel, curve: SampledCurve,
                         vector_field) -> tuple[Tangent, ...]:
    """Discrete covariant derivative of a vector field along the curve:
    (nabla X)^l = dX^l/dt + Gamma^l_{kj} r^k X^j per node."""
    curve.grid.require_uniform()
    n_nodes = curve.grid.nodes.size
    vector_field = tuple(vector_field)
    if len(vector_field) != n_nodes:
        raise ValidationError("vector field needs one tangent per node")
    velocities = curve_velocities(model, curve)
    charts = [p.chart_id for p in curve.points]
    h = curve.grid.h

    def comps_in(t: Tangent, chart_id: str) -> np.ndarray:
        if t.base.chart_id == chart_id:
            return t.components
        return model.transition_jacobian(t.base, chart_id) @ t.components

    same_chart = all(c == charts[0] for c in charts)
    out = []
    if same_chart and all(t.base.chart_id == charts[0] for t in vector_field):
        from .numerics import differentiate
        comps = np.stack([t.components for t in vector_field])
        dcomps = differentiate(comps, curve.grid)
        for j in range(n_nodes):
            mat = model.christoffel_action(charts[j], curve.points[j].coords,
                                           velocities[j].components)
            out.append(Tangent(curve.points[j], dcomps[j] + mat @ comps[j]))
        return tuple(out)

    for j in range(n_nodes):
        w = _window_start(j, n_nodes)
        window = np.stack([comps_in(vector_field[w + s], charts[j])
                           for s in range(5)])
        dx = (_STENCIL_ROWS[j - w] @ (window - window[j - w])) \
            / (_D1_DENOM * h)
        r = comps_in(velocities[j], charts[j])
        x = comps_in(vector_field[j], charts[j])
        mat = model.christoffel_action(charts[j], curve.points[j].coords, r)
        out.append(Tangent(curve.points[j], dx + mat @ x))
    return tuple(out)
