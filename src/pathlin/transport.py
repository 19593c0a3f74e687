"""Parallel transport of frames and vectors along sampled curves.

The frame equation de_i^l/dt = -e_i^j Gamma^l_{kj}(gamma) r^k is linear in
the frame, so transport is computed from per-interval RK4 propagators of the
matrix system dPhi/dt = -M(t) Phi with M[l,j] = Gamma^l_{kj} r^k.  The
propagators depend only on curve data and are built vectorized across all
intervals; frames are then chained node to node.  Curve velocities r come
from the 4th-order stencil of numerics applied to the sampled positions,
never from an analytic curve, after each node's window is re-expressed in
the node's chart; covariant derivatives difference vector fields the same
way.

A curve's samples are stored as arrays (geometry.Samples), which the cores
read directly; Points, Tangents and Frames are built only for what the
public functions return.

Chart continuation: the curve is re-expressed chart-run by chart-run.  A run
ends when a node's coordinates reach the working chart's margin; the full
state (position and every frame column) is re-expressed through the
transition at that node only, never mid-interval, and the switch is logged.

One array core, _transport_columns, transports a batch of B curves on one
grid: transport_frame and the forward core of linearize call it with B = 1,
the square-map forward with one element per s2-line.  Elements whose runs
cover the same nodes in the same chart build their propagators together,
and the frames of the whole batch advance node by node as (B, m, m) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (ChartContinuationFailure, NoOverlap, NonFiniteState,
                     ValidationError)
from .geometry import (MARGIN, OUTSIDE, Frame, ManifoldModel, Point, Samples,
                       Tangent, chart_groups)
from .numerics import (Grid, lagrange_weights, rk4_step, stencil_derivative,
                       stencil_windows)


@dataclass(frozen=True)
class SampledCurve:
    """A time grid with one chart-tagged point per node.

    `points`, given as Samples or as Points, is stored as Samples: the
    nodes' chart ids and frozen (n, m) coordinates.  `order` is the
    declared regularity of the underlying curve; `base_index` is the node
    carrying the basepoint (0 for [0,1] grids, the middle node for [-1,1]
    grids).
    """

    grid: Grid
    points: Samples
    order: int = 1
    base_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", Samples.of(self.points))
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
# Velocities and chart runs
# ---------------------------------------------------------------------------

# Elements of a batch whose chart runs coincide get their propagators built
# together, at most this many RK4 stage points at a time.  Building a whole
# 100-line batch at once raises peak memory by about a fifth for no speed;
# with blocks of this size (8 lines of 100 intervals) a 100 x 100 p2_forward
# peaks below p2_inverse.
_STAGE_POINTS_PER_BLOCK = 4096


def _coords_in(model: ManifoldModel, charts, coords: np.ndarray, j: int,
               chart_id: str) -> np.ndarray:
    """Node j of one curve (stored charts and (n, m) coordinates) in
    chart_id."""
    if charts[j] == chart_id:
        return coords[j]
    try:
        return model.transition(Point(charts[j], coords[j]), chart_id).coords
    except NoOverlap as exc:
        raise ChartContinuationFailure(
            f"node {j} cannot be expressed in chart {chart_id!r}: {exc}",
            node=j)


def _foreign_entries(stored, charts, index: np.ndarray) -> np.ndarray:
    """(K, 2) pairs (node j, window slot s) whose window entry, given in
    the chart stored[index[j, s]], is not in node j's chart charts[j]."""
    return np.argwhere(np.asarray(stored)[index]
                       != np.asarray(charts)[:, None])


def _velocities(model: ManifoldModel, grid: Grid, charts,
                coords: np.ndarray) -> np.ndarray:
    """4th-order finite-difference velocities of a batch of curves on one
    uniform grid.

    charts[b][j] and coords (B, n, m) are each node's stored chart and
    coordinates; the (B, n, m) result is in the same charts.  In curves
    stored in more than one chart, the window entries stored in another
    chart than their node are re-expressed in the node's chart.
    """
    grid.require_uniform()
    index, _ = stencil_windows(coords.shape[1])
    windows = np.take(coords.swapaxes(0, 1), index, axis=0)   # (n, 5, B, m)
    for i, row in enumerate(charts):
        if len(set(row)) > 1:
            for j, s in _foreign_entries(row, row, index):
                k = index[j, s]
                windows[j, s, i] = _coords_in(model, row, coords[i], k,
                                              row[j])
    return stencil_derivative(windows, grid.h).swapaxes(0, 1)


def curve_velocities(model: ManifoldModel, curve: SampledCurve) -> tuple[Tangent, ...]:
    """4th-order finite-difference velocity at every node, each expressed in
    that node's own stored chart."""
    pts = curve.points
    vel = _velocities(model, curve.grid, [pts.charts], pts.coords[None])[0]
    return tuple(map(Tangent, pts, vel))


@dataclass
class _Run:
    lo: int                  # first node, inclusive
    hi: int                  # last node, inclusive
    chart_id: str
    coords: np.ndarray       # (hi - lo + 1, m) positions in chart_id
    vel: np.ndarray | None = None   # velocities in chart_id, same shape


def _build_runs(model: ManifoldModel, charts, coords: np.ndarray, origin: int,
                stop: int, start_chart: str) -> list[_Run]:
    """Split one curve's node range between origin and stop (inclusive,
    either direction) into chart runs following the margin-switch rule,
    listed in the order of travel.  charts and coords (n, m) are the stored
    charts and coordinates."""
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

    test = model.chart(chart).domain_test
    for j in nodes:
        x = _coords_in(model, charts, coords, j, chart)
        status = test(x)
        if status == OUTSIDE:
            raise ChartContinuationFailure(
                f"node {j} left chart {chart!r} without touching its margin",
                node=j)
        run_nodes.append(j)
        run_coords.append(x)
        if status == MARGIN and j != stop:
            switched = model.select_chart(Point(chart, x))
            if switched.chart_id != chart:
                close_run()
                chart = switched.chart_id
                test = model.chart(chart).domain_test
                run_nodes = [j]
                run_coords = [switched.coords]
    close_run()
    return runs


# ---------------------------------------------------------------------------
# Stage data and interval propagators
# ---------------------------------------------------------------------------

def _stage_offsets(substeps: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, 2 * substeps + 1)


@lru_cache(maxsize=None)
def _stage_weights(width: int, shift: int, substeps: int) -> np.ndarray:
    """(S, width) read-only Lagrange weights from the nodes shift,
    shift + 1, ... of a window (relative to an interval's left node) to the
    interval's S = 2 * substeps + 1 stage offsets."""
    positions = np.arange(width) + shift
    wts = np.stack([lagrange_weights(positions, u)
                    for u in _stage_offsets(substeps)])
    wts.flags.writeable = False
    return wts


def _stage_values(node_values: np.ndarray, substeps: int) -> np.ndarray:
    """Lagrange interpolation of per-node data to RK4 stage times.

    node_values: (n, m) on a uniform grid; returns (n - 1, S, m) with
    S = 2 * substeps + 1 stage offsets per interval.  Windows are cubic
    (4 nodes) where the run allows, degrading gracefully on short runs.
    """
    n = node_values.shape[0]
    width = min(4, n)
    starts = np.clip(np.arange(n - 1) - 1, 0, n - width)
    rel = starts - np.arange(n - 1)           # window start relative to interval
    out = np.empty((n - 1, 2 * substeps + 1, node_values.shape[1]))
    for shift in np.unique(rel):
        mask = rel == shift
        wts = _stage_weights(width, int(shift), substeps)
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
        phi = rk4_step(np.matmul, phi, hsub,
                       a[:, 2 * s], a[:, 2 * s + 1], a[:, 2 * s + 2])
    return phi


def _batch_propagators(model: ManifoldModel, groups, phis: np.ndarray,
                       h: float, substeps: int) -> None:
    """Write into phis (B, n - 1, m, m) the propagators of the intervals a
    batch's runs cover.  groups maps (chart, lo, hi) to the (element, run)
    pairs with those nodes and chart; their stage values, Christoffel
    evaluation and RK4 sweep are shared, in blocks of at most
    _STAGE_POINTS_PER_BLOCK stage points."""
    m = phis.shape[-1]
    stages = 2 * substeps + 1
    for (chart, lo, hi), members in groups.items():
        n_int = hi - lo
        per_block = max(1, _STAGE_POINTS_PER_BLOCK // (n_int * stages))
        for k in range(0, len(members), per_block):
            block = members[k:k + per_block]
            g = len(block)

            def stage_points(values):
                # (n_int + 1, G, m) node values -> (G * n_int * S, m)
                flat = _stage_values(values.reshape(n_int + 1, g * m),
                                     substeps)
                return flat.reshape(n_int, stages, g, m) \
                    .transpose(2, 0, 1, 3).reshape(-1, m)

            action = model.christoffel_action_batch(
                chart,
                stage_points(np.stack([run.coords for _, run in block], 1)),
                stage_points(np.stack([run.vel for _, run in block], 1)))
            phis[[i for i, _ in block], lo:hi] = _interval_propagators(
                action.reshape(g * n_int, stages, m, m), h, substeps
            ).reshape(g, n_int, m, m)


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
    charts, coords = [curve.points.charts], curve.points.coords[None]
    vel = _velocities(model, curve.grid, charts, coords)
    charts, coords, cols, _, logs = _transport_columns(
        model, curve.grid, charts, coords, vel, [f0.base.chart_id],
        f0.columns[None], start, substeps)
    frames = tuple(Frame(Point(c, x), e)
                   for c, x, e in zip(charts[0], coords[0], cols[0]))
    return FrameField(curve=curve, frames=frames, switch_log=tuple(logs[0]))


def _transport_columns(model: ManifoldModel, grid: Grid, charts,
                       coords: np.ndarray, velocities: np.ndarray, charts0,
                       frames0: np.ndarray, start: int, substeps: int):
    """The transport core: parallel-transport start frames along a batch of
    B curves on one grid, outward from the node `start`.

    charts[b][j], coords (B, n, m) and velocities (B, n, m) are each node's
    stored chart, coordinates and velocity; frames0 (B, m, m) are the start
    frames' columns, in the charts charts0[b].  Returns
    (charts, coords, cols, velocities, switch_logs): per element the chart
    of every node, the (B, n, m) positions, (B, n, m, m) frame columns and
    (B, n, m) velocities in those charts, and per element the sorted switch
    log.  The columns are not checked for independence; Frame does that at
    the API edge, require_independent_columns on arrays.

    Each element's chart runs follow the margin rule.  Frames then advance
    node by node for the whole batch, one (B, m, m) product per node
    forward and one batched solve per node backward, and an element's
    transition Jacobian is applied at the node where its next run begins.
    """
    b, n, m = coords.shape
    out_charts = [[None] * n for _ in range(b)]
    out_coords = np.empty((b, n, m))
    out_vel = np.empty((b, n, m))
    cols = np.empty((b, n, m, m))
    logs: list[list[tuple[int, str, str]]] = [[] for _ in range(b)]
    phis = np.empty((b, n - 1, m, m))    # the two sweeps cover disjoint intervals
    for stop in ((n - 1, 0) if start > 0 else (n - 1,)):
        step = 1 if stop >= start else -1
        switches: dict[int, list[tuple[int, np.ndarray]]] = {}
        groups: dict[tuple[str, int, int], list[tuple[int, _Run]]] = {}
        for i in range(b):
            chart, prev = charts0[i], None
            for run in _build_runs(model, charts[i], coords[i], start, stop,
                                   chart):
                if run.chart_id != chart:
                    entry = run.hi if step < 0 else run.lo
                    switches.setdefault(entry, []).append(
                        (i, model.transition_jacobian(Point(chart, prev),
                                                      run.chart_id)))
                    logs[i].append((entry, chart, run.chart_id))
                    chart = run.chart_id
                nodes = slice(run.lo, run.hi + 1)
                run.vel = velocities[i, nodes].copy()
                for k, stored in enumerate(charts[i][nodes]):
                    if stored != chart:
                        run.vel[k] = model.transition_jacobian(
                            Point(stored, coords[i, run.lo + k]), chart) \
                            @ run.vel[k]
                out_charts[i][nodes] = [chart] * len(run.vel)
                out_coords[i, nodes] = run.coords
                out_vel[i, nodes] = run.vel
                prev = run.coords[0 if step < 0 else -1]
                if run.hi > run.lo:
                    groups.setdefault((chart, run.lo, run.hi), []).append(
                        (i, run))
        _batch_propagators(model, groups, phis, grid.h, substeps)

        current = frames0.copy()
        for j in range(start, stop + step, step):
            if j != start:
                if step > 0:
                    current = phis[:, j - 1] @ current
                else:
                    current = np.linalg.solve(phis[:, j], current)
                if not np.isfinite(current).all():
                    raise NonFiniteState(f"frame became non-finite at node {j}")
            for i, jac in switches.get(j, ()):
                current[i] = jac @ current[i]
            cols[:, j] = current
    for log in logs:
        log.sort()
    return out_charts, out_coords, cols, out_vel, logs


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
    (nabla X)^l = dX^l/dt + Gamma^l_{kj} r^k X^j per node, in the node's
    stored chart.  Window entries whose tangent sits in another chart than
    their node go through the transition Jacobian first.
    """
    grid = curve.grid
    grid.require_uniform()
    n = grid.nodes.size
    vector_field = tuple(vector_field)
    if len(vector_field) != n:
        raise ValidationError("vector field needs one tangent per node")
    charts, coords = curve.points.charts, curve.points.coords
    r = _velocities(model, grid, [charts], coords[None])[0]
    index, position = stencil_windows(n)
    comps = np.stack([t.components for t in vector_field])
    windows = comps[index]
    bases = [t.base.chart_id for t in vector_field]
    for j, s in _foreign_entries(bases, charts, index):
        k = index[j, s]
        windows[j, s] = model.transition_jacobian(
            vector_field[k].base, charts[j]) @ comps[k]
    x = windows[np.arange(n), position]
    action = np.empty((n, model.dim, model.dim))
    for chart, nodes in chart_groups(charts).items():
        action[nodes] = model.christoffel_action_batch(chart, coords[nodes],
                                                       r[nodes])
    out = stencil_derivative(windows, grid.h) \
        + np.matmul(action, x[:, :, None])[:, :, 0]
    return tuple(Tangent(p, d) for p, d in zip(curve.points, out))
