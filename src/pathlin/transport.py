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

A curve's samples are stored as arrays (geometry.Samples), and so is a
frame field (FrameField: the samples plus (n, m, m) frame columns), which
transport_frame and both linearization cores return; the cores read and
write the arrays directly.  Points, Tangents and Frames are built only for
what the public functions return, such as FrameField.frame(j).

Chart continuation: the curve is re-expressed chart-run by chart-run.  A run
ends when a node's coordinates reach the working chart's margin; the full
state (position and every frame column) is re-expressed through the
transition at that node only, never mid-interval, and the switch is logged.

One array core, _transport_columns, transports a batch of B curves on one
grid: transport_frame and the forward core of linearize call it with B = 1,
the square-map forward with one element per s2-line.  Each sweep
classifies the whole batch once, in one domain_test_many call per start
chart; the curves that stay stored in and INSIDE their start chart form
their single run straight from the arrays, and only the others are split
into runs curve by curve.  Elements whose runs cover the same nodes in the
same chart build their propagators together.  A sweep's frames are the
running products of its interval propagators (their inverses backward),
chained for the whole batch in chunks of about sqrt(L) intervals: no
per-node loop and no per-node solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import mul

import numpy as np

from .errors import (ChartContinuationFailure, NoOverlap, NonFiniteState,
                     ValidationError)
from .geometry import (INSIDE, MARGIN, OUTSIDE, Frame, ManifoldModel, Point,
                       Samples, Tangent, chart_groups,
                       require_independent_columns)
from .numerics import (Grid, inv, lagrange_weights, rk4_step,
                       stencil_derivative, stencil_windows)


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
    """A frame per grid node, stored as arrays, as Samples stores points.

    `points` holds the frames' base points, a chart id and (n, m)
    coordinates per node; `columns` the frozen (n, m, m) frame columns in
    those charts; `switch_log` the chart switches of the transport.  The
    constructor checks the shapes, and every frame's columns at once with
    require_independent_columns; frame(j) builds one Frame at the API edge.
    """

    grid: Grid
    points: Samples
    columns: np.ndarray
    switch_log: tuple[tuple[int, str, str], ...] = ()

    def __post_init__(self):
        points = Samples.of(self.points)
        n, m = points.coords.shape
        cols = np.array(self.columns, dtype=float)
        if n != self.grid.nodes.size or cols.shape != (n, m, m):
            raise ValidationError(
                "frame field needs one (m, m) column matrix per grid node")
        require_independent_columns(cols)
        cols.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "switch_log", tuple(self.switch_log))

    def frame(self, j: int) -> Frame:
        return Frame(self.points[j], self.columns[j])


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


def curve_speeds(model: ManifoldModel, curve: SampledCurve) -> np.ndarray:
    """g-norm of the finite-difference velocity at every node, bit-equal to
    g_norm's."""
    pts = curve.points
    return model.g_norms(pts.charts, pts.coords, _velocities(
        model, curve.grid, [pts.charts], pts.coords[None])[0])


@dataclass
class _Run:
    lo: int                  # first node, inclusive
    hi: int                  # last node, inclusive
    chart_id: str
    coords: np.ndarray       # (hi - lo + 1, m) positions in chart_id
    vel: np.ndarray | None = None   # velocities in chart_id, same shape


def _build_runs(model: ManifoldModel, charts: np.ndarray, coords: np.ndarray,
                origin: int, stop: int, start_chart: str,
                inside: np.ndarray | None = None) -> list[_Run]:
    """Split one curve's node range between origin and stop (inclusive,
    either direction) into chart runs following the margin-switch rule,
    listed in the order of travel.  charts, an object array, and coords
    (n, m) are the stored charts and coordinates.

    One domain_test_many call classifies the remaining nodes stored in the
    working chart; the run takes them as one slice up to the next node that
    is stored in another chart or is not INSIDE, and only that node goes
    through the single-point rule.  `inside`, when given, is the first
    such classification, made by the caller: per node of the range in the
    order of travel, whether it is stored in start_chart and INSIDE it.
    """
    step = 1 if stop >= origin else -1
    nodes = np.arange(origin, stop + step, step)
    runs: list[_Run] = []
    chart = start_chart
    first, pos = 0, 0        # positions in nodes: the run's first, the next
    pieces: list[np.ndarray] = []    # the run's coordinates in travel order

    def close_run(last: int):
        block = np.concatenate(pieces)
        lo, hi = sorted((int(nodes[first]), int(nodes[last])))
        runs.append(_Run(lo=lo, hi=hi, chart_id=chart,
                         coords=block if step > 0 else block[::-1]))

    while True:
        if inside is None:
            rest = nodes[pos:]
            inside = charts[rest] == chart
            inside[inside] = model.chart(chart).domain_test_many(
                coords[rest[inside]]) == INSIDE
        flagged, inside = pos + np.flatnonzero(~inside), None
        for k in flagged.tolist():
            pieces.append(coords[nodes[pos:k]])
            pos = k + 1
            j = int(nodes[k])
            x = _coords_in(model, charts, coords, j, chart)
            status = model.chart(chart).domain_test(x)
            if status == OUTSIDE:
                raise ChartContinuationFailure(
                    f"node {j} left chart {chart!r} without touching its "
                    "margin", node=j)
            pieces.append(x[None])
            if status == MARGIN and j != stop:
                switched = model.select_chart(Point(chart, x))
                if switched.chart_id != chart:
                    close_run(k)
                    chart, first = switched.chart_id, k
                    pieces = [switched.coords[None]]
                    break
        else:
            pieces.append(coords[nodes[pos:]])
            break
    close_run(nodes.size - 1)
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
    batch's runs cover.  groups maps (chart, lo, hi) to the elements whose
    runs have those nodes and chart, as a list of pieces (elements (G,),
    coordinates (G, hi - lo + 1, m), velocities of the same shape); their
    stage values, Christoffel evaluation and RK4 sweep are shared, in
    blocks of at most _STAGE_POINTS_PER_BLOCK stage points."""
    m = phis.shape[-1]
    stages = 2 * substeps + 1
    for (chart, lo, hi), pieces in groups.items():
        n_int = hi - lo
        members, coords, vel = (np.concatenate(p) if len(p) > 1 else p[0]
                                for p in zip(*pieces))
        per_block = max(1, _STAGE_POINTS_PER_BLOCK // (n_int * stages))
        for k in range(0, len(members), per_block):
            block = slice(k, k + per_block)
            g = len(members[block])

            def stage_points(values):
                # (G, n_int + 1, m) node values -> (g * n_int * S, m)
                flat = _stage_values(values[block].transpose(1, 0, 2)
                                     .reshape(n_int + 1, g * m), substeps)
                return flat.reshape(n_int, stages, g, m) \
                    .transpose(2, 0, 1, 3).reshape(-1, m)

            action = model.christoffel_action_batch(
                chart, stage_points(coords), stage_points(vel))
            phis[members[block], lo:hi] = _interval_propagators(
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
                    substeps: int = 2) -> FrameField:
    """Parallel-transport a frame along the whole curve from its base node,
    switching charts as needed."""
    _check_frame_base(model, f0, curve.basepoint)
    charts, coords = [curve.points.charts], curve.points.coords[None]
    vel = _velocities(model, curve.grid, charts, coords)
    charts, coords, cols, _, logs = _transport_columns(
        model, curve.grid, charts, coords, vel, [f0.base.chart_id],
        f0.columns[None], curve.base_index, substeps)
    return FrameField(curve.grid, Samples(charts[0], coords[0]), cols[0],
                      logs[0])


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
    log.  The columns are not checked for independence; FrameField does
    that, and require_independent_columns on other arrays.

    Each sweep classifies the nodes of every element in one
    domain_test_many call per start chart.  The elements whose nodes are
    all stored in their start chart and INSIDE it make one chart run each,
    taken from the arrays together; only the others go through _build_runs,
    which is handed that classification.  The frames of the whole batch
    are then chained by _sweep_frames, in O(sqrt(L)) array calls for a
    sweep of L intervals, with an element's transition Jacobian applied at
    the node where its next run begins.
    """
    b, n, m = coords.shape
    out_charts = np.empty((b, n), dtype=object)
    out_coords = np.empty((b, n, m))
    out_vel = np.empty((b, n, m))
    cols = np.empty((b, n, m, m))
    logs: list[list[tuple[int, str, str]]] = [[] for _ in range(b)]
    phis = np.empty((b, n - 1, m, m))    # the two sweeps cover disjoint intervals
    stored = np.array(charts, dtype=object).reshape(b, n)
    starts = chart_groups(charts0)
    for stop in ((n - 1, 0) if start > 0 else (n - 1,)):
        step = 1 if stop >= start else -1
        lo, hi = sorted((start, stop))
        nodes = slice(lo, hi + 1)
        switches: dict[int, list[tuple[int, np.ndarray]]] = {}
        groups: dict[tuple[str, int, int], list[tuple]] = {}
        others = []
        for chart, idx in starts.items():
            inside = stored[idx, nodes] == chart
            pts = coords[idx, nodes]
            inside[inside] = model.chart(chart).domain_test_many(
                pts[inside]) == INSIDE
            whole = inside.all(axis=1)
            one = idx[whole]
            if one.size:
                run_coords, vel = pts[whole], velocities[one, nodes]
                out_charts[one, nodes] = chart
                out_coords[one, nodes] = run_coords
                out_vel[one, nodes] = vel
                if hi > lo:
                    groups.setdefault((chart, lo, hi), []).append(
                        (one, run_coords, vel))
            others += zip(idx[~whole].tolist(), inside[~whole, ::step])
        for i, inside in sorted(others, key=lambda o: o[0]):
            chart, prev = charts0[i], None
            for run in _build_runs(model, stored[i], coords[i], start, stop,
                                   chart, inside):
                if run.chart_id != chart:
                    entry = run.hi if step < 0 else run.lo
                    switches.setdefault(entry, []).append(
                        (i, model.transition_jacobian(Point(chart, prev),
                                                      run.chart_id)))
                    logs[i].append((entry, chart, run.chart_id))
                    chart = run.chart_id
                run_nodes = slice(run.lo, run.hi + 1)
                run.vel = velocities[i, run_nodes].copy()
                for k in np.flatnonzero(stored[i, run_nodes] != chart):
                    run.vel[k] = model.transition_jacobian(
                        Point(stored[i, run.lo + k], coords[i, run.lo + k]),
                        chart) @ run.vel[k]
                out_charts[i, run_nodes] = chart
                out_coords[i, run_nodes] = run.coords
                out_vel[i, run_nodes] = run.vel
                prev = run.coords[0 if step < 0 else -1]
                if run.hi > run.lo:
                    groups.setdefault((chart, run.lo, run.hi), []).append(
                        (np.array([i]), run.coords[None], run.vel[None]))
        _batch_propagators(model, groups, phis, grid.h, substeps)
        cols[:, start::step] = _sweep_frames(phis, frames0, switches, start,
                                             stop)
    for log in logs:
        log.sort()
    return out_charts.tolist(), out_coords, cols, out_vel, logs


def _chain(mats: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running products of a chain of (B, L, m, m) step matrices from (B, m,
    m) start frames: out (B, L + 1, m, m) with out[:, 0] = start and
    out[:, k + 1] = mats[:, k] @ out[:, k].

    The L steps are cut into chunks of about sqrt(L), padded with
    identities.  The running products within every chunk advance together,
    then each chunk is applied to the last frame of the chunk before it:
    about 2L products in about 2 sqrt(L) array calls (a Hillis-Steele scan
    needs L log L products and measured slower).
    """
    b, length, m, _ = mats.shape
    size = max(1, isqrt(length))
    chunks = -(-length // size)
    run = np.empty((b, chunks * size, m, m))
    run[:, :length] = mats
    run[:, length:] = np.eye(m)
    run = run.reshape(b, chunks, size, m, m)
    for t in range(1, size):
        run[:, :, t] = run[:, :, t] @ run[:, :, t - 1]
    out = np.empty((b, 1 + chunks * size, m, m))
    out[:, 0] = start
    for g in range(chunks):
        np.matmul(run[:, g], out[:, g * size, None],
                  out=out[:, 1 + g * size:1 + (g + 1) * size])
    return out[:, :length + 1]


def _sweep_frames(phis: np.ndarray, frames0: np.ndarray, switches,
                  start: int, stop: int) -> np.ndarray:
    """The frames of one sweep, at nodes start, start +- 1, ..., stop: the
    (B, |stop - start| + 1, m, m) chain of frames0 through the sweep's step
    matrices.

    Forward the step matrices are the propagators phis[:, start:stop];
    backward, one batched numerics.inv of phis[:, stop:start], reversed,
    and NaN for a non-finite propagator.  switches maps a node to its
    (element, transition Jacobian) pairs; a Jacobian is folded into the
    step matrix of the interval that enters its node, or onto the start
    frame at the start node.  Finiteness is checked once, and
    NonFiniteState names the first bad node in sweep order.
    """
    step = 1 if stop >= start else -1
    # the closed-form inverse of a singular step divides by zero: its
    # frames are not finite, and its node is named
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if step > 0:
            mats = phis[:, start:stop].copy()
        else:
            # np.linalg's inverse of a non-finite matrix can be finite, or
            # raise LinAlgError: such a step is NaN, so its node is named
            steps, bad = phis[:, stop:start], None
            if not np.isfinite(steps).all():
                bad = ~np.isfinite(steps).all(axis=(-2, -1))
                steps = np.where(bad[..., None, None],
                                 np.eye(steps.shape[-1]), steps)
            mats = inv(steps)
            if bad is not None:
                mats[bad] = np.nan
            mats = mats[:, ::-1]
        first = frames0.copy()
        for j, entries in switches.items():
            k = (j - start) * step - 1
            for i, jac in entries:
                if k < 0:
                    first[i] = jac @ first[i]
                else:
                    mats[i, k] = jac @ mats[i, k]
        frames = _chain(mats, first)
    finite = np.isfinite(frames[:, 1:])
    if not finite.all():
        j = start + step * (1 + int(finite.all(axis=(0, 2, 3)).argmin()))
        raise NonFiniteState(f"frame became non-finite at node {j}")
    return frames


def _frame_at(model: ManifoldModel, field: FrameField, t: float) -> Frame:
    """Frame at an off-node time by windowed cubic interpolation (columns and
    position), expressed in the chart of the window's reference node."""
    grid = field.grid
    nodes = grid.nodes
    if t < nodes[0] - 1e-12 or t > nodes[-1] + 1e-12:
        raise ValidationError(f"time {t} is outside the grid span")
    j = int(np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, nodes.size - 2))
    if abs(t - nodes[j]) < 1e-12:
        return field.frame(j)
    if abs(t - nodes[j + 1]) < 1e-12:
        return field.frame(j + 1)
    w = int(np.clip(j - 1, 0, nodes.size - 4))
    chart = field.points.charts[j]
    cols = field.columns[w:w + 4].copy()
    xy = field.points.coords[w:w + 4].copy()
    for s in range(4):
        if field.points.charts[w + s] != chart:
            base = field.points[w + s]
            cols[s] = model.transition_jacobian(base, chart) @ cols[s]
            xy[s] = model.transition(base, chart).coords
    positions = (nodes[w:w + 4] - nodes[j]) / grid.h
    weights = lagrange_weights(positions, (t - nodes[j]) / grid.h)
    # term by term in window order, not a dot product: tests pin its rounding
    return Frame(Point(chart, sum(map(mul, weights, xy))),
                 sum(map(mul, weights, cols)))


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
