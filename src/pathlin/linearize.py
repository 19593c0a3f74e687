"""The path-space linearization pair.

p_forward sends a based sampled curve to the tangent-space curve
v(t) = (transport of the velocity back to the basepoint), computed with one
parallel frame: the velocity's coefficients in the transported frame are the
components of v in the initial basis.

p_inverse integrates the coupled system with m^2 + m unknowns

    de_i^l/dt = -e_i^j Gamma^l_{kj}(gamma) r^k,   r^k = v^i e_i^k,
    dgamma^k/dt = r^k,

from gamma(0) = p and e_i(0) = the chosen basis, continuing across charts.
On two-sided grids the base node sits in the interior and the system is
integrated outward in both directions.

Each map has one array core, which every caller in the library uses:
_p_forward_detailed and p_inverse_detailed.  Both work on arrays, reading
and writing a SampledCurve's samples as chart ids and coordinates, and
neither builds a Point per node.  The forward core transports the frame
with the batched transport core, transport._transport_columns, as a batch
of one, and solves all nodes at once for the components.  The inverse
core integrates a single curve with one RK4 stepper, _step_interval, whose
state is a flat list of m + m^2 Python floats (position, then the frame
row by row) and whose connection comes from the model's
christoffel_action_floats: at m = 2 numpy's per-call overhead, not the
arithmetic, is the cost, and the right-hand side is unrolled for m = 2
(_frame_rhs_2d, exactly equal to the generic one).
Batches of curves on one grid go through _solve_inverse_batch, the same
scheme on (B, ...) numpy arrays; the two agree to rounding, with the same
charts and switch logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ChartContinuationFailure, NoOverlap, NonFiniteState, ValidationError
from .geometry import (INSIDE, Frame, ManifoldModel, Point, Samples,
                       chart_groups, require_independent_columns)
from .numerics import Grid
from .transport import (SampledCurve, _check_frame_base, _stage_values,
                        _transport_columns, _velocities)


@dataclass(frozen=True)
class TangentCurve:
    """A curve of tangent vectors at a fixed basepoint.

    components[j] are the coefficients of v(t_j) in the columns of frame0;
    they are chart-free data, which is what makes chart-independence checks
    meaningful.
    """

    base: Point
    frame0: Frame
    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.shape != (self.grid.nodes.size, self.base.coords.size):
            raise ValidationError("components must be (nodes, dim)")
        if self.frame0.base.chart_id != self.base.chart_id or \
                not np.allclose(self.frame0.base.coords, self.base.coords,
                                atol=1e-12):
            raise ValidationError("frame0 must be based at the curve's basepoint")
        if not np.all(np.isfinite(comps)):
            raise ValidationError("components must be finite")
        comps = comps.copy()
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class LinearizationReport:
    tangent_curve: TangentCurve
    switch_log: tuple[tuple[int, str, str], ...]
    norm_drift: float
    h: float


@dataclass(frozen=True)
class RoundtripReport:
    max_distance: float
    distances: np.ndarray
    reconstructed: SampledCurve
    forward: LinearizationReport


# ---------------------------------------------------------------------------
# Forward map
# ---------------------------------------------------------------------------

def _p_forward_detailed(model: ManifoldModel, curve: SampledCurve,
                        frame0: Frame | None = None, substeps: int = 2):
    """The forward core, on arrays.

    Returns (frame0, comps, (charts, coords, cols, switch_log), velocities):
    the initial frame (the g-orthonormal one when frame0 is None), the
    (n, m) components of the transported velocities in it, the curve's
    charts, positions, frame columns and switch log as from
    transport._transport_columns, and the (n, m) curve velocities, each in
    its node's stored chart.
    """
    if curve.order < 1:
        raise ValidationError("curve order must be at least 1")
    if frame0 is None:
        frame0 = model.orthonormal_frame(curve.basepoint)
    _check_frame_base(model, frame0, curve.basepoint)
    charts, coords = [curve.points.charts], curve.points.coords[None]
    velocities = _velocities(model, curve.grid, charts, coords)
    charts, coords, cols, vel, logs = _transport_columns(
        model, curve.grid, charts, coords, velocities,
        [frame0.base.chart_id], frame0.columns[None], curve.base_index,
        substeps)
    require_independent_columns(cols[0])
    comps = np.linalg.solve(cols[0], vel[0][:, :, None])[:, :, 0]
    transported = charts[0], coords[0], cols[0], logs[0]
    return frame0, comps, transported, velocities[0]


def p_forward(model: ManifoldModel, curve: SampledCurve,
              frame0: Frame | None = None, substeps: int = 2) -> LinearizationReport:
    """Linearize a based curve: v(t_j) = transport of the velocity to the
    basepoint, expressed in frame0 (default: g-orthonormalized coordinates)."""
    frame0, comps, (_, _, _, switch_log), velocities = _p_forward_detailed(
        model, curve, frame0, substeps)
    gram0 = model.frame_gram(frame0)
    norms_v = [np.sqrt(max(c @ gram0 @ c, 0.0)) for c in comps]
    pts = curve.points
    # np.max, not max: a NaN drift must surface, not be skipped
    drift = float(np.max(np.abs(
        np.array(norms_v) - model.g_norms(pts.charts, pts.coords, velocities))))
    tc = TangentCurve(base=frame0.base, frame0=frame0, grid=curve.grid,
                      components=comps)
    return LinearizationReport(tangent_curve=tc, switch_log=tuple(switch_log),
                               norm_drift=drift, h=curve.grid.h)


# ---------------------------------------------------------------------------
# Inverse map
# ---------------------------------------------------------------------------

def _switch_state(model, chart, x, cols, node, switch_log):
    """Re-express position and frame columns when the state hits a margin."""
    status = model.chart(chart).domain_test(x)
    if status == INSIDE:
        return chart, x, cols
    here = Point(chart, x)
    try:
        moved = model.select_chart(here)
    except NoOverlap as exc:
        raise ChartContinuationFailure(
            f"no admissible chart at node {node}: {exc}", node=node)
    if moved.chart_id == chart:
        return chart, x, cols
    jac = model.transition_jacobian(here, moved.chart_id)
    switch_log.append((node, chart, moved.chart_id))
    return moved.chart_id, moved.coords, jac @ cols


def _frame_rhs(action, chart: str, m: int):
    """Right-hand side f(y, v) of the coupled system on the flat float state
    of _step_interval: dx/dt = r = E v and dE/dt = -M(x, r) E, with M from
    the model's christoffel_action_floats in the given chart."""
    if m == 2:
        return _frame_rhs_2d(action, chart)
    return _frame_rhs_generic(action, chart, m)


def _frame_rhs_generic(action, chart: str, m: int):
    row_starts = range(m, m + m * m, m)
    col_starts = range(m, 2 * m)

    def rhs(y, v):
        r = [sum(map(mul, y[k:k + m], v)) for k in row_starts]
        cols = [y[k::m] for k in col_starts]
        return r + [-sum(map(mul, mrow, col))
                    for mrow in action(chart, y[:m], r) for col in cols]
    return rhs


def _frame_rhs_2d(action, chart: str):
    """_frame_rhs_generic unrolled for m = 2, the dimension of every built-in
    model: a call takes about 1 us against 4-5 us for the generic loops, and
    the single-curve inverse spends most of its time here.  Same operations
    in the same order, so the two agree exactly."""
    def rhs(y, v):
        x0, x1, e00, e01, e10, e11 = y
        v0, v1 = v
        r0 = e00 * v0 + e01 * v1
        r1 = e10 * v0 + e11 * v1
        (m00, m01), (m10, m11) = action(chart, [x0, x1], [r0, r1])
        return [r0, r1,
                -(m00 * e00 + m01 * e10), -(m00 * e01 + m01 * e11),
                -(m10 * e00 + m11 * e10), -(m10 * e01 + m11 * e11)]
    return rhs


def _step_interval(rhs, y, stages, hsub):
    """One grid interval of the coupled position+frame system: classic RK4
    with len(stages) // 2 substeps, in Python floats.

    y is the state as one flat list of m + m^2 floats: the position x^k,
    then the frame matrix row by row (entry m + l*m + i holds e_i^l).
    stages holds the component vectors v at the 2 * substeps + 1 stage
    times, in the direction of travel; hsub is the signed substep; rhs is
    from _frame_rhs.  Returns the new state.
    """
    half = 0.5 * hsub
    sixth = hsub / 6.0
    for s in range(0, len(stages) - 1, 2):
        va, vb, vc = stages[s], stages[s + 1], stages[s + 2]
        k1 = rhs(y, va)
        k2 = rhs([a + half * k for a, k in zip(y, k1)], vb)
        k3 = rhs([a + half * k for a, k in zip(y, k2)], vb)
        k4 = rhs([a + hsub * k for a, k in zip(y, k3)], vc)
        y = [a + sixth * (p + 2.0 * q + 2.0 * r + t)
             for a, p, q, r, t in zip(y, k1, k2, k3, k4)]
    return y


def p_inverse_detailed(model: ManifoldModel, v: TangentCurve,
                       substeps: int = 2):
    """The inverse core: integrate the coupled position+frame system outward
    from the base node.

    Returns (charts, coords, frames, switch_log): a chart id per node,
    (n, m) positions, (n, m, m) frame columns and the sorted switch log.
    Raises ValidationError, as Frame does, if a transported frame has
    become linearly dependent.
    """
    grid = v.grid
    base_node = grid.base_node()
    n = grid.nodes.size
    m = model.dim
    hsub = grid.h / substeps
    v_stages = _stage_values(np.asarray(v.components), substeps).tolist()
    action = model.christoffel_action_floats

    charts = [None] * n
    states = [None] * n
    switch_log: list[tuple[int, str, str]] = []
    y0 = v.base.coords.tolist() + v.frame0.columns.ravel().tolist()
    charts[base_node], states[base_node] = v.base.chart_id, y0

    def march(stop: int):
        chart, y = v.base.chart_id, y0
        rhs = _frame_rhs(action, chart, m)
        direction = 1 if stop >= base_node else -1
        j = base_node
        while j != stop:
            if direction > 0:
                stages, j = v_stages[j], j + 1
            else:
                stages, j = v_stages[j - 1][::-1], j - 1
            try:
                y = _step_interval(rhs, y, stages, direction * hsub)
                finite = all(map(math.isfinite, y))
            except (ZeroDivisionError, OverflowError):
                # Python floats raise where numpy would have returned inf
                finite = False
            if not finite:
                raise NonFiniteState(
                    f"inverse system became non-finite at node {j}")
            if j != stop:
                x = np.array(y[:m])
                if model.chart(chart).domain_test(x) != INSIDE:
                    cols = np.array(y[m:]).reshape(m, m)
                    chart, x, cols = _switch_state(model, chart, x, cols, j,
                                                   switch_log)
                    y = x.tolist() + cols.ravel().tolist()
                    rhs = _frame_rhs(action, chart, m)
            charts[j], states[j] = chart, y

    march(n - 1)
    if base_node > 0:
        march(0)
    states = np.array(states)
    frames = states[:, m:].reshape(n, m, m)
    require_independent_columns(frames)
    switch_log.sort()
    return charts, states[:, :m], frames, switch_log


def p_inverse(model: ManifoldModel, v: TangentCurve,
              substeps: int = 2, order: int = 3) -> SampledCurve:
    """Realize a tangent-space curve as a manifold curve through the coupled
    position+frame initial-value problem."""
    charts, coords, _, _ = p_inverse_detailed(model, v, substeps)
    return SampledCurve(grid=v.grid, points=Samples(charts, coords),
                        order=order, base_index=v.grid.base_node())


def _solve_inverse_batch(model: ManifoldModel, charts0, coords0: np.ndarray,
                         frames0: np.ndarray, grid: Grid,
                         components: np.ndarray, substeps: int = 2):
    """Solve the coupled position+frame system for a batch of independent
    initial conditions sharing one grid.

    charts0: chart id per element; coords0: (B, m); frames0: (B, m, m);
    components: (B, n, m) coefficients in each element's initial frame.
    Returns (charts, coords, frames, switch_logs) with per-node data.

    Elements in the same chart advance together through vectorized RK4
    stages; chart switches are handled per element at node boundaries.
    """
    b, n, m = components.shape
    base_node = grid.base_node()
    h = grid.h
    flat = np.ascontiguousarray(components.transpose(1, 0, 2)).reshape(n, b * m)
    v_stages = _stage_values(flat, substeps)          # (n-1, S, b*m)
    v_stages = v_stages.reshape(n - 1, -1, b, m).transpose(2, 0, 1, 3)

    charts_out = [[None] * n for _ in range(b)]
    coords_out = np.empty((b, n, m))
    frames_out = np.empty((b, n, m, m))
    logs = [[] for _ in range(b)]

    def record(j, charts, x, e):
        for i in range(b):
            charts_out[i][j] = charts[i]
        coords_out[:, j] = x
        frames_out[:, j] = e

    record(base_node, list(charts0), coords0, frames0)

    def march(stop: int):
        charts = list(charts0)
        x = coords0.copy()
        e = frames0.copy()
        direction = 1 if stop >= base_node else -1
        j = base_node

        groups = chart_groups(charts)

        def rhs(xs, es, vs):
            r = np.einsum("bki,bi->bk", es, vs)
            if len(groups) == 1:
                cid = next(iter(groups))
                mm = model.christoffel_action_batch(cid, xs, r)
            else:
                mm = np.empty((b, m, m))
                for cid, idx in groups.items():
                    mm[idx] = model.christoffel_action_batch(cid, xs[idx], r[idx])
            return r, -np.matmul(mm, es)

        while j != stop:
            interval = j if direction > 0 else j - 1
            hsub = (direction * h) / substeps
            for s in range(substeps):
                if direction > 0:
                    ia, ib, ic = 2 * s, 2 * s + 1, 2 * s + 2
                else:
                    top = v_stages.shape[2] - 1
                    ia, ib, ic = top - 2 * s, top - 2 * s - 1, top - 2 * s - 2
                va = v_stages[:, interval, ia]
                vb = v_stages[:, interval, ib]
                vc = v_stages[:, interval, ic]
                # RK4 written out on the two arrays: one (B, m + 1, m) state
                # through numerics.rk4_step gives the same bits but runs up
                # to 20% slower (output assembly, strided operands)
                k1x, k1e = rhs(x, e, va)
                k2x, k2e = rhs(x + 0.5 * hsub * k1x, e + 0.5 * hsub * k1e, vb)
                k3x, k3e = rhs(x + 0.5 * hsub * k2x, e + 0.5 * hsub * k2e, vb)
                k4x, k4e = rhs(x + hsub * k3x, e + hsub * k3e, vc)
                x = x + (hsub / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                e = e + (hsub / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
            j += direction
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(e))):
                raise NonFiniteState(
                    f"inverse system became non-finite at node {j}")
            if j != stop:
                switched = False
                for i in range(b):
                    if model.chart(charts[i]).domain_test(x[i]) != INSIDE:
                        chart, xi, ei = _switch_state(model, charts[i], x[i],
                                                      e[i], j, logs[i])
                        if chart != charts[i]:
                            charts[i], x[i], e[i] = chart, xi, ei
                            switched = True
                if switched:
                    groups = chart_groups(charts)
            record(j, charts, x, e)

    march(n - 1)
    if base_node > 0:
        march(0)
    return charts_out, coords_out, frames_out, [sorted(l) for l in logs]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def roundtrip_check(model: ManifoldModel, curve: SampledCurve,
                    frame0: Frame | None = None,
                    substeps: int = 2) -> RoundtripReport:
    """Max pointwise distance between the curve and p_inverse(p_forward(.))."""
    report = p_forward(model, curve, frame0, substeps)
    rebuilt = p_inverse(model, report.tangent_curve, substeps=substeps,
                        order=curve.order)
    dists = np.array([model.point_distance(a, b)
                      for a, b in zip(curve.points, rebuilt.points)])
    return RoundtripReport(max_distance=float(dists.max()), distances=dists,
                           reconstructed=rebuilt, forward=report)


def basis_independence_check(model: ManifoldModel, curve: SampledCurve,
                             frame_a: Frame, frame_b: Frame,
                             substeps: int = 2) -> float:
    """Realize the same tangent curve in two bases and compare the curves.

    The second component set is the exact GL(m) re-expression of the first,
    so the comparison isolates the solver's basis independence.
    """
    rep = p_forward(model, curve, frame_a, substeps)
    cols_a = frame_a.columns
    if frame_b.base.chart_id != frame_a.base.chart_id:
        jac = model.transition_jacobian(frame_a.base, frame_b.base.chart_id)
        cols_a = jac @ cols_a
    comps_b = np.linalg.solve(frame_b.columns, cols_a @ rep.tangent_curve.components.T).T
    vb = TangentCurve(base=frame_b.base, frame0=frame_b, grid=curve.grid,
                      components=comps_b)
    ga = p_inverse(model, rep.tangent_curve, substeps=substeps)
    gb = p_inverse(model, vb, substeps=substeps)
    return float(max(model.point_distance(a, b)
                     for a, b in zip(ga.points, gb.points)))


def chart_independence_check(model: ManifoldModel, curve: SampledCurve,
                             chart_a: str, chart_b: str,
                             substeps: int = 2) -> float:
    """Run p_inverse on the same component data with the initial point and
    frame expressed in two different start charts and compare the curves."""
    p_a = model.transition(curve.basepoint, chart_a)
    frame_a = model.orthonormal_frame(p_a)
    rep = p_forward(model, curve, frame_a, substeps)

    p_b = model.transition(p_a, chart_b)
    jac = model.transition_jacobian(p_a, chart_b)
    frame_b = Frame(p_b, jac @ frame_a.columns)
    vb = TangentCurve(base=p_b, frame0=frame_b, grid=curve.grid,
                      components=rep.tangent_curve.components)

    ga = p_inverse(model, rep.tangent_curve, substeps=substeps)
    gb = p_inverse(model, vb, substeps=substeps)
    return float(max(model.point_distance(a, b)
                     for a, b in zip(ga.points, gb.points)))


def rescale_to_unit(v: TangentCurve, a: float) -> TangentCurve:
    """Pull a tangent curve on [-a, a] back to [-1, 1], scaling components by
    a, so realizing the result reparametrizes the realized original."""
    if a <= 0:
        raise ValidationError("rescale factor must be positive")
    if a == 1.0:
        return v
    return TangentCurve(base=v.base, frame0=v.frame0,
                        grid=Grid(v.grid.nodes / a),
                        components=a * np.asarray(v.components))
