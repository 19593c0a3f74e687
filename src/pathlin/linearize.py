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
neither builds a Point or a Frame per node: each returns the frame
transported along the curve as one transport.FrameField.  The forward
core transports the frame with the batched transport core,
transport._transport_columns, as a batch of one, and solves all nodes at
once for the components with numerics.solve.  At m = 2, the dimension of
every built-in model, the inverse core integrates a single curve with
_step_interval_2d, RK4 on six Python floats with the connection from the
model's christoffel_action_floats and the four right-hand sides written
out in the step, since call overhead, numpy's and then Python's, not the
arithmetic, is the cost there; it classifies its nodes _BLOCK at a
time.  Both inverse cores take their stage values from
transport._stage_values.
Batches of curves on one grid, and single curves of any other dimension,
go through _solve_inverse_batch, the same scheme on component arrays: one
(m + m^2, rows) state stack, the same hook called on the arrays of each
chart's rows, and every sum in the float stepper's order.  At m = 2 the
two agree bit for bit, charts, coordinates, frames and switch logs.  On a
two-sided grid the batch marches both directions at once, as one batch of
2B rows with a signed substep per row, and gives the bits of the two
sweeps run one after the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartContinuationFailure, NoOverlap, NonFiniteState, ValidationError
from .geometry import INSIDE, Frame, ManifoldModel, Point, Samples, chart_groups
from .numerics import Grid, rk4_step, solve
from .transport import (FrameField, SampledCurve, _check_frame_base,
                        _stage_values, _transport_columns, _velocities)


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

    Returns (frame0, comps, field, velocities): the initial frame (the
    g-orthonormal one when frame0 is None), the (n, m) components of the
    transported velocities in it, the transported FrameField and the (n, m)
    curve velocities, each in its node's stored chart.
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
    field = FrameField(curve.grid, Samples(charts[0], coords[0]), cols[0],
                       logs[0])
    comps = solve(field.columns, vel[0])
    return frame0, comps, field, velocities[0]


def p_forward(model: ManifoldModel, curve: SampledCurve,
              frame0: Frame | None = None, substeps: int = 2) -> LinearizationReport:
    """Linearize a based curve: v(t_j) = transport of the velocity to the
    basepoint, expressed in frame0 (default: g-orthonormalized coordinates)."""
    frame0, comps, field, velocities = _p_forward_detailed(
        model, curve, frame0, substeps)
    sq = np.vecdot(comps @ model.frame_gram(frame0), comps)
    norms_v = np.sqrt(np.where(sq < 0.0, 0.0, sq))
    pts = curve.points
    # np.max, not max: a NaN drift must surface, not be skipped
    drift = float(np.max(np.abs(
        norms_v - model.g_norms(pts.charts, pts.coords, velocities))))
    tc = TangentCurve(base=frame0.base, frame0=frame0, grid=curve.grid,
                      components=comps)
    return LinearizationReport(tangent_curve=tc, switch_log=field.switch_log,
                               norm_drift=drift, h=curve.grid.h)


# ---------------------------------------------------------------------------
# Inverse map
# ---------------------------------------------------------------------------

def _switch_state(model, chart, x, cols, node, switch_log):
    """Re-express a state the caller found outside its chart's interior."""
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


def _step_interval_2d(action, chart: str, y, stages, hsub):
    """One grid interval in a chart at m = 2, classic RK4 with
    len(stages) // 2 substeps on Python floats.  y holds x0, x1 and the
    frame by rows (e01 is e_1^0), stages the component vectors at the
    2 * substeps + 1 stage times in the direction of travel, hsub the
    signed substep; returns the new state.  Each of the four right-hand
    sides is written out in place: r = E v, then -M(x, r) E with M from
    action.  Bit-equal to the generic stepper of the tests."""
    half = 0.5 * hsub
    sixth = hsub / 6.0
    x0, x1, e00, e01, e10, e11 = y
    for s in range(0, len(stages) - 1, 2):
        (a0, a1), (b0, b1), (c0, c1) = stages[s], stages[s + 1], stages[s + 2]
        # k1 = p at (x, E) and the stage a
        p0 = e00 * a0 + e01 * a1
        p1 = e10 * a0 + e11 * a1
        (m00, m01), (m10, m11) = action(chart, (x0, x1), (p0, p1))
        p2, p3 = -(m00 * e00 + m01 * e10), -(m00 * e01 + m01 * e11)
        p4, p5 = -(m10 * e00 + m11 * e10), -(m10 * e01 + m11 * e11)
        # k2 = q at y + half p and the stage b
        y0, y1 = x0 + half * p0, x1 + half * p1
        f00, f01 = e00 + half * p2, e01 + half * p3
        f10, f11 = e10 + half * p4, e11 + half * p5
        q0 = f00 * b0 + f01 * b1
        q1 = f10 * b0 + f11 * b1
        (m00, m01), (m10, m11) = action(chart, (y0, y1), (q0, q1))
        q2, q3 = -(m00 * f00 + m01 * f10), -(m00 * f01 + m01 * f11)
        q4, q5 = -(m10 * f00 + m11 * f10), -(m10 * f01 + m11 * f11)
        # k3 = r at y + half q and the stage b
        y0, y1 = x0 + half * q0, x1 + half * q1
        f00, f01 = e00 + half * q2, e01 + half * q3
        f10, f11 = e10 + half * q4, e11 + half * q5
        r0 = f00 * b0 + f01 * b1
        r1 = f10 * b0 + f11 * b1
        (m00, m01), (m10, m11) = action(chart, (y0, y1), (r0, r1))
        r2, r3 = -(m00 * f00 + m01 * f10), -(m00 * f01 + m01 * f11)
        r4, r5 = -(m10 * f00 + m11 * f10), -(m10 * f01 + m11 * f11)
        # k4 = t at y + hsub r and the stage c
        y0, y1 = x0 + hsub * r0, x1 + hsub * r1
        f00, f01 = e00 + hsub * r2, e01 + hsub * r3
        f10, f11 = e10 + hsub * r4, e11 + hsub * r5
        t0 = f00 * c0 + f01 * c1
        t1 = f10 * c0 + f11 * c1
        (m00, m01), (m10, m11) = action(chart, (y0, y1), (t0, t1))
        t2, t3 = -(m00 * f00 + m01 * f10), -(m00 * f01 + m01 * f11)
        t4, t5 = -(m10 * f00 + m11 * f10), -(m10 * f01 + m11 * f11)
        x0 = x0 + sixth * (p0 + 2.0 * q0 + 2.0 * r0 + t0)
        x1 = x1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + t1)
        e00 = e00 + sixth * (p2 + 2.0 * q2 + 2.0 * r2 + t2)
        e01 = e01 + sixth * (p3 + 2.0 * q3 + 2.0 * r3 + t3)
        e10 = e10 + sixth * (p4 + 2.0 * q4 + 2.0 * r4 + t4)
        e11 = e11 + sixth * (p5 + 2.0 * q5 + 2.0 * r5 + t5)
    return x0, x1, e00, e01, e10, e11


# Intervals the single-curve inverse integrates in a chart before one
# domain_test_many call; a switch in a block drops the nodes after it.
_BLOCK = 32


def p_inverse_detailed(model: ManifoldModel, v: TangentCurve,
                       substeps: int = 2):
    """The inverse core: integrate the coupled position+frame system outward
    from the base node.

    Returns the FrameField along v's grid: the realized curve's samples,
    the transported frame columns and the sorted switch log.  Raises
    ValidationError, as FrameField does, if a transported frame has become
    linearly dependent.
    """
    grid = v.grid
    if model.dim != 2:
        (charts,), (coords,), (frames,), (log,) = _solve_inverse_batch(
            model, [v.base.chart_id], v.base.coords[None],
            v.frame0.columns[None], grid, np.asarray(v.components)[None],
            substeps)
        return FrameField(grid, Samples(charts, coords), frames, log)
    base_node = grid.base_node()
    n = grid.nodes.size
    hsub = grid.h / substeps
    v_stages = _stage_values(np.asarray(v.components), substeps).tolist()
    action = model.christoffel_action_floats

    charts, states = [None] * n, [None] * n
    switch_log: list[tuple[int, str, str]] = []
    y0 = v.base.coords.tolist() + v.frame0.columns.ravel().tolist()
    charts[base_node], states[base_node] = v.base.chart_id, y0

    def march(stop: int):
        chart, y = v.base.chart_id, y0
        d = 1 if stop >= base_node else -1
        j = base_node
        while j != stop:
            # a failure waits until every node before it is known INSIDE,
            # since a switch before it would have stopped this chart's steps
            nodes = range(j + d, j + d * (min(_BLOCK, abs(stop - j)) + 1), d)
            failure = None
            for k in nodes:
                stages = v_stages[k - 1] if d > 0 else v_stages[k][::-1]
                try:
                    y = _step_interval_2d(action, chart, y, stages,
                                          d * hsub)
                    finite = all(map(math.isfinite, y))
                except (ZeroDivisionError, OverflowError):
                    # Python floats raise where numpy would have returned inf
                    finite = False
                except Exception as exc:
                    failure = exc
                    break
                if not finite:
                    failure = NonFiniteState(
                        f"inverse system became non-finite at node {k}")
                    break
                charts[k], states[k] = chart, y
            if failure is not None:
                nodes = nodes[:nodes.index(k)]
            tested = nodes[:-1] if nodes and nodes[-1] == stop else nodes
            if tested:
                xs = np.array([states[k][:2] for k in tested])
                with np.errstate(over="ignore"):    # past a switch: any size
                    status = model.chart(chart).domain_test_many(xs)
                for i in np.flatnonzero(status != INSIDE).tolist():
                    k = tested[i]
                    cols = np.array(states[k][2:]).reshape(2, 2)
                    moved, x, cols = _switch_state(model, chart, xs[i], cols,
                                                   k, switch_log)
                    if moved != chart:
                        chart = charts[k] = moved
                        states[k] = x.tolist() + cols.ravel().tolist()
                        nodes, failure = nodes[:i + 1], None
                        break
            if failure is not None:
                raise failure
            j = nodes[-1]
            y = states[j]

    march(n - 1)
    if base_node > 0:
        march(0)
    states = np.array(states)
    switch_log.sort()
    return FrameField(grid, Samples(charts, states[:, :2]),
                      states[:, 2:].reshape(n, 2, 2), switch_log)


def p_inverse(model: ManifoldModel, v: TangentCurve,
              substeps: int = 2, order: int = 3) -> SampledCurve:
    """Realize a tangent-space curve as a manifold curve through the coupled
    position+frame initial-value problem."""
    return SampledCurve(grid=v.grid,
                        points=p_inverse_detailed(model, v, substeps).points,
                        order=order, base_index=v.grid.base_node())


def _solve_inverse_batch(model: ManifoldModel, charts0, coords0: np.ndarray,
                         frames0: np.ndarray, grid: Grid,
                         components: np.ndarray, substeps: int = 2):
    """Solve the coupled position+frame system for a batch of independent
    initial conditions sharing one grid.

    charts0: chart id per element; coords0: (B, m); frames0: (B, m, m);
    components: (B, n, m) coefficients in each element's initial frame.
    Returns (charts, coords, frames, switch_logs) with per-node data.

    The state is one (m + m^2, rows) stack of components, one column per
    row: the position, then the frame by rows, as _step_interval_2d holds
    it in floats.  The connection comes from christoffel_action_floats,
    called once per chart on the arrays of its rows, and each product is
    summed in the float stepper's order, so at m = 2 a row's charts,
    coordinates, frames and switches are the bits of p_inverse_detailed
    on its line.  At each node boundary every chart classifies its rows
    in one call, and the rows it flags switch one by one, in order.

    On a two-sided grid the forward and the backward sweep march together
    as one batch of 2B rows, forward rows first, each row with its signed
    substep; when the shorter sweep reaches its end node the longer one
    goes on alone on its rows.  The result is the two sweeps run one after
    the other, bit for bit: if a joint step fails, the sweeps are stepped
    again from there one at a time, so an error of the forward sweep is the
    one raised.
    """
    b, n, m = components.shape
    base_node = grid.base_node()
    # (n - 1, S, m, B): the stage values of each component, a column a line
    flat = np.ascontiguousarray(components.transpose(1, 2, 0))
    v_stages = _stage_values(flat.reshape(n, m * b), substeps).reshape(
        n - 1, -1, m, b)
    action = model.christoffel_action_floats

    charts_out = np.empty((b, n), dtype=object)
    states_out = np.empty((n, m + m * m, b))
    logs = [[] for _ in range(b)]
    y0 = np.concatenate([coords0.T, frames0.reshape(b, m * m).T])
    charts_out[:, base_node] = charts0
    states_out[base_node] = y0

    def advance(nodes, going, charts, groups, y, hsub):
        """One step of the sweeps whose states are stacked b rows each in
        charts and y, to the nodes `nodes`; `going` lists the sweeps that
        go on past them and hsub holds each row's signed substep.  Returns
        the new state and the switches made, each as (element, log entry),
        and leaves the old state as it was."""
        def rhs(v, y):
            """dy/dt at the states y for the components v (m, rows): r = E v
            and -M(x, r) E.  Each sum starts at -0.0, which adds exactly,
            so it rounds as the float stepper's a * b + c * d, signed zeros
            too."""
            e = y[m:].reshape(m, m, -1)
            dy = np.empty_like(y)
            r = np.add.reduce(e * v, axis=1, out=dy[:m], initial=-0.0)
            if len(groups) == 1:
                (chart,) = groups
                mm = np.asarray(action(chart, y[:m], r)).reshape(m, m, -1)
            else:
                mm = np.empty((m, m, y.shape[1]))
                for chart, idx in groups.items():
                    mm[:, :, idx] = np.asarray(
                        action(chart, y[:m, idx], r[:, idx])).reshape(m, m, -1)
            de = np.add.reduce(mm[:, :, None] * e, axis=1, initial=-0.0)
            np.negative(de.reshape(m * m, -1), out=dy[m:])
            return dy

        # (S, m, rows) stage values in the direction of travel
        stages = [v_stages[j - 1] if j > base_node else v_stages[j, ::-1]
                  for j in nodes]
        stages = stages[0] if len(stages) == 1 else np.concatenate(stages, 2)
        # inf and NaN where Python floats raise, as NonFiniteState below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for s in range(substeps):
                y = rk4_step(rhs, y, hsub, *stages[2 * s:2 * s + 3])
        finite = np.isfinite(y).all(axis=0)
        if not finite.all():
            raise NonFiniteState("inverse system became non-finite at node "
                                 f"{nodes[int(np.argmin(finite)) // b]}")
        # a sweep's last node is not classified
        x = y[:m].T
        if len(going) == len(nodes):
            flagged = model.off_interior(groups, x)
        elif going:
            (k,) = going
            rows = slice(k * b, (k + 1) * b)
            flagged = k * b + model.off_interior(chart_groups(charts[rows]),
                                                 x[rows])
        else:
            flagged = ()
        switches = []
        for i in flagged:
            log = []
            chart, xi, ei = _switch_state(model, charts[i], x[i],
                                          y[m:, i].reshape(m, m),
                                          nodes[i // b], log)
            if chart != charts[i]:
                if not switches:
                    charts = list(charts)
                charts[i], y[:m, i], y[m:, i] = chart, xi, ei.ravel()
                switches.append((i % b, log[0]))
        if switches:
            groups = chart_groups(charts)
        return charts, groups, y, switches

    def march(sweeps, t, charts, y):
        """Step the sweeps, (direction, stop) pairs, together from step t
        until each has reached its stop; the first to reach it drops out,
        and the other ends alone on a view of its rows.  A failed joint
        step returns its step and the state before it; a sweep alone
        raises."""
        groups = chart_groups(charts)
        hsub = np.repeat([(d * grid.h) / substeps for d, _ in sweeps], b)
        while True:
            nodes = [base_node + d * t for d, _ in sweeps]
            going = [k for k, (_, stop) in enumerate(sweeps)
                     if nodes[k] != stop]
            try:
                charts1, groups1, y1, switches = advance(
                    nodes, going, charts, groups, y, hsub)
            except Exception:
                # any error: the sweeps run alone from here raise it again
                if len(sweeps) == 1:
                    raise
                return t, charts, y
            charts, groups, y = charts1, groups1, y1
            for i, entry in switches:
                logs[i].append(entry)
            for k, j in enumerate(nodes):
                rows = slice(k * b, (k + 1) * b)
                charts_out[:, j] = charts[rows]
                states_out[j] = y[:, rows]
            if not going:
                return None
            if len(going) < len(sweeps):
                (k,) = going
                rows = slice(k * b, (k + 1) * b)
                sweeps, charts, y = [sweeps[k]], charts[rows], y[:, rows]
                groups, hsub = chart_groups(charts), hsub[rows]
            t += 1

    sweeps = [(d, stop) for d, stop in ((1, n - 1), (-1, 0))
              if stop != base_node]
    failed = march(sweeps, 1, list(charts0) * len(sweeps),
                   np.tile(y0, len(sweeps)))
    if failed is not None:
        # one sweep at a time from the failed step: the first one's error wins
        t, charts, y = failed
        for k, sweep in enumerate(sweeps):
            rows = slice(k * b, (k + 1) * b)
            march([sweep], t, charts[rows], y[:, rows])
    states = states_out.transpose(2, 0, 1)
    return (charts_out.tolist(), states[..., :m],
            states[..., m:].reshape(b, n, m, m), [sorted(l) for l in logs])


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
    dists = model.point_distances(curve.points, rebuilt.points)
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
    return float(np.max(model.point_distances(ga.points, gb.points)))


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
    return float(np.max(model.point_distances(ga.points, gb.points)))


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
