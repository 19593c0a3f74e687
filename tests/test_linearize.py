"""The forward/inverse linearization pair and its independence properties."""

import dataclasses
import math
from operator import mul

import numpy as np
import pytest

from pathlin import Frame, Grid, Point, Tangent, get_model
from pathlin.errors import NonFiniteState, ValidationError
from pathlin.geometry import (INSIDE, MARGIN, OUTSIDE, ChartSpec,
                              ManifoldModel, TransitionMap, chart_groups)
from pathlin import linearize
from pathlin.linearize import (TangentCurve, _solve_inverse_batch,
                               _stage_values, _step_interval_2d,
                               _switch_state,
                               basis_independence_check,
                               chart_independence_check, p_forward, p_inverse,
                               p_inverse_detailed, rescale_to_unit,
                               roundtrip_check)
from pathlin.suite import random_curve, random_tangent_curve
from pathlin.transport import SampledCurve

from conftest import MODEL_NAMES, assert_close


def test_straight_line_linearizes_to_constant(euclidean):
    grid = Grid.regular(0.0, 1.0, 100)
    w = np.array([0.3, -0.8])
    pts = tuple(Point("xy", [0.1, 0.2] + w * t) for t in grid.nodes)
    rep = p_forward(euclidean, SampledCurve(grid, pts))
    assert_close(rep.tangent_curve.components,
                 np.tile(w, (101, 1)), 1e-12, "constant components")
    assert rep.norm_drift < 1e-12


def test_initial_value_is_velocity(model):
    rng = np.random.default_rng(4)
    grid = Grid.regular(0.0, 1.0, 200)
    v = random_tangent_curve(model, rng, grid)
    curve = p_inverse(model, v)
    rep = p_forward(model, curve, v.frame0)
    assert_close(rep.tangent_curve.components[0], v.components[0], 1e-8,
                 "v(0) = velocity components at the basepoint")


def test_great_circle_linearizes_to_constant_unit_vector(sphere):
    grid = Grid.regular(0.0, 1.0, 400)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    pts = tuple(sphere.exp_oracle(pole, Tangent(pole, f0.columns[:, 0] * t))
                for t in grid.nodes)
    rep = p_forward(sphere, SampledCurve(grid, pts, order=2), f0)
    comps = rep.tangent_curve.components
    assert_close(comps, np.tile(comps[0], (401, 1)), 1e-6)
    assert abs(np.linalg.norm(comps[0]) - 1.0) < 1e-8
    assert rep.norm_drift < 1e-5


def test_p_inverse_zero_is_constant(model):
    grid = Grid.regular(0.0, 1.0, 50)
    rng = np.random.default_rng(8)
    from pathlin.suite import random_interior_point
    p = random_interior_point(model, rng)
    v = TangentCurve(p, model.orthonormal_frame(p), grid, np.zeros((51, 2)))
    curve = p_inverse(model, v)
    for pt in curve.points:
        assert model.point_distance(pt, p) < 1e-14


def test_geodesic_shooting_matches_oracle():
    # endpoint against the closed-form exponential on the two curved models
    cases = {"sphere2": (0.1, 0.5, math.pi / 2.0),
             "hyperbolic2": (0.1, 0.5)}
    grid = Grid.regular(0.0, 1.0, 400)
    for name, speeds in cases.items():
        model = get_model(name)
        rng = np.random.default_rng(10)
        from pathlin.suite import random_interior_point
        p = random_interior_point(model, rng)
        f0 = model.orthonormal_frame(p)
        for s in speeds:
            comps = np.zeros((401, 2))
            comps[:, 0] = s * 0.6
            comps[:, 1] = s * 0.8
            v = TangentCurve(p, f0, grid, comps)
            curve = p_inverse(model, v)
            target = model.exp_oracle(
                p, Tangent(p, f0.columns @ np.array([s * 0.6, s * 0.8])))
            assert model.dist_oracle(curve.points[-1], target) < 1e-6, \
                (name, s)


def test_euclidean_inverse_of_linear_components(euclidean):
    grid = Grid.regular(0.0, 1.0, 100)
    p = Point("xy", [0.5, -0.5])
    comps = np.stack([np.ones(101), 2.0 * grid.nodes], axis=1)
    curve = p_inverse(euclidean, TangentCurve(
        p, Frame(p, np.eye(2)), grid, comps))
    for t, pt in zip(grid.nodes, curve.points):
        assert_close(pt.coords, [0.5 + t, -0.5 + t * t], 1e-12, "parabola")


def test_roundtrip_euclidean_closed_form(euclidean):
    grid = Grid.regular(0.0, 1.0, 200)
    pts = tuple(Point("xy", [math.sin(t), t * t]) for t in grid.nodes)
    rt = roundtrip_check(euclidean, SampledCurve(grid, pts, order=3))
    assert rt.max_distance < 1e-8


def test_roundtrip_seeded(model):
    rng = np.random.default_rng(31)
    grid = Grid.regular(0.0, 1.0, 400)
    for _ in range(3):
        curve = random_curve(model, rng, grid)
        rt = roundtrip_check(model, curve)
        assert rt.max_distance < 1e-5
        assert rt.forward.norm_drift < 1e-5


def test_basis_independence_rotation(sphere):
    rng = np.random.default_rng(12)
    grid = Grid.regular(0.0, 1.0, 400)
    curve = random_curve(sphere, rng, grid)
    frame_a = sphere.orthonormal_frame(curve.basepoint)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    frame_b = Frame(frame_a.base, frame_a.columns @ rot)
    assert basis_independence_check(sphere, curve, frame_a, frame_b) < 1e-7


def test_chart_independence_equator_band(sphere):
    grid = Grid.regular(0.0, 1.0, 400)
    base = Point("north", [1.0, 0.0])
    f0 = sphere.orthonormal_frame(base)
    comps = 0.3 * np.stack([np.sin(2 * grid.nodes) + 0.6,
                            np.cos(3 * grid.nodes)], axis=1)
    curve = p_inverse(sphere, TangentCurve(base, f0, grid, comps))
    assert chart_independence_check(sphere, curve, "north", "south") < 1e-6


def test_gl_equivariance(model):
    rng = np.random.default_rng(14)
    grid = Grid.regular(0.0, 1.0, 300)
    curve = random_curve(model, rng, grid)
    frame_a = model.orthonormal_frame(curve.basepoint)
    a = np.array([[1.2, -0.4], [0.5, 0.9]])
    frame_b = Frame(frame_a.base, frame_a.columns @ a)
    rep_a = p_forward(model, curve, frame_a)
    rep_b = p_forward(model, curve, frame_b)
    expected = np.linalg.solve(a, rep_a.tangent_curve.components.T).T
    assert_close(rep_b.tangent_curve.components, expected, 1e-9)


def test_norm_drift_norms_match_per_node_loop(model, monkeypatch):
    """p_forward's array norms |v(t_j)|_{gram0} equal the per-node
    sqrt(max(c @ gram0 @ c, 0.0)) bit for bit, in a frame whose Gram matrix
    has real off-diagonal entries: with g_norms replaced by that loop, every
    node's difference, and so the drift, is exactly 0."""
    rng = np.random.default_rng(17)
    grid = Grid.regular(0.0, 1.0, 300)
    a = np.array([[1.2, -0.4], [0.5, 0.9]])
    for _ in range(3):
        curve = random_curve(model, rng, grid)
        frame = Frame(curve.basepoint,
                      model.orthonormal_frame(curve.basepoint).columns @ a)
        gram0 = model.frame_gram(frame)
        assert gram0[0, 1] != 0.0
        comps = p_forward(model, curve, frame).tangent_curve.components
        loop = np.array([np.sqrt(max(c @ gram0 @ c, 0.0)) for c in comps])
        monkeypatch.setattr(model, "g_norms", lambda *_: loop)
        assert p_forward(model, curve, frame).norm_drift == 0.0
        monkeypatch.undo()


def test_two_sided_grid_roundtrip(model):
    rng = np.random.default_rng(15)
    grid = Grid.regular(-1.0, 1.0, 400)
    v = random_tangent_curve(model, rng, grid, scale=0.3)
    curve = p_inverse(model, v)
    assert curve.base_index == 200
    assert model.point_distance(curve.points[200], v.base) < 1e-14
    rt = roundtrip_check(model, curve, v.frame0)
    assert rt.max_distance < 1e-5


def test_rescale_identity_and_chain_rule(euclidean, sphere):
    grid = Grid.regular(-2.0, 2.0, 100)
    p = Point("xy", [0.0, 0.0])
    w = np.array([0.3, -0.1])
    v = TangentCurve(p, Frame(p, np.eye(2)), grid, np.tile(w, (101, 1)))
    assert rescale_to_unit(v, 1.0) is v

    scaled = rescale_to_unit(v, 2.0)
    assert_close(scaled.grid.nodes, np.linspace(-1, 1, 101), 1e-15)
    assert_close(scaled.components, np.tile(2.0 * w, (101, 1)), 1e-15)
    ga = p_inverse(euclidean, v)
    gb = p_inverse(euclidean, scaled)
    assert_close(ga.points[-1].coords, gb.points[-1].coords, 1e-10,
                 "same endpoint after rescale")

    # sphere: constant v of g-norm 1 on [-pi, pi] vs rescaled -> length pi
    grid_pi = Grid.regular(-math.pi, math.pi, 400)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    comps = np.tile(f0.columns[:, 0] * 0.0 + np.array([1.0, 0.0]), (401, 1))
    v_pi = TangentCurve(pole, f0, grid_pi, comps)
    both = [p_inverse(sphere, v_pi), p_inverse(sphere,
                                               rescale_to_unit(v_pi, math.pi))]
    d = sphere.dist_oracle(both[0].points[-1], both[1].points[-1])
    assert d < 1e-6
    with pytest.raises(ValidationError):
        rescale_to_unit(v_pi, -1.0)


def _margin_crossing_curve(model, grid):
    """A tangent curve whose forward half leaves its start chart's interior:
    the base is 0.12 rad (sphere2) or 0.3 (torus2) short of the margin and
    the curve heads for it at speed 0.6 to 0.85."""
    t = grid.nodes
    wiggle = 0.03 * np.stack([np.sin(2.0 * t), np.cos(3.0 * t)], axis=1)
    if model.name == "sphere2":
        base, heading = Point("north", [1.7, 0.3]), np.array([0.6, 0.1])
    else:
        base, heading = Point("a", [5.2, 3.0]), np.array([0.8, 0.25])
    # in the orthonormal frame of a conformal or flat metric the components
    # point along the coordinate direction
    return TangentCurve(base, model.orthonormal_frame(base), grid,
                        heading[None, :] + wiggle)


@pytest.mark.parametrize("name", ["sphere2", "torus2"])
@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0)])
def test_scalar_and_batched_inverse_agree(name, span):
    # the single-curve stepper and the batched solver are one RK4 scheme:
    # same charts and switches, coordinates equal up to rounding (N = 800
    # intervals x 8 stage evaluations x 2.2e-16 < 1e-12)
    model = get_model(name)
    v = _margin_crossing_curve(model, Grid.regular(*span, 800))
    field = p_inverse_detailed(model, v)
    charts_b, coords_b, frames_b, logs_b = _solve_inverse_batch(
        model, [v.base.chart_id], v.base.coords[None],
        v.frame0.columns[None], v.grid, np.asarray(v.components)[None])
    assert field.switch_log, "the curve must cross a chart margin"
    assert list(field.points.charts) == charts_b[0]
    assert list(field.switch_log) == logs_b[0]
    assert_close(field.points.coords, coords_b[0], 1e-12, "positions")
    assert_close(field.columns, frames_b[0], 1e-12, "frames")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The generic float stepper that _step_interval_2d writes out at m = 2, for
# any m, kept as its bit reference.

def _frame_rhs_generic(action, chart: str, m: int):
    """f(y, v): dx/dt = r = E v, dE/dt = -M(x, r) E.  Sums start at -0.0,
    which adds exactly, so zeros keep their sign as in a * b + c * d."""
    row_starts = range(m, m + m * m, m)
    col_starts = range(m, 2 * m)

    def rhs(y, v):
        r = [sum(map(mul, y[k:k + m], v), -0.0) for k in row_starts]
        cols = [y[k::m] for k in col_starts]
        return r + [-sum(map(mul, mrow, col), -0.0)
                    for mrow in action(chart, y[:m], r) for col in cols]
    return rhs


def _step_interval(rhs, y, stages, hsub):
    """One grid interval of the coupled position+frame system: classic RK4
    with len(stages) // 2 substeps, in Python floats.  y is the flat state
    (entry m + l*m + i holds e_i^l), stages the component vectors v at the
    2 * substeps + 1 stage times in the direction of travel, hsub the signed
    substep and rhs from _frame_rhs_generic.  Returns the new state."""
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


def reference_inverse(model, v, substeps=2):
    """The single-curve inverse node by node, as it stood before it tested
    its nodes in blocks: one interval, then one domain test, at a time, on
    the written-out stepper at m = 2 and the generic one otherwise.
    Returns (charts, coords, columns, sorted switch log)."""
    grid = v.grid
    base_node = grid.base_node()
    n, m = grid.nodes.size, model.dim
    hsub = grid.h / substeps
    v_stages = _stage_values(np.asarray(v.components), substeps).tolist()
    action = model.christoffel_action_floats

    def stepper(chart):
        if m == 2:
            return lambda y, stages, h: _step_interval_2d(action, chart, y,
                                                          stages, h)
        rhs = _frame_rhs_generic(action, chart, m)
        return lambda y, stages, h: _step_interval(rhs, y, stages, h)

    charts, states, switch_log = [None] * n, [None] * n, []
    y0 = v.base.coords.tolist() + v.frame0.columns.ravel().tolist()
    charts[base_node], states[base_node] = v.base.chart_id, y0

    def march(stop):
        chart, y = v.base.chart_id, y0
        step = stepper(chart)
        direction = 1 if stop >= base_node else -1
        j = base_node
        while j != stop:
            if direction > 0:
                stages, j = v_stages[j], j + 1
            else:
                stages, j = v_stages[j - 1][::-1], j - 1
            try:
                y = step(y, stages, direction * hsub)
                finite = all(map(math.isfinite, y))
            except (ZeroDivisionError, OverflowError):
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
                    step = stepper(chart)
            charts[j], states[j] = chart, y

    march(n - 1)
    if base_node > 0:
        march(0)
    states = np.array(states)
    return (tuple(charts), states[:, :m], states[:, m:].reshape(n, m, m),
            sorted(switch_log))


def _assert_matches_reference(model, v):
    field = p_inverse_detailed(model, v)
    charts, coords, cols, log = reference_inverse(model, v)
    assert field.points.charts == charts
    assert list(field.switch_log) == log
    assert _same_bits(field.points.coords, coords)
    assert _same_bits(field.columns, cols)
    return field


def test_unrolled_rhs_matches_generic(monkeypatch):
    # the m = 2 interval against _step_interval on _frame_rhs_generic: whole
    # intervals on every chart of the four models, with signed zeros in the
    # state and the stages, bit for bit (tobytes sees the sign of a zero)
    rng = np.random.default_rng(17)
    special = np.array([0.0, -0.0, 1.0, -1.0])
    for name in MODEL_NAMES:
        model = get_model(name)
        action = model.christoffel_action_floats
        for cid in sorted(model.charts):
            lo, hi = model.chart(cid).sample_box
            generic = _frame_rhs_generic(action, cid, 2)
            for substeps in (1, 2, 3):
                for trial in range(8):
                    frame = rng.normal(size=4)
                    stages = rng.normal(size=(2 * substeps + 1, 2))
                    if trial % 2:
                        frame = rng.choice(special, 4)
                        stages[rng.random(stages.shape) < 0.5] = -0.0
                    y = rng.uniform(lo, hi).tolist() + frame.tolist()
                    hsub = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.2))
                    got = _step_interval_2d(action, cid, y, stages.tolist(),
                                            hsub)
                    ref = _step_interval(generic, y, stages.tolist(), hsub)
                    assert _same_bits(got, ref), (name, cid, substeps, trial)

    # and whole inverses across a chart switch, the generic interval swapped
    # in where the 2-D one is chosen
    def generic_2d(action, chart, y, stages, hsub):
        rhs = _frame_rhs_generic(action, chart, 2)
        return _step_interval(rhs, y, stages, hsub)

    for name in ("sphere2", "torus2"):
        model = get_model(name)
        v = _margin_crossing_curve(model, Grid.regular(-1.0, 1.0, 200))
        fast = p_inverse_detailed(model, v)
        with monkeypatch.context() as patch:
            patch.setattr(linearize, "_step_interval_2d", generic_2d)
            ref = p_inverse_detailed(model, v)
        assert fast.switch_log, "the curve must cross a chart margin"
        assert fast.points.charts == ref.points.charts
        assert fast.switch_log == ref.switch_log
        assert _same_bits(fast.points.coords, ref.points.coords)
        assert _same_bits(fast.columns, ref.columns)


class _Conformal3(ManifoldModel):
    """A 3-D model outside the built-ins, g = exp(2 a.x) I on one chart,
    written as the two hooks alone: its inverse runs the batched solver."""

    a = np.array([0.3, -0.2, 0.1])
    gamma = (np.einsum("lk,j->lkj", np.eye(3), a)
             + np.einsum("lj,k->lkj", np.eye(3), a)
             - np.einsum("kj,l->lkj", np.eye(3), a))

    def __init__(self):
        chart = ChartSpec("xyz", lambda c: np.full(len(c), INSIDE),
                          np.zeros(3), (-np.ones(3), np.ones(3)))
        super().__init__("conformal3", 3, [chart], {}, r0=1.0)

    def metric_many(self, chart_id, coords):
        return np.exp(2.0 * np.sum(coords * self.a, axis=-1))[:, None, None] \
            * np.eye(3)

    def christoffel_action_floats(self, chart_id, coords, r):
        return np.einsum("lkj,k...->lj...", self.gamma, np.asarray(r, float))


def test_generic_stepper_matches_batched_in_3d():
    model = _Conformal3()
    grid = Grid.regular(-1.0, 1.0, 200)
    t = grid.nodes
    p = Point("xyz", [0.1, 0.2, -0.1])
    comps = 0.4 * np.stack([np.cos(t), np.sin(2.0 * t), np.ones_like(t)],
                           axis=1)
    v = TangentCurve(p, model.orthonormal_frame(p), grid, comps)
    # away from m = 2 the single-curve inverse is the batch of one, and the
    # generic float stepper agrees with it to rounding
    field = p_inverse_detailed(model, v)
    _, coords_b, frames_b, _ = _solve_inverse_batch(
        model, ["xyz"], p.coords[None], v.frame0.columns[None], grid,
        comps[None])
    coords = field.points.coords
    assert _same_bits(coords, coords_b[0])
    assert _same_bits(field.columns, frames_b[0])
    assert np.max(np.abs(coords[-1] - coords[0])) > 0.1
    _, coords_g, frames_g, _ = reference_inverse(model, v)
    assert_close(coords, coords_g, 1e-12)
    assert_close(field.columns, frames_g, 1e-12)


def test_christoffel_action_floats_matches_numpy(model):
    # on floats at one point and on arrays of five, which the batched
    # inverse passes: the arrays give the floats' bits entry by entry
    rng = np.random.default_rng(16)
    cid = sorted(model.charts)[0]
    lo, hi = model.chart(cid).sample_box
    xs, rs = rng.uniform(lo, hi, (5, 2)), rng.normal(size=(5, 2))
    on_arrays = model.christoffel_action_floats(cid, xs.T, rs.T)
    on_arrays = np.broadcast_to(np.reshape(on_arrays, (2, 2, -1)), (2, 2, 5))
    for k, (x, r) in enumerate(zip(xs, rs)):
        expected = model.christoffel_action_batch(cid, x[None], r[None])[0]
        closed = model.christoffel_action_floats(cid, x.tolist(), r.tolist())
        assert_close(closed, expected, 1e-15 * (1.0 + np.abs(expected).max()))
        assert _same_bits(on_arrays[:, :, k], closed)


@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0)])
def test_p_inverse_overflow_is_non_finite_state(euclidean, span):
    grid = Grid.regular(*span, 8)
    p = Point("xy", [0.0, 0.0])
    v = TangentCurve(p, Frame(p, np.eye(2)), grid, np.full((9, 2), 1e308))
    with pytest.raises(NonFiniteState):
        p_inverse(euclidean, v)


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_float_errors_in_a_stage_become_non_finite_state(euclidean,
                                                         monkeypatch, error):
    # numpy returns inf where Python floats raise; both mean the same thing
    def action(chart_id, coords, r):
        raise error("float error inside a stage")

    monkeypatch.setattr(euclidean, "christoffel_action_floats", action)
    grid = Grid.regular(0.0, 1.0, 8)
    p = Point("xy", [0.0, 0.0])
    v = TangentCurve(p, Frame(p, np.eye(2)), grid, np.ones((9, 2)))
    with pytest.raises(NonFiniteState):
        p_inverse(euclidean, v)


def test_inverse_rejects_linearly_dependent_frames(euclidean, monkeypatch):
    # a connection that shears e_2 towards e_1 until |det| is 1e-11 of the
    # column norms' product: both inverse entry points refuse, as Frame does
    def action(chart_id, coords, r):
        return [[0.0, -1e11], [0.0, 0.0]]

    monkeypatch.setattr(euclidean, "christoffel_action_floats", action)
    grid = Grid.regular(0.0, 1.0, 8)
    p = Point("xy", [0.0, 0.0])
    v = TangentCurve(p, Frame(p, np.eye(2)), grid, np.zeros((9, 2)))
    for solve in (p_inverse, p_inverse_detailed):
        with pytest.raises(ValidationError):
            solve(euclidean, v)



# The single-curve inverse integrates _BLOCK intervals before it classifies
# their nodes; every case below must give the node-by-node reference's bits.

def _heading_curve(model, grid, speed, angle=0.93, amp=0.3, freqs=(2.0, 3.0)):
    """A tangent curve from _margin_crossing_curve's base, heading at the
    given angle and speed with a wiggle of the given amplitude."""
    t = grid.nodes
    wiggle = amp * np.stack([np.sin(freqs[0] * t), np.cos(freqs[1] * t)],
                            axis=1)
    base = Point("north", [1.7, 0.3]) if model.name == "sphere2" \
        else Point("a", [5.2, 3.0])
    heading = speed * np.array([math.cos(angle), math.sin(angle)])
    return TangentCurve(base, model.orthonormal_frame(base), grid,
                        heading[None, :] + wiggle)


@pytest.mark.parametrize("name", ["sphere2", "torus2"])
@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0)])
@pytest.mark.parametrize("n", [400, 800])
def test_block_march_matches_node_by_node_on_switching_curves(name, span, n):
    model = get_model(name)
    grid = Grid.regular(*span, n)
    rng = np.random.default_rng(41)
    switches = 0
    for _ in range(4):
        v = _heading_curve(model, grid, rng.uniform(1.0, 30.0),
                           rng.uniform(0.0, 2.0 * math.pi),
                           rng.uniform(0.0, 0.5), rng.uniform(1.0, 4.0, 2))
        switches += len(_assert_matches_reference(model, v).switch_log)
    assert switches >= 8
    fast = _heading_curve(model, grid, 30.0 if name == "torus2" else 20.0)
    assert len(_assert_matches_reference(model, fast).switch_log) >= 6


def _torus_line(torus, node, n=400):
    """A straight line on torus2 from (5.2, 3.0) in chart a along x, at the
    speed that takes it past chart a's margin x = 7 pi / 4 first at node
    `node` of a one-sided grid of n intervals; and the grid."""
    grid = Grid.regular(0.0, 1.0, n)
    speed = (1.75 * math.pi - 5.2) / ((node - 0.5) * grid.h)
    base = Point("a", [5.2, 3.0])
    comps = np.tile([speed, 0.0], (n + 1, 1))
    return TangentCurve(base, Frame(base, np.eye(2)), grid, comps)


@pytest.mark.parametrize("where", ["first", "second block's first",
                                   "first block's last", "second block's last",
                                   "stop - 1", "stop"])
def test_block_march_switches_where_the_node_by_node_march_does(torus, where):
    b = linearize._BLOCK
    node = {"first": 1, "second block's first": b + 1,
            "first block's last": b, "second block's last": 2 * b,
            "stop - 1": 399, "stop": 400}[where]
    field = _assert_matches_reference(torus, _torus_line(torus, node))
    if node == 400:
        # the last node is never tested, so the line ends in chart a
        assert not field.switch_log and field.points.charts[-1] == "a"
    else:
        assert field.switch_log[0] == (node, "a", "b")


def _line_x(v, node):
    """x in chart a of a _torus_line at a fractional node."""
    return v.base.coords[0] + v.components[0, 0] * node * v.grid.h


def _hook_past(threshold, failure):
    """A flat connection that fails in chart a beyond x = threshold: it
    returns NaN (failure None) or raises the given exception."""
    def action(chart_id, coords, r):
        if chart_id == "a" and coords[0] > threshold:
            if failure is None:
                return ((math.nan, 0.0), (0.0, 0.0))
            raise failure("the connection hook failed")
        return ((0.0, 0.0), (0.0, 0.0))
    return action


@pytest.mark.parametrize("failure", [None, ValueError])
def test_failure_past_a_margin_in_the_same_block_does_not_surface(
        torus, monkeypatch, failure):
    # the line leaves chart a's interior at a block's middle node, and the
    # hook fails three quarters into the next interval: the node-by-node
    # march has switched to chart b by then, so the block march must too
    node = linearize._BLOCK // 2
    v = _torus_line(torus, node)
    monkeypatch.setattr(torus, "christoffel_action_floats", _hook_past(
        _line_x(v, node + 0.75), failure))
    field = _assert_matches_reference(torus, v)
    assert field.switch_log[0] == (node, "a", "b")


@pytest.mark.parametrize("failure", [None, ValueError])
def test_failure_before_a_margin_surfaces_at_its_node(torus, monkeypatch,
                                                      failure):
    node = linearize._BLOCK // 2
    v = _torus_line(torus, node)
    monkeypatch.setattr(torus, "christoffel_action_floats", _hook_past(
        _line_x(v, node - 2.25), failure))
    error = NonFiniteState if failure is None else failure
    with pytest.raises(error) as expected:
        reference_inverse(torus, v)
    with pytest.raises(error) as got:
        p_inverse_detailed(torus, v)
    assert str(got.value) == str(expected.value)
    if failure is None:
        assert str(got.value).endswith(f"at node {node - 2}")


def test_block_march_classifies_a_block_at_a_time(model, monkeypatch):
    # a one-sided 401-node curve that stays in its chart's interior
    rng = np.random.default_rng(5)
    v = random_tangent_curve(model, rng, Grid.regular(0.0, 1.0, 400),
                             scale=0.2)
    calls = []
    spec = model.chart(v.base.chart_id)

    def counted(coords):
        calls.append(len(coords))
        return spec.domain_test_many(coords)

    monkeypatch.setitem(model.charts, spec.chart_id,
                        dataclasses.replace(spec, domain_test_many=counted))
    field = p_inverse_detailed(model, v)
    assert not field.switch_log
    assert len(calls) <= math.ceil(400 / linearize._BLOCK)
    assert sum(calls) == 399


# _solve_inverse_batch as it stood before the two sweeps of a two-sided grid
# marched together as one batch: the forward sweep, then the backward one,
# each on B rows, with the state as (B, m) positions and (B, m, m) frames
# and the right-hand side of the component stack.  The one-march solver
# must give its bits.

def reference_inverse_batch(model, charts0, coords0, frames0, grid,
                            components, substeps=2):
    b, n, m = components.shape
    base_node = grid.base_node()
    h = grid.h
    flat = np.ascontiguousarray(components.transpose(1, 0, 2)).reshape(n, b * m)
    v_stages = _stage_values(flat, substeps)
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

    def march(stop):
        charts = list(charts0)
        x = coords0.copy()
        e = frames0.copy()
        direction = 1 if stop >= base_node else -1
        j = base_node
        groups = chart_groups(charts)

        def rhs(xs, es, vs):
            # r = E v and -M(x, r) E, each sum from -0.0 in index order as
            # the float stepper's a * b + c * d; M from the floats hook on
            # the arrays of each chart's rows
            r = np.add.reduce(es * vs[:, None, :], axis=2, initial=-0.0)
            mm = np.empty((b, m, m))
            for cid, idx in groups.items():
                action = model.christoffel_action_floats(cid, xs[idx].T,
                                                         r[idx].T)
                mm[idx] = np.reshape(action, (m, m, -1)).transpose(2, 0, 1)
            return r, -np.add.reduce(mm[..., None] * es[:, None], axis=2,
                                     initial=-0.0)

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
                for i in model.off_interior(groups, x):
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


def _assert_batch_matches_reference(model, *args):
    got = _solve_inverse_batch(model, *args)
    ref = reference_inverse_batch(model, *args)
    assert got[0] == ref[0]
    assert _same_bits(got[1], ref[1])
    assert _same_bits(got[2], ref[2])
    assert got[3] == ref[3]
    return ref


def _batch_from_axis(model, rng, grid, lines=9):
    """Start states along a realized random curve, as p2_inverse takes
    them, and smooth seeded components for every line on the grid."""
    axis = p_inverse_detailed(model, random_tangent_curve(
        model, rng, Grid.regular(-1.0, 1.0, lines - 1)))
    t = grid.nodes[None, :, None]
    a, c, w = (rng.uniform(-0.4, 0.4, size=(lines, 1, model.dim))
               for _ in range(3))
    comps = a + c * t + 0.2 * np.sin(3.0 * t + w)
    return (axis.points.charts, axis.points.coords, axis.columns, grid,
            comps)


@pytest.mark.parametrize("span,n", [((-1.0, 1.0), 60), ((-0.4, 1.0), 70),
                                    ((-1.0, 0.3), 65), ((0.0, 1.0), 50)],
                         ids=["symmetric", "forward longer",
                              "backward longer", "one-sided"])
def test_one_march_inverse_matches_the_two_marches(model, span, n):
    grid = Grid.regular(*span, n)
    args = _batch_from_axis(model, np.random.default_rng(18), grid)
    _assert_batch_matches_reference(model, *args)


def _symmetric_crossing_batch(model, grid):
    """Lines from the centres of two charts whose forward and backward
    halves leave the chart's interior at the same step: straight lines on
    torus2 from (pi, y) in chart a and (0, y) in chart b, great circles on
    sphere2 through both poles; half the rows start in each chart."""
    if model.name == "torus2":
        starts = [Point("a", [math.pi, 1.5 + 0.4 * k]) for k in range(4)] \
            + [Point("b", [0.0, 2.0 + 0.4 * k]) for k in range(4)]
    else:
        starts = [Point(c, [0.01 * k, 0.0]) for c in ("north", "south")
                  for k in range(4)]
    frames = np.stack([model.orthonormal_frame(p).columns for p in starts])
    speeds = np.linspace(4.6, 5.2, len(starts))
    comps = np.zeros((len(starts), grid.nodes.size, 2))
    comps[:, :, 0] = speeds[:, None]
    return ([p.chart_id for p in starts], np.stack([p.coords for p in starts]),
            frames, grid, comps)


@pytest.mark.parametrize("name", ["sphere2", "torus2"])
def test_one_march_inverse_switches_both_ways_at_one_step(name):
    model = get_model(name)
    grid = Grid.regular(-1.0, 1.0, 80)
    base = grid.base_node()
    args = _symmetric_crossing_batch(model, grid)
    assert len(set(args[0])) == 2
    logs = _assert_batch_matches_reference(model, *args)[3]
    # lines that switch at nodes base + k and base - k, in the same step
    switched = [{j for j, _, _ in log} for log in logs]
    assert sum(any(2 * base - j in nodes for j in nodes if j > base)
               for nodes in switched) >= 4


def _failing_hook(model, forward_past, backward_past, failure):
    """The euclidean connection on floats or arrays, failing beyond
    x = forward_past or below x = backward_past (None: never): NaN entries
    or a raised exception."""
    zero = model.christoffel_action_floats

    def action(chart_id, coords, r):
        out = zero(chart_id, coords, r)
        x = np.asarray(coords[0])
        bad = np.zeros(x.shape, bool)
        if forward_past is not None:
            bad |= x > forward_past
        if backward_past is not None:
            bad |= x < backward_past
        if bad.any():
            if failure is not None:
                raise failure("the connection hook failed")
            out = np.where(bad, np.nan, np.reshape(out, (2, 2, -1)))
        return out
    return action


@pytest.mark.parametrize("failure", [None, ValueError])
@pytest.mark.parametrize("forward_past", [0.575, None])
def test_one_march_inverse_raises_the_forward_error_first(
        euclidean, monkeypatch, failure, forward_past):
    # the backward half fails first, at x < -0.225 (node -5 from the base);
    # the forward half, if at all, later, at x > 0.575 (node 12): the error
    # raised is the one the forward sweep raises when it runs first
    monkeypatch.setattr(euclidean, "christoffel_action_floats", _failing_hook(
        euclidean, forward_past, -0.225, failure))
    grid = Grid.regular(-1.0, 1.0, 40)
    comps = np.tile([1.0, 0.0], (3, grid.nodes.size, 1))
    args = (["xy"] * 3, np.zeros((3, 2)), np.tile(np.eye(2), (3, 1, 1)),
            grid, comps)
    error = NonFiniteState if failure is None else failure
    with pytest.raises(error) as expected:
        reference_inverse_batch(euclidean, *args)
    with pytest.raises(error) as got:
        _solve_inverse_batch(euclidean, *args)
    assert str(got.value) == str(expected.value)
    if failure is None:
        node = grid.base_node() + (12 if forward_past is not None else -5)
        assert str(got.value).endswith(f"at node {node}")


# At m = 2 the batched inverse does the float stepper's arithmetic on
# component arrays: each row must be the bits of p_inverse_detailed on its
# line, charts, coordinates, frames and switch log.

def _assert_rows_are_single_curve_bits(model, charts0, coords0, frames0,
                                       grid, comps):
    charts, coords, frames, logs = _solve_inverse_batch(
        model, charts0, coords0, frames0, grid, comps)
    for i, chart in enumerate(charts0):
        p = Point(chart, coords0[i])
        field = p_inverse_detailed(model, TangentCurve(
            p, Frame(p, frames0[i]), grid, comps[i]))
        assert charts[i] == list(field.points.charts), i
        assert _same_bits(coords[i], field.points.coords), i
        assert _same_bits(frames[i], field.columns), i
        assert logs[i] == list(field.switch_log), i
    return logs


@pytest.mark.parametrize("span,n", [((-1.0, 1.0), 60), ((-0.4, 1.0), 70),
                                    ((0.0, 1.0), 50)],
                         ids=["two-sided", "off-centre", "one-sided"])
def test_batch_rows_are_the_single_curve_bits(model, span, n):
    grid = Grid.regular(*span, n)
    _assert_rows_are_single_curve_bits(
        model, *_batch_from_axis(model, np.random.default_rng(20), grid))


@pytest.mark.parametrize("name", ["sphere2", "torus2"])
def test_batch_rows_are_the_single_curve_bits_across_switches(name):
    model = get_model(name)
    logs = _assert_rows_are_single_curve_bits(
        model, *_symmetric_crossing_batch(model, Grid.regular(-1.0, 1.0, 80)))
    assert all(logs)


class _WarpedPlane(ManifoldModel):
    """The plane in two charts with different connections: "xy",
    Cartesian and flat, INSIDE for x < 1, and "uv", with x = u + u^3 / 10
    and y = v, INSIDE for u > 0, where g = diag((1 + 0.3 u^2)^2, 1) and
    Gamma^u_uu = 0.6 u / (1 + 0.3 u^2) is the only symbol that is not 0.
    It writes the two hooks alone: a row given another chart's connection
    takes other values."""

    def __init__(self):
        def domain(flip, inside, outside):
            def test(c):
                s = flip * c[:, 0]
                return np.where(~np.isfinite(c).all(axis=1) | (s >= outside),
                                OUTSIDE, np.where(s < inside, INSIDE, MARGIN))
            return test

        def to_xy(c):
            return np.array([c[0] + 0.1 * c[0] ** 3, c[1]])

        def to_uv(c):
            # the one real root of u^3 + 10 u - 10 x = 0 (Cardano)
            s = math.sqrt(25.0 * c[0] ** 2 + 1000.0 / 27.0)
            return np.array([np.cbrt(5.0 * c[0] + s) + np.cbrt(5.0 * c[0] - s),
                             c[1]])

        def stretch(u):
            return np.diag([1.0 + 0.3 * u * u, 1.0])

        charts = [ChartSpec("xy", domain(1.0, 1.0, 3.0), np.zeros(2),
                            (np.array([-1.0, -1.0]), np.array([0.5, 1.0]))),
                  ChartSpec("uv", domain(-1.0, 0.0, 2.0), np.array([1.0, 0.0]),
                            (np.array([0.2, -1.0]), np.array([2.0, 1.0])))]
        transitions = {
            ("uv", "xy"): TransitionMap(to_xy, lambda c: stretch(c[0])),
            ("xy", "uv"): TransitionMap(
                to_uv, lambda c: np.linalg.inv(stretch(to_uv(c)[0])))}
        super().__init__("warped2", 2, charts, transitions, r0=1.0)

    def metric_many(self, chart_id, coords):
        g = np.tile(np.eye(2), (len(coords), 1, 1))
        if chart_id == "uv":
            g[:, 0, 0] = (1.0 + 0.3 * coords[:, 0] ** 2) ** 2
        return g

    def christoffel_action_floats(self, chart_id, coords, r):
        if chart_id == "xy":
            return ((0.0, 0.0), (0.0, 0.0))
        u = coords[0]
        zero = 0.0 * (u * u)    # +0.0, a float or an array as u is
        return ((0.6 * u / (1.0 + 0.3 * u * u) * r[0], zero), (zero, zero))


def _warped_batch(model, grid):
    """Lines starting in both charts of _WarpedPlane: along x, at speeds
    that cross between them forward, backward or both ways, with a
    wiggle in y."""
    starts = [Point("xy", [0.6, 0.1 * k]) for k in range(3)] \
        + [Point("uv", [0.3, -0.1 * k]) for k in range(3)]
    frames = np.stack([model.orthonormal_frame(p).columns for p in starts])
    t = grid.nodes[None, :]
    speeds = np.array([0.9, -0.7, 2.4, -1.1, 0.8, 2.2])[:, None]
    comps = np.stack(np.broadcast_arrays(speeds * np.cos(0.5 * t),
                                         0.3 * np.sin(2.0 * t)), axis=-1)
    return ([p.chart_id for p in starts], np.stack([p.coords for p in starts]),
            frames, grid, comps)


@pytest.mark.parametrize("span", [(-1.0, 1.0), (0.0, 1.0)])
def test_batch_takes_each_row_s_connection_from_its_chart(span):
    model = _WarpedPlane()
    logs = _assert_rows_are_single_curve_bits(
        model, *_warped_batch(model, Grid.regular(*span, 80)))
    moves = {(a, b) for log in logs for _, a, b in log}
    assert moves == {("xy", "uv"), ("uv", "xy")}


@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0)])
def test_batch_overflow_is_non_finite_state(euclidean, span):
    # numpy's inf where Python floats raise: NonFiniteState, as on the
    # single curve, and no RuntimeWarning (tier-1 turns them into errors)
    grid = Grid.regular(*span, 8)
    with pytest.raises(NonFiniteState):
        _solve_inverse_batch(euclidean, ["xy"] * 2, np.zeros((2, 2)),
                             np.tile(np.eye(2), (2, 1, 1)), grid,
                             np.full((2, 9, 2), 1e308))


@pytest.mark.parametrize("name", ["euclidean2", "torus2"])
def test_batch_rows_keep_the_float_stepper_s_signed_zeros(name):
    # frame columns and components with signed zeros on a flat model: the
    # float stepper's a * b + c * d of two -0.0 products is -0.0, which a
    # sum that starts from +0.0 (as einsum's does) turns into +0.0
    model = get_model(name)
    # the chart centred at the origin: "xy", or torus2's "d"
    chart = next(c for c in sorted(model.charts)
                 if not model.chart(c).center.any())
    grid = Grid.regular(-1.0, 1.0, 8)
    frames = np.array([[[-0.0, -1.0], [-1.0, -0.0]],
                       [[1.0, -0.0], [-0.0, -1.0]],
                       [[-2.0, 0.5], [-0.0, -1.0]]])
    comps = np.zeros((3, grid.nodes.size, 2))
    comps[0, :, 1] = -0.0
    comps[1, ::2] = -0.0
    comps[2, :, 0] = 0.25 * grid.nodes
    coords = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
    _assert_rows_are_single_curve_bits(model, [chart] * 3, coords, frames,
                                       grid, comps)
