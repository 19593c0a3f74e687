"""The forward/inverse linearization pair and its independence properties."""

import math

import numpy as np
import pytest

from pathlin import Frame, Grid, Point, Tangent, get_model
from pathlin.errors import NonFiniteState, ValidationError
from pathlin.geometry import INSIDE, ChartSpec, ManifoldModel
from pathlin import linearize
from pathlin.linearize import (TangentCurve, _frame_rhs_generic,
                               _solve_inverse_batch, _step_interval,
                               _step_interval_2d,
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
            fast = _step_interval_2d(action, cid)
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
                    got = fast(y, stages.tolist(), hsub)
                    ref = _step_interval(generic, y, stages.tolist(), hsub)
                    assert _same_bits(got, ref), (name, cid, substeps, trial)

    # and whole inverses across a chart switch, the generic interval swapped
    # in where the 2-D one is chosen
    def generic_2d(action, chart):
        rhs = _frame_rhs_generic(action, chart, 2)
        return lambda y, stages, hsub: _step_interval(rhs, y, stages, hsub)

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
    """A 3-D model outside the built-ins, g = exp(2 a.x) I on one chart: its
    inverse runs the generic stepper through the default Christoffel hook."""

    a = np.array([0.3, -0.2, 0.1])
    gamma = (np.einsum("lk,j->lkj", np.eye(3), a)
             + np.einsum("lj,k->lkj", np.eye(3), a)
             - np.einsum("kj,l->lkj", np.eye(3), a))

    def __init__(self):
        chart = ChartSpec("xyz", lambda c: INSIDE, np.zeros(3),
                          (-np.ones(3), np.ones(3)))
        super().__init__("conformal3", 3, [chart], {}, r0=lambda p: 1.0)

    def christoffel(self, chart_id, coords):
        return self.gamma

    def metric(self, chart_id, coords):
        return np.exp(2.0 * self.a @ coords) * np.eye(3)


def test_generic_stepper_matches_batched_in_3d():
    model = _Conformal3()
    grid = Grid.regular(-1.0, 1.0, 200)
    t = grid.nodes
    p = Point("xyz", [0.1, 0.2, -0.1])
    comps = 0.4 * np.stack([np.cos(t), np.sin(2.0 * t), np.ones_like(t)],
                           axis=1)
    v = TangentCurve(p, model.orthonormal_frame(p), grid, comps)
    field = p_inverse_detailed(model, v)
    _, coords_b, frames_b, _ = _solve_inverse_batch(
        model, ["xyz"], p.coords[None], v.frame0.columns[None], grid,
        comps[None])
    coords = field.points.coords
    assert_close(coords, coords_b[0], 1e-12)
    assert_close(field.columns, frames_b[0], 1e-12)
    assert np.max(np.abs(coords[-1] - coords[0])) > 0.1


def test_christoffel_action_floats_matches_numpy(model):
    rng = np.random.default_rng(16)
    cid = sorted(model.charts)[0]
    lo, hi = model.chart(cid).sample_box
    for _ in range(5):
        x = rng.uniform(lo, hi)
        r = rng.normal(size=2)
        expected = model.christoffel_action(cid, x, r)
        closed = model.christoffel_action_floats(cid, x.tolist(), r.tolist())
        assert_close(closed, expected, 1e-15 * (1.0 + np.abs(expected).max()))


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
