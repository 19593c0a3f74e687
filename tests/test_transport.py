"""Frame and vector transport along sampled curves."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from pathlin import Frame, Grid, Point, Tangent, get_model
from pathlin.geometry import MARGIN, OUTSIDE, Samples
from pathlin.errors import ChartContinuationFailure, ValidationError
from pathlin.linearize import TangentCurve, p_inverse
from pathlin.models import (sphere_pull_from_embedding,
                            sphere_push_to_embedding, torus_point_from_angles)
from pathlin.suite import random_curve, random_tangent
from pathlin.numerics import lagrange_weights
from pathlin.transport import (FrameField, SampledCurve, _build_runs,
                               _coords_in, _frame_at, covariant_derivative,
                               curve_velocities, transport_frame,
                               transport_vector)

from conftest import assert_close


def great_circle_curve(sphere, n=400, speed=1.0):
    """gamma(t) = (sin(speed t), 0, cos(speed t)) in north-chart coordinates."""
    grid = Grid.regular(0.0, 1.0, n)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    points = tuple(sphere.exp_oracle(
        pole, Tangent(pole, f0.columns[:, 0] * (speed * t)))
        for t in grid.nodes)
    return SampledCurve(grid, points, order=3)


def seam_curve(n=60):
    """A torus curve across the seam of chart a, stored in both charts."""
    grid = Grid.regular(0.0, 1.0, n)
    return SampledCurve(grid, tuple(torus_point_from_angles(
        np.array([5.0 + 1.8 * t, 1.2 + 0.2 * t]), prefer="a")
        for t in grid.nodes))


def test_euclidean_frames_constant(euclidean):
    grid = Grid.regular(0.0, 1.0, 50)
    pts = tuple(Point("xy", [math.sin(t), t * t]) for t in grid.nodes)
    field = transport_frame(euclidean, SampledCurve(grid, pts),
                            Frame(pts[0], np.eye(2)))
    assert (field.columns == np.eye(2)).all()
    assert field.switch_log == ()


def test_sphere_great_circle_frame(sphere):
    # transport along a geodesic keeps the velocity direction and angles
    curve = great_circle_curve(sphere, n=400)
    pole = curve.points[0]
    c1 = sphere_pull_from_embedding(pole, np.array([1.0, 0.0, 0.0]))
    c2 = sphere_pull_from_embedding(pole, np.array([0.0, 1.0, 0.0]))
    f0 = Frame(pole, np.stack([c1.components, c2.components], axis=1))
    field = transport_frame(sphere, curve, f0)
    for t, base, cols in zip(curve.grid.nodes, field.points, field.columns):
        first = sphere_push_to_embedding(Tangent(base, cols[:, 0]))
        assert_close(first, [math.cos(t), 0.0, -math.sin(t)], 1e-6,
                     "tangent column")
        second = sphere_push_to_embedding(Tangent(base, cols[:, 1]))
        assert abs(first @ second) < 1e-6
        assert abs(np.linalg.norm(second) - 1.0) < 1e-6


def test_torus_seam_crossing_logs_switch(torus):
    curve = seam_curve()
    f0 = Frame(curve.points[0], np.eye(2))
    field = transport_frame(torus, curve, f0)
    assert len(field.switch_log) >= 1
    assert_close(field.columns, np.eye(2), 1e-12, "flat transport")


def test_transport_vector_identity_and_inverse(model):
    rng = np.random.default_rng(3)
    grid = Grid.regular(0.0, 1.0, 200)
    curve = random_curve(model, rng, grid)
    v = random_tangent(model, rng, curve.points[0])
    assert transport_vector(model, curve, v, 0.3, 0.3) is v
    moved = transport_vector(model, curve, v, 0.0, 1.0)
    back = transport_vector(model, curve, moved, 1.0, 0.0)
    assert_close(back.components, v.components, 1e-5, "inversion")
    assert abs(model.g_norm(moved) - model.g_norm(v)) < 1e-6


def test_transport_vector_off_grid(sphere):
    curve = great_circle_curve(sphere, n=200)
    pole = curve.points[0]
    v = sphere_pull_from_embedding(pole, np.array([1.0, 0.0, 0.0]))
    moved = transport_vector(sphere, curve, v, 0.0, 0.5015)
    ambient = sphere_push_to_embedding(moved)
    expect = np.array([math.cos(0.5015), 0.0, -math.sin(0.5015)])
    assert_close(ambient, expect, 1e-6, "dense-output transport")


def test_octant_holonomy(sphere):
    # oracle: transport around the octant triangle rotates by the solid
    # angle pi/2; the expected vector is derived edge by edge in the
    # embedding (tangent stays tangent along a geodesic, normal stays put)
    n = 200

    def geodesic_edge(start_xyz, end_xyz):
        grid = Grid.regular(0.0, 1.0, n)
        start = np.asarray(start_xyz, float)
        end = np.asarray(end_xyz, float)
        pts = []
        for t in grid.nodes:
            xyz = math.cos(t * math.pi / 2.0) * start \
                + math.sin(t * math.pi / 2.0) * end
            prefer = "north" if xyz[2] >= 0 else "south"
            from pathlin.models import sphere_point_from_embedding
            pts.append(sphere_point_from_embedding(xyz, prefer=prefer))
        return SampledCurve(grid, tuple(pts), order=2)

    pole = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    edges = [geodesic_edge(pole, ex), geodesic_edge(ex, ey),
             geodesic_edge(ey, pole)]
    v = sphere_pull_from_embedding(edges[0].points[0], np.array([1.0, 0, 0]))
    for edge in edges:
        v = Tangent(edge.points[0],
                    sphere.push_tangent(v, edge.points[0].chart_id).components)
        v = transport_vector(sphere, edge, v, 0.0, 1.0)
    ambient = sphere_push_to_embedding(v)
    assert_close(ambient, [0.0, 1.0, 0.0], 1e-6, "rotated by pi/2")


def test_norm_preservation_seeded(model):
    rng = np.random.default_rng(17)
    grid = Grid.regular(0.0, 1.0, 400)
    worst = 0.0
    for _ in range(8):
        curve = random_curve(model, rng, grid)
        f0 = model.orthonormal_frame(curve.basepoint)
        field = transport_frame(model, curve, f0)
        c = rng.normal(size=2)
        ref = model.g_norm(Tangent(f0.base, f0.columns @ c))
        pts = field.points[::40]
        norms = model.g_norms(pts.charts, pts.coords, field.columns[::40] @ c)
        worst = max(worst, float(np.max(np.abs(norms - ref))))
    assert worst < 1e-5


def test_refinement_order_great_circle(sphere):
    def error(n):
        curve = great_circle_curve(sphere, n=n)
        pole = curve.points[0]
        c1 = sphere_pull_from_embedding(pole, np.array([1.0, 0.0, 0.0]))
        c2 = sphere_pull_from_embedding(pole, np.array([0.0, 1.0, 0.0]))
        f0 = Frame(pole, np.stack([c1.components, c2.components], axis=1))
        field = transport_frame(sphere, curve, f0)
        worst = 0.0
        for t, base, cols in zip(curve.grid.nodes, field.points,
                                 field.columns):
            ambient = sphere_push_to_embedding(Tangent(base, cols[:, 0]))
            expect = np.array([math.cos(t), 0.0, -math.sin(t)])
            worst = max(worst, float(np.max(np.abs(ambient - expect))))
        return worst

    order = math.log2(error(200) / error(400))
    assert order >= 3.5


def test_covariant_derivative_of_parallel_field(sphere):
    rng = np.random.default_rng(29)
    curve = random_curve(sphere, rng, Grid.regular(0.0, 1.0, 400))
    f0 = sphere.orthonormal_frame(curve.basepoint)
    field = transport_frame(sphere, curve, f0)
    column = list(map(Tangent, field.points, field.columns[:, :, 0]))
    deriv = covariant_derivative(sphere, curve, column)
    assert max(sphere.g_norm(d) for d in deriv) < 1e-5


def test_covariant_derivative_euclidean(euclidean):
    grid = Grid.regular(0.0, 1.0, 100)
    pts = tuple(Point("xy", [t, 0.5 * t + 0.2 * t * t]) for t in grid.nodes)
    curve = SampledCurve(grid, pts)
    field = [Tangent(p, [t, 0.0]) for t, p in zip(grid.nodes, pts)]
    deriv = covariant_derivative(euclidean, curve, field)
    for d in deriv:
        assert_close(d.components, [1.0, 0.0], 1e-12)


def test_covariant_derivative_geodesic_velocity(sphere):
    curve = great_circle_curve(sphere, n=400)
    vel = curve_velocities(sphere, curve)
    accel = covariant_derivative(sphere, curve, vel)
    assert max(sphere.g_norm(a) for a in accel) < 1e-5


def test_curve_velocities_match_differentiate_single_chart(euclidean):
    grid = Grid.regular(0.0, 1.0, 50)
    pts = tuple(Point("xy", [math.sin(t), math.cos(2 * t)])
                for t in grid.nodes)
    vel = curve_velocities(euclidean, SampledCurve(grid, pts))
    expect = np.stack([np.cos(grid.nodes), -2.0 * np.sin(2 * grid.nodes)],
                      axis=1)
    worst = max(float(np.max(np.abs(v.components - e)))
                for v, e in zip(vel, expect))
    assert worst < 1e-6


def test_frame_base_mismatch_rejected(euclidean):
    grid = Grid.regular(0.0, 1.0, 20)
    pts = tuple(Point("xy", [t, 0.0]) for t in grid.nodes)
    wrong = Frame(Point("xy", [5.0, 5.0]), np.eye(2))
    with pytest.raises(ValidationError):
        transport_frame(euclidean, SampledCurve(grid, pts), wrong)


def test_frame_field_checks_shapes_and_columns(euclidean):
    grid = Grid.regular(0.0, 1.0, 4)
    points = Samples(["xy"] * 5, np.zeros((5, 2)))
    cols = np.tile(np.eye(2), (5, 1, 1))
    field = FrameField(grid, points, cols, [(2, "xy", "xy")])
    cols[0, 0, 0] = 7.0         # the field holds its own frozen copy
    assert field.columns[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        field.columns[1, 0, 0] = 2.0
    assert field.switch_log == ((2, "xy", "xy"),)
    frame = field.frame(3)
    assert isinstance(frame, Frame) and frame.base is points[3]
    dependent = np.tile(np.eye(2), (5, 1, 1))
    dependent[3] = [[1.0, 2.0], [1.0, 2.0]]
    for grid_, cols_ in ((grid, dependent),
                         (grid, np.zeros((5, 2, 2))),
                         (grid, np.tile(np.eye(2), (4, 1, 1))),
                         (grid, np.zeros((5, 2, 3))),
                         (Grid.regular(0.0, 1.0, 5), np.tile(np.eye(2),
                                                              (5, 1, 1)))):
        with pytest.raises(ValidationError):
            FrameField(grid_, points, cols_)


def test_transport_frame_builds_no_frame_per_node(torus, monkeypatch):
    curve = seam_curve(400)
    f0 = torus.orthonormal_frame(curve.basepoint)
    built = []
    init = Frame.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", counting_init)
    field = transport_frame(torus, curve, f0)
    assert field.switch_log and field.columns.shape == (401, 2, 2)
    assert built == []
    field.frame(200)
    assert len(built) == 1


def reference_frame_at(model, grid, frames, t):
    """_frame_at as written for a field held as a tuple of Frames: every
    window entry through a Frame, the foreign ones transitioned."""
    nodes = grid.nodes
    j = int(np.clip(np.searchsorted(nodes, t, side="right") - 1, 0,
                    nodes.size - 2))
    if abs(t - nodes[j]) < 1e-12:
        return frames[j]
    if abs(t - nodes[j + 1]) < 1e-12:
        return frames[j + 1]
    w = int(np.clip(j - 1, 0, nodes.size - 4))
    chart = frames[j].base.chart_id
    positions = (nodes[w:w + 4] - nodes[j]) / grid.h
    weights = lagrange_weights(positions, (t - nodes[j]) / grid.h)
    cols = np.zeros((model.dim, model.dim))
    xy = np.zeros(model.dim)
    for s in range(4):
        fr = frames[w + s]
        if fr.base.chart_id == chart:
            c, x = fr.columns, fr.base.coords
        else:
            c = model.transition_jacobian(fr.base, chart) @ fr.columns
            x = model.transition(fr.base, chart).coords
        cols += weights[s] * c
        xy += weights[s] * x
    return Frame(Point(chart, xy), cols)


def test_frame_at_matches_the_per_frame_reference(sphere, torus):
    # times around every switch node, where the windows mix two charts,
    # and one node hit: frames and transported vectors bit for bit
    rng = np.random.default_rng(41)
    for model, curve in ((torus, seam_curve()),
                         (sphere, margin_crossing_sphere_curve(sphere, 200))):
        field = transport_frame(model, curve, model.orthonormal_frame(
            curve.basepoint))
        assert field.switch_log
        frames = tuple(map(field.frame, range(len(field.points))))
        nodes, h = curve.grid.nodes, curve.grid.h
        v = random_tangent(model, rng, curve.basepoint)
        for j, _, _ in field.switch_log:
            for t in list(nodes[j] + h * np.array([-1.7, -0.5, 0.3, 1.4])) \
                    + [float(nodes[j])]:
                got = _frame_at(model, field, t)
                ref = reference_frame_at(model, curve.grid, frames, t)
                assert got.base.chart_id == ref.base.chart_id
                assert got.base.coords.tobytes() == ref.base.coords.tobytes()
                assert got.columns.tobytes() == ref.columns.tobytes()
                moved = transport_vector(model, curve, v, curve.grid.nodes[
                    curve.base_index], t, field=field)
                ref_a = frames[curve.base_index]
                coeffs = np.linalg.solve(ref_a.columns, model.push_tangent(
                    v, ref_a.base.chart_id).components)
                assert moved.base.chart_id == ref.base.chart_id
                assert moved.components.tobytes() == \
                    (ref.columns @ coeffs).tobytes()


# The per-node mixed-chart loops that curve_velocities and
# covariant_derivative replaced: each node's 5-node window is re-expressed
# point by point in the node's chart and its 4th-order row applied to it.
_ROWS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                  [-3.0, -10.0, 18.0, -6.0, 1.0],
                  [1.0, -8.0, 0.0, 8.0, -1.0],
                  [-1.0, 6.0, -18.0, 10.0, 3.0],
                  [3.0, -16.0, 36.0, -48.0, 25.0]])


def _window(j, n):
    w = int(np.clip(j - 2, 0, n - 5))
    return range(w, w + 5), j - w


def reference_velocities(model, curve):
    n, h = curve.grid.nodes.size, curve.grid.h
    out = []
    for j, p in enumerate(curve.points):
        nodes, k = _window(j, n)
        window = np.stack([model.transition(curve.points[i], p.chart_id).coords
                           for i in nodes])
        out.append(_ROWS[k] @ (window - window[k]) / (12.0 * h))
    return np.array(out)


def reference_covariant_derivative(model, curve, field):
    n, h = curve.grid.nodes.size, curve.grid.h
    vel = reference_velocities(model, curve)
    out = []
    for j, p in enumerate(curve.points):
        nodes, k = _window(j, n)
        window = np.stack([model.push_tangent(field[i], p.chart_id).components
                           for i in nodes])
        dx = _ROWS[k] @ (window - window[k]) / (12.0 * h)
        mat = model.christoffel_action_batch(p.chart_id, p.coords[None],
                                             vel[j][None])[0]
        out.append(dx + mat @ window[k])
    return np.array(out)


def margin_crossing_sphere_curve(sphere, n=800):
    # starts 0.25 rad inside the north chart's margin heading out, so the
    # forward half switches to the south chart
    grid = Grid.regular(-1.0, 1.0, n)
    base = Point("north", [1.5, 0.3])
    t = grid.nodes[:, None]
    comps = np.array([0.6, 0.1]) + 0.05 * np.hstack([np.sin(3.0 * t),
                                                      np.cos(2.0 * t)])
    v = TangentCurve(base, sphere.orthonormal_frame(base), grid, comps)
    return p_inverse(sphere, v)


def alternating_band_curve(sphere, n=200, block=7):
    # a loop in the north/south overlap band, stored in alternating blocks
    # of 7 nodes of the two charts, and a field whose tangents sit in the
    # chart each node is not stored in
    grid = Grid.regular(0.0, 1.0, n)
    points, field = [], []
    for j, t in enumerate(grid.nodes):
        north = Point("north", (1.0 + 0.3 * t) * np.array(
            [math.cos(2.0 * t), math.sin(2.0 * t)]))
        south = sphere.transition(north, "south")
        stored, other = (north, south) if (j // block) % 2 == 0 \
            else (south, north)
        points.append(stored)
        comps = np.array([math.cos(3.0 * t), t * t - 0.5])
        field.append(sphere.push_tangent(Tangent(stored, comps),
                                         other.chart_id))
    return SampledCurve(grid, tuple(points)), field


def test_velocities_and_covariant_derivative_match_per_node_loops(sphere):
    curve = margin_crossing_sphere_curve(sphere)
    assert len({p.chart_id for p in curve.points}) == 2
    band, band_field = alternating_band_curve(sphere)
    for c, field in ((curve, curve_velocities(sphere, curve)),
                     (band, band_field)):
        vel = np.stack([r.components for r in curve_velocities(sphere, c)])
        assert_close(vel, reference_velocities(sphere, c), 1e-13,
                     "velocities")
        deriv = covariant_derivative(sphere, c, field)
        assert [d.base.chart_id for d in deriv] == \
            [p.chart_id for p in c.points]
        assert_close(np.stack([d.components for d in deriv]),
                     reference_covariant_derivative(sphere, c, field), 1e-13,
                     "covariant derivative")


def test_curve_storage_same_from_points_and_from_arrays(torus):
    grid = Grid.regular(0.0, 1.0, 60)
    pts = tuple(torus_point_from_angles(
        np.array([5.0 + 1.8 * t, 1.2 + 0.2 * t]), prefer="a")
        for t in grid.nodes)
    from_points = SampledCurve(grid, pts)
    charts = [p.chart_id for p in pts]
    from_arrays = SampledCurve(grid, Samples(charts, [p.coords for p in pts]))
    assert len(set(charts)) > 1
    for curve in (from_points, from_arrays):
        assert isinstance(curve.points, Samples)
        assert curve.points.charts == tuple(charts)
        assert curve.points.coords.shape == (61, 2)
    assert np.array_equal(from_points.points.coords, from_arrays.points.coords)
    for j in (0, 30, 60, -1):
        a, b = from_points.points[j], from_arrays.points[j]
        assert a.chart_id == b.chart_id
        assert np.array_equal(a.coords, b.coords)
    # each Point is built once and kept
    assert from_arrays.points[5] is from_arrays.points[5]
    assert from_points.points[5] is pts[5]


def test_curve_coordinates_are_read_only(euclidean):
    grid = Grid.regular(0.0, 1.0, 10)
    coords = np.stack([grid.nodes, grid.nodes ** 2], axis=1)
    curve = SampledCurve(grid, Samples(["xy"] * 11, coords))
    for copied in (curve, copy.deepcopy(curve),
                   pickle.loads(pickle.dumps(curve))):
        assert np.array_equal(copied.points.coords, curve.points.coords)
        with pytest.raises(ValueError):
            copied.points.coords[0, 0] = 1.0
    coords[0, 0] = 5.0          # the curve holds its own copy
    assert curve.points.coords[0, 0] == 0.0
    assert curve.points[3].coords[1] == grid.nodes[3] ** 2


def test_replace_points_rebuilds_the_arrays(euclidean):
    grid = Grid.regular(0.0, 1.0, 10)
    curve = SampledCurve(grid, tuple(Point("xy", [t, 0.0]) for t in grid.nodes))
    points = list(curve.points)
    points[4] = dataclasses.replace(points[4], coords=np.array([0.4, 1.0]))
    moved = dataclasses.replace(curve, points=tuple(points))
    assert isinstance(moved.points, Samples)
    assert moved.points.coords[4, 1] == 1.0
    assert curve.points.coords[4, 1] == 0.0
    assert dataclasses.replace(curve, order=3).points is curve.points


def test_curve_storage_rejects_mismatched_samples(euclidean):
    grid = Grid.regular(0.0, 1.0, 10)
    with pytest.raises(ValidationError):
        SampledCurve(grid, Samples(["xy"] * 10, np.zeros((11, 2))))
    with pytest.raises(ValidationError):
        SampledCurve(grid, [Point("xy", [0.0, 0.0])] * 10
                     + [Point("xy", [0.0, 0.0, 0.0])])


# The per-node margin-switch loop that _build_runs replaced with one
# classification per chart taken: every node is re-expressed in the working
# chart and tested on its own.
def reference_runs(model, charts, coords, origin, stop, start_chart):
    step = 1 if stop >= origin else -1
    runs, chart = [], start_chart
    run_nodes, run_coords = [], []

    def close_run():
        order = slice(None) if step > 0 else slice(None, None, -1)
        runs.append((min(run_nodes), max(run_nodes), chart,
                     np.stack(run_coords[order]).tobytes()))

    for j in range(origin, stop + step, step):
        x = _coords_in(model, charts, coords, j, chart)
        status = model.chart(chart).domain_test(x)
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
                run_nodes, run_coords = [j], [switched.coords]
    close_run()
    return runs


def _runs_both_ways(model, samples, origin, stop):
    charts, coords = samples.charts, samples.coords
    start = charts[origin]
    fast = [(r.lo, r.hi, r.chart_id, np.ascontiguousarray(r.coords).tobytes())
            for r in _build_runs(model, np.array(charts, dtype=object), coords,
                                 origin, stop, start)]
    return fast, reference_runs(model, charts, coords, origin, stop, start)


def _ranges(n):
    # one-sided (from either end) and both halves of a two-sided sweep
    mid = n // 2
    return ((0, n - 1), (n - 1, 0), (mid, n - 1), (mid, 0))


def test_build_runs_matches_the_per_node_rule(sphere, torus):
    grid = Grid.regular(0.0, 1.0, 120)
    angles = np.stack([1.0 + 4.9 * grid.nodes, 2.0 + 0.3 * grid.nodes], 1)
    seam = SampledCurve(grid, tuple(
        torus_point_from_angles(a, prefer="a") for a in angles))
    stored_in_a = SampledCurve(grid, Samples(["a"] * len(angles), angles))
    band, _ = alternating_band_curve(sphere)
    switched = 0
    for model, samples in ((sphere, margin_crossing_sphere_curve(sphere).points),
                           (torus, seam.points), (torus, stored_in_a.points),
                           (sphere, band.points)):
        for origin, stop in _ranges(len(samples)):
            fast, ref = _runs_both_ways(model, samples, origin, stop)
            assert fast == ref
            switched += len(fast) > 1
    assert len(set(seam.points.charts)) > 1 and switched >= 6


@pytest.mark.parametrize("name,chart,jump", [
    ("sphere2", "north", np.array([5.0, 0.5])),
    ("torus2", "a", np.array([7.0, 3.0])),
])
def test_build_runs_fails_where_the_per_node_rule_fails(name, chart, jump):
    # the curve jumps from the chart's interior to beyond it at node 12,
    # without a node in the margin band
    model = get_model(name)
    start = model.chart(chart).center
    coords = np.array([start + 0.01 * j for j in range(12)]
                      + [jump + 0.01 * j for j in range(8)])
    samples = Samples([chart] * 20, coords)
    for origin, stop, node in ((0, 19, 12), (5, 19, 12), (19, 0, 19)):
        with pytest.raises(ChartContinuationFailure) as fast:
            _runs_both_ways(model, samples, origin, stop)
        with pytest.raises(ChartContinuationFailure) as ref:
            reference_runs(model, samples.charts, coords, origin, stop, chart)
        assert str(fast.value) == str(ref.value)
        assert fast.value.node == ref.value.node == node
