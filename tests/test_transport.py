"""Frame and vector transport along sampled curves."""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pathlin import Frame, Grid, Point, Tangent, get_model, transport
from pathlin.geometry import (INSIDE, MARGIN, OUTSIDE, ChartSpec,
                              ManifoldModel, Samples)
from pathlin.errors import (ChartContinuationFailure, NonFiniteState,
                            ValidationError)
from pathlin.linearize import TangentCurve, p_inverse, roundtrip_check
from pathlin.models import (_torus_window_starts, _torus_wrap,
                            sphere_pull_from_embedding,
                            sphere_push_to_embedding, torus_point_from_angles)
from pathlin.suite import random_curve, random_tangent
from pathlin.numerics import lagrange_weights, rk4_step
from pathlin.transport import (FrameField, SampledCurve, _build_runs,
                               _chain, _coords_in, _frame_at,
                               _interval_propagators, _stage_values,
                               _stage_weights, _sweep_frames,
                               _transport_columns, _velocities,
                               covariant_derivative, curve_velocities,
                               transport_frame, transport_vector)

from conftest import assert_close
from test_linearize import _Conformal3


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


def _mixed_torus_batch(torus, grid):
    """Lines on one grid of every kind _transport_columns tells apart:
    lines all INSIDE their start chart (a or b), a line stored partly in
    chart b while it runs in chart a's interior, and lines that cross
    chart a's margin forward and backward."""
    t = grid.nodes
    wave = 0.3 * np.sin(2.0 * t)
    angles = [np.stack([math.pi + 0.5 * t + 0.1 * k, math.pi + wave], 1)
              for k in range(3)]                              # in a
    angles += [np.stack([0.3 * t - 0.2 * k, math.pi - wave], 1)
               for k in range(2)]                             # in b
    angles += [angles[0] + 0.05]                              # foreign
    angles += [np.stack([math.pi + s * t + 0.4, 3.0 + wave], 1)
               for s in (2.6, -2.8)]                          # switching
    charts0 = ["a"] * 3 + ["b"] * 2 + ["a"] * 3
    charts = [[c] * t.size for c in charts0]
    charts[5][::3] = ["b"] * len(charts[5][::3])
    coords = np.stack([_torus_wrap(x, _torus_window_starts(c))
                       for x, c in zip(angles, charts0)])
    coords[5, ::3] = _torus_wrap(angles[5][::3], _torus_window_starts("b"))
    return charts, coords, charts0


@pytest.mark.parametrize("span", [(-1.0, 1.0), (0.0, 2.0)])
def test_runs_on_arrays_match_per_line_transport(torus, span):
    grid = Grid.regular(*span, 60)
    charts, coords, charts0 = _mixed_torus_batch(torus, grid)
    start = grid.base_node()
    vel = _velocities(torus, grid, charts, coords)
    rng = np.random.default_rng(18)
    frames0 = np.eye(2) + 0.2 * rng.uniform(-1.0, 1.0, (len(charts0), 2, 2))
    batch = _transport_columns(torus, grid, charts, coords, vel, charts0,
                               frames0, start, 2)
    assert sum(map(bool, batch[4])) >= 2, "some lines must switch charts"
    for i in range(len(charts0)):
        # the runs _build_runs finds when it classifies the line itself;
        # a switch node ends one run and starts the next
        stored = np.array(charts[i], dtype=object)
        want_charts, want_coords = stored.copy(), coords[i].copy()
        for stop in (len(grid.nodes) - 1, 0)[:1 + (start > 0)]:
            for run in _build_runs(torus, stored, coords[i], start, stop,
                                   charts0[i]):
                want_charts[run.lo:run.hi + 1] = run.chart_id
                want_coords[run.lo:run.hi + 1] = run.coords
        assert batch[0][i] == want_charts.tolist()
        assert batch[1][i].tobytes() == want_coords.tobytes()
        line = _transport_columns(torus, grid, charts[i:i + 1],
                                  coords[i:i + 1], vel[i:i + 1],
                                  charts0[i:i + 1], frames0[i:i + 1], start, 2)
        assert batch[0][i] == line[0][0]
        for got, want in zip(batch[1:4], line[1:4]):
            assert got[i].tobytes() == want[0].tobytes()
        assert batch[4][i] == line[4][0]


# The node-by-node loop that _sweep_frames replaced with one chunked chain
# per sweep: one (B, m, m) product per node with the propagator of the
# interval entering it (a backward sweep's propagators step backward), and
# an element's transition Jacobian applied to its frame after the step into
# the switch node.
def reference_chain(phis, frames0, switches, start, stop):
    step = 1 if stop >= start else -1
    current, frames = frames0.copy(), []
    for j in range(start, stop + step, step):
        if j != start:
            current = phis[:, j - 1 if step > 0 else j] @ current
            if not np.isfinite(current).all():
                raise NonFiniteState(f"frame became non-finite at node {j}")
        for i, jac in switches.get(j, ()):
            current[i] = jac @ current[i]
        frames.append(current)
    return np.stack(frames, axis=1)


# Regrouping the products of a chain moves its frames at rounding level
# only; this bounds the gap relative to the largest column entry.
CHAIN_RTOL = 1e-13


def assert_chain_close(got, want, label=""):
    assert got.shape == want.shape
    assert_close(got / np.abs(want).max(), want / np.abs(want).max(),
                 CHAIN_RTOL, label)


def _near_identity(rng, shape, m):
    return np.eye(m) + 0.2 * rng.uniform(-1.0, 1.0, shape + (m, m))


@pytest.mark.parametrize("m", [2, 3])
def test_chain_is_the_running_product(m):
    rng = np.random.default_rng(19)
    for length in [*range(19), 24, 25, 26, 399, 400]:
        mats = _near_identity(rng, (3, length), m)
        start = _near_identity(rng, (3,), m)
        want = [start]
        for k in range(length):
            want.append(mats[:, k] @ want[-1])
        got = _chain(mats, start)
        assert np.array_equal(got[:, 0], start)
        assert_chain_close(got, np.stack(want, axis=1), f"L = {length}")


@pytest.mark.parametrize("m", [2, 3])
def test_sweep_frames_match_the_node_by_node_loop(m):
    # switch Jacobians at the start node, at chunk edges and at the last
    # node, in sweeps of every length up to 17 both ways
    rng = np.random.default_rng(m)
    n = 18
    phis = _near_identity(rng, (4, n - 1), m)
    frames0 = _near_identity(rng, (4,), m)
    kept = frames0.copy()
    for start in range(n):
        for stop in (n - 1, 0):
            lo, hi = sorted((start, stop))
            switches = {}
            for j in {start, lo + 1, (lo + hi) // 2, hi}:
                if lo <= j <= hi:
                    switches[j] = [(i, _near_identity(rng, (), m))
                                   for i in rng.choice(4, 2, replace=False)]
            got = _sweep_frames(phis, frames0, switches, start, stop)
            want = reference_chain(phis, frames0, switches, start, stop)
            assert_chain_close(got, want, f"start {start}, stop {stop}")
    assert np.array_equal(frames0, kept)


def _columns_both_ways(monkeypatch, model, grid, charts, coords, charts0,
                       frames0, start):
    vel = _velocities(model, grid, charts, coords)
    args = (model, grid, charts, coords, vel, charts0, frames0, start, 2)
    got = _transport_columns(*args)
    with monkeypatch.context() as patch:
        patch.setattr(transport, "_sweep_frames", reference_chain)
        want = _transport_columns(*args)
    assert got[0] == want[0] and got[4] == want[4]
    for a, b in ((got[1], want[1]), (got[3], want[3])):
        assert a.tobytes() == b.tobytes()
    assert_chain_close(got[2], want[2], "frame columns")
    return got


@pytest.mark.parametrize("span,start", [((-1.0, 1.0), 30), ((0.0, 2.0), 0),
                                        ((-2.0, 0.0), 60)])
def test_transport_columns_match_the_node_by_node_chain(torus, monkeypatch,
                                                        span, start):
    grid = Grid.regular(*span, 60)
    charts, coords, charts0 = _mixed_torus_batch(torus, grid)
    assert grid.base_node() == start
    frames0 = _near_identity(np.random.default_rng(19), (len(charts0),), 2)
    got = _columns_both_ways(monkeypatch, torus, grid, charts, coords,
                             charts0, frames0, start)
    assert sum(map(bool, got[4])) >= 2, "some lines must switch charts"


def test_transport_columns_match_the_chain_for_every_sweep_length(
        torus, monkeypatch):
    # 17 intervals from every start node: both sweeps take each length
    # 0, ..., 17, so every chunk padding is met
    grid = Grid.regular(0.0, 2.0, 17)
    charts, coords, charts0 = _mixed_torus_batch(torus, grid)
    frames0 = _near_identity(np.random.default_rng(17), (len(charts0),), 2)
    switched = 0
    for start in range(len(grid.nodes)):
        got = _columns_both_ways(monkeypatch, torus, grid, charts, coords,
                                 charts0, frames0, start)
        switched += sum(map(bool, got[4]))
    assert switched > 0


def test_transport_columns_match_the_chain_on_the_sphere(sphere, monkeypatch):
    # propagators and transition Jacobians that are not the identity, as
    # they are on the flat torus: a curve across the north chart's margin
    # and one stored in alternating charts
    logs = []
    for curve in (margin_crossing_sphere_curve(sphere, 200),
                  alternating_band_curve(sphere)[0]):
        pts, start = curve.points, curve.grid.base_node()
        frames0 = _near_identity(np.random.default_rng(2), (1,), 2)
        logs += _columns_both_ways(monkeypatch, sphere, curve.grid,
                                   [pts.charts], pts.coords[None],
                                   [pts.charts[start]], frames0, start)[4]
    assert logs[0] == [(136, "north", "south")]


def test_transport_columns_match_the_chain_in_3d(monkeypatch):
    model = _Conformal3()
    grid = Grid.regular(-1.0, 1.0, 40)
    t = grid.nodes[:, None]
    coords = np.stack([0.5 * np.sin(t + k) * np.array([1.0, 0.5, -0.8])
                       + 0.1 * k * t for k in range(3)])
    frames0 = _near_identity(np.random.default_rng(3), (3,), 3)
    _columns_both_ways(monkeypatch, model, grid, [["xyz"] * t.size] * 3,
                       coords, ["xyz"] * 3, frames0, grid.base_node())


class _RoundTorus(ManifoldModel):
    """The embedded round torus, g = diag((2 + cos v)^2, 1) in angle
    coordinates (u, v) on one chart, written as the two hooks alone.  Its
    Christoffel actions do not commute, unlike those of every built-in
    2-D model, so at m = 2 it sees a product taken in the wrong order and
    stages taken in the wrong order."""

    def __init__(self):
        chart = ChartSpec("uv", lambda c: np.full(len(c), INSIDE),
                          np.zeros(2), (-np.ones(2), np.ones(2)))
        super().__init__("roundtorus2", 2, [chart], {}, r0=0.5)

    def metric_many(self, chart_id, coords):
        g = np.tile(np.eye(2), (len(coords), 1, 1))
        g[:, 0, 0] = (2.0 + np.cos(coords[:, 1])) ** 2
        return g

    def christoffel_action_batch(self, chart_id, coords, r):
        # Gamma^u_{uv} = Gamma^u_{vu} = rho'/rho, Gamma^v_{uu} = -rho rho'
        rho, drho = 2.0 + np.cos(coords[:, 1]), -np.sin(coords[:, 1])
        out = np.zeros((len(coords), 2, 2))
        out[:, 0, 0] = drho / rho * r[:, 1]
        out[:, 0, 1] = drho / rho * r[:, 0]
        out[:, 1, 0] = -rho * drho * r[:, 0]
        return out


def _one_chart_line(name):
    """sphere2, the round torus or the 3-D _Conformal3, and a line that
    stays in one chart, on a two-sided 40-interval grid: (model, grid,
    chart, coords)."""
    grid = Grid.regular(-1.0, 1.0, 40)
    t = grid.nodes[:, None]
    if name == "conformal3":
        return (_Conformal3(), grid, "xyz",
                0.5 * np.sin(t + np.array([0.0, 1.0, 2.0])))
    if name == "roundtorus2":
        return (_RoundTorus(), grid, "uv",
                np.concatenate([0.6 * t, 0.8 + 0.5 * t], axis=1))
    return (get_model(name), grid, "north",
            np.concatenate([0.6 * t, 0.3 * np.cos(t)], axis=1))


@pytest.mark.parametrize("name", ["sphere2", "roundtorus2", "conformal3"])
def test_backward_propagators_undo_the_forward_ones(name):
    # RK4 from each interval's right node to its left undoes the step from
    # left to right up to its local error, O(h^5).  The conformal
    # Christoffel actions of sphere2 commute and RK4 cannot tell the stage
    # order; those of the round torus and of _Conformal3 do not, and
    # stages in the wrong order leave about 1e-6
    model, grid, chart, coords = _one_chart_line(name)
    coords, m, n = coords[None], model.dim, grid.n_intervals
    vel = _velocities(model, grid, [[chart] * (n + 1)], coords)
    groups = {(chart, 0, n): [(np.array([0]), coords, vel)]}
    forward, backward = np.empty((2, 1, n, m, m))
    transport._batch_propagators(model, groups, forward, grid.h, 2, 1)
    transport._batch_propagators(model, groups, backward, grid.h, 2, -1)
    assert np.abs(forward - np.eye(m)).max() > 1e-3
    assert np.abs(backward @ forward - np.eye(m)).max() < 1e-10


@pytest.mark.parametrize("bad,entry", [(np.nan, (0, 0)), (np.nan, (0, 1)),
                                       (np.inf, (0, 0)), (np.inf, (0, 1)),
                                       (-np.inf, (1, 0))])
@pytest.mark.parametrize("interval,node", [(33, 34), (41, 42), (59, 60),
                                           (29, 29), (17, 17), (0, 0)])
def test_a_non_finite_propagator_names_the_node_the_loop_named(
        torus, monkeypatch, bad, entry, interval, node):
    # one switching line of the batch gets one bad propagator entry, in the
    # forward sweep (intervals 30 and up, node = interval + 1) or in the
    # backward one (node = interval); no RuntimeWarning may escape
    fast, loop = _spoiled_transport(torus, monkeypatch, interval, entry, bad)
    assert fast == f"frame became non-finite at node {node}"
    assert loop == fast


def _spoiled(monkeypatch, element, interval, entry, bad):
    """Make _batch_propagators set phis[element, interval][entry] = bad."""
    build = transport._batch_propagators

    def spoiled(model, groups, phis, h, substeps, step):
        build(model, groups, phis, h, substeps, step)
        phis[element, interval][entry] = bad

    monkeypatch.setattr(transport, "_batch_propagators", spoiled)


def _spoiled_transport(torus, monkeypatch, interval, entry, bad):
    """_transport_columns on _mixed_torus_batch from node 30 of 60, with
    phis[6, interval][entry] = bad: the chain's NonFiniteState message,
    and the node-by-node loop's ("finite" or its message)."""
    grid = Grid.regular(-1.0, 1.0, 60)
    charts, coords, charts0 = _mixed_torus_batch(torus, grid)
    vel = _velocities(torus, grid, charts, coords)
    frames0 = _near_identity(np.random.default_rng(5), (len(charts0),), 2)
    _spoiled(monkeypatch, 6, interval, entry, bad)
    args = (torus, grid, charts, coords, vel, charts0, frames0, 30, 2)
    with pytest.raises(NonFiniteState) as fast:
        _transport_columns(*args)
    monkeypatch.setattr(transport, "_sweep_frames", reference_chain)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _transport_columns(*args)
            loop = "finite"
        except NonFiniteState as exc:
            loop = str(exc)
    return str(fast.value), loop


@pytest.mark.parametrize("interval", [25, 10])
@pytest.mark.parametrize("name", ["sphere2", "conformal3"])
def test_a_singular_propagator_makes_dependent_frames_in_either_sweep(
        monkeypatch, name, interval):
    # a finite singular step in the forward sweep (interval 25 of a curve
    # based at node 20) or in the backward one (interval 10) leaves finite,
    # linearly dependent frames: one ValidationError at m = 2 and m = 3,
    # never numpy's LinAlgError
    model, grid, chart, coords = _one_chart_line(name)
    curve = SampledCurve(grid, Samples([chart] * len(coords), coords),
                         base_index=grid.base_node())
    f0 = model.orthonormal_frame(curve.basepoint)
    m = model.dim
    _spoiled(monkeypatch, 0, interval, ..., np.ones((m, m)))
    with pytest.raises(ValidationError, match="linearly dependent"):
        transport_frame(model, curve, f0)


def test_transport_frame_rejects_a_nan_frame_base(sphere):
    # d > 1e-7 is False for a NaN distance, so the check must be written
    # the other way round
    curve = great_circle_curve(sphere, n=40)
    f0 = Frame(Point("north", [np.nan, np.nan]), np.eye(2))
    with pytest.raises(ValidationError, match="frame base"):
        transport_frame(sphere, curve, f0)


# The stage values as _stage_values computed them before it summed each
# run of one window shift as shifted slices: a window gather and an einsum
# per shift, kept as its bit reference.

def reference_stage_values(node_values, substeps):
    n = node_values.shape[0]
    width = min(4, n)
    starts = np.clip(np.arange(n - 1) - 1, 0, n - width)
    rel = starts - np.arange(n - 1)
    out = np.empty((n - 1, 2 * substeps + 1, node_values.shape[1]))
    for shift in np.unique(rel):
        mask = rel == shift
        wts = _stage_weights(width, int(shift), substeps)
        idx = starts[mask][:, None] + np.arange(width)[None, :]
        out[mask] = np.einsum("us,nsm->num", wts, node_values[idx])
    return out


_SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-309,
                            1e300, -1e300])


@example(n=2, cols=2, substeps=1, seed=0, special=0.5)
@example(n=3, cols=2, substeps=2, seed=1, special=0.5)
@example(n=4, cols=3, substeps=3, seed=2, special=0.5)
@example(n=5, cols=2, substeps=2, seed=3, special=1.0)
@given(n=st.integers(2, 900), cols=st.integers(1, 40),
       substeps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       special=st.floats(0.0, 1.0))
def test_stage_values_are_the_reference_bits(n, cols, substeps, seed,
                                             special):
    # a share `special` of the node values is signed zeros, subnormals or
    # +-1e300, the rest spans six decades; the bits, signs of zeros too.
    # At one column the reference's einsum sums each window in another
    # inner loop, which rounds differently: a single column is compared
    # with the same column of a two-column call, as the library makes
    # them (m * B >= 2 columns)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, cols)) * 10.0 ** rng.integers(-3, 4,
                                                               (n, cols))
    pick = rng.random((n, cols)) < special
    values[pick] = rng.choice(_SPECIAL_VALUES, int(pick.sum()))
    got = _stage_values(values, substeps)
    wide = values if cols > 1 else np.hstack([values, values[::-1]])
    ref = reference_stage_values(wide, substeps)[:, :, :cols]
    assert got.shape == ref.shape == (n - 1, 2 * substeps + 1, cols)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def reference_interval_propagators(m_stages, h, substeps):
    """The propagator RK4 as it stood on (K, S, m, m) stacks of M, with
    np.matmul, before it moved to component arrays; kept as a reference."""
    n_int, _, m, _ = m_stages.shape
    a = -m_stages
    phi = np.broadcast_to(np.eye(m), (n_int, m, m)).copy()
    hsub = h / substeps
    for s in range(substeps):
        phi = rk4_step(np.matmul, phi, hsub,
                       a[:, 2 * s], a[:, 2 * s + 1], a[:, 2 * s + 2])
    return phi


@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3])
def test_propagators_match_a_matmul_rk4(m, substeps):
    # random stacks do not commute, so A Phi taken as Phi A fails this
    rng = np.random.default_rng(10 * m + substeps)
    m_stages = rng.normal(size=(300, 2 * substeps + 1, m, m))
    for h in (0.3, -0.3):
        ref = reference_interval_propagators(m_stages, h, substeps)
        got = _interval_propagators(-m_stages.transpose(2, 3, 1, 0), h,
                                    substeps)
        assert got.shape == (m, m, 300)
        assert np.abs(got.transpose(2, 0, 1) - ref).max() \
            <= 1e-14 * np.abs(ref).max()


def _round_torus_line():
    """_RoundTorus and a two-sided 200-interval curve on it that winds
    once around the tube, a frame at its base node that is not
    orthonormal, and the curve's transported frame field."""
    model = _RoundTorus()
    grid = Grid.regular(-1.0, 1.0, 200)
    t = grid.nodes[:, None]
    coords = np.hstack([1.5 * t + 0.3 * np.sin(2.0 * t),
                        0.8 + 2.0 * t + 0.2 * np.cos(3.0 * t)])
    curve = SampledCurve(grid, Samples(["uv"] * len(coords), coords),
                         order=3, base_index=grid.base_node())
    f0 = Frame(curve.basepoint, np.array([[0.3, 0.1], [-0.2, 0.9]]))
    return model, curve, f0


def test_round_torus_transport_keeps_the_gram_matrix():
    # parallel transport is an isometry: g(e_i, e_j) stays that of the
    # base node's frame.  The matmul propagators left 1.0005e-8 on this
    # curve, and the component products may leave at most 10 times that
    model, curve, f0 = _round_torus_line()
    field = transport_frame(model, curve, f0)
    g = model.metric_many("uv", field.points.coords)
    gram = np.einsum("nli,nlk,nkj->nij", field.columns, g, field.columns)
    drift = np.abs(gram - gram[curve.base_index]).max()
    assert drift <= 10 * 1.0006e-8
    assert np.abs(field.columns - f0.columns).max() > 0.1


def test_round_torus_roundtrip():
    model, curve, f0 = _round_torus_line()
    assert roundtrip_check(model, curve, f0).max_distance < 1e-5


_PROPAGATOR_DIGEST = """
import hashlib
import numpy as np
from pathlin.transport import _interval_propagators
a = np.random.default_rng(22).normal(size=(2, 2, 5, 4000))
print(hashlib.sha256(_interval_propagators(a, 0.3, 2).tobytes()).hexdigest())
"""


def test_propagators_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE=Prescott selects OpenBLAS's kernel without FMA, on
    # which stacked 2 x 2 matmul rounds differently; it acts only on the
    # child process that is given it
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        env = {**os.environ, **kernel, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _PROPAGATOR_DIGEST],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]
