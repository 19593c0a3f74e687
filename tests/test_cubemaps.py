"""Square-map linearization: the two-parameter forward/inverse pair."""

import dataclasses

import numpy as np
import pytest

from pathlin import Frame, Grid, Point, Tangent
from pathlin.cubemaps import (CubeLinearization, CubeSample, _axis_curve,
                              p2_forward, p2_inverse)
from pathlin.errors import NonFiniteState
from pathlin.geometry import Samples
from pathlin.linearize import _p_forward_detailed, p_forward
from pathlin.suite import random_interior_point
from pathlin.transport import SampledCurve, curve_velocities, transport_vector

from conftest import assert_close


def affine_cube(euclidean, u1, u2, n=20):
    g1 = Grid.regular(-1.0, 1.0, n)
    g2 = Grid.regular(-1.0, 1.0, n)
    p0 = np.array([0.2, -0.1])
    pts = tuple(tuple(Point("xy", p0 + a * u1 + b * u2) for b in g2.nodes)
                for a in g1.nodes)
    return CubeSample(g1, g2, pts)


def test_affine_cube_forward(euclidean):
    u1, u2 = np.array([0.4, 0.1]), np.array([-0.2, 0.5])
    lin = p2_forward(euclidean, affine_cube(euclidean, u1, u2))
    assert_close(lin.v1, np.tile(u1, (21, 1)), 1e-12)
    assert_close(lin.v2, np.tile(u2, (21, 21, 1)), 1e-12)


def test_independent_of_second_axis_gives_zero_v2(euclidean):
    g1 = Grid.regular(-1.0, 1.0, 16)
    g2 = Grid.regular(-1.0, 1.0, 16)
    pts = tuple(tuple(Point("xy", [0.3 * a, 0.1 * a * a]) for _ in g2.nodes)
                for a in g1.nodes)
    lin = p2_forward(euclidean, CubeSample(g1, g2, pts))
    assert float(np.max(np.abs(lin.v2))) < 1e-12


def sphere_exp_patch(sphere, scale1, scale2, n):
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    u1 = f0.columns[:, 0] * scale1
    u2 = f0.columns[:, 1] * scale2
    g1 = Grid.regular(-1.0, 1.0, n)
    g2 = Grid.regular(-1.0, 1.0, n)
    pts = tuple(tuple(
        sphere.exp_oracle(pole, Tangent(pole, a * u1 + b * u2))
        for b in g2.nodes) for a in g1.nodes)
    return CubeSample(g1, g2, pts), f0


def test_sphere_patch_v2_small_parameters(sphere):
    # for small patches the axis-line v2 is the transported second direction
    alpha, f0 = sphere_exp_patch(sphere, 0.01, 0.05, 40)
    lin = p2_forward(sphere, alpha, f0)
    expect = np.linalg.solve(f0.columns, f0.columns[:, 1] * 0.05)
    assert_close(lin.v2[:, 20, :], np.tile(expect, (41, 1)), 1e-5)


def test_sphere_patch_v2_jacobi_closed_form(sphere):
    # exact oracle: on the unit sphere the differential of exp_p at t*u1
    # applied to u2 (orthogonal) is sinc(|t u1|) times the transported u2,
    # so the axis-line components are sin(theta)/theta * u2-components
    alpha, f0 = sphere_exp_patch(sphere, 0.5, 0.4, 80)
    lin = p2_forward(sphere, alpha, f0)
    s1 = alpha.grid1.nodes
    theta = np.abs(s1) * 0.5
    factor = np.where(theta > 0, np.sin(theta) / np.where(theta > 0, theta, 1),
                      1.0)
    base = np.linalg.solve(f0.columns, f0.columns[:, 1] * 0.4)
    expect = factor[:, None] * base[None, :]
    assert_close(lin.v2[:, 40, :], expect, 1e-5, "Jacobi factor")


def test_p2_inverse_affine(euclidean):
    g1 = Grid.regular(-1.0, 1.0, 16)
    g2 = Grid.regular(-1.0, 1.0, 16)
    p = Point("xy", [0.1, 0.4])
    f0 = Frame(p, np.eye(2))
    u1, u2 = np.array([0.25, -0.1]), np.array([0.05, 0.3])
    lin = CubeLinearization(p, f0, g1, g2,
                            np.tile(u1, (17, 1)), np.tile(u2, (17, 17, 1)))
    cube = p2_inverse(euclidean, lin)
    for i, a in enumerate(g1.nodes):
        for j, b in enumerate(g2.nodes):
            assert_close(cube.points[i][j].coords,
                         p.coords + a * u1 + b * u2, 1e-10)


def test_p2_inverse_zero_v2_constant_rows(model):
    rng = np.random.default_rng(21)
    g1 = Grid.regular(-1.0, 1.0, 20)
    g2 = Grid.regular(-1.0, 1.0, 20)
    p = random_interior_point(model, rng)
    f0 = model.orthonormal_frame(p)
    v1 = np.tile(rng.uniform(-0.3, 0.3, size=2), (21, 1))
    lin = CubeLinearization(p, f0, g1, g2, v1, np.zeros((21, 21, 2)))
    cube = p2_inverse(model, lin)
    for row in cube.points:
        for pt in row:
            assert model.point_distance(pt, row[0]) < 1e-12


def test_roundtrip_both_ways(model):
    rng = np.random.default_rng(33)
    n = 40
    g1 = Grid.regular(-1.0, 1.0, n)
    g2 = Grid.regular(-1.0, 1.0, n)
    p = random_interior_point(model, rng)
    f0 = model.orthonormal_frame(p)
    a = rng.uniform(-0.25, 0.25, size=(2, 2))
    b = rng.uniform(-0.2, 0.2, size=(3, 2))
    v1 = a[0][None, :] + a[1][None, :] * g1.nodes[:, None]
    v2 = (b[0][None, None, :]
          + b[1][None, None, :] * g1.nodes[:, None, None]
          + b[2][None, None, :] * g2.nodes[None, :, None])
    lin = CubeLinearization(p, f0, g1, g2, v1, v2)
    alpha = p2_inverse(model, lin)
    lin_back = p2_forward(model, alpha, f0)
    assert float(np.max(np.abs(lin_back.v1 - v1))) < 1e-4
    assert float(np.max(np.abs(lin_back.v2 - v2))) < 1e-4
    alpha_back = p2_inverse(model, lin_back)
    worst = max(model.point_distance(x, y)
                for ra, rb in zip(alpha.points, alpha_back.points)
                for x, y in zip(ra, rb))
    assert worst < 1e-4


def test_restriction_compatibility(sphere):
    alpha, f0 = sphere_exp_patch(sphere, 0.4, 0.3, 40)
    lin = p2_forward(sphere, alpha, f0)
    i0, j0 = alpha.base_indices
    axis = SampledCurve(alpha.grid1,
                        tuple(row[j0] for row in alpha.points),
                        order=2, base_index=i0)
    rep = p_forward(sphere, axis, f0)
    assert np.array_equal(rep.tangent_curve.components, lin.v1), \
        "v1 must reuse the boundary-curve code path"
    # v2 on the axis line equals independently transported derivative data
    for i in range(0, 41, 8):
        line = SampledCurve(alpha.grid2, alpha.points[i], order=2,
                            base_index=j0)
        d2 = curve_velocities(sphere, line)[j0]
        moved = transport_vector(sphere, axis, d2,
                                 float(alpha.grid1.nodes[i]), 0.0)
        comps = np.linalg.solve(
            f0.columns,
            sphere.push_tangent(moved, f0.base.chart_id).components)
        assert_close(comps, lin.v2[i, j0], 1e-6)


def test_degenerate_cube(model):
    rng = np.random.default_rng(41)
    p = random_interior_point(model, rng)
    g = Grid.regular(-1.0, 1.0, 12)
    cube = CubeSample(g, g, tuple(tuple(p for _ in g.nodes) for _ in g.nodes))
    lin = p2_forward(model, cube, model.orthonormal_frame(p))
    assert float(np.max(np.abs(lin.v1))) < 1e-10
    assert float(np.max(np.abs(lin.v2))) < 1e-10


def test_margin_band_cube_independent_of_stored_charts(sphere):
    # a small exp patch straddling |x| = 2, where the north chart's margin
    # band begins.  Stored all in north, the axis transport moves to south
    # while the s2-lines start from north points, so each line's vectors are
    # re-expressed in the axis chart; stored in their select_chart charts,
    # all samples are south points.  Both must give the same (v1, v2).
    base = Point("north", [1.98, 0.0])
    f0 = sphere.orthonormal_frame(base)
    g = Grid.regular(-1.0, 1.0, 24)
    north = tuple(tuple(
        sphere.transition(sphere.exp_oracle(
            base, Tangent(base, f0.columns @ np.array([0.03 * a, 0.03 * b]))),
            "north")
        for b in g.nodes) for a in g.nodes)
    selected = tuple(tuple(sphere.select_chart(p) for p in row)
                     for row in north)
    assert {sphere.domain_status(p) for row in north for p in row} == \
        {"inside", "margin"}
    assert {p.chart_id for row in selected for p in row} == {"south"}
    lin_n = p2_forward(sphere, CubeSample(g, g, north), f0)
    lin_s = p2_forward(sphere, CubeSample(g, g, selected), f0)
    assert_close(lin_n.v1, lin_s.v1, 1e-10, "v1")
    assert_close(lin_n.v2, lin_s.v2, 1e-10, "v2")


def p2_forward_per_line(model, alpha, frame0):
    """Reference (v1, v2): one single-curve forward call per s2-line in its
    own orthonormal frame, mapped to the axis frame at the line's node."""
    _, j0 = alpha.base_indices
    _, v1, (charts, _, cols, _), _ = _p_forward_detailed(
        model, _axis_curve(alpha), frame0)
    v2 = np.empty((alpha.grid1.nodes.size, alpha.grid2.nodes.size, model.dim))
    for i, row in enumerate(alpha.points):
        line = SampledCurve(alpha.grid2, row, order=2, base_index=j0)
        line_frame, comps, _, _ = _p_forward_detailed(model, line)
        w = comps @ line_frame.columns.T
        if line.basepoint.chart_id != charts[i]:
            w = w @ model.transition_jacobian(line.basepoint, charts[i]).T
        v2[i] = np.linalg.solve(cols[i], w.T).T
    return v1, v2


# batched against per-line transport: the two differ only in the order of
# rounding (5e-12 seen on 100 x 100 cubes), so 1e-10 leaves a margin of 20
BATCH_TOL = 1e-10


def test_batched_lines_match_per_line_transport(model):
    rng = np.random.default_rng(52)
    g1 = Grid.regular(-1.0, 1.0, 24)
    g2 = Grid.regular(-1.0, 1.0, 30)
    p = random_interior_point(model, rng)
    f0 = model.orthonormal_frame(p)
    a = rng.uniform(-0.25, 0.25, size=(2, 2))
    b = rng.uniform(-0.2, 0.2, size=(3, 2))
    v1 = a[0][None, :] + a[1][None, :] * g1.nodes[:, None]
    v2 = (b[0][None, None, :]
          + b[1][None, None, :] * g1.nodes[:, None, None]
          + b[2][None, None, :] * g2.nodes[None, :, None])
    alpha = p2_inverse(model, CubeLinearization(p, f0, g1, g2, v1, v2))
    lin = p2_forward(model, alpha, f0)
    ref_v1, ref_v2 = p2_forward_per_line(model, alpha, f0)
    assert np.array_equal(lin.v1, ref_v1)
    assert_close(lin.v2, ref_v2, BATCH_TOL, "v2")


def test_batched_lines_with_different_chart_runs(sphere):
    # s2-lines in north coordinates that reach the margin |x| = 2 at nodes
    # depending on s1, so one batch holds lines with different chart runs.
    # Rows 1, 5, ... store their margin samples in south, so those lines
    # mix charts; rows 3, 7, ... are stored in their select_chart charts,
    # all south, so their vectors are re-expressed in the axis chart.
    g1 = Grid.regular(-1.0, 1.0, 20)
    g2 = Grid.regular(-1.0, 1.0, 24)
    rows = []
    for i, a in enumerate(g1.nodes):
        row = [Point("north", [1.9 + 0.3 * b + 0.05 * a, 0.1 * a + 0.02 * b])
               for b in g2.nodes]
        if i % 4 == 1:
            row = [sphere.transition(q, "south")
                   if sphere.domain_status(q) == "margin" else q for q in row]
        elif i % 4 == 3:
            row = [sphere.select_chart(q) for q in row]
        rows.append(tuple(row))
    alpha = CubeSample(g1, g2, tuple(rows))
    _, j0 = alpha.base_indices
    logs = [_p_forward_detailed(sphere, SampledCurve(g2, row, order=2,
                                                     base_index=j0))[2][3]
            for row in rows]
    assert len({log[0][0] for log in logs if log}) > 2
    assert {q.chart_id for q in rows[1]} == {"north", "south"}
    assert {q.chart_id for q in rows[3]} == {"south"}
    f0 = sphere.orthonormal_frame(alpha.basepoint)
    lin = p2_forward(sphere, alpha, f0)
    ref_v1, ref_v2 = p2_forward_per_line(sphere, alpha, f0)
    assert np.array_equal(lin.v1, ref_v1)
    assert_close(lin.v2, ref_v2, BATCH_TOL, "v2")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_line_in_batch_names_its_node(euclidean, monkeypatch):
    # a connection that blows up on one s2-line (x = 0.05) past y = 0.2:
    # the batch must fail where that line alone fails
    def action(chart_id, coords, r):
        bad = (np.abs(coords[:, 0] - 0.05) < 0.01) & (coords[:, 1] > 0.2)
        return np.where(bad[:, None, None], 1e200, 0.0) * np.eye(2)

    monkeypatch.setattr(euclidean, "christoffel_action_batch", action)
    cube = affine_cube(euclidean, np.array([0.4, 0.0]), np.array([0.0, 0.5]),
                       n=16)
    _, j0 = cube.base_indices
    assert abs(cube.points[5][j0].coords[0] - 0.05) < 1e-12
    with pytest.raises(NonFiniteState) as alone:
        _p_forward_detailed(euclidean, SampledCurve(
            cube.grid2, cube.points[5], order=2, base_index=j0))
    with pytest.raises(NonFiniteState) as batched:
        p2_forward(euclidean, cube)
    assert str(batched.value) == str(alone.value)
    assert "node 14" in str(alone.value)


def test_cube_storage_same_from_points_and_from_arrays(euclidean):
    u1, u2 = np.array([0.4, 0.1]), np.array([-0.2, 0.5])
    from_points = affine_cube(euclidean, u1, u2, n=6)
    rows = from_points.points
    from_arrays = CubeSample(from_points.grid1, from_points.grid2,
                             Samples(rows.charts, np.array(rows.coords)))
    assert rows.coords.shape == (7, 7, 2)
    assert from_arrays.points.charts == rows.charts == (("xy",) * 7,) * 7
    assert np.array_equal(from_arrays.points.coords, rows.coords)
    assert np.array_equal(from_arrays.points[2][3].coords, rows[2][3].coords)
    with pytest.raises(ValueError):
        from_arrays.points.coords[0, 0, 0] = 1.0
    # a row is the 1-D form, so it is a curve's points as it stands
    line = SampledCurve(from_arrays.grid2, from_arrays.points[2])
    assert line.points is from_arrays.points[2]
    assert np.array_equal(line.points.coords, rows.coords[2])
    moved = dataclasses.replace(
        from_arrays, points=[list(row) for row in from_arrays.points])
    assert np.array_equal(moved.points.coords, rows.coords)


def test_square_roundtrip_builds_points_only_at_the_edge(sphere, monkeypatch):
    # 25 x 25 samples go through p2_inverse and p2_forward as arrays: only a
    # few Points (the basepoint and the like) are built, not one per sample
    g = Grid.regular(-1.0, 1.0, 24)
    base = Point("north", [0.1, -0.2])
    frame0 = sphere.orthonormal_frame(base)
    v1 = 0.2 + 0.1 * g.nodes[:, None] * np.ones((1, 2))
    v2 = 0.15 * np.ones((25, 25, 2)) * g.nodes[None, :, None]
    lin = CubeLinearization(base, frame0, g, g, v1, v2)
    built = []
    init = Point.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Point, "__init__", counting_init)
    alpha = p2_inverse(sphere, lin)
    back = p2_forward(sphere, alpha, frame0)
    assert len(built) <= 10
    assert_close(back.v2, v2, 1e-6)
