"""Carrier fields, flows, trivializations, mapping charts, normalization."""

import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathlin import Grid, Point, Tangent, bundleflow, get_model
from pathlin.bundleflow import (TrivializationChart, arclength_normalize,
                                carrier_field, flow, make_carrier,
                                mapping_chart_in, mapping_chart_out, phi,
                                smooth_step, trivialize, untrivialize)
from pathlin.errors import (ChartContinuationFailure, NoOverlap,
                            NonFiniteState, NotImmersed,
                            OutOfInjectivityRange, PathlinError)
from pathlin.geometry import OUTSIDE, Samples, chart_groups
from pathlin.linearize import TangentCurve, p_forward, p_inverse
from pathlin.models import sphere_point_from_embedding
from pathlin.numerics import (lagrange_integral_weights, lagrange_weights,
                              rk4_step)
from pathlin.suite import random_curve, random_interior_point, random_tangent
from pathlin.transport import SampledCurve, _coords_in, curve_velocities

from conftest import MODEL_NAMES, assert_close


def test_smooth_step_profile():
    assert smooth_step(-1.0) == 0.0 and smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0 and smooth_step(2.0) == 1.0
    assert abs(smooth_step(0.5) - 0.5) < 1e-15
    xs = np.linspace(0.01, 0.99, 50)
    vals = [smooth_step(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_smooth_step_at_special_values_warns_of_nothing():
    # 5e-324 is the smallest subnormal: -1 / x overflows to -inf there
    special = {0.0: 0.0, -0.0: 0.0, 5e-324: 0.0, 1.0 - 1e-16: 1.0, 1.0: 1.0,
               math.nan: 0.0, math.inf: 1.0, -math.inf: 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = smooth_step(np.array(list(special)))
    assert got.tolist() == list(special.values())


def test_carrier_at_base_is_log(model):
    rng = np.random.default_rng(2)
    p = random_interior_point(model, rng)
    q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.3))
    spec = make_carrier(model, p, q)
    y = carrier_field(spec, p)
    assert_close(y.components, spec.q_prime.components, 1e-8,
                 "field at p is log_p(q)")


def test_carrier_zero_outside_cutoff(model):
    rng = np.random.default_rng(3)
    p = random_interior_point(model, rng)
    q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.2))
    spec = make_carrier(model, p, q)
    for scale in (1.0, 1.1, 1.3):
        far = model.exp_oracle(p, random_tangent(model, rng, p,
                                                 norm=scale * spec.r_out))
        y = carrier_field(spec, far)
        assert np.all(y.components == 0.0), "exact zero outside r_out"
        moved = flow(spec, far, 1.0)
        assert moved.chart_id == far.chart_id
        assert moved.coords.tobytes() == far.coords.tobytes()


def _pre_change_carrier_field_many(spec, chart_id, coords):
    """carrier_field_many as written before log_from returned distances: a
    dist_from pass, log_from on the rows inside r_out only, then one
    exp_from call per difference point."""
    model, h = spec.model, bundleflow._FD_STEP
    oracle = model.oracle
    d = oracle.dist_from(model, spec.p, chart_id, coords)
    out = np.zeros_like(coords)
    near = d < spec.r_out
    if np.any(near):
        _, m_prime = oracle.log_from(model, spec.p, chart_id, coords[near])
        step = h * spec.q_prime.components
        plus = oracle.exp_from(model, spec.p, m_prime + step, chart_id)
        minus = oracle.exp_from(model, spec.p, m_prime - step, chart_id)
        rho = smooth_step((spec.r_out - d[near]) / (spec.r_out - spec.r_in))
        out[near] = rho[:, None] * (plus - minus) / (2.0 * h)
    return out


# rows of K inside r_out per case
_INSIDE_ROWS = {"all": lambda k: k, "none": lambda k: 0,
                "some": lambda k: k // 2, "one": lambda k: 1}


@pytest.mark.parametrize("k,case", [
    (1, "all"), (1, "none"), (2, "all"), (2, "none"), (2, "one"),
    (201, "all"), (201, "none"), (201, "some"), (201, "one")])
def test_carrier_field_many_matches_pre_change_formula(model, k, case):
    for trial in range(10):
        rng = np.random.default_rng([k, len(case), trial])
        chart = sorted(model.charts)[rng.integers(len(model.charts))]
        p = Point(chart, model.charts[chart].center
                  + rng.uniform(-0.3, 0.3, model.dim))
        q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.2))
        spec = make_carrier(model, p, q)
        inside = _INSIDE_ROWS[case](k)
        frac = rng.permutation(np.concatenate([
            rng.uniform(0.0, 0.98, inside),
            rng.uniform(1.02, 1.3, k - inside)]))
        vecs = rng.normal(size=(k, model.dim))
        vecs *= (frac * spec.r_out / model.g_norms(
            [chart] * k, np.tile(p.coords, (k, 1)), vecs))[:, None]
        coords = model.oracle.exp_from(model, p, vecs, chart)
        far = model.oracle.dist_from(model, p, chart, coords) >= spec.r_out
        assert np.count_nonzero(~far) == inside

        got = bundleflow.carrier_field_many(spec, chart, coords)
        want = _pre_change_carrier_field_many(spec, chart, coords)
        assert got[far].tobytes() == np.zeros_like(got[far]).tobytes(), \
            "+0.0 beyond r_out"
        if case == "one" and k > 1:
            # the reference's log_from and exp_from see a single row there,
            # which goes down another BLAS path than the K-row call
            assert_close(got, want, 1e-10, model.name)
        else:
            assert got.tobytes() == want.tobytes(), trial


def _chart_flow_reference(spec, charts, coords, time):
    """_flow_many as written before the flow ran in normal coordinates: RK4
    on carrier_field_many in chart coordinates, grouped by chart per stage,
    with select_chart on the points off their chart's interior after every
    step."""
    model = spec.model
    steps = max(16, int(math.ceil(bundleflow.FLOW_STEPS_PER_UNIT_TIME
                                  * abs(time))))
    h = time / steps

    def carrier(cid, y):
        return bundleflow.carrier_field_many(spec, cid, y)

    for _ in range(steps):
        for cid, idx in chart_groups(charts).items():
            coords[idx] = rk4_step(carrier, coords[idx], h, cid, cid, cid)
        for i in model.off_interior(chart_groups(charts), coords):
            moved = model.select_chart(Point(charts[i], coords[i]))
            charts[i], coords[i] = moved.chart_id, moved.coords
    return charts, coords


def _flow_batch(model, rng, k=24):
    """A carrier with d(p, q) = 0.3, the fiber distance of the trivialize
    checks, and k points around p, each stored in a random chart that holds
    it: two thirds inside r_out, the rest up to 1.2 r_out.  On hyperbolic2
    the inner ones stay within d = 4: from there out to r_out = 6.67 the
    reference's chart coordinates approach the disk's edge (|x| = 0.9975 at
    r_out from the center), and its RK4 error grows to 8e-9 against a flow
    in normal coordinates at 16 times the steps, from which _flow_many
    stays within 2.4e-10."""
    p = random_interior_point(model, rng)
    q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.3))
    spec = make_carrier(model, p, q)
    near = 4.0 if model.name == "hyperbolic2" else spec.r_out
    d = np.where(np.arange(k) % 3 < 2, rng.uniform(0.0, near, k),
                 rng.uniform(spec.r_out, 1.2 * spec.r_out, k))
    vecs = rng.normal(size=(k, model.dim))
    vecs *= (d / model.g_norms([p.chart_id] * k, np.tile(p.coords, (k, 1)),
                               vecs))[:, None]
    points = []
    for x in model.oracle.exp_from(model, p, vecs, p.chart_id):
        m = model.select_chart(Point(p.chart_id, x))
        try:
            m = model.transition(m, sorted(model.charts)[
                rng.integers(len(model.charts))])
        except NoOverlap:
            pass
        points.append(m if model.domain_status(m) != OUTSIDE
                      else model.select_chart(m))
    return spec, [m.chart_id for m in points], np.stack([m.coords
                                                         for m in points])


def test_flow_matches_chart_coordinate_reference(model):
    switched = 0
    for trial in range(6):
        rng = np.random.default_rng([41, trial])
        spec, charts, coords = _flow_batch(model, rng)
        for time in (1.0, -1.0, float(rng.uniform(-2.0, 2.0))):
            got_c, got_x = bundleflow._flow_many(spec, list(charts),
                                                 coords.copy(), time)
            ref_c, ref_x = _chart_flow_reference(spec, list(charts),
                                                 coords.copy(), time)
            worst = np.max(model.point_distances(Samples(got_c, got_x),
                                                 Samples(ref_c, ref_x)))
            assert worst < 1e-9, (trial, time, worst)
            switched += sum(c != c0 for c, c0 in zip(got_c, charts))
    # on sphere2 and torus2 some trajectories end outside their start
    # chart's interior and are moved to another chart
    assert (switched > 0) == (len(model.charts) > 1)


def test_flow_keeps_stationary_points_bit_exact(model):
    rng = np.random.default_rng(47)
    spec, charts, coords = _flow_batch(model, rng, k=40)
    d = np.array([model.dist_oracle(spec.p, Point(c, x))
                  for c, x in zip(charts, coords)])
    got_c, got_x = bundleflow._flow_many(spec, list(charts), coords.copy(),
                                         0.7)
    far = d >= spec.r_out
    assert far.any() and not far.all()
    assert [c for c, f in zip(got_c, far) if f] == \
        [c for c, f in zip(charts, far) if f]
    assert got_x[far].tobytes() == coords[far].tobytes()
    # q' = 0: y never moves, so every point keeps its chart and bits
    still = replace(spec, q_prime=Tangent(spec.p, np.zeros(model.dim)))
    got_c, got_x = bundleflow._flow_many(still, list(charts), coords.copy(),
                                         1.0)
    assert got_c == charts and got_x.tobytes() == coords.tobytes()


def test_flow_keeps_the_ball_of_radius_r_out(model):
    # the field vanishes from r_out on, so no trajectory leaves the ball;
    # points on the ray along q' run through the band of the bump
    rng = np.random.default_rng(59)
    p = random_interior_point(model, rng)
    q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.3))
    spec = make_carrier(model, p, q)
    unit = spec.q_prime.components / model.g_norm(spec.q_prime)
    s = np.linspace(spec.r_in, spec.r_out, 9)[:-1]
    vecs = np.concatenate([s[:, None] * unit, -s[:, None] * unit])
    coords = model.oracle.exp_from(model, p, vecs, p.chart_id)
    for time in (1.0, -1.0):
        charts, out = bundleflow._flow_many(spec, [p.chart_id] * len(coords),
                                            coords.copy(), time)
        d = model.point_distances(Samples([p.chart_id] * len(out),
                                          np.tile(p.coords, (len(out), 1))),
                                  Samples(charts, out))
        assert np.all(d < spec.r_out), time


def test_flow_raises_on_non_finite_state(model, monkeypatch):
    spec, charts, coords = _flow_batch(model, np.random.default_rng(53))
    monkeypatch.setattr(model.oracle, "exp_from",
                        lambda model, p, vecs, chart_id:
                        np.full(vecs.shape, np.inf))
    with pytest.raises(NonFiniteState):
        bundleflow._flow_many(spec, charts, coords, 1.0)


def test_carrier_rejects_distant_pair(sphere):
    p = Point("north", [0.0, 0.0])
    q = sphere.exp_oracle(p, Tangent(p, [0.5, 0.0]))   # distance 1 > r0/2
    with pytest.raises(OutOfInjectivityRange):
        make_carrier(sphere, p, q)


def test_carrier_rejects_a_nan_distance(model):
    cid = sorted(model.charts)[0]
    p = Point(cid, model.chart(cid).center)
    with pytest.raises(OutOfInjectivityRange, match="nan"):
        make_carrier(model, p, Point(cid, [math.nan, 0.0]))


def test_euclidean_carrier_constant_inside(euclidean):
    p, q = Point("xy", [0.1, 0.2]), Point("xy", [1.1, -0.6])
    spec = make_carrier(euclidean, p, q)
    m = Point("xy", [0.5, 0.5])
    assert_close(carrier_field(spec, m).components, [1.0, -0.8], 1e-9)
    assert_close(phi(spec, m).coords, [1.5, -0.3], 1e-9,
                 "translation inside the inner radius")


def test_phi_moves_p_to_q_disk(disk):
    p, q = Point("disk", [0.0, 0.0]), Point("disk", [0.3, 0.0])
    spec = make_carrier(disk, p, q)
    out = phi(spec, p)
    assert_close(out.coords, [0.3, 0.0], 1e-6)


def test_phi_moves_p_to_q_seeded(model):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        p = random_interior_point(model, rng)
        d = float(rng.uniform(0.05, min(0.45 * model.r0(p), 2.0)))
        q = model.exp_oracle(p, random_tangent(model, rng, p, norm=d))
        spec = make_carrier(model, p, q)
        worst = max(worst, model.dist_oracle(phi(spec, p), q))
    # the field is the constant q' on the ball of radius r_in around p in
    # normal coordinates, which RK4 integrates exactly
    assert worst < 1e-13


def test_flow_group_law_and_inverse(model):
    rng = np.random.default_rng(7)
    p = random_interior_point(model, rng)
    q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.25))
    spec = make_carrier(model, p, q)
    m = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.15))
    for s, t in ((0.4, 0.6), (-0.3, 0.8), (0.7, -0.7)):
        two = flow(spec, flow(spec, m, s), t)
        one = flow(spec, m, s + t)
        assert model.dist_oracle(two, one) < 1e-5, (s, t)


def test_flow_of_an_empty_batch(model):
    rng = np.random.default_rng(7)
    p = random_interior_point(model, rng)
    q = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.25))
    charts, coords = bundleflow._flow_many(make_carrier(model, p, q), [],
                                           np.zeros((0, model.dim)), 1.0)
    assert charts == [] and coords.shape == (0, model.dim)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_log_at_the_point_itself_is_zero(name):
    # p and the points log_from is given embed through one closed form on
    # sphere2, and hyperbolic2's (-p) (+) q has the factor q - p
    model = get_model(name)
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = random_interior_point(model, rng)
        assert np.all(model.log_oracle(p, p).components == 0.0), p


def test_trivialize_at_base_is_identity(model):
    rng = np.random.default_rng(11)
    grid = Grid.regular(0.0, 1.0, 60)
    curve = random_curve(model, rng, grid)
    chart = TrivializationChart(model, curve.basepoint)
    sigma = trivialize(chart, curve.basepoint, curve)
    # log_p(p) = 0 exactly, so the carrier field and the flow vanish
    assert sigma.points.charts == curve.points.charts
    assert sigma.points.coords.tobytes() == curve.points.coords.tobytes()


def test_trivialize_euclidean_is_translation(euclidean):
    grid = Grid.regular(0.0, 1.0, 50)
    pts = tuple(Point("xy", [math.sin(t), t]) for t in grid.nodes)
    curve = SampledCurve(grid, pts)
    m = Point("xy", [0.4, -0.3])
    chart = TrivializationChart(euclidean, curve.basepoint)
    sigma = trivialize(chart, m, curve)
    shift = m.coords - curve.basepoint.coords
    for a, b in zip(curve.points, sigma.points):
        assert_close(b.coords, a.coords + shift, 1e-9)


def test_trivialize_roundtrip_sphere(sphere):
    rng = np.random.default_rng(13)
    grid = Grid.regular(0.0, 1.0, 400)
    curve = random_curve(sphere, rng, grid)
    fiber = sphere.exp_oracle(curve.basepoint,
                              random_tangent(sphere, rng, curve.basepoint,
                                             norm=0.3))
    chart = TrivializationChart(sphere, curve.basepoint)
    sigma = trivialize(chart, fiber, curve)
    assert sphere.dist_oracle(sigma.points[sigma.base_index], fiber) < 1e-6
    fiber_back, back = untrivialize(chart, sigma)
    assert sphere.dist_oracle(fiber_back, fiber) < 1e-6
    worst = max(sphere.point_distance(a, b)
                for a, b in zip(curve.points, back.points))
    assert worst < 1e-5


def test_mapping_chart_inverse_pair(model):
    rng = np.random.default_rng(17)
    grid = Grid.regular(0.0, 1.0, 120)
    ref = random_curve(model, rng, grid)
    section = [Tangent(pt, 0.05 * np.array([math.sin(3 * t), math.cos(t)]))
               for pt, t in zip(ref.points, grid.nodes)]
    nearby = mapping_chart_out(model, ref, section)
    back = mapping_chart_in(model, ref, nearby)
    worst = max(float(np.max(np.abs(a.components - b.components)))
                for a, b in zip(section, back))
    assert worst < 1e-8
    zero = mapping_chart_in(model, ref, ref)
    assert max(float(np.max(np.abs(t.components))) for t in zero) < 1e-9
    same = mapping_chart_out(model, ref, zero)
    assert max(model.point_distance(a, b)
               for a, b in zip(ref.points, same.points)) < 1e-8


def test_mapping_chart_euclidean_is_difference(euclidean):
    grid = Grid.regular(0.0, 1.0, 30)
    ref = SampledCurve(grid, tuple(Point("xy", [t, 0.0]) for t in grid.nodes))
    f = SampledCurve(grid, tuple(Point("xy", [t, 0.1 + 0.2 * t])
                                 for t in grid.nodes))
    section = mapping_chart_in(euclidean, ref, f)
    for t, vec in zip(grid.nodes, section):
        assert_close(vec.components, [0.0, 0.1 + 0.2 * t], 1e-14)


def test_mapping_chart_cross_reference(sphere):
    rng = np.random.default_rng(19)
    grid = Grid.regular(0.0, 1.0, 200)
    ref1 = random_curve(sphere, rng, grid)
    section = [Tangent(pt, 0.04 * np.array([math.sin(2 * t), 0.5]))
               for pt, t in zip(ref1.points, grid.nodes)]
    f = mapping_chart_out(sphere, ref1, section)
    ref2 = mapping_chart_out(sphere, ref1,
                             [Tangent(pt, np.array([0.02, -0.01]))
                              for pt in ref1.points])
    crossed = mapping_chart_in(sphere, ref2, f)
    f_back = mapping_chart_out(sphere, ref2, crossed)
    worst = max(sphere.point_distance(a, b)
                for a, b in zip(f.points, f_back.points))
    assert worst < 1e-7


def test_mapping_chart_out_of_range_reports_node(sphere):
    grid = Grid.regular(0.0, 1.0, 30)
    pole = Point("north", [0.0, 0.0])
    ref = SampledCurve(grid, tuple(pole for _ in grid.nodes))
    far = sphere.exp_oracle(pole, Tangent(pole, [0.9, 0.0]))  # dist 1.8 > r0
    f = SampledCurve(grid, tuple(pole for _ in grid.nodes[:-1]) + (far,))
    with pytest.raises(OutOfInjectivityRange) as err:
        mapping_chart_in(sphere, ref, f)
    assert err.value.node == 30


def test_mapping_chart_in_reports_a_nan_node(sphere):
    grid = Grid.regular(0.0, 1.0, 30)
    pole = Point("north", [0.0, 0.0])
    ref = SampledCurve(grid, tuple(pole for _ in grid.nodes))
    f = SampledCurve(grid, tuple(Point("north", [math.nan, 0.0]) if j == 12
                                 else pole for j in range(31)))
    with pytest.raises(OutOfInjectivityRange, match="d = nan") as err:
        mapping_chart_in(sphere, ref, f)
    assert err.value.node == 12


def test_arclength_normalize_euclidean_line(euclidean):
    grid = Grid.regular(0.0, 1.0, 100)
    pts = tuple(Point("xy", [0.1 + 2.0 * t, 0.3]) for t in grid.nodes)
    out = arclength_normalize(euclidean, SampledCurve(grid, pts, order=2))
    assert_close(out.points[0].coords, [0.1, 0.3], 1e-12, "output(0)=gamma(0)")
    assert abs(out.grid.nodes[-1] - 2.0) < 1e-10
    speeds = [euclidean.g_norm(v) for v in curve_velocities(euclidean, out)]
    assert max(abs(s - 1.0) for s in speeds) < 1e-10


def test_arclength_already_unit_speed_fixed_point(sphere):
    grid = Grid.regular(0.0, 1.0, 400)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    pts = tuple(sphere.exp_oracle(pole, Tangent(pole, f0.columns[:, 0] * t))
                for t in grid.nodes)
    curve = SampledCurve(grid, pts, order=2)
    out = arclength_normalize(sphere, curve)
    worst = max(sphere.dist_oracle(a, b)
                for a, b in zip(curve.points, out.points))
    assert worst < 1e-6


def test_arclength_normalized_great_circle_linearizes_constant(sphere):
    grid = Grid.regular(0.0, 1.0, 400)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    pts = tuple(sphere.exp_oracle(pole,
                                  Tangent(pole, f0.columns[:, 0] * 3.0 * t))
                for t in grid.nodes)
    out = arclength_normalize(sphere, SampledCurve(grid, pts, order=2))
    rep = p_forward(sphere, out)
    comps = rep.tangent_curve.components
    gram = sphere.frame_gram(rep.tangent_curve.frame0)
    norms = np.sqrt(np.einsum("ji,ik,jk->j", comps, gram, comps))
    assert np.max(np.abs(norms - 1.0)) < 1e-5
    assert np.max(np.abs(comps - comps[0])) < 1e-5


def test_arclength_idempotent(model):
    rng = np.random.default_rng(23)
    curve = random_curve(model, rng, Grid.regular(0.0, 1.0, 400))
    once = arclength_normalize(model, curve)
    twice = arclength_normalize(model, once)
    worst = max(model.point_distance(a, b)
                for a, b in zip(once.points, twice.points))
    assert worst < 1e-5


def test_arclength_rejects_non_immersed(euclidean):
    grid = Grid.regular(-1.0, 1.0, 100)
    pts = tuple(Point("xy", [t * t * t / 3.0, 0.0]) for t in grid.nodes)
    with pytest.raises(NotImmersed) as err:
        arclength_normalize(euclidean,
                            SampledCurve(grid, pts, order=2, base_index=50))
    assert err.value.node is not None


# ---------------------------------------------------------------------------
# The array normalization against the per-node reference
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _integral_row(positions: tuple) -> np.ndarray:
    # memoized only to keep the reference fast; the cached rows equal fresh
    # calls bit for bit (test_integral_rows_are_fresh_calls)
    return lagrange_integral_weights(np.array(positions), 0.0, 1.0)


def _reference_normalize(model, gamma):
    """Arc-length normalization node by node: a scalar bracketed Newton and
    a per-target resample, the arithmetic the array version keeps."""
    grid = gamma.grid
    n = grid.nodes.size
    pts = gamma.points
    speeds = bundleflow.curve_speeds(model, gamma)
    h = grid.h
    s = np.zeros(n)
    for k in range(n - 1):
        w = int(np.clip(k - 1, 0, n - 4))
        weights = _integral_row(tuple(np.arange(4) + (w - k)))
        s[k + 1] = s[k] + h * float(weights @ speeds[w:w + 4])
    s -= s[gamma.base_index]

    def s_of(k, u):
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        return (h00 * s[k] + h10 * h * speeds[k]
                + h01 * s[k + 1] + h11 * h * speeds[k + 1])

    def invert(target):
        k = int(np.clip(np.searchsorted(s, target, side="right") - 1, 0,
                        n - 2))
        lo, hi = 0.0, 1.0
        u = 0.5
        for _ in range(60):
            val = s_of(k, u)
            if val < target:
                lo = u
            else:
                hi = u
            du = s_of(k, min(u + 1e-7, 1.0)) - s_of(k, max(u - 1e-7, 0.0))
            slope = du / 2e-7 if du > 0 else 0.0
            if slope > 0:
                u_new = u + (target - val) / slope
                if not lo < u_new < hi:
                    u_new = 0.5 * (lo + hi)
            else:
                u_new = 0.5 * (lo + hi)
            if abs(u_new - u) < 1e-15:
                u = u_new
                break
            u = u_new
        return grid.nodes[k] + u * h

    def sample(t):
        j = int(np.clip(np.searchsorted(grid.nodes, t, side="right") - 1, 0,
                        n - 2))
        w = int(np.clip(j - 1, 0, n - 4))
        chart = pts.charts[j]
        window = np.stack([_coords_in(model, pts.charts, pts.coords, w + i,
                                      chart) for i in range(4)])
        positions = (grid.nodes[w:w + 4] - grid.nodes[j]) / h
        wts = lagrange_weights(positions, (t - grid.nodes[j]) / h)
        return chart, wts @ window

    new_grid = Grid.regular(float(s[0]), float(s[-1]), n - 1)
    charts, coords = zip(*(sample(invert(u)) for u in new_grid.nodes))
    return SampledCurve(grid=new_grid, points=Samples(charts, coords),
                        order=gamma.order,
                        base_index=int(np.argmin(np.abs(new_grid.nodes))))


def _assert_matches_reference(model, gamma):
    ref = _reference_normalize(model, gamma)
    out = arclength_normalize(model, gamma)
    assert out.points.charts == ref.points.charts
    assert np.array_equal(out.grid.nodes, ref.grid.nodes)
    assert out.base_index == ref.base_index and out.order == ref.order
    # Python's (1 - u) ** 2 is C pow, the array form squares: they may
    # differ in the last bit
    assert np.max(np.abs(out.points.coords - ref.points.coords)) <= 1e-15
    return out


def test_integral_rows_are_fresh_calls():
    rows = bundleflow._interval_integral_rows()
    assert rows.shape == (3, 4) and not rows.flags.writeable
    for r in range(3):
        fresh = lagrange_integral_weights(np.arange(4) - r, 0.0, 1.0)
        assert np.array_equal(rows[r], fresh), r


def test_batched_lagrange_weights_are_single_calls():
    rng = np.random.default_rng(29)
    positions = np.sort(rng.uniform(-2.0, 2.0, size=(7, 4)), axis=1)
    x = rng.uniform(-1.0, 1.0, size=7)
    batched = lagrange_weights(positions, x)
    for i in range(7):
        assert np.array_equal(batched[i], lagrange_weights(positions[i], x[i]))


@pytest.mark.parametrize("name", MODEL_NAMES)
@given(n=st.integers(4, 32), two_sided=st.booleans(),
       seed=st.integers(0, 2**16), c0=st.floats(0.3, 2.5),
       c1=st.floats(-0.25, 0.25), d0=st.floats(-1.0, 1.0),
       d1=st.floats(-0.5, 0.5), freq=st.floats(0.0, 4.0))
def test_normalize_matches_reference(name, n, two_sided, seed, c0, c1, d0,
                                     d1, freq):
    # transported components of speed >= c0 - |c1| >= 0.05: immersed; the
    # longer ones reach a chart margin and are stored in several charts
    model = get_model(name)
    grid = (Grid.regular(-1.0, 1.0, 2 * n) if two_sided
            else Grid.regular(0.0, 1.0, n))
    t = grid.nodes
    comps = np.stack([c0 + c1 * np.sin(freq * t),
                      d0 + d1 * np.cos(freq * t)], axis=1)
    p = random_interior_point(model, np.random.default_rng(seed))
    gamma = p_inverse(model, TangentCurve(p, model.orthonormal_frame(p),
                                          grid, comps))
    try:
        _reference_normalize(model, gamma)
    except PathlinError as exc:
        # a window too coarse to re-express: the same failure, same node
        with pytest.raises(type(exc)) as out:
            arclength_normalize(model, gamma)
        assert str(out.value) == str(exc)
        return
    _assert_matches_reference(model, gamma)


def _meridian(sphere, grid):
    # a meridian from polar angle 1.2 to 2.0 across the equator, stored in
    # the north chart above it and in the south chart below it
    theta = 1.2 + 0.8 * (grid.nodes - grid.nodes[0])
    pts = tuple(sphere_point_from_embedding(
        np.array([math.sin(a), 0.0, math.cos(a)]),
        prefer="north" if a < 0.5 * math.pi else "south") for a in theta)
    return SampledCurve(grid, pts, order=2)


def test_normalize_two_chart_curve_matches_reference(sphere):
    gamma = _meridian(sphere, Grid.regular(0.0, 1.0, 60))
    assert set(gamma.points.charts) == {"north", "south"}
    out = _assert_matches_reference(sphere, gamma)
    assert set(out.points.charts) == {"north", "south"}


def test_normalize_five_nodes_matches_reference(model):
    # 4 intervals: the integral windows start 0, 1 and 2 nodes to the left
    gamma = random_curve(model, np.random.default_rng(31),
                         Grid.regular(0.0, 1.0, 4))
    _assert_matches_reference(model, gamma)


def test_normalize_two_sided_matches_reference(model):
    gamma = random_curve(model, np.random.default_rng(37),
                         Grid.regular(-1.0, 1.0, 80))
    assert gamma.base_index == 40
    out = _assert_matches_reference(model, gamma)
    assert out.grid.nodes[0] < 0.0 < out.grid.nodes[-1]


def test_normalize_continuation_failure_names_reference_node(sphere,
                                                             monkeypatch):
    # re-expressing a window entry fails only after the speeds are taken,
    # so the failure comes from the resample
    gamma = _meridian(sphere, Grid.regular(0.0, 1.0, 60))
    speeds = bundleflow.curve_speeds(sphere, gamma)
    monkeypatch.setattr(bundleflow, "curve_speeds", lambda model, c: speeds)

    def no_transition(point, target):
        raise NoOverlap("no transition in this test")

    monkeypatch.setattr(sphere, "transition", no_transition)
    with pytest.raises(ChartContinuationFailure) as ref:
        _reference_normalize(sphere, gamma)
    with pytest.raises(ChartContinuationFailure) as out:
        arclength_normalize(sphere, gamma)
    assert ref.value.node is not None
    assert out.value.node == ref.value.node
    assert str(out.value) == str(ref.value)
