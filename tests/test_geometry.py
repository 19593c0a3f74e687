"""Chart atlas, transitions, metrics, and closed-form oracles."""

import math

import numpy as np
import pytest

from pathlin import Frame, NoOverlap, Point, Tangent, ValidationError
from pathlin.geometry import metric_compatibility_residual
from pathlin.models import manifest
from pathlin.suite import random_interior_point, random_tangent

from conftest import assert_close


# independent embedding of the stereographic charts, used as the test oracle
def embed(point: Point) -> np.ndarray:
    x, y = point.coords
    d = 1.0 + x * x + y * y
    z = (1.0 - x * x - y * y) / d
    if point.chart_id == "south":
        z = -z
    return np.array([2.0 * x / d, 2.0 * y / d, z])


def test_sphere_pole_has_no_south_image(sphere):
    with pytest.raises(NoOverlap):
        sphere.transition(Point("north", [0.0, 0.0]), "south")


def test_sphere_transition_is_inversion(sphere):
    # oracle: x -> x / |x|^2, checked through the embedded coordinates
    p = Point("north", [1.0, 0.0])
    q = sphere.transition(p, "south")
    assert q.chart_id == "south"
    assert_close(q.coords, [1.0, 0.0], 1e-15, "equator point")
    p2 = Point("north", [0.8, -0.5])
    q2 = sphere.transition(p2, "south")
    assert_close(q2.coords, p2.coords / (p2.coords @ p2.coords), 1e-14)
    assert_close(embed(q2), embed(p2), 1e-14, "same embedded point")


def test_torus_transition_is_translation(torus):
    p = Point("a", [2.0 * math.pi - 0.1, 0.0])
    q = torus.transition(p, "b")
    assert q.chart_id == "b"
    assert_close(q.coords, [-0.1, 0.0], 1e-12)


def test_transition_roundtrip_seeded(model):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        p = random_interior_point(model, rng)
        for other in sorted(model.charts):
            if other == p.chart_id:
                continue
            try:
                q = model.transition(p, other)
            except NoOverlap:
                continue
            back = model.transition(q, p.chart_id)
            worst = max(worst, float(np.max(np.abs(back.coords - p.coords))))
    assert worst < 1e-12


def test_push_tangent_identity_and_norm(model):
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = random_interior_point(model, rng)
        t = random_tangent(model, rng, p)
        same = model.push_tangent(t, p.chart_id)
        assert same is t
        for other in sorted(model.charts):
            if other == p.chart_id:
                continue
            try:
                moved = model.push_tangent(t, other)
            except NoOverlap:
                continue
            assert abs(model.g_norm(moved) - model.g_norm(t)) < 1e-10


def test_torus_push_keeps_components(torus):
    t = Tangent(Point("a", [2.0 * math.pi - 0.1, 0.3]), [0.4, -0.2])
    moved = torus.push_tangent(t, "b")
    assert_close(moved.components, t.components, 0.0, "translation jacobian")


def test_metric_compatibility_seeded(model):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        p = random_interior_point(model, rng)
        worst = max(worst, metric_compatibility_residual(
            model, p.chart_id, p.coords))
    assert worst < 1e-6


def test_connection_hooks_match_christoffel(model):
    # every connection hook, closed form or default, is Gamma^l_{kj} r^k
    rng = np.random.default_rng(41)
    for cid in sorted(model.charts):
        lo, hi = model.chart(cid).sample_box
        x = rng.uniform(lo, hi, size=(8, model.dim))
        r = rng.normal(size=(8, model.dim))
        expected = np.stack([np.einsum("lkj,k->lj", model.christoffel(cid, xi),
                                       ri) for xi, ri in zip(x, r)])
        tol = 1e-15 * (1.0 + np.abs(expected).max())
        hooks = {
            "christoffel_batch": np.einsum(
                "slkj,sk->slj", model.christoffel_batch(cid, x), r),
            "christoffel_action": np.stack([
                model.christoffel_action(cid, xi, ri)
                for xi, ri in zip(x, r)]),
            "christoffel_action_batch":
                model.christoffel_action_batch(cid, x, r),
            "christoffel_action_floats": np.array([
                model.christoffel_action_floats(cid, xi.tolist(), ri.tolist())
                for xi, ri in zip(x, r)]),
        }
        for name, got in hooks.items():
            assert_close(got, expected, tol, f"{model.name} {cid} {name}")


def test_euclidean_oracle_is_translation(euclidean):
    p = Point("xy", [0.3, -0.2])
    v = Tangent(p, [1.5, 0.25])
    q = euclidean.exp_oracle(p, v)
    assert_close(q.coords, [1.8, 0.05], 1e-15)
    assert_close(euclidean.log_oracle(p, q).components, v.components, 1e-15)


def test_sphere_exp_quarter_circle(sphere):
    # oracle: great-circle formula cos|v| p + sin|v| v/|v| in the embedding
    pole = Point("north", [0.0, 0.0])
    # chart components (pi/4, 0) have g-norm pi/2 at the pole (factor 2)
    v = Tangent(pole, [math.pi / 4.0, 0.0])
    assert abs(sphere.g_norm(v) - math.pi / 2.0) < 1e-14
    q = sphere.exp_oracle(pole, v)
    assert_close(embed(q), [1.0, 0.0, 0.0], 1e-14, "quarter circle endpoint")


def test_disk_exp_through_origin(disk):
    # oracle: geodesic through the origin reaches tanh(s/2) at g-distance s
    origin = Point("disk", [0.0, 0.0])
    for s in (0.2, 1.0, 2.5):
        v = Tangent(origin, [s / 2.0, 0.0])     # g-norm s (factor 2 at 0)
        assert abs(disk.g_norm(v) - s) < 1e-14
        q = disk.exp_oracle(origin, v)
        assert_close(q.coords, [math.tanh(s / 2.0), 0.0], 1e-14)


def test_oracle_exp_log_inverse_inside_r0(model):
    rng = np.random.default_rng(37)
    for _ in range(100):
        p = random_interior_point(model, rng)
        norm = float(rng.uniform(1e-3, 0.9)) * min(model.r0(p), 2.0)
        v = random_tangent(model, rng, p, norm=norm)
        q = model.exp_oracle(p, v)
        assert abs(model.dist_oracle(p, q) - norm) < 1e-10
        back = model.exp_oracle(p, model.log_oracle(p, q))
        assert model.dist_oracle(back, q) < 1e-10


def test_frame_rejects_dependent_columns(euclidean):
    p = Point("xy", [0.0, 0.0])
    with pytest.raises(ValidationError):
        Frame(p, np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_orthonormal_frame_gram_identity(model):
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_interior_point(model, rng)
        f = model.orthonormal_frame(p)
        assert_close(model.frame_gram(f), np.eye(2), 1e-12)


def test_manifest_structure(model):
    m = manifest(model)
    assert m["name"] == model.name
    assert m["dim"] == 2
    assert {c["id"] for c in m["charts"]} == set(model.charts)


def test_r0_is_conservative(model):
    # sphere/torus injectivity radius is pi; flat/hyperbolic is infinite
    rng = np.random.default_rng(51)
    p = random_interior_point(model, rng)
    expected = {"euclidean2": 10.0, "hyperbolic2": 10.0,
                "sphere2": math.pi / 2.0, "torus2": math.pi / 2.0}
    assert abs(model.r0(p) - expected[model.name]) < 1e-12


def test_g_norms_equal_g_norm_per_node(model):
    # the array form keeps g_norm's arithmetic, so the bits agree
    rng = np.random.default_rng(11)
    points = [random_interior_point(model, rng) for _ in range(20)]
    vectors = rng.normal(size=(20, model.dim)) \
        * rng.uniform(1e-3, 1e3, 20)[:, None]
    norms = model.g_norms([p.chart_id for p in points],
                          np.stack([p.coords for p in points]), vectors)
    expected = [model.g_norm(Tangent(p, r)) for p, r in zip(points, vectors)]
    assert norms.tolist() == expected
