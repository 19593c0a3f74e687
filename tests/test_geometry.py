"""Chart atlas, transitions, metrics, and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pathlin import (Frame, NoOverlap, OutOfInjectivityRange, Point, Tangent,
                     ValidationError, get_model)
from pathlin.geometry import (INSIDE, MARGIN, OUTSIDE, ChartSpec,
                              ManifoldModel, Samples, chart_groups,
                              metric_compatibility_residual,
                              require_independent_columns)
from pathlin.linearize import TangentCurve, p_forward, p_inverse
from pathlin.models import (manifest, sphere_embed,
                            sphere_point_from_embedding,
                            sphere_pull_from_embedding,
                            sphere_push_to_embedding, torus_point_from_angles)
from pathlin.numerics import Grid
from pathlin.suite import geometry_checks, random_interior_point, random_tangent
from pathlin.transport import FrameField

from conftest import MODEL_NAMES, assert_close
from test_linearize import _Conformal3


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


class _PlaneModel(ManifoldModel):
    """g and Gamma constant on one chart of the plane, written as the two
    hooks alone; the subclasses below break one Levi-Civita property each."""

    g = np.eye(2)
    gamma = np.zeros((2, 2, 2))

    def __init__(self, r0=1.0):
        chart = ChartSpec("xy", lambda c: np.full(len(c), INSIDE),
                          np.zeros(2), (-np.ones(2), np.ones(2)))
        super().__init__("plane", 2, [chart], {}, r0=r0)

    def metric_many(self, chart_id, coords):
        return np.broadcast_to(self.g, (len(coords), 2, 2))

    def christoffel_action_batch(self, chart_id, coords, r):
        return np.einsum("lkj,sk->slj", self.gamma, r)


class _Torsion(_PlaneModel):
    # Gamma^l_{kj} = c_k eps_{lj} keeps g = I parallel, with torsion 0.3
    gamma = np.einsum("k,lj->lkj", [0.3, -0.2], [[0.0, 1.0], [-1.0, 0.0]])


class _AsymmetricMetric(_PlaneModel):
    g = np.array([[1.0, 0.1], [0.0, 1.0]])


class _IndefiniteMetric(_PlaneModel):
    g = np.diag([1.0, -1.0])


class _NanConnection(_PlaneModel):
    gamma = np.full((2, 2, 2), np.nan)


class _Conformal2(_PlaneModel):
    """g = exp(2 a.x) I, whose Levi-Civita connection is constant."""

    a = np.array([0.3, -0.2])
    gamma = (np.einsum("lk,j->lkj", np.eye(2), a)
             + np.einsum("lj,k->lkj", np.eye(2), a)
             - np.einsum("kj,l->lkj", np.eye(2), a))

    def metric_many(self, chart_id, coords):
        return np.exp(2.0 * coords @ self.a)[:, None, None] * np.eye(2)


class _FlippedConformal2(_Conformal2):
    gamma = -_Conformal2.gamma


@pytest.mark.parametrize("mutant, defect", [
    (_Torsion, "torsion 3.000e-01"),
    (_AsymmetricMetric, "metric asymmetry 1.000e-01"),
    (_IndefiniteMetric, "not positive definite"),
    (_NanConnection, "compatibility residual nan"),
    (_FlippedConformal2, "compatibility residual"),
], ids=["torsion", "asymmetric", "indefinite", "nan", "flipped-conformal"])
def test_construction_rejects_a_connection_that_is_not_levi_civita(
        mutant, defect):
    with pytest.raises(ValidationError, match=defect):
        mutant()


@pytest.mark.parametrize("r0", [lambda p: 1.0, 0.0, -1.0, math.inf, math.nan,
                                True, "1.0", None],
                         ids=["callable", "zero", "negative", "inf", "nan",
                              "bool", "str", "none"])
def test_construction_rejects_an_r0_that_is_not_a_positive_number(r0):
    with pytest.raises(ValidationError, match="r0 must be a positive finite"):
        _PlaneModel(r0)


def test_r0_is_one_number_per_model():
    model = _PlaneModel(2)
    assert model.r0() == model.r0(Point("xy", [0.5, 0.5])) == 2.0
    assert type(model.r0()) is float


def test_models_of_the_two_hooks_construct_and_linearize():
    # the built-ins constructed at import; these write only the two hooks
    _PlaneModel(), _Conformal3()
    model = _Conformal2()
    grid = Grid.regular(-1.0, 1.0, 100)
    p = Point("xy", [0.1, -0.2])
    comps = 0.3 * np.stack([np.cos(grid.nodes), np.sin(2.0 * grid.nodes)],
                           axis=1)
    v = TangentCurve(p, model.orthonormal_frame(p), grid, comps)
    curve = p_inverse(model, v)
    back = p_forward(model, curve, v.frame0).tangent_curve.components
    assert np.max(np.abs(curve.points.coords[-1] - p.coords)) > 0.1
    assert_close(back, comps, 1e-6)


def test_a_nan_connection_fails_the_compatibility_check(euclidean,
                                                        monkeypatch):
    # max(0.0, nan) is 0.0, so a running max() would pass it
    monkeypatch.setattr(euclidean, "christoffel_action_batch",
                        lambda cid, x, r: np.full((len(x), 2, 2), np.nan))
    assert np.isnan(metric_compatibility_residual(euclidean, "xy",
                                                  np.zeros(2)))
    check = geometry_checks(euclidean, 0)[0]
    assert check.name == "geometry.metric_compatibility"
    assert np.isnan(check.value) and not check.passed


# The closed forms of Gamma and g each built-in wrote out before both
# became derived from the two hooks, kept as references for the derived
# forms.
_KAPPA = {"sphere2": 1.0, "hyperbolic2": -1.0}


def _reference_christoffel(name, coords):
    if name not in _KAPPA:
        return np.zeros((2, 2, 2))
    # Gamma^l_{kj} = d_lk phi_j + d_lj phi_k - d_kj phi_l
    kappa = _KAPPA[name]
    r2 = np.sum(coords * coords, axis=-1, keepdims=True)
    phi = -2.0 * kappa * coords / (1.0 + kappa * r2)
    eye = np.eye(2)
    return (np.einsum("lk,j->lkj", eye, phi) + np.einsum("lj,k->lkj", eye, phi)
            - np.einsum("kj,l->lkj", eye, phi))


def _reference_metric(name, coords):
    if name not in _KAPPA:
        return np.eye(2)
    lam = 2.0 / (1.0 + _KAPPA[name] * np.sum(coords * coords, axis=-1))
    return (lam * lam) * np.eye(2)


def test_connection_hooks_match_christoffel(model):
    # the derived christoffel and metric are the closed forms bit for bit,
    # and every connection hook is the closed form's Gamma^l_{kj} r^k
    rng = np.random.default_rng(41)
    for cid in sorted(model.charts):
        lo, hi = model.chart(cid).sample_box
        x = rng.uniform(lo, hi, size=(200, model.dim))
        r = rng.normal(size=(200, model.dim))
        gamma = np.stack([_reference_christoffel(model.name, xi) for xi in x])
        for xi, gi in zip(x, gamma):
            assert model.christoffel(cid, xi).tobytes() == gi.tobytes()
            assert model.metric(cid, xi).tobytes() == \
                _reference_metric(model.name, xi).tobytes()
        expected = np.einsum("slkj,sk->slj", gamma, r)
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_columns_are_rejected(bad):
    # an infinite column norm once passed both tests: inf > 0, and
    # |det| < 1e-10 * inf is False
    one = np.eye(2)
    one[0, 0] = bad
    stack = np.tile(np.eye(2), (5, 1, 1))
    stack[3, 1, 0] = bad
    dependent = "linearly dependent"
    for cols in (one, stack):
        with pytest.raises(ValidationError, match=dependent):
            require_independent_columns(cols)
    with pytest.raises(ValidationError, match=dependent):
        Frame(Point("xy", [0.0, 0.0]), one)
    with pytest.raises(ValidationError, match=dependent):
        FrameField(Grid.regular(0.0, 1.0, 4),
                   Samples(["xy"] * 5, np.zeros((5, 2))), stack)


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


@pytest.mark.parametrize("name", MODEL_NAMES + ("conformal3",))
@given(data=st.data())
def test_array_g_norms_match_g_norm_bit_for_bit(name, data):
    # every chart of the built-ins, and a model outside them, whose g_norm
    # reads the metric derived from its metric_many; the directions take
    # signed zeros too, and the vectors span the scales 1e-8 to 1e3
    model = _Conformal3() if name == "conformal3" else get_model(name)
    m = model.dim
    rows = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(model.charts)),
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
        st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m),
        st.floats(-8.0, 3.0)), min_size=1, max_size=20))
    charts = [chart for chart, _, _, _ in rows]
    boxes = [model.chart(chart).sample_box for chart in charts]
    coords = np.array([lo + np.array(u) * (hi - lo)
                       for (lo, hi), (_, u, _, _) in zip(boxes, rows)])
    vectors = np.array([np.array(d) * 10.0 ** e for _, _, d, e in rows])
    norms = model.g_norms(charts, coords, vectors)
    expected = np.array([model.g_norm(Tangent(Point(c, x), r))
                         for c, x, r in zip(charts, coords, vectors)])
    assert norms.tobytes() == expected.tobytes()


# The scalar dist and log each oracle wrote out before both became the K = 1
# case of the array kernels, kept as references for the derived forms.

def _mobius_add(a, b):
    ab = float(a @ b)
    a2 = float(a @ a)
    b2 = float(b @ b)
    denom = 1.0 + 2.0 * ab + a2 * b2
    return ((1.0 + 2.0 * ab + b2) * a + (1.0 - a2) * b) / denom


def _sphere_angle(P, Q):
    chord = np.linalg.norm(Q - P, axis=-1)
    return float(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0)))


def _torus_shortest(diff):
    return (diff + math.pi) % (2.0 * math.pi) - math.pi


def _reference_dist(model, p, q):
    if model.name == "euclidean2":
        return float(np.linalg.norm(q.coords - p.coords))
    if model.name == "sphere2":
        return _sphere_angle(sphere_embed(p), sphere_embed(q))
    if model.name == "hyperbolic2":
        n = float(np.linalg.norm(_mobius_add(-p.coords, q.coords)))
        return 2.0 * math.atanh(min(n, 1.0 - 1e-16))
    return float(np.linalg.norm(_torus_shortest(q.coords - p.coords)))


def _reference_log(model, p, q):
    if model.name == "euclidean2":
        return q.coords - p.coords
    if model.name == "sphere2":
        P, Q = sphere_embed(p), sphere_embed(q)
        u = Q - (P @ Q) * P
        n = float(np.linalg.norm(u))
        if n < 1e-300:
            return np.zeros(2)
        w = _sphere_angle(P, Q) * u / n
        return sphere_pull_from_embedding(p, w).components
    if model.name == "hyperbolic2":
        w = _mobius_add(-p.coords, q.coords)
        n = float(np.linalg.norm(w))
        if n < 1e-300:
            return np.zeros(2)
        d = 2.0 * math.atanh(min(n, 1.0 - 1e-16))
        return (d / (2.0 / (1.0 - float(p.coords @ p.coords)))) * w / n
    return _torus_shortest(q.coords - p.coords)


@st.composite
def _oracle_vector(draw, model):
    """A point of a chart's sample box and a vector there of g-norm below
    0.95 min(r0, 2)."""
    chart = draw(st.sampled_from(sorted(model.charts)))
    lo, hi = model.charts[chart].sample_box
    p = Point(chart, [draw(st.floats(float(a), float(b)))
                      for a, b in zip(lo, hi)])
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    direction = Tangent(p, [math.cos(angle), math.sin(angle)])
    norm = draw(st.floats(0.0, 0.95)) * min(model.r0(p), 2.0)
    return p, Tangent(p, direction.components * norm / model.g_norm(direction))


@st.composite
def _oracle_pair(draw, model):
    """A drawn _oracle_vector's p and the oracle exp there, re-expressed in
    a drawn chart when it has an image there."""
    p, v = draw(_oracle_vector(model))
    q = model.exp_oracle(p, v)
    try:
        q = model.transition(q, draw(st.sampled_from(sorted(model.charts))))
    except NoOverlap:
        pass
    return p, q


@pytest.mark.parametrize("name", MODEL_NAMES)
@given(data=st.data())
def test_derived_dist_and_log_match_reference_forms(name, data):
    # largest gaps over 20,000 drawn pairs per model: dist 2.2e-16
    # (euclidean2, torus2), 8.9e-16 (sphere2) and 1.02e-14 (hyperbolic2);
    # log components 0, 0, 2.2e-15 and 1.9e-15.  The disk's gaps above 5e-15
    # (1 pair in 10,000) all have both points near the boundary, |q| ~ 0.95,
    # where the Mobius form magnifies one rounding by its conformal factor
    model = get_model(name)
    p, q = data.draw(_oracle_pair(model))
    assert abs(model.dist_oracle(p, q) - _reference_dist(model, p, q)) <= 2e-14
    assert_close(model.log_oracle(p, q).components,
                 _reference_log(model, p, q), 1e-14, name)


@pytest.mark.parametrize("name,p,q", [
    ("euclidean2", Point("xy", [0.5, 0.0]), Point("xy", [10.5, 0.0])),
    ("sphere2", Point("north", [0.0, 0.0]), Point("north", [1.1, 0.0])),
    ("hyperbolic2", Point("disk", [0.0, 0.0]), Point("disk", [0.99995, 0.0])),
    ("torus2", Point("a", [3.0, 3.0]), Point("b", [3.0 + math.pi / 2.0, 3.0])),
])
def test_log_raises_beyond_r0(name, p, q):
    model = get_model(name)
    d = model.dist_oracle(p, q)
    assert d >= model.r0(p)
    with pytest.raises(OutOfInjectivityRange) as exc:
        model.log_oracle(p, q)
    assert str(exc.value) == \
        f"d(p, q) = {d:.6f} exceeds r0 = {model.r0(p):.6f}"


def _kernel_points(model, rng, k):
    """A point p near a chart center and k points of p's chart at g-distance
    up to 1.2 from p, from exp_from."""
    chart = sorted(model.charts)[rng.integers(len(model.charts))]
    p = Point(chart, model.charts[chart].center
              + rng.uniform(-0.3, 0.3, model.dim))
    vecs = rng.normal(size=(k, model.dim))
    vecs *= (rng.uniform(0.0, 1.2, k)
             / model.g_norms([chart] * k, np.tile(p.coords, (k, 1)), vecs)
             )[:, None]
    return p, model.oracle.exp_from(model, p, vecs, chart)


@pytest.mark.parametrize("k", [1, 2, 201])
def test_log_from_distances_are_dist_from(model, k):
    p, coords = _kernel_points(model, np.random.default_rng(k), k)
    oracle = model.oracle
    dists, logs = oracle.log_from(model, p, p.chart_id, coords)
    assert dists.tobytes() == \
        oracle.dist_from(model, p, p.chart_id, coords).tobytes()
    assert logs.shape == coords.shape


def _pre_change_log(model, p, q):
    """Oracle.log as it was written before log_from returned distances: a
    dist kernel call for the r0 test, then a log kernel call."""
    d = model.dist_oracle(p, q)
    if d >= model.r0(p):
        raise OutOfInjectivityRange(
            f"d(p, q) = {d:.6f} exceeds r0 = {model.r0(p):.6f}")
    return model.oracle.log_from(model, p, q.chart_id, q.coords[None])[1][0]


@pytest.mark.parametrize("name", MODEL_NAMES)
@given(data=st.data())
def test_log_is_the_pre_change_log(name, data):
    model = get_model(name)
    p, q = data.draw(_oracle_pair(model))
    assert model.log_oracle(p, q).components.tobytes() == \
        _pre_change_log(model, p, q).tobytes()


@pytest.mark.parametrize("k", [1, 201])
def test_exp_from_on_a_stack_is_two_calls(model, k):
    rng = np.random.default_rng(10 + k)
    p, _ = _kernel_points(model, rng, 1)
    vecs = rng.normal(scale=0.5, size=(2, k, model.dim))
    oracle = model.oracle
    stacked = oracle.exp_from(model, p, vecs, p.chart_id)
    assert stacked.shape == vecs.shape
    for half, v in zip(stacked, vecs):
        assert half.tobytes() == \
            oracle.exp_from(model, p, v, p.chart_id).tobytes()


# The exp each oracle wrote out, and the chart placement loops of the two
# helpers, before exp became the K = 1 case of exp_from placed by the one
# rule ManifoldModel.place; kept as references.

def _pre_change_sphere_place(xyz, prefer="north"):
    x, y, z = xyz / np.linalg.norm(xyz)
    order = (prefer, "south" if prefer == "north" else "north")
    fallback = None
    for cid in order:
        denom = 1.0 + z if cid == "north" else 1.0 - z
        if denom < 1e-12:
            continue
        coords = np.array([x / denom, y / denom])
        status = get_model("sphere2").chart(cid).domain_test(coords)
        if status == INSIDE:
            return Point(cid, coords)
        if status == MARGIN and fallback is None:
            fallback = Point(cid, coords)
    if fallback is not None:
        return fallback
    raise NoOverlap("no sphere chart admits the embedded point")


def _pre_change_torus_place(angles, prefer="a"):
    torus = get_model("torus2")
    order = [prefer] + [c for c in sorted(torus.charts) if c != prefer]
    fallback = None
    for cid in order:
        starts = (0.0 if cid in "ac" else -math.pi,
                  0.0 if cid in "ab" else -math.pi)
        coords = (np.asarray(angles, dtype=float) - starts) % (2.0 * math.pi) \
            + starts
        status = torus.chart(cid).domain_test(coords)
        if status == INSIDE:
            return Point(cid, coords)
        if status == MARGIN and fallback is None:
            fallback = Point(cid, coords)
    if fallback is not None:
        return fallback
    raise NoOverlap("no torus chart admits the angle pair")


def _pre_change_exp(model, p, v):
    if model.name == "euclidean2":
        return Point(p.chart_id, p.coords + v.components)
    if model.name == "sphere2":
        P = sphere_embed(p)
        W = sphere_push_to_embedding(v)
        theta = float(np.linalg.norm(W))
        if theta < 1e-300:
            return p
        Q = math.cos(theta) * P + math.sin(theta) * W / theta
        return _pre_change_sphere_place(Q, prefer=p.chart_id)
    if model.name == "hyperbolic2":
        ve = float(np.linalg.norm(v.components))
        if ve < 1e-300:
            return p
        lam = 2.0 / (1.0 - float(p.coords @ p.coords))
        scale = math.tanh(0.5 * lam * ve)
        return Point(p.chart_id,
                     _mobius_add(p.coords, scale * v.components / ve))
    return _pre_change_torus_place(p.coords + v.components, prefer=p.chart_id)


@pytest.mark.parametrize("name", MODEL_NAMES)
@given(data=st.data())
def test_exp_matches_the_pre_change_exp(name, data):
    # the result lands in the chart the written-out exp chose; over 20,000
    # seeded pairs with |v| up to 1.2 min(r0, 3) the coordinates were
    # bit-equal on the flat models and within 2.1e-15 (hyperbolic2) and
    # 1.6e-15 (sphere2) of them, 6e-16 and 1e-15 at these draws' norms
    model = get_model(name)
    p, v = data.draw(_oracle_vector(model))
    assume(np.linalg.norm(v.components) >= 1e-300)
    got, ref = model.exp_oracle(p, v), _pre_change_exp(model, p, v)
    assert got.chart_id == ref.chart_id
    if name in ("euclidean2", "torus2"):
        assert got.coords.tobytes() == ref.coords.tobytes()
    else:
        assert_close(got.coords, ref.coords,
                     2e-15 * max(1.0, float(np.max(np.abs(ref.coords)))),
                     name)


def _same_point(got, ref):
    return got.chart_id == ref.chart_id and \
        got.coords.tobytes() == ref.coords.tobytes()


def test_exp_of_zero_is_p(model):
    # the torus placed p + 0 anew: a point on a chart's margin moved to
    # another chart, and a re-wrapped angle could lose its last bit
    rng = np.random.default_rng(8)
    points = [random_interior_point(model, rng) for _ in range(200)]
    margin = {"sphere2": Point("south", [2.5, 0.0]),
              "torus2": Point("a", [0.1, 3.0])}.get(model.name)
    if margin is not None:
        assert model.domain_status(margin) == MARGIN
        points.append(margin)
    for p in points:
        assert _same_point(model.exp_oracle(p, Tangent(p, [0.0, -0.0])), p)


@pytest.mark.parametrize("name,v", [
    *[pytest.param(n, [math.nan, 0.1], id=f"nan-{n}") for n in MODEL_NAMES],
    pytest.param("hyperbolic2", [40.0, 0.0], id="far-hyperbolic2"),
])
def test_exp_with_no_chart_raises_no_overlap(name, v):
    # a NaN component, and a disk vector that tanh rounds onto the boundary,
    # give no chart's point: the written-out exps returned NaN and boundary
    # coordinates on euclidean2 and hyperbolic2
    model = get_model(name)
    p = Point("disk", [0.3, 0.1]) if name == "hyperbolic2" else \
        Point(sorted(model.charts)[0], [0.3, 0.1])
    with pytest.raises(NoOverlap):
        model.exp_oracle(p, Tangent(p, v))


def test_sphere_exp_takes_a_tangent_stored_in_the_other_chart(sphere):
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = Point("north", rng.uniform(0.2, 1.4, 2) * rng.choice([-1, 1], 2))
        v = random_tangent(sphere, rng, p, norm=float(rng.uniform(0.1, 1.4)))
        moved = sphere.push_tangent(v, "south")
        assert moved.base.chart_id == "south"
        assert_close(sphere_embed(sphere.exp_oracle(p, moved)),
                     sphere_embed(sphere.exp_oracle(p, v)), 1e-15)
        assert_close(sphere_embed(sphere.exp_oracle(p, moved)),
                     sphere_embed(_pre_change_exp(sphere, p, moved)), 1e-15)


def test_sphere_point_from_embedding_is_the_pre_change_loop():
    rng = np.random.default_rng(12)
    xyz = rng.normal(size=(1000, 3)) * rng.uniform(0.1, 10.0, (1000, 1))
    near_poles = np.column_stack([rng.normal(scale=1e-7, size=(200, 2)),
                                  rng.choice([-1.0, 1.0], 200)])
    # the chart edges r = 2 and r = 4 of the north chart and their images
    edges = [[4.0 * r, 0.0, 1.0 - r * r] for r in (0.25, 0.5, 2.0, 4.0)]
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, -0.0, -1.0]]
    for row in [*xyz, *near_poles, *edges, *poles]:
        row = np.asarray(row, dtype=float)
        for prefer in ("north", "south"):
            assert _same_point(sphere_point_from_embedding(row, prefer),
                               _pre_change_sphere_place(row, prefer))


def test_torus_point_from_angles_is_the_pre_change_loop():
    rng = np.random.default_rng(13)
    angles = rng.uniform(-3.0 * math.pi, 5.0 * math.pi, (1000, 2))
    q = math.pi / 4.0
    edges = [0.0, -0.0, q, -q, math.pi, -math.pi, 2.0 * math.pi - q,
             math.pi - q, math.pi + q, -math.pi + q, 2.0 * math.pi,
             np.nextafter(q, 0.0), np.nextafter(2.0 * math.pi, 0.0)]
    grid = [[a, b] for a in edges for b in edges]
    for row in [*angles, *grid]:
        for prefer in "abcd":
            assert _same_point(torus_point_from_angles(row, prefer),
                               _pre_change_torus_place(row, prefer))
    for prefer in "abcd":
        for helper in (torus_point_from_angles, _pre_change_torus_place):
            with pytest.raises(NoOverlap):
                helper([math.nan, 1.0], prefer)


def _meridian(charts, offset=0.0):
    """Samples along the x-meridian of the sphere, each stored in the given
    chart: north coordinates tan(t/2) for t from 0.2 to 2.6 rad."""
    t = np.linspace(0.2, 2.6, len(charts)) + offset
    north = np.stack([np.tan(t / 2.0), 0.1 * np.sin(t)], axis=1)
    coords = [x if c == "north" else x / (x @ x)
              for c, x in zip(charts, north)]
    return Samples(charts, coords)


def test_point_distances_match_point_distance_across_charts(sphere, torus):
    rng = np.random.default_rng(3)
    charts = rng.choice(["north", "south"], size=(2, 41)).tolist()
    a, b = _meridian(charts[0]), _meridian(charts[1], offset=0.05)
    assert set(a.charts) == set(b.charts) == {"north", "south"}
    assert sphere.point_distances(a, b).tolist() == \
        [sphere.point_distance(x, y) for x, y in zip(a, b)]

    ids = sorted(torus.charts)
    pa = [torus.transition(Point("a", rng.uniform(2.0, 4.2, 2)), c)
          for c in rng.choice(ids, size=41)]
    pb = [torus.exp_oracle(p, Tangent(p, rng.normal(scale=0.5, size=2)))
          for p in pa]
    a, b = Samples.of(pa), Samples.of(pb)
    assert len(set(zip(a.charts, b.charts))) > 4
    assert torus.point_distances(a, b).tolist() == \
        [torus.point_distance(x, y) for x, y in zip(a, b)]


def test_point_distances_without_oracle_are_per_pair():
    model = _Conformal3()
    rng = np.random.default_rng(4)
    a = Samples(["xyz"] * 12, rng.uniform(-0.5, 0.5, (12, 3)))
    b = Samples(["xyz"] * 12, rng.uniform(-0.5, 0.5, (12, 3)))
    assert model.oracle is None
    assert model.point_distances(a, b).tolist() == \
        [model.point_distance(x, y) for x, y in zip(a, b)]


def test_point_distances_keep_the_grid_shape(disk):
    rng = np.random.default_rng(5)
    a = Samples([["disk"] * 4] * 3, rng.uniform(-0.5, 0.5, (3, 4, 2)))
    b = Samples([["disk"] * 4] * 3, rng.uniform(-0.5, 0.5, (3, 4, 2)))
    dists = disk.point_distances(a, b)
    assert dists.shape == (3, 4)
    # (-p) (+) q has one broadcast form for one p and K paired ones
    assert dists.tolist() == [[disk.point_distance(x, y)
                               for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    with pytest.raises(ValidationError, match="one shape"):
        disk.point_distances(a, b[:2])


# Chart classifiers: the margin rule is a threshold, so each chart's array
# classifier must give, on every row and above all at the band edges, the
# status of the model's per-point rule, written out here as it stood before
# the charts kept only the array form.

def _plane_domain(coords):
    return INSIDE if all(map(math.isfinite, coords)) else OUTSIDE


def _sphere_domain(coords):
    # the array form's np.vecdot rounds as np.linalg.norm's ddot does, bit
    # for bit; row sums and einsum differ in the last bit on some points
    r = float(np.linalg.norm(coords))
    if r <= 2.0:
        return INSIDE
    if r <= 4.0:
        return MARGIN
    return OUTSIDE


def _disk_domain(coords):
    return INSIDE if float(coords @ coords) < 1.0 - 1e-12 else OUTSIDE


def _torus_domain_for(starts):
    def test(coords):
        status = INSIDE
        for i in range(2):
            u = coords[i] - starts[i]
            if not 0.0 <= u < 2.0 * math.pi:
                return OUTSIDE
            if u < math.pi / 4.0 or u > 2.0 * math.pi - math.pi / 4.0:
                status = MARGIN
        return status
    return test


_REFERENCE_DOMAINS = {
    "xy": _plane_domain, "north": _sphere_domain, "south": _sphere_domain,
    "disk": _disk_domain, "a": _torus_domain_for((0.0, 0.0)),
    "b": _torus_domain_for((-math.pi, 0.0)),
    "c": _torus_domain_for((0.0, -math.pi)),
    "d": _torus_domain_for((-math.pi, -math.pi))}


def _ulp_neighbours(points, k=4):
    """Each point with every coordinate moved by -k..k ulps on its own."""
    out = []
    for x in np.atleast_2d(points):
        for axis in range(x.size):
            for steps in range(-k, k + 1):
                y = x.copy()
                for _ in range(abs(steps)):
                    y[axis] = np.nextafter(y[axis], math.copysign(math.inf,
                                                                  steps))
                out.append(y)
    return np.array(out)


def _band_edges(name):
    """Points on the edges of the model's margin bands: sphere radii 2 and
    4, the disk's x.x = 1 - 1e-12, and u = 0, pi/4, 2 pi - pi/4 and 2 pi on
    each axis of both torus windows."""
    angles = np.linspace(0.0, 2.0 * math.pi, 13)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if name == "sphere2":
        return np.concatenate([2.0 * ring, 4.0 * ring])
    if name == "hyperbolic2":
        return math.sqrt(1.0 - 1e-12) * ring
    if name == "torus2":
        edges = [s + u for s in (0.0, -math.pi)
                 for u in (0.0, math.pi / 4.0, 2.0 * math.pi - math.pi / 4.0,
                           2.0 * math.pi)]
        inner = edges + [0.5, math.pi + 0.5]
        return np.array([[a, b] for a in edges for b in inner]
                        + [[b, a] for a in edges for b in inner])
    return 3.0 * ring


_NON_FINITE = np.array([[math.nan, 0.5], [0.5, math.nan], [math.inf, 0.5],
                        [0.5, -math.inf], [-math.inf, math.nan],
                        [math.inf, math.inf]])


def _assert_classifiers_agree(spec, coords):
    many = spec.domain_test_many(coords)
    assert many.shape == (len(coords),)
    reference = _REFERENCE_DOMAINS[spec.chart_id]
    assert many.tolist() == [reference(x) for x in coords]
    assert [spec.domain_test(x) for x in coords] == many.tolist()
    return many


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_array_classifier_matches_scalar_at_band_edges(name):
    model = get_model(name)
    coords = _ulp_neighbours(_band_edges(name))
    reached = {"euclidean2": {INSIDE}, "hyperbolic2": {INSIDE, OUTSIDE},
               "sphere2": {INSIDE, MARGIN, OUTSIDE},
               "torus2": {INSIDE, MARGIN, OUTSIDE}}[name]
    for spec in model.charts.values():
        assert set(_assert_classifiers_agree(spec, coords)) == reached
        assert set(_assert_classifiers_agree(spec, _NON_FINITE)) == {OUTSIDE}
        assert _assert_classifiers_agree(spec, np.empty((0, 2))).size == 0


@pytest.mark.parametrize("name", MODEL_NAMES)
@given(data=st.data())
def test_array_classifier_matches_scalar_over_scaled_boxes(name, data):
    # each chart's sample box scaled by 3 about its middle reaches every band
    model = get_model(name)
    spec = model.charts[data.draw(st.sampled_from(sorted(model.charts)))]
    lo, hi = spec.sample_box
    unit = data.draw(st.lists(st.tuples(st.floats(-1.0, 1.0),
                                        st.floats(-1.0, 1.0)),
                              min_size=1, max_size=30))
    _assert_classifiers_agree(
        spec, 0.5 * (lo + hi) + 1.5 * (hi - lo) * np.array(unit))


def test_off_interior_of_no_groups_is_empty(model):
    flagged = model.off_interior({}, np.zeros((0, model.dim)))
    assert flagged.shape == (0,) and flagged.dtype.kind == "i"


def test_off_interior_lists_the_flagged_positions_in_order(sphere, torus):
    rng = np.random.default_rng(7)
    for model, scale in ((sphere, 3.0), (torus, 8.0)):
        charts = rng.choice(sorted(model.charts), size=40).tolist()
        coords = rng.uniform(-scale, scale, (40, 2))
        flagged = model.off_interior(chart_groups(charts), coords)
        assert flagged.tolist() == [
            i for i, (c, x) in enumerate(zip(charts, coords))
            if model.chart(c).domain_test(x) != INSIDE]
        assert 0 < flagged.size < 40


@pytest.mark.parametrize("name,point", [
    ("euclidean2", Point("xy", [math.nan, 1.0])),
    ("euclidean2", Point("xy", [1.0, math.inf])),
    ("torus2", Point("a", [math.nan, 1.0])),
    ("torus2", Point("d", [0.5, math.nan])),
])
def test_non_finite_coordinates_are_outside(name, point):
    model = get_model(name)
    assert model.domain_status(point) == OUTSIDE
    with pytest.raises(NoOverlap):
        model.select_chart(point)


def _chart_groups_loop(charts):
    # chart_groups as it stood before its one-chart shortcut
    groups = {}
    for i, chart in enumerate(charts):
        groups.setdefault(chart, []).append(i)
    return {chart: np.asarray(idx) for chart, idx in groups.items()}


@pytest.mark.parametrize("charts", [
    ["north"] * 201, ("a",), ["north", "south", "north", "north"],
    ("b", "a", "a", "c", "b"), [("a", "b"), ("a", "b"), ("b", "a")],
    np.array(["north"] * 5, dtype=object), [], ()])
def test_chart_groups_matches_the_loop(charts):
    got, want = chart_groups(charts), _chart_groups_loop(charts)
    assert list(got) == list(want)
    for chart in want:
        assert got[chart].dtype == want[chart].dtype
        assert got[chart].tolist() == want[chart].tolist()
