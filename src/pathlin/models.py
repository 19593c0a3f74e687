"""The four built-in model geometries and the model registry.

euclidean2   flat plane, one chart, cap r0
sphere2      unit sphere, two stereographic charts (north/south), r0 = pi/2
hyperbolic2  Poincare disk (curvature -1), one chart, cap r0
torus2       flat square torus of period 2*pi, four shifted charts, r0 = pi/2

Coordinate conventions are emitted by `pathlin models --describe <name>`.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoOverlap, ValidationError
from .geometry import (INSIDE, MARGIN, OUTSIDE, ChartSpec, ManifoldModel,
                       Oracle, Point, Tangent, TransitionMap)

TWO_PI = 2.0 * math.pi
R0_CAP = 10.0

MODEL_NAMES = ("euclidean2", "hyperbolic2", "sphere2", "torus2")


# ---------------------------------------------------------------------------
# Conformal models (sphere and Poincare disk are g = lam^2 * I)
# ---------------------------------------------------------------------------

class _ConformalModel(ManifoldModel):
    """A surface with metric lam(x)^2 * I on every chart, lam = 2 / (1 +
    kappa |x|^2): the sphere (kappa = 1) and the Poincare disk (kappa = -1);
    grad log lam = -2 kappa x / (1 + kappa |x|^2).  At kappa = -1 these round
    as the 1 - |x|^2 forms do, since 1.0 + (-1.0 * s) is 1.0 - s in IEEE."""

    def __init__(self, kappa: float, **kwargs):
        self._kappa = kappa
        self._grad_scale = -2.0 * kappa
        super().__init__(**kwargs)

    def _lam(self, coords):
        return 2.0 / (1.0 + self._kappa * np.sum(coords * coords, axis=-1))

    def _phi_grad(self, coords):
        r2 = np.sum(coords * coords, axis=-1, keepdims=True)
        return self._grad_scale * coords / (1.0 + self._kappa * r2)

    def christoffel(self, chart_id, coords):
        # Gamma^l_{kj} = d_lk phi_j + d_lj phi_k - d_kj phi_l
        phi = self._phi_grad(np.asarray(coords, float))
        eye = np.eye(self.dim)
        return (np.einsum("lk,j->lkj", eye, phi) + np.einsum("lj,k->lkj", eye, phi)
                - np.einsum("kj,l->lkj", eye, phi))

    def christoffel_action_batch(self, chart_id, coords, r):
        # M[l, j] = Gamma^l_{kj} r^k expanded for a conformal metric
        phi = self._phi_grad(np.asarray(coords, dtype=float))
        eye = np.eye(self.dim)
        return (np.einsum("bl,bj->blj", r, phi)
                + np.einsum("bk,bk->b", phi, r)[:, None, None] * eye
                - np.einsum("bl,bj->blj", phi, r))

    def christoffel_action_floats(self, chart_id, coords, r):
        # christoffel_action_batch term by term, in the same order, at m = 2
        x0, x1 = coords
        r0, r1 = r
        d = 1.0 + self._kappa * (x0 * x0 + x1 * x1)
        p0 = self._grad_scale * x0 / d
        p1 = self._grad_scale * x1 / d
        pr = p0 * r0 + p1 * r1
        return ((r0 * p0 + pr - p0 * r0, r0 * p1 - p0 * r1),
                (r1 * p0 - p1 * r0, r1 * p1 + pr - p1 * r1))

    def metric(self, chart_id, coords):
        lam = self._lam(np.asarray(coords, float))
        return (lam * lam) * np.eye(self.dim)

    def metric_many(self, chart_id, coords):
        lam = self._lam(np.asarray(coords, float))
        return (lam * lam)[:, None, None] * np.eye(self.dim)


# ---------------------------------------------------------------------------
# Flat models (euclidean plane, flat torus)
# ---------------------------------------------------------------------------

class _FlatMixin:
    def christoffel(self, chart_id, coords):
        return np.zeros((self.dim,) * 3)

    def christoffel_action_batch(self, chart_id, coords, r):
        coords = np.asarray(coords, dtype=float)
        return np.zeros((coords.shape[0], self.dim, self.dim))

    @cached_property
    def _zero_action(self):
        return ((0.0,) * self.dim,) * self.dim

    def christoffel_action_floats(self, chart_id, coords, r):
        return self._zero_action

    def metric(self, chart_id, coords):
        return np.eye(self.dim)

    def metric_many(self, chart_id, coords):
        return np.broadcast_to(np.eye(self.dim), (len(coords), self.dim, self.dim))


class _EuclideanModel(_FlatMixin, ManifoldModel):
    pass


class _EuclideanOracle(Oracle):
    def exp(self, model, p, v):
        return Point(p.chart_id, p.coords + v.components)

    def dist_from(self, model, p, chart_id, coords):
        return np.linalg.norm(coords - p.coords, axis=1)

    def log_from(self, model, p, chart_id, coords):
        logs = coords - p.coords
        return np.linalg.norm(logs, axis=1), logs

    def exp_from(self, model, p, vecs, chart_id):
        return p.coords + vecs


def _plane_domain_many(coords: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(coords).all(axis=1), INSIDE, OUTSIDE)


def _euclidean2() -> ManifoldModel:
    chart = ChartSpec(
        chart_id="xy",
        domain_test_many=_plane_domain_many,
        center=np.zeros(2),
        sample_box=(np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
        description="global Cartesian coordinates on the flat plane",
    )
    return _EuclideanModel(
        name="euclidean2", dim=2, charts=[chart], transitions={},
        r0=lambda p: R0_CAP, oracle=_EuclideanOracle())


# ---------------------------------------------------------------------------
# Sphere: two stereographic charts
# ---------------------------------------------------------------------------

_SPHERE_INSIDE_R = 2.0    # coordinate radius: inside up to here
_SPHERE_OUTSIDE_R = 4.0   # margin band up to here, outside beyond


def _sphere_domain_many(coords: np.ndarray) -> np.ndarray:
    r = np.sqrt(np.vecdot(coords, coords))
    return np.where(r <= _SPHERE_INSIDE_R, INSIDE,
                    np.where(r <= _SPHERE_OUTSIDE_R, MARGIN, OUTSIDE))


def _inversion(coords: np.ndarray) -> np.ndarray | None:
    r2 = float(coords @ coords)
    if r2 < 1e-24:
        return None
    return coords / r2


def _inversion_jacobian(coords: np.ndarray) -> np.ndarray:
    r2 = float(coords @ coords)
    return (np.eye(coords.size) * r2 - 2.0 * np.outer(coords, coords)) / (r2 * r2)


def sphere_embed(point: Point) -> np.ndarray:
    """Chart coordinates, (2,) or (K, 2), -> unit-sphere points in R^3,
    (3,) or (K, 3)."""
    return _sphere_embed(point.chart_id, point.coords)


def _sphere_embed(chart_id: str, coords: np.ndarray) -> np.ndarray:
    """sphere_embed on a chart id and coordinates: the one closed form, so
    a point embeds to the same bits however it is passed."""
    d = 1.0 + np.sum(coords * coords, axis=-1)
    z = (2.0 - d) / d
    if chart_id == "south":
        z = -z
    return np.stack([2.0 * coords[..., 0] / d, 2.0 * coords[..., 1] / d, z],
                    axis=-1)


def _sphere_embed_jacobian(point: Point) -> np.ndarray:
    x, y = point.coords
    d = 1.0 + x * x + y * y
    d2 = d * d
    jac = np.array([
        [2.0 * (d - 2.0 * x * x) / d2, -4.0 * x * y / d2],
        [-4.0 * x * y / d2, 2.0 * (d - 2.0 * y * y) / d2],
        [-4.0 * x / d2, -4.0 * y / d2],
    ])
    if point.chart_id == "south":
        jac[2] = -jac[2]
    return jac


def sphere_point_from_embedding(xyz: np.ndarray, prefer: str = "north") -> Point:
    """Unit-sphere point in R^3 -> chart point.

    The preferred chart wins while the point is in its interior; otherwise
    the point goes to whichever chart holds it INSIDE, falling back to a
    margin position only when no interior admits it.
    """
    x, y, z = xyz / np.linalg.norm(xyz)
    order = (prefer, "south" if prefer == "north" else "north")
    fallback = None
    for cid in order:
        denom = 1.0 + z if cid == "north" else 1.0 - z
        if denom < 1e-12:
            continue
        coords = np.array([x / denom, y / denom])
        status = _sphere_domain_many(coords[None])[0]
        if status == INSIDE:
            return Point(cid, coords)
        if status == MARGIN and fallback is None:
            fallback = Point(cid, coords)
    if fallback is not None:
        return fallback
    raise NoOverlap("no sphere chart admits the embedded point")


def sphere_push_to_embedding(t: Tangent) -> np.ndarray:
    return _sphere_embed_jacobian(t.base) @ t.components


def sphere_pull_from_embedding(base: Point, w: np.ndarray) -> Tangent:
    jac = _sphere_embed_jacobian(base)
    r2 = float(base.coords @ base.coords)
    lam2 = 4.0 / (1.0 + r2) ** 2
    return Tangent(base, (jac.T @ w) / lam2)


def _sphere_angle(P: np.ndarray, Q: np.ndarray):
    """Great-circle angle via the chord, stable near coincident points."""
    chord = np.linalg.norm(Q - P, axis=-1)
    return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))


class _SphereOracle(Oracle):
    def exp(self, model, p, v):
        P = sphere_embed(p)
        W = sphere_push_to_embedding(v)
        theta = float(np.linalg.norm(W))
        if theta < 1e-300:
            return p
        Q = math.cos(theta) * P + math.sin(theta) * W / theta
        return sphere_point_from_embedding(Q, prefer=p.chart_id)

    @staticmethod
    def _unembed_many(xyz: np.ndarray, chart_id: str) -> np.ndarray:
        denom = 1.0 + xyz[..., 2] if chart_id == "north" else 1.0 - xyz[..., 2]
        return xyz[..., :2] / denom[..., None]

    def dist_from(self, model, p, chart_id, coords):
        return _sphere_angle(sphere_embed(p), _sphere_embed(chart_id, coords))

    def log_from(self, model, p, chart_id, coords):
        P = sphere_embed(p)
        Q = _sphere_embed(chart_id, coords)
        theta = _sphere_angle(P, Q)
        u = Q - (Q @ P)[:, None] * P
        n = np.linalg.norm(u, axis=1)
        safe = np.where(n > 1e-300, n, 1.0)
        w = (theta / safe)[:, None] * u
        jac = _sphere_embed_jacobian(p)
        lam2 = 4.0 / (1.0 + float(p.coords @ p.coords)) ** 2
        return theta, (w @ jac) / lam2

    def exp_from(self, model, p, vecs, chart_id):
        P = sphere_embed(p)
        w = vecs @ _sphere_embed_jacobian(p).T
        theta = np.linalg.norm(w, axis=-1)
        safe = np.where(theta > 1e-300, theta, 1.0)
        q = np.cos(theta)[..., None] * P + (np.sin(theta) / safe)[..., None] * w
        return self._unembed_many(q, chart_id)


def _sphere2() -> ManifoldModel:
    box = (np.array([-1.4, -1.4]), np.array([1.4, 1.4]))
    charts = [
        ChartSpec("north", _sphere_domain_many, np.zeros(2), box,
                  "stereographic projection from the south pole; "
                  "(0, 0) is the north pole"),
        ChartSpec("south", _sphere_domain_many, np.zeros(2), box,
                  "stereographic projection from the north pole; "
                  "(0, 0) is the south pole"),
    ]
    inv = TransitionMap(_inversion, _inversion_jacobian)
    transitions = {("north", "south"): inv, ("south", "north"): inv}
    return _ConformalModel(
        kappa=1.0, name="sphere2", dim=2, charts=charts, transitions=transitions,
        r0=lambda p: math.pi / 2.0, oracle=_SphereOracle())


# ---------------------------------------------------------------------------
# Poincare disk (curvature -1)
# ---------------------------------------------------------------------------

def _disk_domain_many(coords: np.ndarray) -> np.ndarray:
    # Single chart: the coordinate boundary is metrically at infinity, so it
    # is never treated as a reachable margin; there is no chart to switch to.
    return np.where(np.vecdot(coords, coords) < 1.0 - 1e-12, INSIDE, OUTSIDE)


def mobius_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = float(a @ b)
    a2 = float(a @ a)
    b2 = float(b @ b)
    denom = 1.0 + 2.0 * ab + a2 * b2
    return ((1.0 + 2.0 * ab + b2) * a + (1.0 - a2) * b) / denom


class _DiskOracle(Oracle):
    def exp(self, model, p, v):
        ve = float(np.linalg.norm(v.components))
        if ve < 1e-300:
            return p
        lam = 2.0 / (1.0 - float(p.coords @ p.coords))
        scale = math.tanh(0.5 * lam * ve)
        return Point(p.chart_id, mobius_add(p.coords, scale * v.components / ve))

    @staticmethod
    def _mobius_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Mobius sums a (+) b[k] of one point a (m,) with points b (..., m)."""
        ab, a2 = b @ a, a @ a
        b2 = np.sum(b * b, axis=-1)
        num = (1.0 + 2.0 * ab + b2)[..., None] * a + (1.0 - a2) * b
        return num / (1.0 + 2.0 * ab + a2 * b2)[..., None]

    @staticmethod
    def _from_p(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """(-p) (+) q for p (m,) or K paired p (K, m), the numerator written
        as (1 - |p|^2)(q - p) - |q - p|^2 p so that it is 0 at q = p."""
        dq = q - p
        p2, pq, q2, d2 = (np.sum(a * b, axis=-1)[..., None]
                          for a, b in ((p, p), (p, q), (q, q), (dq, dq)))
        return ((1.0 - p2) * dq - d2 * p) / (1.0 - 2.0 * pq + p2 * q2)

    def dist_from(self, model, p, chart_id, coords):
        n = np.linalg.norm(self._from_p(p.coords, coords), axis=1)
        return 2.0 * np.arctanh(np.minimum(n, 1.0 - 1e-16))

    def log_from(self, model, p, chart_id, coords):
        w = self._from_p(p.coords, coords)
        n = np.linalg.norm(w, axis=1)
        d = 2.0 * np.arctanh(np.minimum(n, 1.0 - 1e-16))
        lam = 2.0 / (1.0 - float(p.coords @ p.coords))
        safe = np.where(n > 1e-300, n, 1.0)
        return d, (d / (lam * safe))[:, None] * w

    def exp_from(self, model, p, vecs, chart_id):
        ve = np.linalg.norm(vecs, axis=-1)
        lam = 2.0 / (1.0 - float(p.coords @ p.coords))
        safe = np.where(ve > 1e-300, ve, 1.0)
        scaled = (np.tanh(0.5 * lam * ve) / safe)[..., None] * vecs
        return self._mobius_many(p.coords, scaled)


def _hyperbolic2() -> ManifoldModel:
    chart = ChartSpec(
        chart_id="disk",
        domain_test_many=_disk_domain_many,
        center=np.zeros(2),
        sample_box=(np.array([-0.55, -0.55]), np.array([0.55, 0.55])),
        description="Poincare disk coordinates |x| < 1, curvature -1",
    )
    return _ConformalModel(
        kappa=-1.0, name="hyperbolic2", dim=2, charts=[chart], transitions={},
        r0=lambda p: R0_CAP, oracle=_DiskOracle())


# ---------------------------------------------------------------------------
# Flat torus of period 2*pi with four window-shifted charts
# ---------------------------------------------------------------------------

# Chart windows per axis: type 0 covers [0, 2*pi), type 1 covers [-pi, pi).
_TORUS_WINDOWS = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
_WINDOW_START = (0.0, -math.pi)
_TORUS_EDGE = math.pi / 4.0


def _torus_window_starts(chart_id: str) -> tuple[float, float]:
    tx, ty = _TORUS_WINDOWS[chart_id]
    return _WINDOW_START[tx], _WINDOW_START[ty]


def _torus_wrap(values: np.ndarray, starts: tuple[float, float]) -> np.ndarray:
    """Angles (..., 2) wrapped into the window [starts, starts + 2 pi)."""
    return (values - np.asarray(starts)) % TWO_PI + np.asarray(starts)


def _torus_domain_many_for(starts):
    def test(coords: np.ndarray) -> np.ndarray:
        u = coords - np.asarray(starts)
        outside = ~((0.0 <= u) & (u < TWO_PI))
        margin = (u < _TORUS_EDGE) | (u > TWO_PI - _TORUS_EDGE)
        return np.where(outside.any(axis=1), OUTSIDE,
                        np.where(margin.any(axis=1), MARGIN, INSIDE))
    return test


class _TorusModel(_FlatMixin, ManifoldModel):
    pass


def torus_point_from_angles(angles: np.ndarray, prefer: str = "a") -> Point:
    """Angle pair -> chart point, preferring the given chart when valid."""
    order = [prefer] + [c for c in sorted(_TORUS_WINDOWS) if c != prefer]
    fallback = None
    for cid in order:
        starts = _torus_window_starts(cid)
        coords = _torus_wrap(np.asarray(angles, dtype=float), starts)
        status = _torus_domain_many_for(starts)(coords[None])[0]
        if status == INSIDE:
            return Point(cid, coords)
        if status == MARGIN and fallback is None:
            fallback = Point(cid, coords)
    if fallback is not None:
        return fallback
    raise NoOverlap("no torus chart admits the angle pair")


class _TorusOracle(Oracle):
    def exp(self, model, p, v):
        return torus_point_from_angles(p.coords + v.components, prefer=p.chart_id)

    @staticmethod
    def _shortest_many(diff: np.ndarray) -> np.ndarray:
        return (diff + math.pi) % TWO_PI - math.pi

    def dist_from(self, model, p, chart_id, coords):
        return np.linalg.norm(self._shortest_many(coords - p.coords), axis=1)

    def log_from(self, model, p, chart_id, coords):
        logs = self._shortest_many(coords - p.coords)
        return np.linalg.norm(logs, axis=1), logs

    def exp_from(self, model, p, vecs, chart_id):
        return _torus_wrap(p.coords + vecs, _torus_window_starts(chart_id))


def _torus2() -> ManifoldModel:
    charts = []
    for cid in sorted(_TORUS_WINDOWS):
        starts = _torus_window_starts(cid)
        center = np.array([starts[0] + math.pi, starts[1] + math.pi])
        box = (center - math.pi / 2.0, center + math.pi / 2.0)
        charts.append(ChartSpec(
            chart_id=cid,
            domain_test_many=_torus_domain_many_for(starts),
            center=center,
            sample_box=box,
            description=(f"angles with x in [{starts[0]:.6g}, {starts[0] + TWO_PI:.6g}), "
                         f"y in [{starts[1]:.6g}, {starts[1] + TWO_PI:.6g})"),
        ))
    transitions = {}
    for a in _TORUS_WINDOWS:
        for b in _TORUS_WINDOWS:
            if a == b:
                continue
            starts_b = _torus_window_starts(b)
            transitions[(a, b)] = TransitionMap(
                apply=lambda c, s=starts_b: _torus_wrap(c, s),
                jacobian=lambda c: np.eye(2))
    return _TorusModel(
        name="torus2", dim=2, charts=charts, transitions=transitions,
        r0=lambda p: math.pi / 2.0, oracle=_TorusOracle())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FACTORIES = {
    "euclidean2": _euclidean2,
    "hyperbolic2": _hyperbolic2,
    "sphere2": _sphere2,
    "torus2": _torus2,
}


@lru_cache(maxsize=None)
def get_model(name: str) -> ManifoldModel:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    return factory()


def manifest(model: ManifoldModel) -> dict:
    """JSON-ready description of a model's charts and conventions."""
    probe = Point(next(iter(model.charts)), model.charts[next(iter(model.charts))].center)
    return {
        "name": model.name,
        "dim": model.dim,
        "has_oracle": model.oracle is not None,
        "r0_at_chart_center": model.r0(probe),
        "charts": [
            {
                "id": spec.chart_id,
                "center": [float(c) for c in spec.center],
                "sample_box": [[float(v) for v in spec.sample_box[0]],
                               [float(v) for v in spec.sample_box[1]]],
                "description": spec.description,
            }
            for spec in model.charts.values()
        ],
        "transitions": sorted(f"{a}->{b}" for (a, b) in model.transitions),
    }
