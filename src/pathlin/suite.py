"""Seeded fixtures and the per-model invariant suite.

Every module's numerical invariants are expressed as named checks with an
explicit bound; `run_model_suite` executes them in a fixed order with
independent per-family seeds, so a given (model, seed) pair always produces
the same report, byte for byte.

Random smooth curves follow one protocol: draw a low-degree Bernstein
polynomial for the tangent components at a random interior basepoint and
realize it through the inverse linearization, then treat the samples as
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundleflow import (TrivializationChart, arclength_normalize,
                         carrier_field, flow, make_carrier, mapping_chart_in,
                         mapping_chart_out, phi, trivialize, untrivialize)
from .cubemaps import CubeLinearization, CubeSample, _axis_curve, p2_forward, p2_inverse
from .geometry import Frame, ManifoldModel, Point, Tangent, \
    metric_compatibility_residual
from .linearize import TangentCurve, p_forward, p_inverse, roundtrip_check
from .models import get_model
from .numerics import (Grid, PolyCoeffs, differentiate, eval_poly, fit_poly,
                       fit_residual, integrate)
from .polycurves import (conjugation_residual, covariant_power_residual,
                         make_polynomial_like, weierstrass_fit)
from .transport import (SampledCurve, curve_speeds, curve_velocities,
                        transport_frame, transport_vector)

SUITE_VERSION = 1


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    comparison: str       # "<=" or ">="
    passed: bool


def _check(name: str, value: float, bound: float,
           comparison: str = "<=") -> CheckResult:
    value = float(value)
    passed = value <= bound if comparison == "<=" else value >= bound
    return CheckResult(name=name, value=value, bound=bound,
                       comparison=comparison, passed=bool(passed))


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


# ---------------------------------------------------------------------------
# Seeded fixtures
# ---------------------------------------------------------------------------

def random_interior_point(model: ManifoldModel,
                          rng: np.random.Generator) -> Point:
    specs = [model.charts[c] for c in sorted(model.charts)]
    spec = specs[int(rng.integers(len(specs)))]
    lo, hi = spec.sample_box
    return Point(spec.chart_id, rng.uniform(lo, hi))


def random_tangent(model: ManifoldModel, rng: np.random.Generator, p: Point,
                   norm: float | None = None) -> Tangent:
    comps = rng.normal(size=model.dim)
    t = Tangent(p, comps)
    n = model.g_norm(t)
    if n == 0.0:
        return random_tangent(model, rng, p, norm)
    return Tangent(p, comps * ((norm if norm is not None else 1.0) / n))


def random_tangent_curve(model: ManifoldModel, rng: np.random.Generator,
                         grid: Grid, degree: int = 3,
                         scale: float = 0.45) -> TangentCurve:
    p = random_interior_point(model, rng)
    frame0 = model.orthonormal_frame(p)
    coeffs = PolyCoeffs(
        basis="bernstein", degree=degree,
        coefficients=rng.uniform(-scale, scale, size=(degree + 1, model.dim)),
        interval=(float(grid.nodes[0]), float(grid.nodes[-1])))
    return TangentCurve(base=p, frame0=frame0, grid=grid,
                        components=eval_poly(coeffs, grid))


def random_curve(model: ManifoldModel, rng: np.random.Generator, grid: Grid,
                 degree: int = 3, scale: float = 0.45,
                 substeps: int = 2) -> SampledCurve:
    v = random_tangent_curve(model, rng, grid, degree, scale)
    return p_inverse(model, v, substeps=substeps)


def wiggly_tangent_curve(model: ManifoldModel, rng: np.random.Generator,
                         grid: Grid, scale: float = 0.35) -> TangentCurve:
    """A non-polynomial fixture: trigonometric components with seeded phases."""
    p = random_interior_point(model, rng)
    frame0 = model.orthonormal_frame(p)
    ph = rng.uniform(0.0, 2.0 * math.pi, size=4)
    t = grid.nodes
    comps = scale * np.stack([
        np.sin(3.0 * t + ph[0]) + 0.4 * np.cos(5.0 * t + ph[1]),
        np.cos(2.0 * t + ph[2]) + 0.4 * np.sin(4.0 * t + ph[3]),
    ], axis=1)
    return TangentCurve(base=p, frame0=frame0, grid=grid, components=comps)


# ---------------------------------------------------------------------------
# Per-module checks
# ---------------------------------------------------------------------------

def geometry_checks(model: ManifoldModel, seed: int) -> list[CheckResult]:
    rng = _rng(seed, 1)
    worst_compat = 0.0
    samples = [random_interior_point(model, rng) for _ in range(100)]
    for p in samples:
        worst_compat = max(worst_compat, metric_compatibility_residual(
            model, p.chart_id, p.coords))
    out = [_check("geometry.metric_compatibility", worst_compat, 1e-6)]

    worst_round = 0.0
    worst_push = 0.0
    for p in samples:
        t = random_tangent(model, rng, p)
        for other in sorted(model.charts):
            if other == p.chart_id:
                continue
            try:
                q = model.transition(p, other)
            except Exception:
                continue
            back = model.transition(q, p.chart_id)
            worst_round = max(worst_round,
                              float(np.max(np.abs(back.coords - p.coords))))
            pushed = model.push_tangent(t, other)
            worst_push = max(worst_push,
                             abs(model.g_norm(pushed) - model.g_norm(t)))
    out.append(_check("geometry.transition_roundtrip", worst_round, 1e-12))
    out.append(_check("geometry.push_tangent_norm", worst_push, 1e-10))

    worst_oracle = 0.0
    if model.oracle is not None:
        for p in samples:
            r0 = model.r0(p)
            v = random_tangent(model, rng, p,
                               norm=float(rng.uniform(0.01, 0.9)) * min(r0, 2.0))
            q = model.exp_oracle(p, v)
            worst_oracle = max(worst_oracle,
                               abs(model.dist_oracle(p, q) - model.g_norm(v)))
            back = model.exp_oracle(p, model.log_oracle(p, q))
            worst_oracle = max(worst_oracle, model.dist_oracle(back, q))
    out.append(_check("geometry.oracle_roundtrip", worst_oracle, 1e-10))
    return out


def numerics_checks(seed: int) -> list[CheckResult]:
    def rotation_error(n: int) -> float:
        grid = Grid.regular(0.0, 2.0 * math.pi, n)
        traj = integrate(lambda t, y: np.array([-y[1], y[0]]),
                         np.array([1.0, 0.0]), grid)
        return float(np.max(np.abs(traj[-1] - np.array([1.0, 0.0]))))

    e1, e2 = rotation_error(200), rotation_error(400)
    order = math.log2(e1 / e2) if e2 > 0 else 5.0
    out = [_check("numerics.rk4_order", order, 3.8, ">=")]

    grid = Grid.regular(0.0, 1.0, 200)
    f = np.sin(grid.nodes)
    cumtrap = np.concatenate([[0.0], np.cumsum(
        0.5 * (f[1:] + f[:-1]) * np.diff(grid.nodes))])
    rec = differentiate(cumtrap, grid)
    out.append(_check("numerics.differentiate_trapezoid",
                      float(np.max(np.abs(rec - f))), 1e-5))

    grid = Grid.regular(0.0, 1.0, 100)
    data = np.abs(grid.nodes - 0.5)
    resid = [fit_residual(data, grid, fit_poly(data, grid, d)) for d in range(11)]
    worst_jump = max(resid[d + 1] - resid[d] for d in range(10))
    out.append(_check("numerics.fit_residual_monotone", worst_jump, 1e-12))
    return out


def _suite_curves(model: ManifoldModel, seed: int, n: int, count: int,
                  substeps: int) -> list[SampledCurve]:
    rng = _rng(seed, 2)
    grid = Grid.regular(0.0, 1.0, n)
    return [random_curve(model, rng, grid, substeps=substeps)
            for _ in range(count)]


def transport_checks(model: ManifoldModel, seed: int,
                     substeps: int = 2) -> list[CheckResult]:
    rng = _rng(seed, 3)
    curves = _suite_curves(model, seed, 400, 50, substeps)
    worst_norm = 0.0
    for curve in curves:
        f0 = model.orthonormal_frame(curve.basepoint)
        field = transport_frame(model, curve, f0, substeps=substeps)
        c = rng.normal(size=model.dim)
        ref = model.g_norm(Tangent(f0.base, f0.columns @ c))
        norms = model.g_norms(field.points.charts, field.points.coords,
                              field.columns @ c)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - ref))))
    out = [_check("transport.norm_preservation", worst_norm, 1e-5)]

    worst_inv = 0.0
    for curve in curves[:10]:
        v = random_tangent(model, rng, curve.points[0])
        fwd = transport_vector(model, curve, v, 0.0, float(curve.grid.nodes[-1]),
                               substeps=substeps)
        back = transport_vector(model, curve, fwd, float(curve.grid.nodes[-1]),
                                0.0, substeps=substeps)
        worst_inv = max(worst_inv,
                        float(np.max(np.abs(back.components - v.components))))
    out.append(_check("transport.inversion", worst_inv, 1e-5))

    if model.name == "sphere2":
        out.append(_check("transport.refinement_order",
                          _great_circle_order(model, substeps), 3.5, ">="))
        out.append(_check("transport.chart_independence",
                          _transport_chart_independence(model, seed, substeps),
                          1e-6))
    return out


def _great_circle_order(model: ManifoldModel, substeps: int) -> float:
    from .models import sphere_pull_from_embedding, sphere_push_to_embedding

    def error(n: int) -> float:
        grid = Grid.regular(0.0, 1.0, n)
        points = tuple(Point("north", [math.tan(t / 2.0), 0.0])
                       for t in grid.nodes)
        curve = SampledCurve(grid, points, order=2)
        pole = points[0]
        c1 = sphere_pull_from_embedding(pole, np.array([1.0, 0.0, 0.0]))
        c2 = sphere_pull_from_embedding(pole, np.array([0.0, 1.0, 0.0]))
        f0 = Frame(pole, np.stack([c1.components, c2.components], axis=1))
        field = transport_frame(model, curve, f0, substeps=substeps)
        worst = 0.0
        for t, base, cols in zip(grid.nodes, field.points, field.columns):
            ambient = sphere_push_to_embedding(Tangent(base, cols[:, 0]))
            expect = np.array([math.cos(t), 0.0, -math.sin(t)])
            worst = max(worst, float(np.max(np.abs(ambient - expect))))
        return worst

    e1, e2 = error(200), error(400)
    return math.log2(e1 / e2) if e2 > 0 else 5.0


def _transport_chart_independence(model: ManifoldModel, seed: int,
                                  substeps: int) -> float:
    rng = _rng(seed, 4)
    grid = Grid.regular(0.0, 1.0, 400)
    # an equator-band curve lies inside both stereographic charts
    base = Point("north", [1.0, 0.1])
    frame0 = model.orthonormal_frame(base)
    comps = 0.3 * np.stack([np.sin(2.0 * grid.nodes) + 0.5,
                            np.cos(3.0 * grid.nodes)], axis=1)
    curve_n = p_inverse(model, TangentCurve(base, frame0, grid, comps),
                        substeps=substeps)
    pts_n = tuple(model.transition(p, "north") for p in curve_n.points)
    pts_s = tuple(model.transition(p, "south") for p in curve_n.points)
    cn = SampledCurve(grid, pts_n, order=2)
    cs = SampledCurve(grid, pts_s, order=2)
    v = random_tangent(model, rng, pts_n[0])
    f_n = transport_frame(model, cn, model.orthonormal_frame(pts_n[0]),
                          substeps=substeps)
    f0s = Frame(pts_s[0], model.transition_jacobian(pts_n[0], "south")
                @ f_n.columns[0])
    f_s = transport_frame(model, cs, f0s, substeps=substeps)
    worst = 0.0
    for j in (100, 200, 300, 400):
        coeff = np.linalg.solve(f_n.columns[0], v.components)
        moved_n = Tangent(f_n.points[j], f_n.columns[j] @ coeff)
        moved_s = Tangent(f_s.points[j], f_s.columns[j] @ coeff)
        shifted = model.push_tangent(moved_s, moved_n.base.chart_id)
        worst = max(worst, float(np.max(np.abs(
            shifted.components - moved_n.components))))
    return worst


def linearize_checks(model: ManifoldModel, seed: int,
                     substeps: int = 2) -> list[CheckResult]:
    rng = _rng(seed, 5)
    grid = Grid.regular(0.0, 1.0, 400)
    grid_fine = Grid.regular(0.0, 1.0, 800)
    tangent_curves = [random_tangent_curve(model, rng, grid)
                      for _ in range(30)]

    worst_round = 0.0
    worst_drift = 0.0
    worst_comp = 0.0
    coarse_errors = []
    for v in tangent_curves:
        curve = p_inverse(model, v, substeps=substeps)
        rt = roundtrip_check(model, curve, v.frame0, substeps=substeps)
        worst_round = max(worst_round, rt.max_distance)
        coarse_errors.append(rt.max_distance)
        worst_drift = max(worst_drift, rt.forward.norm_drift)
        worst_comp = max(worst_comp, float(np.max(np.abs(
            rt.forward.tangent_curve.components - v.components))))
    out = [_check("linearize.roundtrip", worst_round, 1e-5),
           _check("linearize.forward_inverse_identity", worst_comp, 1e-5),
           _check("linearize.norm_correspondence", worst_drift, 1e-5)]

    # refinement: the same degree-3 polynomial components on the doubled grid;
    # vacuous once the coarse error sits at the double-precision floor
    fine = []
    for v in tangent_curves[:6]:
        coeffs = fit_poly(v.components, grid, 3)
        vf = TangentCurve(v.base, v.frame0, grid_fine,
                          eval_poly(coeffs, grid_fine))
        f_curve = p_inverse(model, vf, substeps=substeps)
        fine.append(roundtrip_check(model, f_curve, v.frame0,
                                    substeps=substeps).max_distance)
    coarse_sub = max(coarse_errors[:6])
    if coarse_sub <= 1e-12:
        ratio = math.inf
    else:
        ratio = coarse_sub / max(max(fine), 1e-300)
    out.append(_check("linearize.refinement_ratio", ratio, 8.0, ">="))

    curve = p_inverse(model, tangent_curves[0], substeps=substeps)
    frame_a = tangent_curves[0].frame0
    a = np.array([[0.8, 0.5], [-0.3, 1.1]])
    frame_b = Frame(frame_a.base, frame_a.columns @ a)
    rep_a = p_forward(model, curve, frame_a, substeps=substeps)
    rep_b = p_forward(model, curve, frame_b, substeps=substeps)
    expected = np.linalg.solve(a, rep_a.tangent_curve.components.T).T
    out.append(_check("linearize.gl_equivariance",
                      float(np.max(np.abs(
                          rep_b.tangent_curve.components - expected))), 1e-9))
    return out


def cubemaps_checks(model: ManifoldModel, seed: int, substeps: int = 2,
                    n: int = 200) -> list[CheckResult]:
    rng = _rng(seed, 6)
    grid1 = Grid.regular(-1.0, 1.0, n)
    grid2 = Grid.regular(-1.0, 1.0, n)
    p = random_interior_point(model, rng)
    frame0 = model.orthonormal_frame(p)
    a = rng.uniform(-0.25, 0.25, size=(2, model.dim))
    b = rng.uniform(-0.2, 0.2, size=(3, model.dim))
    v1 = a[0][None, :] + a[1][None, :] * grid1.nodes[:, None]
    v2 = (b[0][None, None, :]
          + b[1][None, None, :] * grid1.nodes[:, None, None]
          + b[2][None, None, :] * grid2.nodes[None, :, None])
    lin = CubeLinearization(base=p, frame0=frame0, grid1=grid1, grid2=grid2,
                            v1=v1, v2=v2)
    alpha = p2_inverse(model, lin, substeps=substeps)
    lin_back = p2_forward(model, alpha, frame0, substeps=substeps)
    err_lin = max(float(np.max(np.abs(lin_back.v1 - v1))),
                  float(np.max(np.abs(lin_back.v2 - v2))))
    alpha_back = p2_inverse(model, lin_back, substeps=substeps)
    err_cube = np.max(model.point_distances(alpha.points, alpha_back.points))
    out = [_check("cubemaps.roundtrip_linearization", err_lin, 1e-4),
           _check("cubemaps.roundtrip_cube", err_cube, 1e-4)]

    axis = _axis_curve(alpha)
    rep = p_forward(model, axis, frame0, substeps=substeps)
    out.append(_check("cubemaps.restriction_v1",
                      float(np.max(np.abs(
                          rep.tangent_curve.components - lin_back.v1))), 0.0))

    j0 = alpha.grid2.base_node()
    worst = 0.0
    for i in range(0, grid1.nodes.size, max(1, grid1.nodes.size // 8)):
        line = SampledCurve(alpha.grid2, alpha.points[i], order=2,
                            base_index=j0)
        d2 = curve_velocities(model, line)[j0]
        moved = transport_vector(model, axis, d2,
                                 float(grid1.nodes[i]), 0.0,
                                 substeps=substeps)
        comps = np.linalg.solve(
            frame0.columns,
            model.push_tangent(moved, frame0.base.chart_id).components)
        worst = max(worst, float(np.max(np.abs(comps - lin_back.v2[i, j0]))))
    out.append(_check("cubemaps.restriction_v2", worst, 1e-6))

    small1 = Grid.regular(-1.0, 1.0, 12)
    small2 = Grid.regular(-1.0, 1.0, 12)
    degenerate = CubeSample(
        grid1=small1, grid2=small2,
        points=tuple(tuple(p for _ in small2.nodes) for _ in small1.nodes))
    lin0 = p2_forward(model, degenerate, frame0, substeps=substeps)
    out.append(_check("cubemaps.degenerate",
                      max(float(np.max(np.abs(lin0.v1))),
                          float(np.max(np.abs(lin0.v2)))), 1e-10))
    return out


def polycurves_checks(model: ManifoldModel, seed: int,
                      substeps: int = 2) -> list[CheckResult]:
    rng = _rng(seed, 7)
    grid = Grid.regular(0.0, 1.0, 400)
    p = random_interior_point(model, rng)
    frame0 = model.orthonormal_frame(p)
    coeffs = PolyCoeffs(basis="monomial", degree=2,
                        coefficients=rng.uniform(-0.35, 0.35, size=(3, model.dim)),
                        interval=(0.0, 1.0))
    poly = make_polynomial_like(model, p, frame0, coeffs, grid,
                                substeps=substeps)
    out = [_check("polycurves.construction_residual", poly.residual, 1e-4)]

    if model.name == "euclidean2":
        lead = float(np.linalg.norm(coeffs.coefficients[-1]))
        low = covariant_power_residual(model, poly.realized, 2,
                                       substeps=substeps)
        out.append(_check("polycurves.low_order_nonvanishing",
                          low / lead, 0.1, ">="))

    wig = wiggly_tangent_curve(model, _rng(seed, 8), grid)
    curve = p_inverse(model, wig, substeps=substeps)
    r1 = conjugation_residual(model, curve, wig.frame0, substeps=substeps)
    grid_f = Grid.regular(0.0, 1.0, 800)
    wig_f = TangentCurve(wig.base, wig.frame0, grid_f,
                         _resample_components(wig, grid_f))
    curve_f = p_inverse(model, wig_f, substeps=substeps)
    r2 = conjugation_residual(model, curve_f, wig.frame0, substeps=substeps)
    order = math.log2(r1 / r2) if r2 > 0 else 5.0
    out.append(_check("polycurves.conjugation_residual", r1, 1e-4))
    out.append(_check("polycurves.conjugation_order", order, 2.0, ">="))

    resids = []
    c0s = {}
    for degree in (0, 1, 2, 3, 4, 5, 6, 10):
        fit = weierstrass_fit(model, curve, degree, frame0=wig.frame0,
                              substeps=substeps)
        resids.append(fit.v_residual)
        c0s[degree] = fit.c0_error
    worst_jump = max(resids[d + 1] - resids[d] for d in range(len(resids) - 1))
    out.append(_check("polycurves.weierstrass_monotone", worst_jump, 1e-12))
    out.append(_check("polycurves.weierstrass_improves",
                      c0s[10] / max(c0s[3], 1e-300), 1.0 - 1e-9, "<="))
    return out


def _resample_components(v: TangentCurve, grid: Grid) -> np.ndarray:
    # exact for the trig fixture: re-evaluate by interpolation of degree 11
    coeffs = fit_poly(v.components, v.grid, 11)
    return eval_poly(coeffs, grid)


def bundleflow_checks(model: ManifoldModel, seed: int,
                      substeps: int = 2) -> list[CheckResult]:
    rng = _rng(seed, 9)
    worst_phi = 0.0
    pairs = []
    for _ in range(50):
        p = random_interior_point(model, rng)
        r0 = model.r0(p)
        d = float(rng.uniform(0.05, min(0.45 * r0, 2.0)))
        q = model.exp_oracle(p, random_tangent(model, rng, p, norm=d))
        pairs.append((p, q))
        spec = make_carrier(model, p, q)
        worst_phi = max(worst_phi, model.dist_oracle(phi(spec, p), q))
    out = [_check("bundleflow.phi_endpoint", worst_phi, 1e-6)]

    worst_group = 0.0
    for p, q in pairs[:10]:
        spec = make_carrier(model, p, q)
        m = model.exp_oracle(p, random_tangent(model, rng, p, norm=0.2))
        s, t = rng.uniform(-1.0, 1.0, size=2)
        ab = flow(spec, flow(spec, m, float(s)), float(t))
        once = flow(spec, m, float(s + t))
        worst_group = max(worst_group, model.dist_oracle(ab, once))
    out.append(_check("bundleflow.flow_group_law", worst_group, 1e-5))

    p, q = pairs[0]
    spec = make_carrier(model, p, q)
    worst_support = 0.0
    for _ in range(20):
        u = random_tangent(model, rng, p,
                           norm=float(rng.uniform(1.0, 1.4)) * spec.r_out)
        far = model.exp_oracle(p, u)
        worst_support = max(worst_support, float(np.max(np.abs(
            carrier_field(spec, far).components))))
    out.append(_check("bundleflow.support_exact", worst_support, 0.0))

    grid = Grid.regular(0.0, 1.0, 400)
    rngc = _rng(seed, 10)
    base = random_interior_point(model, rngc)
    frame0 = model.orthonormal_frame(base)
    comps = eval_poly(PolyCoeffs(
        "bernstein", 3, rngc.uniform(-0.4, 0.4, size=(4, model.dim)),
        (0.0, 1.0)), grid)
    curve = p_inverse(model, TangentCurve(base, frame0, grid, comps),
                      substeps=substeps)
    fiber = model.exp_oracle(base, random_tangent(model, rngc, base, norm=0.3))
    triv = TrivializationChart(model, base)
    sigma = trivialize(triv, fiber, curve)
    start_err = model.dist_oracle(sigma.points[curve.base_index], fiber)
    _, back = untrivialize(triv, sigma)
    worst_triv = np.max(model.point_distances(curve.points, back.points))
    out.append(_check("bundleflow.trivialize_start", start_err, 1e-6))
    out.append(_check("bundleflow.trivialize_roundtrip", worst_triv, 1e-5))

    section = [Tangent(pt, 0.04 * np.array([math.sin(3.0 * t),
                                            math.cos(2.0 * t)]))
               for pt, t in zip(curve.points, grid.nodes)]
    nearby = mapping_chart_out(model, curve, section)
    sec_back = mapping_chart_in(model, curve, nearby)
    worst_map = max(float(np.max(np.abs(a.components - b.components)))
                    for a, b in zip(section, sec_back))
    out.append(_check("bundleflow.mapping_inverse", worst_map, 1e-8))

    ref2 = mapping_chart_out(model, curve,
                             [Tangent(pt, np.array([0.02, -0.015]))
                              for pt in curve.points])
    crossed = mapping_chart_in(model, ref2, nearby)
    nearby_back = mapping_chart_out(model, ref2, crossed)
    worst_cross = np.max(model.point_distances(nearby.points,
                                               nearby_back.points))
    out.append(_check("bundleflow.mapping_cross_reference", worst_cross, 1e-7))

    # a clearly immersed fixture: the unit-speed bound presupposes the
    # speed stays well above the immersion floor
    ph = rngc.uniform(0.0, 2.0 * math.pi, size=2)
    imm_comps = np.stack([
        0.7 + 0.15 * np.sin(3.0 * grid.nodes + ph[0]),
        0.2 * np.cos(2.0 * grid.nodes + ph[1]),
    ], axis=1)
    immersed = p_inverse(model, TangentCurve(base, frame0, grid, imm_comps),
                         substeps=substeps)
    normalized = arclength_normalize(model, immersed)
    out.append(_check("bundleflow.arclength_unit_speed",
                      np.max(np.abs(curve_speeds(model, normalized) - 1.0)),
                      1e-4))
    again = arclength_normalize(model, normalized)
    out.append(_check("bundleflow.arclength_idempotent",
                      np.max(model.point_distances(normalized.points,
                                                   again.points)),
                      1e-5))
    return out


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def run_model_suite(model_name: str, seed: int = 0, substeps: int = 2,
                    cube_n: int = 200) -> dict:
    """Run every module's invariants for one model; returns a report dict."""
    model = get_model(model_name)
    checks: list[CheckResult] = []
    checks += geometry_checks(model, seed)
    checks += numerics_checks(seed)
    checks += transport_checks(model, seed, substeps)
    checks += linearize_checks(model, seed, substeps)
    checks += cubemaps_checks(model, seed, substeps, n=cube_n)
    checks += polycurves_checks(model, seed, substeps)
    checks += bundleflow_checks(model, seed, substeps)
    return {
        "schema_version": SUITE_VERSION,
        "kind": "suite_report",
        "model": model_name,
        "seed": seed,
        "n_substeps": substeps,
        "cube_n": cube_n,
        "checks": [
            {"name": c.name, "value": repr(c.value), "bound": repr(c.bound),
             "comparison": c.comparison, "passed": c.passed}
            for c in checks
        ],
        "all_pass": all(c.passed for c in checks),
    }
