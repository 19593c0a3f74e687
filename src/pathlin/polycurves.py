"""Polynomial-like curves and curve approximation.

A curve is polynomial-like of degree n when the n-th iterated covariant
derivative of its velocity vanishes; a geodesic is the degree-1 case.
Realizing a polynomial tangent-space curve through the inverse linearization
produces exactly such curves, and the conjugation identity

    transport of (nabla_gammadot gammadot)(t) to the basepoint
        = d/dt of the linearized components

is what makes the correspondence degree-preserving.  Density of these curves
is witnessed by least-squares fitting in the linearized space.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import GridTooCoarse, ValidationError
from .geometry import Frame, ManifoldModel, Point, Tangent
from .linearize import TangentCurve, _p_forward_detailed, p_inverse
from .numerics import (Grid, PolyCoeffs, differentiate, eval_poly, fd_weights,
                       fit_poly, fit_residual)
from .transport import SampledCurve, covariant_derivative, curve_velocities


@dataclass(frozen=True)
class PolyLikeCurve:
    base: Point
    frame0: Frame
    coeffs: PolyCoeffs
    realized: SampledCurve
    residual: float        # iterated covariant-derivative residual, order d+1


@dataclass(frozen=True)
class WeierstrassFit:
    curve: PolyLikeCurve
    c0_error: float        # sup pointwise distance to the fitted curve
    c1_error: float        # sup basepoint norm of the linearized velocity gap
    v_residual: float      # discrete L2 residual of the component fit


# Iterated stencils amplify double-precision roundoff by roughly
# (sum|w|/12h) per differentiation, so residual orders beyond this are
# noise at practical grid sizes and are reported as nan.
_MAX_RESIDUAL_ORDER = 3


def make_polynomial_like(model: ManifoldModel, base: Point, frame0: Frame,
                         coeffs: PolyCoeffs, grid: Grid,
                         substeps: int = 2) -> PolyLikeCurve:
    """Realize a polynomial tangent-space curve; the result has vanishing
    iterated covariant derivative of order degree + 1 up to grid error.

    The verifying residual is stored for orders the grid and double
    precision can support, nan otherwise.
    """
    comps = eval_poly(coeffs, grid)
    v = TangentCurve(base=base, frame0=frame0, grid=grid, components=comps)
    realized = p_inverse(model, v, substeps=substeps,
                         order=max(2, coeffs.degree + 1))
    order = coeffs.degree + 1
    if order <= _MAX_RESIDUAL_ORDER and grid.n_intervals >= 4 * order:
        res = covariant_power_residual(model, realized, order,
                                       substeps=substeps)
    else:
        res = float("nan")
    return PolyLikeCurve(base=base, frame0=frame0, coeffs=coeffs,
                         realized=realized, residual=res)


def covariant_power_residual(model: ManifoldModel, curve: SampledCurve,
                             n: int, substeps: int = 2) -> float:
    """Sup norm of the n-fold covariant derivative of the velocity, with a
    boundary band of 2n nodes excluded (iterated stencils pollute the band)."""
    if n < 1:
        raise ValidationError("derivative order must be at least 1")
    n_int = curve.grid.n_intervals
    if n_int < 4 * n:
        raise GridTooCoarse(f"need at least {4 * n} intervals for order {n}")
    field = curve_velocities(model, curve)
    for _ in range(n):
        field = covariant_derivative(model, curve, field)
    band = 2 * n
    return max(model.g_norm(field[j])
               for j in range(band, len(field) - band))


def conjugation_residual(model: ManifoldModel, curve: SampledCurve,
                         frame0: Frame | None = None,
                         substeps: int = 2) -> float:
    """Sup distance between the covariant acceleration transported to the
    basepoint and the grid derivative of the linearized components."""
    if curve.order < 2:
        raise ValidationError("conjugation residual needs curve order >= 2")
    frame0, comps, (charts, _, cols, _), velocities = _p_forward_detailed(
        model, curve, frame0, substeps)
    accel = covariant_derivative(model, curve,
                                 map(Tangent, curve.points, velocities))
    dv = differentiate(comps, curve.grid)
    gram = model.frame_gram(frame0)
    worst = 0.0
    for a, chart, e, d in zip(accel, charts, cols, dv):
        if a.base.chart_id != chart:
            a = model.push_tangent(a, chart)
        gap = np.linalg.solve(e, a.components) - d
        worst = max(worst, float(np.sqrt(max(gap @ gram @ gap, 0.0))))
    return worst


def weierstrass_fit(model: ManifoldModel, curve: SampledCurve, degree: int,
                    basis: str = "bernstein", frame0: Frame | None = None,
                    substeps: int = 2) -> WeierstrassFit:
    """Approximate a curve by a polynomial-like curve of the given degree.

    Fits the linearized components by least squares, realizes the fit, and
    reports the sup pointwise distance (C0) plus the sup basepoint-norm gap
    of the two linearizations (the transported-velocity C1 distance).
    """
    if frame0 is None:
        frame0 = model.orthonormal_frame(curve.basepoint)
    comps = _p_forward_detailed(model, curve, frame0, substeps)[1]
    coeffs = fit_poly(comps, curve.grid, degree, basis)
    poly = make_polynomial_like(model, frame0.base, frame0, coeffs,
                                curve.grid, substeps=substeps)
    c0 = np.max([model.point_distance(a, b)
                 for a, b in zip(curve.points, poly.realized.points)])
    comps_fit = _p_forward_detailed(model, poly.realized, frame0, substeps)[1]
    gram = model.frame_gram(frame0)
    gaps = comps - comps_fit
    c1 = float(np.sqrt(np.maximum(
        np.einsum("ji,ik,jk->j", gaps, gram, gaps), 0.0)).max())
    return WeierstrassFit(curve=poly, c0_error=float(c0), c1_error=c1,
                          v_residual=fit_residual(comps, curve.grid, coeffs))


def taylor_coefficients(model: ManifoldModel, curve: SampledCurve, order: int,
                        frame0: Frame | None = None,
                        substeps: int = 2) -> np.ndarray:
    """Taylor coefficients of the linearized curve at the base node.

    Returns (order + 1, m): one-sided finite-difference derivatives of the
    components divided by factorials, independent of any polynomial fit.
    """
    if curve.order < order + 1:
        raise ValidationError("curve order must exceed the Taylor order")
    comps = _p_forward_detailed(model, curve, frame0, substeps)[1]
    base = curve.base_index
    width = order + 4
    if base + width > comps.shape[0]:
        raise GridTooCoarse(
            f"need {width} nodes right of the base node for order {order}")
    xs = curve.grid.nodes[base:base + width] - curve.grid.nodes[base]
    weights = fd_weights(xs, 0.0, order)
    window = comps[base:base + width]
    return np.stack([(weights[k] @ window) / factorial(k)
                     for k in range(order + 1)])
