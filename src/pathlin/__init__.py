"""Numerical path-space linearization on chart-atlas Riemannian manifolds.

The core pair is `p_forward` (curve -> tangent-space curve by parallel
transport of the velocity back to the basepoint) and `p_inverse` (the
coupled position+frame initial-value problem that realizes a tangent-space
curve).  Around it: frame/vector transport with automatic chart
continuation, the two-parameter square-map version, polynomial-like curve
approximation, carrier-field flows with the local trivializations they
build, and four model geometries with closed-form oracles.
"""

from .bundleflow import (CarrierFieldSpec, TrivializationChart,
                         arclength_normalize, carrier_field, flow,
                         make_carrier, mapping_chart_in, mapping_chart_out,
                         phi, trivialize, untrivialize)
from .cubemaps import CubeLinearization, CubeSample, p2_forward, p2_inverse
from .errors import (ChartContinuationFailure, GridTooCoarse, IllConditioned,
                     NoOracle, NoOverlap, NonFiniteState, NotImmersed,
                     OutOfInjectivityRange, PathlinError, ValidationError)
from .geometry import (ChartSpec, Frame, ManifoldModel, Oracle, Point,
                       Samples, Tangent, TransitionMap)
from .linearize import (LinearizationReport, RoundtripReport, TangentCurve,
                        basis_independence_check, chart_independence_check,
                        p_forward, p_inverse, rescale_to_unit,
                        roundtrip_check)
from .models import MODEL_NAMES, get_model, manifest
from .numerics import Grid, PolyCoeffs, differentiate, eval_poly, fit_poly, integrate
from .polycurves import (PolyLikeCurve, WeierstrassFit, conjugation_residual,
                         covariant_power_residual, make_polynomial_like,
                         taylor_coefficients, weierstrass_fit)
from .transport import (FrameField, SampledCurve, covariant_derivative,
                        curve_velocities, transport_frame, transport_vector)

__version__ = "0.1.0"

__all__ = [
    "CarrierFieldSpec", "TrivializationChart", "arclength_normalize",
    "carrier_field", "flow", "make_carrier", "mapping_chart_in",
    "mapping_chart_out", "phi", "trivialize", "untrivialize",
    "CubeLinearization", "CubeSample", "p2_forward", "p2_inverse",
    "ChartContinuationFailure", "GridTooCoarse", "IllConditioned", "NoOracle",
    "NoOverlap", "NonFiniteState", "NotImmersed", "OutOfInjectivityRange",
    "PathlinError", "ValidationError",
    "ChartSpec", "Frame", "ManifoldModel", "Oracle", "Point", "Samples",
    "Tangent", "TransitionMap",
    "LinearizationReport", "RoundtripReport", "TangentCurve",
    "basis_independence_check", "chart_independence_check", "p_forward",
    "p_inverse", "rescale_to_unit", "roundtrip_check",
    "MODEL_NAMES", "get_model", "manifest",
    "Grid", "PolyCoeffs", "differentiate", "eval_poly", "fit_poly",
    "integrate",
    "PolyLikeCurve", "WeierstrassFit", "conjugation_residual",
    "covariant_power_residual", "make_polynomial_like", "taylor_coefficients",
    "weierstrass_fit",
    "FrameField", "SampledCurve", "covariant_derivative", "curve_velocities",
    "transport_frame", "transport_vector",
    "__version__",
]
