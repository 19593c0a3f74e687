"""Command-line surface.

Commands load and validate their inputs completely before any computation,
so validation failures never print partial numeric output.  Exit codes:
0 success, 2 invalid input, 3 numerical failure or tolerance violation
(the latter downgraded to a report entry by --tolerance-report-only; there
is no flag that loosens a tolerance).  A metric that is not finite is a
numerical failure: no command exits 0 reporting one.  So is a grid too
coarse for its data: every command that writes a curve file checks the
curve like a curve file it reads and, when consecutive samples share no
chart or are too far apart, exits 3 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import bundleflow, fileio
from .bundleflow import (TrivializationChart, arclength_normalize, flow,
                         flow_points, make_carrier, trivialize, untrivialize)
from .cubemaps import p2_forward, p2_inverse
from .errors import (ChartContinuationFailure, GridTooCoarse, IllConditioned,
                     NonFiniteState, NotImmersed, OutOfInjectivityRange,
                     PathlinError, ValidationError)
from .geometry import Point
from .linearize import p_forward, p_inverse, roundtrip_check
from .models import MODEL_NAMES, get_model, manifest
from .polycurves import weierstrass_fit
from .suite import run_model_suite
from .transport import curve_speeds

_NUMERICAL_ERRORS = (NonFiniteState, ChartContinuationFailure, IllConditioned,
                     OutOfInjectivityRange, NotImmersed, GridTooCoarse)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _parse_point(model, text: str, flag: str) -> Point:
    try:
        chart, rest = text.split(":", 1)
        coords = np.array([float(x) for x in rest.split(",")])
    except ValueError:
        raise ValidationError(
            f"{flag} must look like CHART:x,y (got {text!r})")
    return fileio.point_from_json(model, {"chart": chart,
                                          "coords": coords.tolist()}, flag)


def _dump_curve(model, curve, path) -> None:
    """Write a curve file once the curve passes the check a curve file
    gets when it is read; GridTooCoarse, and nothing written, if not."""
    try:
        fileio.validate_curve(model, curve)
    except ValidationError as exc:
        raise GridTooCoarse("the grid is too coarse for this curve: "
                            f"{exc}") from exc
    fileio.dump_json(fileio.curve_to_json(model, curve), path)


def _finish(args, command: str, tolerances: dict, metrics: dict,
            passes: dict, extra: dict | None = None) -> int:
    for key, value in metrics.items():
        if not isinstance(value, str) and not np.isfinite(value).all():
            raise NonFiniteState(f"{command}: metric {key} = {value}")
    report = fileio.report_to_json(command, tolerances, metrics, passes, extra)
    report["argv"] = list(getattr(args, "_argv", []))
    if getattr(args, "report", None):
        fileio.dump_json(report, args.report)
    for key in sorted(metrics):
        print(f"{command}: {key} = {metrics[key]}")
    failed = [k for k, ok in passes.items() if not ok]
    if failed:
        print(f"{command}: FAILED {', '.join(sorted(failed))}")
        return EXIT_OK if args.tolerance_report_only else EXIT_NUMERICAL
    if passes:
        print(f"{command}: all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_models(args) -> int:
    if args.describe:
        payload = manifest(get_model(args.describe))
    else:
        payload = {"models": list(MODEL_NAMES)}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_linearize(args) -> int:
    model, curve = fileio.curve_from_json(fileio.load_json(args.curve))
    frame0 = (model.coordinate_frame(curve.basepoint)
              if args.frame == "coordinate"
              else model.orthonormal_frame(curve.basepoint))
    rep = p_forward(model, curve, frame0, substeps=args.n_substeps)
    fileio.dump_json(fileio.tangent_curve_to_json(model, rep.tangent_curve),
                     args.output)
    if args.csv:
        fileio.tangent_curve_to_csv(model, rep.tangent_curve, args.csv)
    return _finish(
        args, "linearize",
        tolerances={"norm_drift": 1e-4},
        metrics={"norm_drift": rep.norm_drift, "h": rep.h,
                 "switches": len(rep.switch_log)},
        passes={"norm_drift": rep.norm_drift < 1e-4},
        extra={"switch_log": [list(s) for s in rep.switch_log]})


def _cmd_synthesize(args) -> int:
    model, v = fileio.tangent_curve_from_json(fileio.load_json(args.tangent))
    curve = p_inverse(model, v, substeps=args.n_substeps)
    _dump_curve(model, curve, args.output)
    if args.csv:
        fileio.curve_to_csv(model, curve, args.csv)
    return _finish(args, "synthesize", tolerances={}, metrics={
        "nodes": curve.grid.nodes.size,
        "charts": len(set(curve.points.charts))}, passes={})


def _cmd_roundtrip(args) -> int:
    model, curve = fileio.curve_from_json(fileio.load_json(args.curve))
    rt = roundtrip_check(model, curve, substeps=args.n_substeps)
    metric_kind = ("oracle_distance" if model.oracle is not None
                   else "coordinate_distance")
    return _finish(
        args, "roundtrip",
        tolerances={"max_distance": 1e-5, "norm_drift": 1e-4},
        metrics={"max_distance": rt.max_distance,
                 "norm_drift": rt.forward.norm_drift},
        passes={"max_distance": rt.max_distance < 1e-5,
                "norm_drift": rt.forward.norm_drift < 1e-4},
        extra={"comparison_metric": metric_kind,
               "switch_log": [list(s) for s in rt.forward.switch_log]})


def _cmd_cube2(args) -> int:
    payload = fileio.load_json(args.input)
    if args.direction == "forward":
        model, cube = fileio.cube_from_json(payload)
        out = p2_forward(model, cube, substeps=args.n_substeps)
        fileio.dump_json(fileio.cube_linearization_to_json(model, out),
                         args.output)
    else:
        model, lin = fileio.cube_linearization_from_json(payload)
        out = p2_inverse(model, lin, substeps=args.n_substeps)
        fileio.dump_json(fileio.cube_to_json(model, out), args.output)
    return _finish(args, f"cube2-{args.direction}", tolerances={},
                   metrics={"grid1_nodes": out.grid1.nodes.size,
                            "grid2_nodes": out.grid2.nodes.size}, passes={})


def _cmd_polyfit(args) -> int:
    model, curve = fileio.curve_from_json(fileio.load_json(args.curve))
    fit = weierstrass_fit(model, curve, args.degree, basis=args.basis,
                          substeps=args.n_substeps)
    if args.output:
        _dump_curve(model, fit.curve.realized, args.output)
    metrics = {"c0_error": fit.c0_error, "c1_error": fit.c1_error,
               "fit_residual": fit.v_residual}
    if math.isfinite(fit.curve.residual):
        metrics["construction_residual"] = fit.curve.residual
    return _finish(args, "polyfit", tolerances={}, metrics=metrics, passes={})


def _cmd_flow(args) -> int:
    model = get_model(args.model)
    p = _parse_point(model, args.p, "--p")
    q = _parse_point(model, args.q, "--q")
    _, points = fileio.points_from_json(fileio.load_json(args.points))
    spec = make_carrier(model, p, q)
    moved = flow_points(spec, points, args.time)
    fileio.dump_json(fileio.points_to_json(model, moved), args.output)
    endpoint = model.dist_oracle(flow(spec, p, args.time), q) \
        if args.time == 1.0 else None
    metrics = {"points": len(moved), "time": args.time}
    tolerances = {}
    passes = {}
    if endpoint is not None:
        metrics["phi_p_to_q_error"] = endpoint
        tolerances["phi_p_to_q_error"] = 1e-6
        passes["phi_p_to_q_error"] = endpoint < 1e-6
    return _finish(args, "flow", tolerances, metrics, passes)


def _cmd_trivialize(args) -> int:
    model, curve = fileio.curve_from_json(fileio.load_json(args.curve))
    if args.inverse:
        base = _parse_point(model, args.base, "--base")
        chart = TrivializationChart(model, base)
        fiber, back = untrivialize(chart, curve)
        _dump_curve(model, back, args.output)
        start_err = model.dist_oracle(back.points[back.base_index], base)
        metrics = {"fiber_chart": fiber.chart_id,
                   "fiber_coords": [float(c) for c in fiber.coords],
                   "start_error": start_err}
        passes = {"start_error": start_err < 1e-6}
        return _finish(args, "untrivialize", {"start_error": 1e-6},
                       metrics, passes)
    fiber = _parse_point(model, args.fiber, "--fiber")
    chart = TrivializationChart(model, curve.basepoint)
    sigma = trivialize(chart, fiber, curve)
    _dump_curve(model, sigma, args.output)
    start_err = model.dist_oracle(sigma.points[sigma.base_index], fiber)
    return _finish(args, "trivialize", {"start_error": 1e-6},
                   {"start_error": start_err},
                   {"start_error": start_err < 1e-6})


def _cmd_normalize(args) -> int:
    model, curve = fileio.curve_from_json(fileio.load_json(args.curve))
    out = arclength_normalize(model, curve, immersion_floor=args.floor)
    _dump_curve(model, out, args.output)
    dev = float(np.max(np.abs(curve_speeds(model, out) - 1.0)))
    return _finish(args, "normalize", {"unit_speed_deviation": 1e-4},
                   {"unit_speed_deviation": dev,
                    "length": float(out.grid.nodes[-1] - out.grid.nodes[0])},
                   {"unit_speed_deviation": dev < 1e-4})


def _cmd_check(args) -> int:
    names = list(MODEL_NAMES) if args.model == "all" else [args.model]
    for name in names:
        get_model(name)   # ValidationError naming the models, before output
    reports = []
    all_pass = True
    for name in sorted(names):
        report = run_model_suite(name, seed=args.seed,
                                 substeps=args.n_substeps,
                                 cube_n=args.cube_n)
        reports.append(report)
        print(f"== {name} (seed {args.seed}) ==")
        for c in report["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"  {mark}  {c['name']:42s} {c['value']} "
                  f"{c['comparison']} {c['bound']}")
        all_pass = all_pass and report["all_pass"]
    if args.report:
        fileio.dump_json({"schema_version": fileio.SCHEMA_VERSION,
                          "kind": "check_report", "seed": args.seed,
                          "reports": reports, "all_pass": all_pass},
                         args.report)
    print("check: " + ("all pass" if all_pass else "FAILURES"))
    if all_pass:
        return EXIT_OK
    return EXIT_OK if args.tolerance_report_only else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n-substeps", type=int, default=2,
                        help="RK4 substeps per grid interval (default 2)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the invariant suite")
    common.add_argument("--tolerance-report-only", action="store_true",
                        help="report tolerance violations without failing")
    common.add_argument("--report", help="write a JSON report here")

    parser = argparse.ArgumentParser(
        prog="pathlin",
        description="Numerical path-space linearization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", parents=[common],
                       help="list models or describe one")
    p.add_argument("--describe", metavar="NAME")
    p.set_defaults(handler=_cmd_models)

    p = sub.add_parser("linearize", parents=[common],
                       help="curve file -> tangent-curve file")
    p.add_argument("curve")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--frame", choices=("orthonormal", "coordinate"),
                   default="orthonormal")
    p.add_argument("--csv")
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("synthesize", parents=[common],
                       help="tangent-curve file -> curve file")
    p.add_argument("tangent")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--csv")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("roundtrip", parents=[common],
                       help="linearize then synthesize and compare")
    p.add_argument("curve")
    p.set_defaults(handler=_cmd_roundtrip)

    p = sub.add_parser("cube2", parents=[common],
                       help="square-map linearization and its inverse")
    p.add_argument("direction", choices=("forward", "inverse"))
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_cube2)

    p = sub.add_parser("polyfit", parents=[common],
                       help="polynomial-like approximation of a curve")
    p.add_argument("curve")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--basis", choices=("bernstein", "monomial"),
                   default="bernstein")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_polyfit)

    p = sub.add_parser("flow", parents=[common],
                       help="apply the carrier-field flow to a points file")
    p.add_argument("model", choices=MODEL_NAMES)
    p.add_argument("--p", required=True, metavar="CHART:x,y")
    p.add_argument("--q", required=True, metavar="CHART:x,y")
    p.add_argument("points")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--time", type=float, default=1.0)
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("trivialize", parents=[common],
                       help="carry a curve over its basepoint to a fiber point")
    p.add_argument("curve")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--fiber", metavar="CHART:x,y")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--base", metavar="CHART:x,y",
                   help="base point of the trivialization (inverse mode)")
    p.set_defaults(handler=_cmd_trivialize)

    p = sub.add_parser("normalize", parents=[common],
                       help="unit-speed reparametrization")
    p.add_argument("curve")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--floor", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("check", parents=[common],
                       help="run the invariant suite")
    p.add_argument("model", help="model name or 'all'")
    p.add_argument("--cube-n", type=int, default=200,
                   help="cube resolution per axis (default 200)")
    p.set_defaults(handler=_cmd_check)
    return parser


def _validate_args(args) -> None:
    if args.n_substeps < 1:
        raise ValidationError("--n-substeps must be positive")
    if args.seed < 0:
        raise ValidationError("--seed must be at least 0")
    if args.command == "normalize" and \
            not (math.isfinite(args.floor) and args.floor >= 0):
        raise ValidationError("--floor must be a finite number >= 0")
    max_time = fileio._MAX_INTERVALS / bundleflow.FLOW_STEPS_PER_UNIT_TIME
    if args.command == "flow" and not abs(args.time) <= max_time:  # nan too
        raise ValidationError(f"--time must be finite, |time| <= {max_time:g}")
    if args.command == "check" and args.cube_n < 4:
        raise ValidationError("--cube-n must be at least 4")
    if args.command == "trivialize":
        if args.inverse and not args.base:
            raise ValidationError("--inverse requires --base CHART:x,y")
        if not args.inverse and not args.fiber:
            raise ValidationError("trivialize requires --fiber CHART:x,y")


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        _validate_args(args)
        return args.handler(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PathlinError as exc:   # ValidationError, NoOverlap, NoOracle
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
