"""Spans and counters recorded from the benchmark's side of the API.

`install` wraps pathlin functions at every name a module binds them under
(for example both `pathlin.linearize.transport_frame` and
`pathlin.cubemaps.transport_frame`), so calls between layers are seen
without touching the library.  Span wrappers record name, start, end,
parent span and op id; counting wrappers add to per-op counters.  Nothing
is recorded outside an op, so set-up and per-op checks stay untraced.
`uninstall` puts every original back.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Span name -> (module, function).  Each is a layer's public entry point or
# a private one that another layer calls.
SPANS = {
    "linearize.p_forward": ("linearize", "p_forward"),
    "linearize._p_forward_detailed": ("linearize", "_p_forward_detailed"),
    "linearize.p_inverse": ("linearize", "p_inverse"),
    "linearize.p_inverse_detailed": ("linearize", "p_inverse_detailed"),
    "linearize.roundtrip_check": ("linearize", "roundtrip_check"),
    "transport.transport_frame": ("transport", "transport_frame"),
    "transport.curve_velocities": ("transport", "curve_velocities"),
    "transport.covariant_derivative": ("transport", "covariant_derivative"),
    "transport.transport_vector": ("transport", "transport_vector"),
    "cubemaps.p2_forward": ("cubemaps", "p2_forward"),
    "cubemaps.p2_inverse": ("cubemaps", "p2_inverse"),
    "bundleflow.arclength_normalize": ("bundleflow", "arclength_normalize"),
    "bundleflow.trivialize": ("bundleflow", "trivialize"),
    "bundleflow.untrivialize": ("bundleflow", "untrivialize"),
    "polycurves.weierstrass_fit": ("polycurves", "weierstrass_fit"),
    "polycurves.make_polynomial_like": ("polycurves", "make_polynomial_like"),
    "polycurves.covariant_power_residual":
        ("polycurves", "covariant_power_residual"),
    "fileio.load_json": ("fileio", "load_json"),
    "fileio.curve_from_json": ("fileio", "curve_from_json"),
    "fileio.tangent_curve_from_json": ("fileio", "tangent_curve_from_json"),
    "fileio.dump_json": ("fileio", "dump_json"),
    "fileio.curve_to_json": ("fileio", "curve_to_json"),
    "fileio.tangent_curve_to_json": ("fileio", "tangent_curve_to_json"),
    "fileio.report_to_json": ("fileio", "report_to_json"),
    "cli.run": ("cli", "run"),
}

# Per-layer time metric -> the spans whose self time it sums per op.
TIME_METRICS = {
    "linearize.p_inverse_ms": ("linearize.p_inverse",
                               "linearize.p_inverse_detailed"),
    "linearize.p_forward_self_ms": ("linearize.p_forward",
                                    "linearize._p_forward_detailed"),
    "transport.transport_frame_ms": ("transport.transport_frame",),
    "transport.curve_velocities_ms": ("transport.curve_velocities",),
    "cubemaps.p2_forward_self_ms": ("cubemaps.p2_forward",),
    "cubemaps.p2_inverse_self_ms": ("cubemaps.p2_inverse",),
    "bundleflow.arclength_normalize_ms": ("bundleflow.arclength_normalize",),
    "bundleflow.trivialize_ms": ("bundleflow.trivialize",
                                 "bundleflow.untrivialize"),
    "polycurves.weierstrass_fit_self_ms": (
        "polycurves.weierstrass_fit", "polycurves.make_polynomial_like",
        "polycurves.covariant_power_residual"),
    "fileio.read_ms": ("fileio.load_json", "fileio.curve_from_json",
                       "fileio.tangent_curve_from_json"),
    "fileio.write_ms": ("fileio.dump_json", "fileio.curve_to_json",
                        "fileio.tangent_curve_to_json",
                        "fileio.report_to_json"),
    "cli.self_ms": ("cli.run",),
}

# Per-layer count metric -> unit.
COUNT_METRICS = {
    "geometry.christoffel_calls": "count",
    "geometry.christoffel_points": "count",
    "geometry.transition_calls": "count",
    "geometry.chart_switches": "count",
    "geometry.frame_objects": "count",
    "geometry.point_objects": "count",
    "transport.transport_frame_calls": "count",
    "linalg.solve_calls": "count",
    "models.oracle_calls": "count",
    "numerics.lagrange_weight_calls": "count",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
}

_CHRISTOFFEL_METHODS = ("christoffel", "christoffel_batch",
                        "christoffel_action", "christoffel_action_batch")
_TRANSITION_METHODS = ("transition", "transition_jacobian")
_ORACLE_METHODS = ("exp", "log", "dist", "dist_from", "log_from", "exp_from")
_LAGRANGE_FUNCTIONS = ("lagrange_weights", "lagrange_integral_weights")


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    self_ns: int


class Tracer:
    """In-memory spans plus per-op counters of the op in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[list] = []     # [span_id, child_ns] per open span
        self._ids = itertools.count()
        self._undo: list = []

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.counts = Counter()

    def end_op(self) -> Counter:
        self.op = None
        return self.counts

    # -- wrappers -----------------------------------------------------------

    def spanned(self, name: str, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [next(self._ids), 0]
            self._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(Span(
                    frame[0], name, start, end,
                    None if parent is None else parent[0], self.op,
                    end - start - frame[1]))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, amount=None):
        """Count calls of fn; `amount(args, kwargs, result)` gives the
        increment when it is not 1."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op is not None:
                self.counts[name] += 1 if amount is None else \
                    amount(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        """Rebind every pathlin module attribute that holds fn."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pathlin" and not mod_name.startswith("pathlin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, model_names) -> None:
        import pathlin  # noqa: F401  (loads every layer module)
        from pathlin import geometry, models, numerics

        modules = {name: sys.modules["pathlin." + name]
                   for name in {mod for mod, _ in SPANS.values()}}
        for span_name, (mod_name, fn_name) in SPANS.items():
            fn = getattr(modules[mod_name], fn_name)
            wrapper = self.spanned(span_name, fn)
            if span_name == "transport.transport_frame":
                wrapper = self.counted("transport.transport_frame_calls",
                                       wrapper)
            elif span_name == "fileio.load_json":
                wrapper = self.counted(
                    "fileio.bytes_read", wrapper,
                    lambda args, kwargs, result: os.path.getsize(args[0]))
            elif span_name == "fileio.dump_json":
                wrapper = self.counted(
                    "fileio.bytes_written", wrapper,
                    lambda args, kwargs, result: os.path.getsize(args[1]))
            self._replace_everywhere(fn, wrapper)

        for fn_name in _LAGRANGE_FUNCTIONS:
            fn = getattr(numerics, fn_name)
            self._replace_everywhere(
                fn, self.counted("numerics.lagrange_weight_calls", fn))

        self._set(np.linalg, "solve",
                  self.counted("linalg.solve_calls", np.linalg.solve))
        for cls, name in ((geometry.Frame, "geometry.frame_objects"),
                          (geometry.Point, "geometry.point_objects")):
            self._set(cls, "__init__", self.counted(name, cls.__init__))

        def points(args, kwargs, result):
            coords = np.asarray(args[1])
            return 1 if coords.ndim == 1 else coords.shape[0]

        def switched(args, kwargs, result):
            return int(result.chart_id != args[0].chart_id)

        for model_name in model_names:
            model = models.get_model(model_name)
            for method in _CHRISTOFFEL_METHODS:
                bound = getattr(model, method)
                self._set(model, method, self.counted(
                    "geometry.christoffel_points",
                    self.counted("geometry.christoffel_calls", bound),
                    points))
            for method in _TRANSITION_METHODS:
                self._set(model, method, self.counted(
                    "geometry.transition_calls", getattr(model, method)))
            self._set(model, "select_chart", self.counted(
                "geometry.chart_switches", model.select_chart, switched))
            if model.oracle is not None:
                for method in _ORACLE_METHODS:
                    self._set(model.oracle, method, self.counted(
                        "models.oracle_calls", getattr(model.oracle, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()


def self_time_by_op(spans: list[Span]) -> dict[int, Counter]:
    """Summed self time in ns per op and span name."""
    out: dict[int, Counter] = {}
    for span in spans:
        out.setdefault(span.op, Counter())[span.name] += span.self_ns
    return out
