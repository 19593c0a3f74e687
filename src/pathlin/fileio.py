"""JSON file formats (schema_version 1) and CSV emission.

All files carry "schema_version" and a "kind" discriminator:

  curve               grid + one chart-tagged sample per node
  tangent_curve       base point, basis columns, per-node components
  cube                grid1 x grid2 array of chart-tagged samples
  cube_linearization  base, basis, v1 (grid1) and v2 (grid1 x grid2)
  points              a bare list of chart-tagged points
  report              command echo, tolerances, metrics, pass flags

Loaders validate before anything is computed and raise ValidationError
naming the offending field.  Curve and cube samples are read into, and
written from, arrays (geometry.Samples), with a point's checks and a
samples[j] message per sample.  Writers emit canonical JSON (sorted keys,
two-space indent, trailing newline), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .cubemaps import CubeLinearization, CubeSample
from .errors import ValidationError
from .geometry import (Frame, ManifoldModel, OUTSIDE, Point, Samples,
                       chart_groups)
from .linearize import TangentCurve
from .models import get_model
from .numerics import Grid
from .transport import SampledCurve

SCHEMA_VERSION = 1


def dump_json(payload: dict, path) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})")


def _require(payload: dict, field: str, kind=None):
    if not isinstance(payload, dict):
        raise ValidationError(f"expected an object holding field {field!r}")
    if field not in payload:
        raise ValidationError(f"missing field {field!r}")
    value = payload[field]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(f"field {field!r} has the wrong type")
    return value


# The most grid intervals a file may ask for; checked before the grid's
# nodes are allocated.
_MAX_INTERVALS = 10**7


def _numeric(value, field: str, integer: bool = False, minimum: int = 0,
             maximum: float = math.inf, scalar: bool = False):
    """The one reader of numeric fields: a JSON number or a nested list of
    numbers becomes a finite float array (0-d with scalar set), or, with
    integer set, a Python int in [minimum, maximum].  Strings, booleans,
    nulls, ragged lists, non-finite values, lists where a number is wanted
    and fractions where an integer is wanted raise ValidationError naming
    the field."""
    try:
        arr = np.asarray(value)
    except (ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"field {field!r} must hold numbers only")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValidationError(f"field {field!r} must be finite")
    if (scalar or integer) and arr.ndim:
        raise ValidationError(f"field {field!r} must be a single number")
    if not integer:
        return arr
    if arr != int(arr) or not minimum <= arr <= maximum:
        bounds = (f">= {minimum}" if maximum == math.inf
                  else f"in [{minimum}, {maximum}]")
        raise ValidationError(f"field {field!r} must be an integer {bounds}")
    return int(arr)


def _check_header(payload: dict, kind: str):
    version = _numeric(_require(payload, "schema_version"), "schema_version",
                       integer=True)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}")
    actual = _require(payload, "kind", str)
    if actual != kind:
        raise ValidationError(f"expected kind {kind!r}, found {actual!r}")


def _model_of(payload: dict) -> ManifoldModel:
    return get_model(_require(payload, "manifold", str))


# -- grids -------------------------------------------------------------------

def grid_to_json(grid: Grid) -> dict:
    if grid.uniform:
        return {"start": float(grid.nodes[0]), "end": float(grid.nodes[-1]),
                "n": int(grid.n_intervals)}
    return {"nodes": [float(t) for t in grid.nodes]}


def grid_from_json(payload: dict, field: str = "grid") -> Grid:
    spec = _require(payload, field, dict)
    if "nodes" in spec:
        nodes = _numeric(spec["nodes"], f"{field}.nodes")
        if nodes.ndim == 1 and nodes.size < 5:
            raise ValidationError(f"field '{field}.nodes' needs at least 5 "
                                  "nodes")
        return Grid(nodes)
    for key in ("start", "end", "n"):
        if key not in spec:
            raise ValidationError(f"field {field!r} needs start/end/n or nodes")
    return Grid.regular(
        float(_numeric(spec["start"], f"{field}.start", scalar=True)),
        float(_numeric(spec["end"], f"{field}.end", scalar=True)),
        _numeric(spec["n"], f"{field}.n", integer=True, minimum=4,
                 maximum=_MAX_INTERVALS))


# -- points, frames ----------------------------------------------------------

def point_to_json(point: Point) -> dict:
    return {"chart": point.chart_id, "coords": [float(c) for c in point.coords]}


def _sample_from_json(model: ManifoldModel, payload: dict,
                      where: str) -> tuple[str, np.ndarray]:
    """A sample as (chart id, coordinates), checked but not yet placed."""
    chart = _require(payload, "chart", str)
    if chart not in model.charts:
        raise ValidationError(f"{where}: unknown chart {chart!r}")
    coords = _numeric(_require(payload, "coords", list), f"{where}.coords")
    if coords.shape != (model.dim,):
        raise ValidationError(f"{where}: coords must have length {model.dim}")
    return chart, coords


def point_from_json(model: ManifoldModel, payload: dict, where: str) -> Point:
    chart, coords = _sample_from_json(model, payload, where)
    if model.chart(chart).domain_test(coords) == OUTSIDE:
        raise ValidationError(f"{where}: point lies outside chart {chart!r}")
    return Point(chart, coords)


def _samples_from_json(model: ManifoldModel, entries: list,
                       where: str) -> Samples:
    """A list of samples; entry j is checked as {where}[j], and the first
    faulty entry is reported.  Fields are read up to the first malformed
    entry; the entries before it are then placed in their charts by one
    domain_test_many call per chart."""
    charts, coords, malformed = [], [], None
    try:
        for j, s in enumerate(entries):
            chart, x = _sample_from_json(model, s, f"{where}[{j}]")
            charts.append(chart)
            coords.append(x)
    except ValidationError as exc:
        malformed = exc
    coords = np.reshape(coords, (len(charts), model.dim))
    outside = [idx[model.chart(cid).domain_test_many(coords[idx]) == OUTSIDE]
               for cid, idx in chart_groups(charts).items()]
    j = min((int(idx[0]) for idx in outside if idx.size), default=None)
    if j is not None:
        raise ValidationError(f"{where}[{j}]: point lies outside chart {charts[j]!r}")
    if malformed is not None:
        raise malformed
    return Samples(charts, coords)


def _samples_to_json(charts, coords) -> list:
    return [{"chart": c, "coords": x.tolist()} for c, x in zip(charts, coords)]


def frame_to_json(frame: Frame) -> list:
    # one list per basis vector e_i (that is, the matrix columns)
    return [[float(c) for c in frame.columns[:, i]]
            for i in range(frame.columns.shape[1])]


def frame_from_json(base: Point, payload, where: str) -> Frame:
    cols = _numeric(payload, where)
    m = base.coords.size
    if cols.shape != (m, m):
        raise ValidationError(f"{where}: frame needs {m} vectors of length {m}")
    try:
        return Frame(base, cols.T)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}")


# -- curves --------------------------------------------------------------------

def curve_to_json(model: ManifoldModel, curve: SampledCurve) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "curve",
        "manifold": model.name,
        "grid": grid_to_json(curve.grid),
        "base_index": int(curve.base_index),
        "order": int(curve.order),
        "samples": _samples_to_json(curve.points.charts, curve.points.coords),
    }


def curve_from_json(payload: dict) -> tuple[ManifoldModel, SampledCurve]:
    _check_header(payload, "curve")
    model = _model_of(payload)
    grid = grid_from_json(payload)
    samples = _require(payload, "samples", list)
    if len(samples) != grid.nodes.size:
        raise ValidationError(
            f"field 'samples' has {len(samples)} entries but the grid has "
            f"{grid.nodes.size} nodes")
    points = _samples_from_json(model, samples, "samples")
    base_index = _numeric(payload.get("base_index", 0), "base_index",
                          integer=True)
    order = _numeric(payload.get("order", 1), "order", integer=True, minimum=1)
    curve = SampledCurve(grid=grid, points=points, order=order,
                         base_index=base_index)
    validate_curve(model, curve)
    return model, curve


def validate_curve(model: ManifoldModel, curve: SampledCurve) -> None:
    """Sampled-curve invariants: consecutive points share a chart after at
    most one transition and stay within the injectivity floor.  The first
    failing pair is reported, its chart test before its distance test."""
    pts = curve.points
    switch = [a != b for a, b in zip(pts.charts, pts.charts[1:])]
    far = np.zeros(len(switch), dtype=bool)
    if model.oracle is not None:
        dists = model.point_distances(pts[:-1], pts[1:])
        r0 = np.array([model.r0(pt) for pt in pts])
        far = dists >= np.minimum(r0[:-1], r0[1:])
    for j in np.flatnonzero(np.logical_or(switch, far)).tolist():
        if switch[j]:
            try:
                model.transition(pts[j + 1], pts.charts[j])
            except Exception:
                raise ValidationError(
                    f"samples[{j}] and samples[{j + 1}] share no chart")
        if far[j]:
            raise ValidationError(
                f"samples[{j}] and samples[{j + 1}] are {dists[j]:.4f} apart, "
                "beyond the injectivity floor")


# -- tangent curves -----------------------------------------------------------

def tangent_curve_to_json(model: ManifoldModel, v: TangentCurve) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tangent_curve",
        "manifold": model.name,
        "grid": grid_to_json(v.grid),
        "base": point_to_json(v.base),
        "frame0": frame_to_json(v.frame0),
        "components": [[float(c) for c in row] for row in v.components],
    }


def tangent_curve_from_json(payload: dict) -> tuple[ManifoldModel, TangentCurve]:
    _check_header(payload, "tangent_curve")
    model = _model_of(payload)
    grid = grid_from_json(payload)
    base = point_from_json(model, _require(payload, "base", dict), "base")
    frame0 = frame_from_json(base, _require(payload, "frame0", list), "frame0")
    comps = _numeric(_require(payload, "components", list), "components")
    if comps.shape != (grid.nodes.size, model.dim):
        raise ValidationError(
            f"field 'components' must be {grid.nodes.size} rows of length "
            f"{model.dim}")
    return model, TangentCurve(base=base, frame0=frame0, grid=grid,
                               components=comps)


# -- cubes ---------------------------------------------------------------------

def cube_to_json(model: ManifoldModel, cube: CubeSample) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cube",
        "manifold": model.name,
        "grid1": grid_to_json(cube.grid1),
        "grid2": grid_to_json(cube.grid2),
        "samples": [_samples_to_json(c, x) for c, x in
                    zip(cube.points.charts, cube.points.coords)],
    }


def cube_from_json(payload: dict) -> tuple[ManifoldModel, CubeSample]:
    _check_header(payload, "cube")
    model = _model_of(payload)
    grid1 = grid_from_json(payload, "grid1")
    grid2 = grid_from_json(payload, "grid2")
    samples = _require(payload, "samples", list)
    if len(samples) != grid1.nodes.size:
        raise ValidationError("field 'samples' must have one row per grid1 node")
    rows = []
    for i, row in enumerate(samples):
        if not isinstance(row, list) or len(row) != grid2.nodes.size:
            raise ValidationError(
                f"samples[{i}] must have one entry per grid2 node")
        rows.append(_samples_from_json(model, row, f"samples[{i}]"))
    return model, CubeSample(grid1=grid1, grid2=grid2, points=rows)


def cube_linearization_to_json(model: ManifoldModel,
                               lin: CubeLinearization) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cube_linearization",
        "manifold": model.name,
        "grid1": grid_to_json(lin.grid1),
        "grid2": grid_to_json(lin.grid2),
        "base": point_to_json(lin.base),
        "frame0": frame_to_json(lin.frame0),
        "v1": [[float(c) for c in row] for row in lin.v1],
        "v2": [[[float(c) for c in vec] for vec in row] for row in lin.v2],
    }


def cube_linearization_from_json(payload: dict):
    _check_header(payload, "cube_linearization")
    model = _model_of(payload)
    grid1 = grid_from_json(payload, "grid1")
    grid2 = grid_from_json(payload, "grid2")
    base = point_from_json(model, _require(payload, "base", dict), "base")
    frame0 = frame_from_json(base, _require(payload, "frame0", list), "frame0")
    v1 = _numeric(_require(payload, "v1", list), "v1")
    v2 = _numeric(_require(payload, "v2", list), "v2")
    try:
        lin = CubeLinearization(base=base, frame0=frame0, grid1=grid1,
                                grid2=grid2, v1=v1, v2=v2)
    except ValidationError as exc:
        raise ValidationError(f"cube_linearization: {exc}")
    return model, lin


# -- point lists ----------------------------------------------------------------

def points_to_json(model: ManifoldModel, points) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "points",
        "manifold": model.name,
        "points": [point_to_json(p) for p in points],
    }


def points_from_json(payload: dict):
    _check_header(payload, "points")
    model = _model_of(payload)
    entries = _require(payload, "points", list)
    return model, tuple(_samples_from_json(model, entries, "points"))


# -- reports and CSV -------------------------------------------------------------

def report_to_json(command: str, tolerances: dict, metrics: dict,
                   passes: dict, extra: dict | None = None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "command": command,
        "tolerances": tolerances,
        "metrics": metrics,
        "passes": passes,
    }
    if extra:
        payload.update(extra)
    return payload


def curve_to_csv(model: ManifoldModel, curve: SampledCurve, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"x{i}" for i in range(model.dim)] + ["chart"])
        for t, chart, x in zip(curve.grid.nodes, curve.points.charts,
                               curve.points.coords):
            writer.writerow([repr(float(t))] + [repr(float(c)) for c in x]
                            + [chart])


def tangent_curve_to_csv(model: ManifoldModel, v: TangentCurve, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"v{i}" for i in range(model.dim)])
        for t, row in zip(v.grid.nodes, v.components):
            writer.writerow([repr(float(t))] + [repr(float(c)) for c in row])
