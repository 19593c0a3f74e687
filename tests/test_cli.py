"""CLI commands: exit codes, outputs, validation, determinism."""

import contextlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pathlin import Frame, Grid, Point, Tangent, cli, get_model
from pathlin import fileio
from pathlin.bundleflow import flow, make_carrier
from pathlin.cli import main
from pathlin.cubemaps import CubeSample, p2_forward
from pathlin.linearize import TangentCurve, p_forward
from pathlin.transport import SampledCurve, curve_velocities


@pytest.fixture
def sphere_fixture(tmp_path):
    sphere = get_model("sphere2")
    grid = Grid.regular(0.0, 1.0, 100)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    pts = tuple(sphere.exp_oracle(pole, Tangent(pole, f0.columns[:, 0] * t))
                for t in grid.nodes)
    curve = SampledCurve(grid, pts, order=2)
    path = tmp_path / "great_circle.json"
    fileio.dump_json(fileio.curve_to_json(sphere, curve), path)
    return sphere, curve, path


def test_models_list_and_describe(capsys):
    assert main(["models"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["models"] == ["euclidean2", "hyperbolic2", "sphere2",
                                 "torus2"]
    assert main(["models", "--describe", "torus2"]) == 0
    described = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in described["charts"]] == ["a", "b", "c", "d"]


def test_linearize_great_circle(tmp_path, capsys, sphere_fixture):
    _, _, path = sphere_fixture
    out = tmp_path / "tangent.json"
    csv = tmp_path / "tangent.csv"
    code = main(["linearize", str(path), "-o", str(out), "--csv", str(csv),
                 "--report", str(tmp_path / "rep.json")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "norm_drift" in stdout
    payload = json.loads(out.read_text())
    comps = np.array(payload["components"])
    assert float(np.max(np.abs(comps - comps[0]))) < 1e-5
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["metrics"]["norm_drift"] < 1e-5
    assert csv.read_text().splitlines()[0] == "t,v0,v1"


def test_synthesize_then_roundtrip(tmp_path, capsys, sphere_fixture):
    _, _, path = sphere_fixture
    tangent = tmp_path / "tangent.json"
    assert main(["linearize", str(path), "-o", str(tangent)]) == 0
    back = tmp_path / "back.json"
    assert main(["synthesize", str(tangent), "-o", str(back)]) == 0
    capsys.readouterr()
    assert main(["roundtrip", str(path),
                 "--report", str(tmp_path / "rt.json")]) == 0
    report = json.loads((tmp_path / "rt.json").read_text())
    assert report["metrics"]["max_distance"] < 1e-5
    assert report["passes"]["max_distance"] is True
    assert report["comparison_metric"] == "oracle_distance"


def test_malformed_file_exits_2_names_field(tmp_path, capsys, sphere_fixture):
    _, _, path = sphere_fixture
    payload = json.loads(path.read_text())
    payload["samples"] = payload["samples"][:-3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["linearize", str(bad), "-o", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "samples" in captured.err
    assert captured.out.strip() == "", "no partial numeric output"
    assert not (tmp_path / "x.json").exists()


def test_polyfit_degree_zero_on_great_circle(tmp_path, capsys, sphere_fixture):
    _, _, path = sphere_fixture
    assert main(["polyfit", str(path), "--degree", "0",
                 "--report", str(tmp_path / "fit.json")]) == 0
    report = json.loads((tmp_path / "fit.json").read_text())
    assert report["metrics"]["c0_error"] < 1e-6


def test_cube2_forward_inverse(tmp_path, capsys):
    euclid = get_model("euclidean2")
    g = Grid.regular(-1.0, 1.0, 12)
    u1, u2 = np.array([0.3, 0.0]), np.array([0.0, 0.4])
    from pathlin.cubemaps import CubeSample
    pts = tuple(tuple(Point("xy", a * u1 + b * u2) for b in g.nodes)
                for a in g.nodes)
    cube_path = tmp_path / "cube.json"
    fileio.dump_json(fileio.cube_to_json(euclid, CubeSample(g, g, pts)),
                     cube_path)
    lin_path = tmp_path / "lin.json"
    assert main(["cube2", "forward", str(cube_path), "-o", str(lin_path)]) == 0
    back_path = tmp_path / "back.json"
    assert main(["cube2", "inverse", str(lin_path), "-o", str(back_path)]) == 0
    _, back = fileio.cube_from_json(fileio.load_json(back_path))
    worst = max(abs(float(back.points[i][j].coords[k]
                          - (g.nodes[i] * u1 + g.nodes[j] * u2)[k]))
                for i in range(13) for j in range(13) for k in range(2))
    assert worst < 1e-10


def test_parser_is_built_once_and_each_run_parses_afresh(tmp_path, capsys,
                                                       monkeypatch,
                                                       sphere_fixture):
    _, _, path = sphere_fixture
    seen = []
    validate = cli._validate_args

    def record(args):
        seen.append(dict(vars(args)))
        validate(args)

    monkeypatch.setattr(cli, "_validate_args", record)
    report = tmp_path / "rep.json"
    first = ["roundtrip", str(path), "--report", str(report), "--seed", "5",
             "--n-substeps", "3", "--tolerance-report-only"]
    second = ["linearize", str(path), "-o", str(tmp_path / "tangent.json")]
    assert main(first) == 0
    assert main(second) == 0
    capsys.readouterr()
    assert cli._build_parser() is cli._build_parser()
    assert seen[0]["report"] == str(report) and seen[0]["seed"] == 5
    assert seen[1] == {
        "command": "linearize", "curve": str(path),
        "output": str(tmp_path / "tangent.json"), "frame": "orthonormal",
        "csv": None, "n_substeps": 2, "seed": 0,
        "tolerance_report_only": False, "report": None,
        "handler": cli._cmd_linearize, "_argv": second}
    assert json.loads(report.read_text())["command"] == "roundtrip"


def _point_arg(point):
    x, y = map(float, point.coords)
    return f"{point.chart_id}:{x!r},{y!r}"


# a (p, q) pair per model, p near a chart margin where a chart has one
_FLOW_PAIRS = {
    "euclidean2": (Point("xy", [0.1, 0.2]), Point("xy", [0.5, -0.3])),
    "hyperbolic2": (Point("disk", [0.1, 0.2]), Point("disk", [0.3, 0.1])),
    "sphere2": (Point("north", [1.6, 0.2]), Point("north", [1.75, 0.1])),
    "torus2": (Point("a", [0.9, 3.0]), Point("a", [1.1, 2.8])),
}


@pytest.mark.parametrize("name", sorted(_FLOW_PAIRS))
def test_flow_command_matches_per_point_flows(tmp_path, capsys, name):
    # flow moves the whole points file in one batch.  The batch's kernels
    # see K rows where a single flow sees one, which rounds differently on
    # sphere2 and hyperbolic2 only; the field's central difference scales
    # that 1-ulp gap by 1 / (2e-5), and over 8 seeds and times 0.8 and +-1
    # the flowed points differed by at most 6.0e-12
    model = get_model(name)
    p, q = _FLOW_PAIRS[name]
    spec = make_carrier(model, p, q)
    rng = np.random.default_rng(3)
    points = []
    for d in rng.uniform(0.0, 1.3 * spec.r_out, 12):
        v = rng.normal(size=2)
        points.append(model.exp_oracle(
            p, Tangent(p, v * d / model.g_norm(Tangent(p, v)))))
    pts_path, out = tmp_path / "pts.json", tmp_path / "flowed.json"
    fileio.dump_json(fileio.points_to_json(model, points), pts_path)
    assert main(["flow", name, "--p", _point_arg(p), "--q", _point_arg(q),
                 str(pts_path), "-o", str(out), "--time", "0.8"]) == 0
    capsys.readouterr()
    _, moved = fileio.points_from_json(fileio.load_json(out))
    expected = [flow(spec, pt, 0.8) for pt in points]
    assert [m.chart_id for m in moved] == [e.chart_id for e in expected]
    tol = 1e-10 if name in ("sphere2", "hyperbolic2") else 0.0
    gap = max(float(np.max(np.abs(m.coords - e.coords)))
              for m, e in zip(moved, expected))
    assert gap <= tol
    if name in ("sphere2", "torus2"):
        assert len({pt.chart_id for pt in points}) > 1, "points span charts"


def _chartless_curve():
    """A sphere2 curve whose samples alternate between the two poles'
    chart centers: north (0, 0) has no image in the south chart."""
    charts = ["north", "south"] * 5 + ["north"]
    return SampledCurve(Grid.regular(0.0, 1.0, 10),
                        [Point(c, [0.0, 0.0]) for c in charts], order=2)


# each curve-writing command: the library call it makes, that call stubbed
# to return a curve that is not a valid curve file, and its arguments after
# the curve file
_CURVE_WRITERS = {
    "trivialize": ("trivialize", lambda *a: _chartless_curve(),
                   ["--fiber", "north:0.1,0.05"]),
    "untrivialize": ("untrivialize",
                     lambda chart, sigma: (sigma.basepoint,
                                           _chartless_curve()),
                     ["--inverse", "--base", "north:0,0"]),
    "normalize": ("arclength_normalize", lambda *a, **k: _chartless_curve(),
                  []),
    "polyfit": ("weierstrass_fit",
                lambda *a, **k: SimpleNamespace(curve=SimpleNamespace(
                    realized=_chartless_curve())),
                ["--degree", "4"]),
}


@pytest.mark.parametrize("command", sorted(_CURVE_WRITERS))
def test_written_curve_that_fails_validation_exits_3(tmp_path, capsys,
                                                     monkeypatch,
                                                     sphere_fixture, command):
    _, _, path = sphere_fixture
    call, stub, options = _CURVE_WRITERS[command]
    monkeypatch.setattr(cli, call, stub)
    out, report = tmp_path / "out.json", tmp_path / "rep.json"
    argv = ["trivialize" if command == "untrivialize" else command, str(path)]
    code = main(argv + options + ["-o", str(out), "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 3
    assert "too coarse" in err and "share no chart" in err
    assert "Traceback" not in err
    assert not out.exists() and not report.exists()


def test_flow_and_trivialize_commands(tmp_path, capsys, sphere_fixture):
    sphere, curve, path = sphere_fixture
    pts_path = tmp_path / "pts.json"
    fileio.dump_json(fileio.points_to_json(sphere, [curve.points[0]]),
                     pts_path)
    assert main(["flow", "sphere2", "--p", "north:0,0", "--q",
                 "north:0.15,0.1", str(pts_path),
                 "-o", str(tmp_path / "flowed.json")]) == 0
    flowed = json.loads((tmp_path / "flowed.json").read_text())
    assert np.allclose(flowed["points"][0]["coords"], [0.15, 0.1], atol=1e-6)

    sigma = tmp_path / "sigma.json"
    assert main(["trivialize", str(path), "--fiber", "north:0.1,0.05",
                 "-o", str(sigma)]) == 0
    back = tmp_path / "pulled.json"
    assert main(["trivialize", str(sigma), "--inverse", "--base", "north:0,0",
                 "-o", str(back)]) == 0
    _, pulled = fileio.curve_from_json(fileio.load_json(back))
    worst = max(sphere.point_distance(a, b)
                for a, b in zip(curve.points, pulled.points))
    assert worst < 1e-5
    capsys.readouterr()

    assert main(["trivialize", str(sigma), "--inverse",
                 "-o", str(back)]) == 2  # --inverse without --base
    capsys.readouterr()


def test_trivialize_non_finite_flow_exits_3(tmp_path, capsys, monkeypatch,
                                            sphere_fixture):
    sphere, _, path = sphere_fixture
    monkeypatch.setattr(sphere.oracle, "exp_from",
                        lambda model, p, vecs, chart_id:
                        np.full(vecs.shape, np.inf))
    out = tmp_path / "sigma.json"
    code = main(["trivialize", str(path), "--fiber", "north:0.1,0.05",
                 "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite" in err and "Traceback" not in err
    assert not out.exists()


def test_normalize_command(tmp_path, capsys, sphere_fixture):
    sphere, _, path = sphere_fixture
    out = tmp_path / "unit.json"
    assert main(["normalize", str(path), "-o", str(out),
                 "--report", str(tmp_path / "n.json")]) == 0
    report = json.loads((tmp_path / "n.json").read_text())
    assert report["metrics"]["unit_speed_deviation"] < 1e-4
    # the reported deviation is that of g_norm on each written node's
    # velocity, to the bit
    _, unit = fileio.curve_from_json(fileio.load_json(out))
    assert report["metrics"]["unit_speed_deviation"] == max(
        abs(sphere.g_norm(v) - 1.0) for v in curve_velocities(sphere, unit))


def test_unknown_model_exits_2(capsys):
    assert main(["models", "--describe", "flatland"]) == 2
    assert "flatland" in capsys.readouterr().err


def test_check_euclidean_passes_and_is_deterministic(tmp_path, capsys):
    args = ["check", "euclidean2", "--seed", "7", "--cube-n", "24"]
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(args + ["--report", str(first)]) == 0
    out1 = capsys.readouterr().out
    assert main(args + ["--report", str(second)]) == 0
    out2 = capsys.readouterr().out
    assert "all pass" in out1
    assert out1 == out2
    assert first.read_bytes() == second.read_bytes()


def test_output_files_byte_identical(tmp_path, capsys, sphere_fixture):
    _, _, path = sphere_fixture
    outs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        assert main(["linearize", str(path), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("case", ["overflow", "zero_division"])
def test_synthesize_numerical_failure_exits_3(tmp_path, capsys, monkeypatch,
                                              case):
    # components near the float maximum overflow the inverse system; a
    # ZeroDivisionError inside a stage is the same failure in Python floats
    euclid = get_model("euclidean2")
    scale = 1e308
    if case == "zero_division":
        def action(chart_id, coords, r):
            return [[c / 0.0 for c in coords]]

        monkeypatch.setattr(euclid, "christoffel_action_floats", action)
        scale = 1.0
    p = Point("xy", [0.0, 0.0])
    v = TangentCurve(p, Frame(p, np.eye(2)), Grid.regular(0.0, 1.0, 8),
                     np.full((9, 2), scale))
    path = tmp_path / "tangent.json"
    fileio.dump_json(fileio.tangent_curve_to_json(euclid, v), path)
    code = main(["synthesize", str(path), "-o", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite" in err
    assert "Traceback" not in err


def test_synthesize_too_coarse_grid_exits_3(tmp_path, capsys):
    # |v| = 40 on 8 intervals: consecutive samples are 5 rad apart, so the
    # curve cannot be written as a valid curve file
    sphere = get_model("sphere2")
    p = Point("north", [0.0, 0.0])
    v = TangentCurve(p, sphere.orthonormal_frame(p),
                     Grid.regular(0.0, 1.0, 8), np.tile([40.0, 0.0], (9, 1)))
    path = tmp_path / "tangent.json"
    fileio.dump_json(fileio.tangent_curve_to_json(sphere, v), path)
    out = tmp_path / "out.json"
    code = main(["synthesize", str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "too coarse" in err and "samples[0] and samples[1]" in err
    assert "Traceback" not in err
    assert not out.exists()


# each case: (command, input kind, key path into the input payload, the
# malformed value stored there, the field the error must name)
_MALFORMED = {
    "negative_n": ("roundtrip", "curve", ("grid", "n"), -3, "grid.n"),
    "string_n": ("roundtrip", "curve", ("grid", "n"), "eight", "grid.n"),
    "string_base_index": ("roundtrip", "curve", ("base_index",), "x",
                          "base_index"),
    "non_numeric_coords": ("roundtrip", "curve", ("samples", 5, "coords"),
                           ["a", 0.0], "samples[5].coords"),
    "fractional_order": ("roundtrip", "curve", ("order",), 1.7, "order"),
    "ragged_frame0": ("synthesize", "tangent", ("frame0",),
                      [[1.0, 0.0], [0.0]], "frame0"),
    "sample_not_object": ("roundtrip", "curve", ("samples", 5), 1.0,
                          "chart"),
    "list_start": ("roundtrip", "curve", ("grid", "start"), [0.0, 0.5],
                   "grid.start"),
    "list_end": ("roundtrip", "curve", ("grid", "end"), [1.0], "grid.end"),
    "huge_n": ("roundtrip", "curve", ("grid", "n"), 1e300, "grid.n"),
    "three_intervals": ("roundtrip", "curve", ("grid", "n"), 3, "grid.n"),
    "four_nodes": ("roundtrip", "curve", ("grid",),
                   {"nodes": [0.0, 0.25, 0.5, 1.0]}, "grid.nodes"),
    # numpy alone would read a JSON boolean among numbers as 1.0 or 0.0
    "boolean_coords": ("roundtrip", "curve", ("samples", 5, "coords"),
                       [True, 0.015], "samples[5].coords"),
    "boolean_component": ("synthesize", "tangent", ("components", 7),
                          [0.5, False], "components"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_field_exits_2(tmp_path, capsys, sphere_fixture, case):
    command, kind, keys, value, field = _MALFORMED[case]
    sphere, curve, path = sphere_fixture
    if kind == "curve":
        payload = json.loads(path.read_text())
    else:
        rep = p_forward(sphere, curve)
        payload = fileio.tangent_curve_to_json(sphere, rep.tangent_curve)
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    args = [command, str(bad)]
    if command == "synthesize":
        args += ["-o", str(tmp_path / "out.json")]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert f"'{field}'" in err
    assert "Traceback" not in err


@pytest.fixture
def tiny_grid_file(tmp_path, sphere_fixture):
    # great-circle samples on the grid [0, 1e-300]: the velocities are
    # about 1e300 and their norms overflow
    sphere, _, _ = sphere_fixture
    grid = Grid.regular(0.0, 1.0, 40)
    pole = Point("north", [0.0, 0.0])
    f0 = sphere.orthonormal_frame(pole)
    pts = tuple(sphere.exp_oracle(pole, Tangent(pole, f0.columns[:, 0] * t))
                for t in grid.nodes)
    payload = fileio.curve_to_json(sphere, SampledCurve(grid, pts, order=2))
    payload["grid"] = {"start": 0.0, "end": 1e-300, "n": 40}
    path = tmp_path / "tiny.json"
    fileio.dump_json(payload, path)
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,options", [
    ("linearize", ["-o", "out.json"]), ("polyfit", ["--degree", "2"]),
    ("normalize", ["-o", "out.json"])])
def test_non_finite_metric_exits_3(tmp_path, capsys, tiny_grid_file, command,
                                   options):
    report = tmp_path / "rep.json"
    code = main([command, str(tiny_grid_file), "--report", str(report)]
                + [str(tmp_path / o) if o.endswith(".json") else o
                   for o in options])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure" in captured.err
    assert "passed" not in captured.out
    assert not report.exists()


# the arguments before the options; CURVE, POINTS and OUT name files
_OPTION_ARGS = {
    "polyfit": ["CURVE", "-o", "OUT"],
    "normalize": ["CURVE", "-o", "OUT"],
    "flow": ["sphere2", "--p", "north:0,0", "--q", "north:0.15,0.1",
             "POINTS", "-o", "OUT"],
    "check": ["euclidean2"],
}


@pytest.mark.parametrize("command,options,named", [
    ("polyfit", ["--degree", "-1"], "degree"),
    ("normalize", ["--floor", "-1"], "--floor"),
    ("normalize", ["--floor", "nan"], "--floor"),
    ("flow", ["--time", "nan"], "--time"),
    ("flow", ["--time", "inf"], "--time"),
    ("flow", ["--time=-inf"], "--time"),
    ("flow", ["--time", "1e300"], "--time"),
    ("flow", ["--time", "156250.1"], "--time"),
    ("check", ["--cube-n", "0"], "--cube-n"),
    ("check", ["--cube-n=-1"], "--cube-n"),
    ("check", ["--cube-n", "3"], "--cube-n"),
])
def test_out_of_range_option_exits_2(tmp_path, capsys, sphere_fixture,
                                     command, options, named):
    sphere, curve, path = sphere_fixture
    points = tmp_path / "pts.json"
    fileio.dump_json(fileio.points_to_json(sphere, [curve.points[0]]), points)
    out = tmp_path / "out.json"
    files = {"CURVE": str(path), "POINTS": str(points), "OUT": str(out)}
    code = main([command] + [files.get(a, a) for a in _OPTION_ARGS[command]]
                + options)
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


# every command that reads a file, with its arguments; IN names the file it
# reads (a curve file unless the key says otherwise) and OUT the file it
# writes
_FILE_COMMANDS = {
    "linearize": ["linearize", "IN", "-o", "OUT"],
    "synthesize": ["synthesize", "IN", "-o", "OUT"],
    "roundtrip": ["roundtrip", "IN"],
    "cube2-forward": ["cube2", "forward", "IN", "-o", "OUT"],
    "cube2-inverse": ["cube2", "inverse", "IN", "-o", "OUT"],
    "polyfit": ["polyfit", "IN", "--degree", "2", "-o", "OUT"],
    "flow": ["flow", "sphere2", "--p", "north:0,0", "--q", "north:0.15,0.1",
             "IN", "-o", "OUT"],
    "trivialize": ["trivialize", "IN", "--fiber", "north:0.1,0.05",
                   "-o", "OUT"],
    "untrivialize": ["trivialize", "IN", "--inverse", "--base", "north:0,0",
                     "-o", "OUT"],
    "normalize": ["normalize", "IN", "-o", "OUT"],
}


@pytest.fixture
def input_files(tmp_path, sphere_fixture):
    """A valid input file for each command of _FILE_COMMANDS."""
    sphere, curve, path = sphere_fixture
    euclid = get_model("euclidean2")
    g = Grid.regular(0.0, 1.0, 4)
    cube = CubeSample(g, g, tuple(tuple(Point("xy", [a, b]) for b in g.nodes)
                                  for a in g.nodes))
    files = {"curve": path, "tangent": tmp_path / "tangent.json",
             "cube": tmp_path / "cube.json", "lin": tmp_path / "lin.json",
             "points": tmp_path / "points.json"}
    fileio.dump_json(fileio.tangent_curve_to_json(
        sphere, p_forward(sphere, curve).tangent_curve), files["tangent"])
    fileio.dump_json(fileio.cube_to_json(euclid, cube), files["cube"])
    fileio.dump_json(fileio.cube_linearization_to_json(
        euclid, p2_forward(euclid, cube)), files["lin"])
    fileio.dump_json(fileio.points_to_json(sphere, [curve.points[3]]),
                     files["points"])
    kinds = {"synthesize": "tangent", "cube2-forward": "cube",
             "cube2-inverse": "lin", "flow": "points"}
    return {name: files[kinds.get(name, "curve")] for name in _FILE_COMMANDS}


def _run_expecting_one_error(argv, capsys, named):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert named in lines[0]


@pytest.mark.parametrize("bad", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("command", sorted(_FILE_COMMANDS))
def test_unreadable_input_exits_2(tmp_path, capsys, command, bad):
    path = {"missing": tmp_path / "nonexistent.json",
            "directory": tmp_path,
            "not_utf8": tmp_path / "latin1.json"}[bad]
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "caf\xe9"}')
    out = tmp_path / "out.json"
    files = {"IN": str(path), "OUT": str(out)}
    _run_expecting_one_error([files.get(a, a) for a in _FILE_COMMANDS[command]],
                             capsys, str(path))
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    *[(c, "-o") for c in sorted(_FILE_COMMANDS) if "OUT" in _FILE_COMMANDS[c]],
    *[(c, "--report") for c in sorted(_FILE_COMMANDS)],
    ("linearize", "--csv"), ("synthesize", "--csv")])
def test_unwritable_output_exits_2(tmp_path, capsys, input_files, command,
                                   flag):
    unwritable = str(tmp_path / "no_such_dir" / "out")
    files = {"IN": str(input_files[command]), "OUT": str(tmp_path / "o.json")}
    argv = [files.get(a, a) for a in _FILE_COMMANDS[command]]
    if flag == "-o":
        argv[argv.index("-o") + 1] = unwritable
    else:
        argv += [flag, unwritable]
    _run_expecting_one_error(argv, capsys, unwritable)


@pytest.mark.parametrize("command", ["models", "check"] + sorted(_FILE_COMMANDS))
def test_negative_seed_exits_2(tmp_path, capsys, command):
    argv = {"models": ["models"], "check": ["check", "euclidean2"]}.get(
        command, _FILE_COMMANDS.get(command))
    files = {"IN": str(tmp_path / "in.json"), "OUT": str(tmp_path / "o.json")}
    _run_expecting_one_error([files.get(a, a) for a in argv]
                             + ["--seed", "-1"], capsys, "--seed")


# Any JSON value, with integers capped at 10**6 and a few extreme floats, so
# that no example asks for a gigabyte-sized grid.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.sampled_from([1e300, -1e300, 1e-300, 0.5, 2]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)

_CURVE_FIELDS = [("grid",), ("grid", "start"), ("grid", "end"), ("grid", "n"),
                 ("base_index",), ("order",), ("samples", 7),
                 ("samples", 7, "chart"), ("samples", 7, "coords")]


# each fuzzed command with the options it needs besides the curve file
_FUZZ_COMMANDS = {"linearize": ["-o", "out.json"],
                  "normalize": ["-o", "out.json"],
                  "polyfit": ["--degree", "4"]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=st.sampled_from(_CURVE_FIELDS), value=_JSON_VALUES)
def test_fuzzed_curve_field_exits_cleanly(tmp_path, sphere_fixture, command,
                                          keys, value):
    # one field of a valid curve file replaced by any JSON value: the
    # command exits 0, 2 or 3 without an exception, and exits 0 only with
    # finite metrics
    _, _, path = sphere_fixture
    payload = json.loads(path.read_text())
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "fuzzed.json"
    bad.write_text(json.dumps(payload))
    report = tmp_path / "fuzzed_report.json"
    report.unlink(missing_ok=True)
    options = [str(tmp_path / o) if o.endswith(".json") else o
               for o in _FUZZ_COMMANDS[command]]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(bad), "--report", str(report)] + options)
    assert code in (0, 2, 3)
    if code == 0:
        metrics = json.loads(report.read_text())["metrics"]
        assert all(math.isfinite(v) for v in metrics.values())


_TANGENT_FIELDS = [("components",), ("components", 7), ("frame0",),
                   ("base", "coords"), ("grid", "n")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=st.sampled_from(_TANGENT_FIELDS), value=_JSON_VALUES)
def test_fuzzed_tangent_field_exits_cleanly(tmp_path, input_files, keys,
                                            value):
    # one field of a valid tangent_curve file replaced by any JSON value:
    # synthesize exits 0, 2 or 3 without an exception, and exits 0 only with
    # finite metrics
    payload = json.loads(input_files["synthesize"].read_text())
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "fuzzed_tangent.json"
    bad.write_text(json.dumps(payload))
    report = tmp_path / "fuzzed_report.json"
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["synthesize", str(bad), "-o", str(tmp_path / "out.json"),
                     "--report", str(report)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        metrics = json.loads(report.read_text())["metrics"]
        assert all(math.isfinite(v) for v in metrics.values())


def test_every_written_file_is_canonical(tmp_path, capsys, input_files):
    # every file a command writes is the text json.dumps(sort_keys=True,
    # indent=2) gives for its own content, plus a newline
    out = tmp_path / "out"
    out.mkdir()

    def run(*argv, report=True):
        name = f"{len(list(out.iterdir()))}_{argv[0]}"
        argv = [str(a) for a in argv]
        if report:
            argv += ["--report", str(out / f"{name}_report.json")]
        assert main(argv) == 0, argv
        capsys.readouterr()

    sigma = out / "sigma.json"
    lin = out / "lin.json"
    run("linearize", input_files["linearize"], "-o", out / "tangent.json")
    run("synthesize", out / "tangent.json", "-o", out / "synth.json")
    run("normalize", input_files["normalize"], "-o", out / "unit.json")
    run("trivialize", input_files["trivialize"], "--fiber", "north:0.1,0.05",
        "-o", sigma)
    run("trivialize", sigma, "--inverse", "--base", "north:0,0",
        "-o", out / "back.json")
    run("cube2", "forward", input_files["cube2-forward"], "-o", lin)
    run("cube2", "inverse", lin, "-o", out / "cube.json")
    run("flow", "sphere2", "--p", "north:0,0", "--q", "north:0.15,0.1",
        input_files["flow"], "-o", out / "flowed.json")
    run("check", "euclidean2", "--cube-n", "8")
    written = sorted(out.iterdir())
    assert len(written) == 17
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n", path.name
