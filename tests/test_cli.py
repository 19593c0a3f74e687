"""CLI commands: exit codes, outputs, validation, determinism."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pathlin import Frame, Grid, Point, Tangent, get_model
from pathlin import fileio
from pathlin.cli import main
from pathlin.linearize import TangentCurve, p_forward
from pathlin.transport import SampledCurve


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


def test_normalize_command(tmp_path, capsys, sphere_fixture):
    _, _, path = sphere_fixture
    out = tmp_path / "unit.json"
    assert main(["normalize", str(path), "-o", str(out),
                 "--report", str(tmp_path / "n.json")]) == 0
    report = json.loads((tmp_path / "n.json").read_text())
    assert report["metrics"]["unit_speed_deviation"] < 1e-4


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
    ("linearize", ["-o", "out.json"]), ("polyfit", ["--degree", "2"])])
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


@pytest.mark.parametrize("command,options,named", [
    ("polyfit", ["--degree", "-1"], "degree"),
    ("normalize", ["--floor", "-1"], "--floor"),
    ("normalize", ["--floor", "nan"], "--floor"),
])
def test_out_of_range_option_exits_2(tmp_path, capsys, sphere_fixture,
                                     command, options, named):
    _, _, path = sphere_fixture
    out = tmp_path / "out.json"
    code = main([command, str(path), "-o", str(out)] + options)
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=st.sampled_from(_CURVE_FIELDS), value=_JSON_VALUES)
def test_fuzzed_curve_field_exits_cleanly(tmp_path, sphere_fixture, keys,
                                          value):
    # one field of a valid curve file replaced by any JSON value: linearize
    # exits 0, 2 or 3 without an exception, and exits 0 only with finite
    # metrics
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
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["linearize", str(bad), "-o", str(tmp_path / "out.json"),
                     "--report", str(report)])
    assert code in (0, 2, 3)
    if code == 0:
        metrics = json.loads(report.read_text())["metrics"]
        assert all(math.isfinite(v) for v in metrics.values())
