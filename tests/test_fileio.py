"""JSON schemas: save/load roundtrips and validation messages."""

import json

import numpy as np
import pytest

from pathlin import Frame, Grid, Point, ValidationError
from pathlin import fileio
from pathlin.cubemaps import CubeLinearization, CubeSample
from pathlin.suite import random_curve, random_tangent_curve
from pathlin.transport import SampledCurve


def test_curve_roundtrip_exact(tmp_path, sphere):
    rng = np.random.default_rng(3)
    curve = random_curve(sphere, rng, Grid.regular(0.0, 1.0, 60))
    path = tmp_path / "curve.json"
    fileio.dump_json(fileio.curve_to_json(sphere, curve), path)
    model, loaded = fileio.curve_from_json(fileio.load_json(path))
    assert model is sphere
    assert loaded.base_index == curve.base_index
    assert loaded.order == curve.order
    for a, b in zip(curve.points, loaded.points):
        assert a.chart_id == b.chart_id
        assert np.array_equal(a.coords, b.coords), "float repr roundtrip"


def test_tangent_curve_roundtrip_exact(tmp_path, disk):
    rng = np.random.default_rng(5)
    v = random_tangent_curve(disk, rng, Grid.regular(-1.0, 1.0, 40))
    path = tmp_path / "tan.json"
    fileio.dump_json(fileio.tangent_curve_to_json(disk, v), path)
    _, loaded = fileio.tangent_curve_from_json(fileio.load_json(path))
    assert np.array_equal(loaded.components, v.components)
    assert np.array_equal(loaded.frame0.columns, v.frame0.columns)


def test_cube_roundtrip(tmp_path, euclidean):
    g = Grid.regular(-1.0, 1.0, 8)
    pts = tuple(tuple(Point("xy", [0.1 * a, 0.2 * b]) for b in g.nodes)
                for a in g.nodes)
    cube = CubeSample(g, g, pts)
    path = tmp_path / "cube.json"
    fileio.dump_json(fileio.cube_to_json(euclidean, cube), path)
    _, loaded = fileio.cube_from_json(fileio.load_json(path))
    assert loaded.points[3][5].coords[1] == cube.points[3][5].coords[1]

    p = Point("xy", [0.0, 0.0])
    lin = CubeLinearization(p, Frame(p, np.eye(2)), g, g,
                            np.zeros((9, 2)), np.zeros((9, 9, 2)))
    fileio.dump_json(fileio.cube_linearization_to_json(euclidean, lin), path)
    _, lin2 = fileio.cube_linearization_from_json(fileio.load_json(path))
    assert np.array_equal(lin2.v2, lin.v2)


def test_validation_names_fields(tmp_path, sphere):
    rng = np.random.default_rng(7)
    curve = random_curve(sphere, rng, Grid.regular(0.0, 1.0, 30))
    payload = fileio.curve_to_json(sphere, curve)

    bad = dict(payload)
    bad["samples"] = payload["samples"][:-2]
    with pytest.raises(ValidationError, match="samples"):
        fileio.curve_from_json(bad)

    bad = json.loads(json.dumps(payload))
    bad["samples"][4]["chart"] = "nope"
    with pytest.raises(ValidationError, match=r"samples\[4\]"):
        fileio.curve_from_json(bad)

    bad = json.loads(json.dumps(payload))
    bad["samples"][2]["coords"] = [0.1]
    with pytest.raises(ValidationError, match=r"samples\[2\]"):
        fileio.curve_from_json(bad)

    bad = dict(payload)
    bad["kind"] = "tangent_curve"
    with pytest.raises(ValidationError, match="kind"):
        fileio.curve_from_json(bad)

    bad = dict(payload)
    bad["schema_version"] = 99
    with pytest.raises(ValidationError, match="schema_version"):
        fileio.curve_from_json(bad)


def test_outside_sample_is_reported_before_a_later_malformed_one(sphere):
    # the fields are read up to the first malformed entry and the chart test
    # runs per chart afterwards: the first faulty entry is still reported
    rng = np.random.default_rng(7)
    curve = random_curve(sphere, rng, Grid.regular(0.0, 1.0, 30))
    payload = fileio.curve_to_json(sphere, curve)
    outside = {"chart": "south", "coords": [5.0, 0.0]}
    malformed = {"chart": "north", "coords": [0.1]}
    cases = (({8: outside, 12: malformed}, "samples[8]: point lies outside "
              "chart 'south'"),
             ({8: malformed, 12: outside}, "samples[8]: coords must have "
              "length 2"),
             ({5: {"chart": "north", "coords": [0.0, -4.5]}, 3: outside},
              "samples[3]: point lies outside chart 'south'"))
    for faults, message in cases:
        bad = json.loads(json.dumps(payload))
        for j, entry in faults.items():
            bad["samples"][j] = entry
        with pytest.raises(ValidationError) as exc:
            fileio.curve_from_json(bad)
        assert str(exc.value) == message


def _reference_samples_error(model, entries):
    """The message of the sample-by-sample reader, each entry's fields and
    then its chart test before the next entry."""
    for j, s in enumerate(entries):
        try:
            fileio.point_from_json(model, s, f"samples[{j}]")
        except ValidationError as exc:
            return str(exc)
    return None


def test_sample_messages_match_the_sample_by_sample_reader(sphere, torus):
    rng = np.random.default_rng(19)
    faults = ({"chart": "nope", "coords": [0.0, 0.0]}, {"coords": [0.0, 0.0]},
              {"chart": "a", "coords": "x"}, {"chart": "a", "coords": [0.0]},
              {"chart": "north", "coords": [9.0, 0.0]},
              {"chart": "south", "coords": [0.0, 3.0]},
              {"chart": "a", "coords": [-1.0, 1.0]},
              {"chart": "b", "coords": [1.0, 4.0]})
    for model in (sphere, torus):
        charts = sorted(model.charts)
        for _ in range(60):
            entries = [{"chart": str(rng.choice(charts)),
                        "coords": rng.uniform(0.5, 1.5, 2).tolist()}
                       for _ in range(12)]
            for j in rng.choice(12, rng.integers(0, 4), replace=False):
                entries[j] = faults[rng.integers(len(faults))]
            expected = _reference_samples_error(model, entries)
            try:
                fileio._samples_from_json(model, entries, "samples")
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == expected


def test_consecutive_sample_invariant(euclidean):
    grid = Grid.regular(0.0, 1.0, 8)
    pts = [Point("xy", [0.1 * t, 0.0]) for t in grid.nodes]
    pts[4] = Point("xy", [100.0, 0.0])   # farther than the injectivity floor
    payload = fileio.curve_to_json(euclidean,
                                   SampledCurve(grid, tuple(pts)))
    with pytest.raises(ValidationError, match="injectivity"):
        fileio.curve_from_json(payload)


def test_validate_curve_reports_the_first_fault(sphere):
    # a far pair (1, 2) before a chartless pair (4, 5): the far pair is
    # reported; on one pair with both faults the chart test comes first
    pts = (Point("north", [0.0, 0.0]), Point("north", [0.05, 0.0]),
           Point("north", [1.9, 0.0]), Point("north", [1.95, 0.1]),
           Point("north", [0.0, 0.0]), Point("south", [0.0, 0.0]))
    grid = Grid.regular(0.0, 1.0, 5)
    with pytest.raises(ValidationError) as far:
        fileio.validate_curve(sphere, SampledCurve(grid, pts))
    assert str(far.value) == ("samples[1] and samples[2] are 2.0727 apart, "
                              "beyond the injectivity floor")
    both = pts[:2] + (Point("south", [0.0, 0.0]),) + pts[2:5]
    with pytest.raises(ValidationError) as chartless:
        fileio.validate_curve(sphere, SampledCurve(grid, both))
    assert str(chartless.value) == "samples[1] and samples[2] share no chart"


def test_validate_curve_chart_fault_before_a_far_pair(sphere):
    # a chartless pair (0, 1), 1.4 degrees apart near the south pole, before
    # a far pair (2, 3): the chartless pair is reported
    pts = (Point("north", [3.9, 0.0]), Point("south", [0.24, 0.0]),
           Point("south", [0.2, 0.0]), Point("south", [3.0, 0.0]),
           Point("south", [3.0, 0.1]), Point("south", [3.0, 0.2]))
    with pytest.raises(ValidationError) as err:
        fileio.validate_curve(sphere, SampledCurve(Grid.regular(0.0, 1.0, 5),
                                                   pts))
    assert str(err.value) == "samples[0] and samples[1] share no chart"


def test_points_file(tmp_path, torus):
    pts = [Point("a", [1.0, 2.0]), Point("b", [-0.5, 3.0])]
    path = tmp_path / "pts.json"
    fileio.dump_json(fileio.points_to_json(torus, pts), path)
    _, loaded = fileio.points_from_json(fileio.load_json(path))
    assert loaded[1].chart_id == "b"
    # points go through the sample reader: none is fine, and a point outside
    # its chart is named
    assert fileio.points_from_json(fileio.points_to_json(torus, []))[1] == ()
    payload = fileio.points_to_json(torus, pts)
    payload["points"][1]["coords"] = [-4.0, 3.0]
    with pytest.raises(ValidationError,
                       match=r"points\[1\]: point lies outside chart 'b'"):
        fileio.points_from_json(payload)


def test_csv_emission(tmp_path, euclidean):
    grid = Grid.regular(0.0, 1.0, 10)
    pts = tuple(Point("xy", [t, 2.0 * t]) for t in grid.nodes)
    curve = SampledCurve(grid, pts)
    path = tmp_path / "curve.csv"
    fileio.curve_to_csv(euclidean, curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,chart"
    assert len(lines) == 12
    assert lines[1].endswith(",xy")


def test_dump_json_is_canonical(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    fileio.dump_json({"b": 1.5, "a": [2, 3]}, path_a)
    fileio.dump_json({"a": [2, 3], "b": 1.5}, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
