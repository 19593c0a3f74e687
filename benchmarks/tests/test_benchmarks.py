"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import workloads
from pathlin import cli, cubemaps, linearize

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, tmp_path):
    return {
        "curves": lambda: workloads.Curves(n=48, repeats=1),
        "switching": lambda: workloads.Switching(n=160, per_model=1),
        "squares": lambda: workloads.Squares(n=24, per_model=1),
        "files": lambda: workloads.Files(tmp_path / "work", n=100, per_model=1),
    }[name]()


def run_tiny(name, tmp_path, seed=1, trace=False):
    return harness.run(tiny(name, tmp_path), seed, 0.0, trace, tmp_path)


def last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_named_metric_with_its_unit(name, tmp_path, capsys):
    harness.emit(run_tiny(name, tmp_path), tmp_path)
    line = last_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(name, tmp_path, capsys):
    harness.emit(run_tiny(name, tmp_path, trace=True), tmp_path)
    line = last_line(capsys)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert line["correct"]


@pytest.mark.parametrize("name", ["curves", "switching", "squares", "files"])
def test_second_seed_same_names_no_failures(name, tmp_path):
    first = run_tiny(name, tmp_path, seed=1)
    second = run_tiny(name, tmp_path, seed=2)
    assert set(first["metrics"]) == set(second["metrics"])
    assert second["failed"] == 0


@pytest.mark.parametrize("name", ["curves", "switching", "squares", "files"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    counts = [{k: run["metrics"][k] for k in harness.tracing.COUNT_METRICS}
              for run in (run_tiny(name, tmp_path, trace=True),
                          run_tiny(name, tmp_path, trace=True))]
    assert counts[0] == counts[1]


def test_switched_share_by_construction(tmp_path):
    assert run_tiny("switching", tmp_path)["properties"][
        "workload.switched_op_share"] == 1.0
    assert run_tiny("curves", tmp_path)["properties"][
        "workload.switched_op_share"] == 0.0


def shifted_forward(original):
    def p_forward(model, curve, frame0=None, substeps=2):
        report = original(model, curve, frame0, substeps)
        comps = np.array(report.tangent_curve.components)
        comps[len(comps) // 2, 0] += 1e-3
        tc = dataclasses.replace(report.tangent_curve, components=comps)
        return dataclasses.replace(report, tangent_curve=tc)
    return p_forward


def test_perturbed_component_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.setattr(linearize, "p_forward",
                        shifted_forward(linearize.p_forward))
    result = run_tiny("curves", tmp_path)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_perturbed_cube_fails_the_op(tmp_path, monkeypatch):
    original = cubemaps.p2_forward

    def p2_forward(model, alpha, frame0=None, substeps=2):
        lin = original(model, alpha, frame0, substeps)
        v2 = np.array(lin.v2)
        v2[1, 1, 0] += 1e-3
        return dataclasses.replace(lin, v2=v2)

    monkeypatch.setattr(cubemaps, "p2_forward", p2_forward)
    result = run_tiny("squares", tmp_path)
    assert result["failed"] == result["attempted"]


def test_perturbed_synthesized_curve_fails_the_op(tmp_path, monkeypatch):
    original = cli.p_inverse

    def p_inverse(model, v, substeps=2, order=3):
        curve = original(model, v, substeps, order)
        points = list(curve.points)
        mid = points[len(points) // 2]
        points[len(points) // 2] = dataclasses.replace(
            mid, coords=mid.coords + np.array([1e-3, 0.0]))
        return dataclasses.replace(curve, points=tuple(points))

    monkeypatch.setattr(cli, "p_inverse", p_inverse)
    result = run_tiny("files", tmp_path)
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("exc", [ValueError("bad"), FileNotFoundError("x")])
def test_exception_fails_the_op_not_the_run(tmp_path, monkeypatch, exc):
    def weierstrass_fit(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "weierstrass_fit", weierstrass_fit)
    result = run_tiny("files", tmp_path)
    assert result["failed"] == result["attempted"] >= 1
    assert "raised" in result["failures"][0]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "curves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
