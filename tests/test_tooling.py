"""The test and benchmark tooling that tier-1 relies on."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from pathlin import cli, geometry, get_model, linearize

from conftest import MODEL_NAMES

ROOT = Path(__file__).resolve().parents[1]

_FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_session(tmp_path):
    # on failure Hypothesis's plugin imports libcst, whose deprecation
    # warning the "error" filter would turn into an INTERNALERROR
    (tmp_path / "test_failing_given.py").write_text(_FAILING_GIVEN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def _pathlin_attributes():
    modules = [m for name, m in sys.modules.items()
               if name == "pathlin" or name.startswith("pathlin.")]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_the_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from tracer import _CHRISTOFFEL_METHODS, Tracer

    models = [get_model(name) for name in MODEL_NAMES]
    before = ([dict(vars(model)) for model in models], _pathlin_attributes(),
              np.linalg.solve, geometry.Point.__init__,
              geometry.Frame.__init__)
    tracer = Tracer()
    tracer.install(MODEL_NAMES)
    try:
        for model in models:
            for method in _CHRISTOFFEL_METHODS:
                assert hasattr(vars(model)[method], "__wrapped__")
        assert hasattr(linearize.p_inverse, "__wrapped__")
        assert hasattr(cli.run, "__wrapped__")
    finally:
        tracer.uninstall()
    after = ([dict(vars(model)) for model in models], _pathlin_attributes(),
             np.linalg.solve, geometry.Point.__init__,
             geometry.Frame.__init__)
    assert after == before


def _bench_compare(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_compare
    return bench_compare


def test_bench_compare_reads_each_metric_s_direction(monkeypatch):
    better = _bench_compare(monkeypatch).directions()
    assert better["ops_per_kref"] == "higher"
    assert better["peak_rss_mb"] == "lower"
    assert set(better.values()) == {"higher", "lower"}


def test_bench_compare_counts_the_pairs_the_change_won(monkeypatch):
    bench_compare = _bench_compare(monkeypatch)
    parent = {"ops": [10.0, 20.0, 30.0, 40.0], "rss": [5.0, 5.0, 5.0, 5.0],
              "extra": [1.0, 2.0, 3.0, 4.0]}
    # sorted, the change's ops beat the parent's at every rank; paired by
    # repeat they win twice, and a tie is not a win
    change = {"ops": [45.0, 15.0, 35.0, 25.0], "rss": [4.0, 5.0, 6.0, 4.5],
              "extra": [0.0, 0.0, 0.0, 0.0]}

    def records(values):
        return [{"metrics": {name: v[i] for name, v in values.items()}}
                for i in range(4)]

    runs = {"curves": {"parent": records(parent), "change": records(change)}}
    summary = bench_compare.summarize(
        runs, {"ops": "higher", "rss": "lower"})["curves"]
    assert sorted(summary) == ["extra", "ops", "rss"]
    assert summary["ops"]["pairs_won"] == 2
    assert summary["rss"]["pairs_won"] == 2
    assert summary["extra"]["pairs_won"] is None
    assert summary["ops"]["parent"] == {"q1": 17.5, "median": 25.0,
                                        "q3": 32.5}
    assert summary["ops"]["ratio_of_medians"] == 30.0 / 25.0
    assert summary["extra"]["ratio_of_medians"] == 0.0
