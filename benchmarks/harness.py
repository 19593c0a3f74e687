"""Closed-loop measurement, statistics and the result line.

One caller, one thread: an op starts only after the previous op and its
check have finished.  Ops run round-robin over the workload's pool, which
interleaves the models, until the run's seconds are spent.

Latency statistics are taken per model and then averaged over the models.
Ops on different models differ in cost by up to 2x, so a quantile of the
pooled latencies falls in the gap between two models' clusters and jumps
between them from run to run; per-model quantiles do not.

The gated timing metrics are in units of a reference kernel timed between
consecutive ops and set-ups.  On a shared host the speed of the whole
machine changes by up to 1.65x in spells of seconds to minutes; a wall time
divided by the kernel times around it cancels that.  Raw seconds are still
printed and recorded.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

SETUP_REPEATS = 5
REFERENCE_PRODUCTS = 3000
# setup_s converts set-up time from reference times to seconds at this
# kernel duration, about the kernel's time on an unloaded 2-vCPU host.
REFERENCE_NOMINAL_S = 0.004
TAIL_OPS_BEYOND = 10
# Errors below double-precision resolution of the tolerance count as this.
MIN_ERROR_TO_TOL = 1e-17
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "cpu_ref_per_op": "ref",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
    "error_margin_digits": "digits",
}
# Printed and recorded beside them, not gated: their run-to-run spread on a
# shared host exceeds any bound the benchmark may set.
RAW_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "reference_ms": "ms",
}


PER_LAYER_UNITS = {
    **{name: "ms" for name in tracing.TIME_METRICS},
    **tracing.COUNT_METRICS,
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_frac": "frac",
    "workload.switched_op_share": "frac",
    "workload.nodes_per_op": "count",
}


@dataclass
class OpRecord:
    op_id: int
    stratum: str
    nodes: int
    wall_s: float
    cpu_s: float
    ok: bool
    error_to_tol: float
    switched: bool
    problem: str
    counts: Counter | None
    ref_s: float = math.nan


def reference_kernel() -> float:
    """Seconds for a fixed chain of 2x2 numpy products driven from Python,
    the instruction mix of the library's hot loops."""
    eye = np.eye(2)
    product = eye.copy()
    t0 = time.perf_counter()
    for _ in range(REFERENCE_PRODUCTS):
        product = product @ eye
    return time.perf_counter() - t0


def run_op(workload, item, op_id: int, tracer=None) -> OpRecord:
    """Time one op, then check it outside the timed interval.  Any
    exception from the op or its check fails the op, not the run."""
    if tracer is not None:
        tracer.begin_op(op_id)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        out = workload.op(item)
        raised = None
    except Exception as exc:
        out, raised = None, exc
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    counts = tracer.end_op() if tracer is not None else None
    if raised is None:
        try:
            outcome = workload.check(item, out)
        except Exception as exc:
            outcome = workloads.Outcome(False, math.inf, False,
                                        f"check raised {exc!r}")
    else:
        outcome = workloads.Outcome(False, math.inf, False,
                                    f"op raised {raised!r}")
    workload.cleanup(item)
    return OpRecord(op_id, item.stratum, item.nodes, wall, cpu, outcome.ok,
                    outcome.error_to_tol, outcome.switched, outcome.problem,
                    counts)


def measure(workload, pool, seconds: float) -> list[OpRecord]:
    """Ops round-robin over the pool until `seconds` of wall time are spent
    and every input has run at least once."""
    records: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    before = reference_kernel()
    while len(records) < len(pool) or time.perf_counter() < deadline:
        item = pool[len(records) % len(pool)]
        record = run_op(workload, item, len(records))
        after = reference_kernel()
        record.ref_s = 0.5 * (before + after)
        before = after
        records.append(record)
    return records


def measure_paired(workload, pool, seconds: float):
    """Each input runs untraced, then traced, round-robin over the pool, so
    that both halves see the same machine load and the difference between
    them is the tracing overhead."""
    tracer = tracing.Tracer()
    strata = sorted({item.stratum for item in pool})
    untraced: list[OpRecord] = []
    traced: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < len(pool) or time.perf_counter() < deadline:
        item = pool[len(traced) % len(pool)]
        untraced.append(run_op(workload, item, 2 * len(traced)))
        tracer.install(strata)
        try:
            traced.append(run_op(workload, item, 2 * len(traced) + 1, tracer))
        finally:
            tracer.uninstall()
    return untraced, traced, tracer


def stratified(records, value) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for rec in records:
        groups.setdefault(rec.stratum, []).append(value(rec))
    return groups


def stratified_median(groups: dict[str, list[float]]) -> float:
    return statistics.fmean(statistics.median(v) for v in groups.values())


def stratified_tail(groups: dict[str, list[float]]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_OPS_BEYOND ops above it,
    taken per stratum with an equal share of those ops in each: returns the
    mean of the per-stratum values, the percentile and the ops beyond it."""
    beyond = math.ceil(TAIL_OPS_BEYOND / len(groups))
    value = statistics.fmean(sorted(v)[max(len(v) - beyond - 1, 0)]
                             for v in groups.values())
    n = min(len(v) for v in groups.values())
    kept = min(beyond, n - 1)
    return value, 100.0 * (n - kept) / n, kept * len(groups)


def end_to_end(records, setup_times, setup_refs) -> tuple[dict, dict]:
    """Gated metrics, and the record's details: raw timings, the tail
    percentile, failed_frac and error_to_tol."""
    ok = sum(r.ok for r in records)
    wall = stratified(records, lambda r: 1e3 * r.wall_s)
    ref = stratified(records, lambda r: r.wall_s / r.ref_s)
    tail, pct, beyond = stratified_tail(ref)
    worst = max((r.error_to_tol for r in records
                 if math.isfinite(r.error_to_tol)), default=sys.float_info.max)
    metrics = {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(setup_refs),
        "ops_per_kref": 1e3 * ok / sum(r.wall_s / r.ref_s for r in records),
        "latency_p50_ref": stratified_median(ref),
        "latency_tail_ref": tail,
        "cpu_ref_per_op": statistics.fmean(r.cpu_s / r.ref_s for r in records),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": ok / len(records),
        "error_margin_digits": -math.log10(max(worst, MIN_ERROR_TO_TOL)),
    }
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / sum(r.wall_s for r in records),
        "latency_p50_ms": stratified_median(wall),
        "latency_tail_ms": stratified_tail(wall)[0],
        "cpu_ms_per_op": 1e3 * statistics.fmean(r.cpu_s for r in records),
        "reference_ms": 1e3 * statistics.median(r.ref_s for r in records),
    }
    detail = {"raw": raw, "latency_tail_percentile": pct,
              "latency_tail_ops_beyond": beyond, "ops": len(records),
              "failed_frac": 1.0 - ok / len(records), "error_to_tol": worst}
    return metrics, detail


def per_layer(traced, untraced, tracer, pool_size) -> dict:
    """Per-op median self times (per model, averaged), per-op counts from
    the first traced pass, and the tracing overhead."""
    self_ns = tracing.self_time_by_op(tracer.spans)
    metrics = {}
    for name, spans in tracing.TIME_METRICS.items():
        groups = stratified(traced, lambda r: 1e-6 * sum(
            self_ns.get(r.op_id, {}).get(s, 0) for s in spans))
        metrics[name] = stratified_median(groups)
    first_pass = traced[:pool_size]
    for name in tracing.COUNT_METRICS:
        metrics[name] = sum(r.counts[name] for r in first_pass) / pool_size
    rate_traced = sum(r.ok for r in traced) / sum(r.wall_s for r in traced)
    rate_untraced = sum(r.ok for r in untraced) / sum(r.wall_s for r in untraced)
    metrics["trace.overhead_ops_per_s"] = rate_traced - rate_untraced
    metrics["trace.overhead_frac"] = \
        1.0 - rate_traced / rate_untraced if rate_untraced else 0.0
    return metrics


def workload_properties(records) -> dict:
    return {
        "workload.switched_op_share":
            sum(r.switched for r in records) / len(records),
        "workload.nodes_per_op": statistics.fmean(r.nodes for r in records),
    }


def machine_facts(workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "machine": platform.machine(),
    }


def run(workload, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> dict:
    """One benchmark run; returns the full result record."""
    setup_times, setup_refs = [], []
    before = reference_kernel()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = workload.build(seed)
        setup_times.append(time.perf_counter() - t0)
        after = reference_kernel()
        setup_refs.append(setup_times[-1] / (0.5 * (before + after)))
        before = after
    run_op(workload, pool[0], -1)                       # warm-up, not counted

    result = {"facts": machine_facts(workload.name, seed, seconds, trace),
              "setup_times_s": setup_times}
    if not trace:
        records = measure(workload, pool, seconds)
        metrics, detail = end_to_end(records, setup_times, setup_refs)
        result.update(detail)
    else:
        untraced, traced, tracer = measure_paired(workload, pool, seconds)
        records = untraced + traced
        metrics = per_layer(traced, untraced, tracer, len(pool))
        metrics.update(workload_properties(records))
        result["spans"] = len(tracer.spans)
        spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        with open(spans_path, "w") as handle:
            for s in tracer.spans:
                handle.write(json.dumps([s.span_id, s.name, s.start_ns,
                                         s.end_ns, s.parent, s.op]) + "\n")
    failed = [r for r in records if not r.ok]
    result.update({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "failures": [f"op {r.op_id} ({r.stratum}): {r.problem}"
                     for r in failed[:20]],
        "properties": workload_properties(records),
        "metrics": metrics,
    })
    return result


def result_line(result: dict) -> str:
    units = PER_LAYER_UNITS if result["facts"]["trace"] else END_TO_END_UNITS
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def emit(result: dict, out_dir: Path) -> None:
    """Print every metric with its unit, the workload properties and machine
    facts, and the result line last; keep the full record in out_dir."""
    facts = result["facts"]
    name = facts["workload"]
    units = PER_LAYER_UNITS if facts["trace"] else END_TO_END_UNITS
    for metric, unit in units.items():
        print(f"{name}: {metric} = {result['metrics'][metric]:.6g} {unit}")
    for metric, unit in RAW_UNITS.items() if "raw" in result else ():
        print(f"{name}: raw {metric} = {result['raw'][metric]:.6g} {unit} "
              "(not gated)")
    for key in ("properties", "facts"):
        print(f"{name}: {key} {json.dumps(result[key], sort_keys=True)}")
    for line in result["failures"]:
        print(f"{name}: FAILED {line}")
    path = out_dir / f"result-{name}-seed{facts['seed']}-trace{facts['trace']}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(result_line(result) + "\n")


def main(args, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, out_dir / f"work-{args.workload}")
    emit(run(workload, args.seed, args.seconds, bool(args.trace), out_dir),
         out_dir)
    return 0
