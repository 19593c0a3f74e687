"""Compare two source checkouts on the benchmark and write a BENCH file.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR -o BENCH_11.json \
        --seconds 10 --seed 11

Each checkout runs `benchmarks/run.py --trace 0` from its own root, so each
is measured with its own library, on every workload, REPEATS times.  Runs
alternate between the two, and the checkout that goes first alternates from
one repeat to the next, so both see the same spells of machine load; ten
alternating pairs are the fewest that can show a gain in nine of ten.  The output holds every run's result
record, the quartiles of each end-to-end metric over the repeats, the
ratio of the medians (change / parent) and the machine facts.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("curves", "switching", "squares", "files")
REPEATS = 10


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout; its result record."""
    subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, stdout=subprocess.DEVNULL)
    record = root / "benchmarks" / "out" / \
        f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text())


def quartiles(values) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(q2), "q3": float(q3)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: {name: [] for name in trees} for w in WORKLOADS}
    for i in range(REPEATS):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for workload in WORKLOADS:
            for name in order:
                record = run_once(trees[name], workload, args.seed,
                                  args.seconds)
                runs[workload][name].append(record)
                print(f"{workload} {name} repeat {i}: ops_per_kref "
                      f"{record['metrics']['ops_per_kref']:.2f}", flush=True)

    summary = {}
    for workload, by_tree in runs.items():
        metrics = sorted(by_tree["parent"][0]["metrics"])
        summary[workload] = {}
        for metric in metrics:
            q = {name: quartiles([r["metrics"][metric] for r in records])
                 for name, records in by_tree.items()}
            parent = q["parent"]["median"]
            q["ratio_of_medians"] = (q["change"]["median"] / parent
                                     if parent else None)
            summary[workload][metric] = q
    first = runs[WORKLOADS[0]]["parent"][0]["facts"]
    payload = {
        "protocol": {"repeats": REPEATS, "seconds": args.seconds,
                     "seed": args.seed, "trace": 0,
                     "order": "alternating, first checkout swapped per repeat"},
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "python": first["python"], "numpy": first["numpy"],
                    "threads": first["threads"],
                    "machine": first["machine"]},
        "summary": summary,
        "runs": runs,
    }
    args.output.write_text(json.dumps(payload, sort_keys=True, indent=2)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
