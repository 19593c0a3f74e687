"""Run one pathlin benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload curves --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
`src/`, and results, spans and the CLI workload's files go to
`benchmarks/out/`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones.  See README.md.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS and OpenMP read these when numpy loads, so they are set first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("curves", "switching", "squares", "files")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pathlin" / "__init__.py").is_file():
        print(f"error: no pathlin sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    return harness.main(args, ROOT / "benchmarks" / "out")


if __name__ == "__main__":
    sys.exit(main())
