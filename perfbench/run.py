"""Layer-wise pipeline benchmark of lcsnn on synthetic stimuli.

Run from the root of a checkout (no install, no MNIST needed):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, the numerics digest, the failed share and, when traced,
a per-stage profile.  The spans of the last traced repetition are written
to ``.perfbench/`` in the checkout, which also holds the checkpoints of a
running repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
# one BLAS thread: samples run one at a time in one process at a time, and a
# single thread keeps the figures steady on a shared machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one repetition in this process and print its raw result
    p.add_argument("--repetition", choices=("plain", "traced"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcsnn" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import lcsnn  # only now: numpy reads the BLAS environment when it loads

    if Path(lcsnn.__file__).resolve().parent != SRC / "lcsnn":
        print(f"error: imported lcsnn from {lcsnn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from harness import measure, repetition
    from pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    if args.repetition:
        print(json.dumps(repetition(args.workload, args.seed, args.repetition == "traced",
                                    WORK_DIR)))
        return 0

    result, report = measure(Path(__file__).resolve(), args.workload, args.seed, args.seconds,
                             bool(args.trace), BLAS_THREADS)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if result["correct"] and set(result["metrics"]) != set(units):
        missing = set(units) ^ set(result["metrics"])
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 3
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]}
                         for name in units if name in result["metrics"]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in report:
        print(line)
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
