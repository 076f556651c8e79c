"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload meta_pretrain --seed 1 --seconds 40 --trace 0

Prints each metric with its unit, the error rate, a JSON run record and,
as the last line, the JSON result. Exits 1 when an output check fails
and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pin_threads() -> None:
    """One BLAS thread, set before numpy loads; the sweep's own cell
    threads (ADAPT2_THREADS) stay off."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ADAPT2_THREADS", None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_threads()
    src = ROOT / "src"
    if not (src / "metareplay" / "__init__.py").is_file():
        print(f"metareplay sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    rec = result.record
    for name, m in result.metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {rec['error_rate']:.6g} fraction "
          f"({result.failed} of {result.attempted} operations failed)")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("record " + json.dumps(rec))
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
