#!/usr/bin/env python3
"""Benchmark of modfactor, run from the root of a source checkout.

    python3 perfbench/run.py --workload seeded-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload as a closed loop with one client.  BLAS is
pinned to one thread before numpy is imported.  The package is imported
from ``src/`` next to this directory; without it the benchmark exits with
code 2 and prints no result.  See ``NOTES.md`` for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "modfactor" / "__init__.py").is_file():
        print(f"perfbench: no modfactor package under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from bench import cli  # imports numpy, so only after the pinning above

    return cli(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
