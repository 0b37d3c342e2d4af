#!/usr/bin/env python3
"""Time and memory of generate, save, parse and verify on ROADMAP's probes.

Usage: python scripts/memory_probe.py [a b c d]

Each named probe (all four by default) runs in a fresh process at one BLAS
thread: it generates the uncompressed instance at seed 1, saves it to a
temporary file, parses it back and verifies it.  After each phase the
process prints the phase's wall seconds, its minor page faults
(``ru_minflt``) and the process's peak resident set so far (``ru_maxrss``,
MB).  The exit status is 1 when a probe fails to verify or its process
fails, else 0.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (blocks_B, blocks_C) of ROADMAP's probes a (H_F = 20), b (36), c (42) and d (80)
PROBES = {
    "a": ([(2, 1), (3, 1)], [(2, 1)]),
    "b": ([(3, 1), (3, 1)], [(2, 1), (1, 1)]),
    "c": ([(4, 1), (3, 1)], [(2, 1), (1, 1)]),
    "d": ([(4, 1), (4, 1)], [(3, 1), (2, 1)]),
}
SEED = 1


def _child(name: str) -> int:
    """Run one probe's phases in this process and print one line per phase."""
    from modfactor.harness import (
        GenSpec, generate_random_instance, parse_instance, run_verification, save_instance)

    blocks_B, blocks_C = PROBES[name]
    spec = GenSpec(blocks_B=blocks_B, blocks_C=blocks_C, compress=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"probe_{name}.json")
        phases = [("generate", lambda _: generate_random_instance(spec, SEED)),
                  ("save", lambda inst: save_instance(inst, path)),
                  ("parse", lambda _: parse_instance(path)),
                  ("verify", run_verification)]
        out = None
        for phase, run in phases:
            before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            out = run(out) or out
            seconds = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            print(f"{name:>5} {phase:>8} {seconds:9.2f} {after.ru_minflt - before.ru_minflt:10d} "
                  f"{after.ru_maxrss / 1024:9.0f}", flush=True)
    return 0 if out.passed else 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("probes", nargs="*", default=list(PROBES), help="of a, b, c, d")
    ap.add_argument("--child", choices=list(PROBES), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if set(args.probes) - set(PROBES):
        ap.error(f"unknown probes {sorted(set(args.probes) - set(PROBES))}")
    if args.child:
        return _child(args.child)
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    print(f"{'probe':>5} {'phase':>8} {'seconds':>9} {'minflt':>10} {'maxrss_MB':>9}")
    failed = 0
    for name in args.probes:
        done = subprocess.run([sys.executable, __file__, "--child", name], env=env)
        if done.returncode:
            failed += 1
            print(f"{name:>5} failed (exit {done.returncode})")
    return int(failed != 0)


if __name__ == "__main__":
    sys.exit(main())
