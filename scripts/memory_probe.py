#!/usr/bin/env python3
"""Time and memory of generate, save, parse and verify on ROADMAP's probes,
and of validating a large algebra and taking its commutant.

Usage: python scripts/memory_probe.py [a b c d e algebra]

Each named probe (all six by default) runs in a fresh process at one BLAS
thread.  An instance probe generates the uncompressed instance at seed 1,
saves it to a temporary file, saves it twice more over the same path (the
``resave`` phase), parses it back and verifies it; a last line gives the
file's size in MB.  ``resave`` is the rewrite every seeded-batch op makes.
On ext4 a rewrite that truncates the file starts its writeback at close,
and the next truncating rewrite waits for it: such a writer shows as a
``resave`` tens of milliseconds longer than two ``save`` phases.  The
``algebra`` probe conjugates M_10 (x) 1_10 on C^100 (k = n = 100) by a Haar
unitary drawn from seed 1, validates it with ``algebra_from_basis`` and
takes its ``commutant``.  After each phase the process prints the phase's
wall seconds, its minor page faults (``ru_minflt``) and the process's peak
resident set so far (``ru_maxrss``, MB).  The exit status is 1 when a probe
fails (an instance does not verify, the commutant is not 100-dimensional)
or its process fails, else 0.
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

# (blocks_B, blocks_C) of ROADMAP's probes a (H_F = 20), b (36), c (42), d (80) and e (90)
PROBES = {
    "a": ([(2, 1), (3, 1)], [(2, 1)]),
    "b": ([(3, 1), (3, 1)], [(2, 1), (1, 1)]),
    "c": ([(4, 1), (3, 1)], [(2, 1), (1, 1)]),
    "d": ([(4, 1), (4, 1)], [(3, 1), (2, 1)]),
    "e": ([(5, 1), (4, 1)], [(3, 1), (2, 1)]),
}
SEED = 1
# the algebra probe's (size, multiplicity) blocks: M_10 (x) 1_10 on C^100
ALGEBRA = [(10, 10)]
NAMES = list(PROBES) + ["algebra"]


def _instance_phases(name: str, path: str):
    """(phases, passed) of an instance probe: generate, save, resave, parse, verify."""
    from modfactor.harness import (
        GenSpec, generate_random_instance, parse_instance, run_verification, save_instance)

    blocks_B, blocks_C = PROBES[name]
    spec = GenSpec(blocks_B=blocks_B, blocks_C=blocks_C, compress=False)

    def resave(inst):
        for _ in range(2):
            save_instance(inst, path)

    return [("generate", lambda _: generate_random_instance(spec, SEED)),
            ("save", lambda inst: save_instance(inst, path)),
            ("resave", resave),
            ("parse", lambda _: parse_instance(path)),
            ("verify", run_verification)], lambda report: report.passed


def _algebra_phases():
    """(phases, passed) of the algebra probe: validate, commutant."""
    import numpy as np
    from modfactor.cstar import algebra_from_basis, build_algebra, commutant

    basis = build_algebra(ALGEBRA).basis
    n = basis.shape[1]
    rng = np.random.default_rng(SEED)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    mats = u @ basis @ u.conj().T
    want = sum(m * m for _, m in ALGEBRA)
    return [("validate", lambda _: algebra_from_basis(mats)),
            ("commutant", commutant)], lambda comm: comm.dim == want


def _child(name: str) -> int:
    """Run one probe's phases in this process and print one line per phase."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"probe_{name}.json")
        phases, passed = _algebra_phases() if name == "algebra" else _instance_phases(name, path)
        out = None
        for phase, run in phases:
            before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            out = run(out) or out
            seconds = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            print(f"{name:>7} {phase:>9} {seconds:9.2f} {after.ru_minflt - before.ru_minflt:10d} "
                  f"{after.ru_maxrss / 1024:9.0f}", flush=True)
        if os.path.exists(path):
            print(f"{name:>7} {'file_MB':>9} {os.path.getsize(path) / 1e6:9.2f}", flush=True)
    return 0 if passed(out) else 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("probes", nargs="*", default=NAMES, help="of a, b, c, d, e, algebra")
    ap.add_argument("--child", choices=NAMES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if set(args.probes) - set(NAMES):
        ap.error(f"unknown probes {sorted(set(args.probes) - set(NAMES))}")
    if args.child:
        return _child(args.child)
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    print(f"{'probe':>7} {'phase':>9} {'seconds':>9} {'minflt':>10} {'maxrss_MB':>9}")
    failed = 0
    for name in args.probes:
        done = subprocess.run([sys.executable, __file__, "--child", name], env=env)
        if done.returncode:
            failed += 1
            print(f"{name:>7} failed (exit {done.returncode})")
    return int(failed != 0)


if __name__ == "__main__":
    sys.exit(main())
