#!/usr/bin/env python3
"""Write the canonical outputs of modfactor on its fixed inputs, one file each.

Usage: OPENBLAS_NUM_THREADS=1 python scripts/canonical_outputs.py OUTDIR [--large]

For the golden fixture (built in code and parsed from fixtures/golden.json)
and the 50 seeded-batch instances, it writes the instance JSON and the
canonical verification report; ``--large`` adds instance ``a`` of the
ROADMAP (about 7 s).  It also writes the golden product system's
associativity report and the composition and Hilbert-space residuals of
two amplifications.  Run it on two checkouts and compare them with
``diff -r``: a change that keeps the numbers leaves no difference.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from modfactor.cstar import build_algebra  # noqa: E402
from modfactor.factorizations import (  # noqa: E402
    hilbert_space_compression,
    hilbert_space_intertwiners,
)
from modfactor.harness import (  # noqa: E402
    generate_random_instance,
    golden_instance,
    instance_to_json,
    parse_instance,
    run_verification,
)
from modfactor.hilbmod import Homomorphism, build_module  # noqa: E402
from modfactor.prodsys import (  # noqa: E402
    composition_contravariance,
    discrete_product_system,
    verify_associativity,
)
from workloads import (  # noqa: E402
    BATCH_SEED,
    BATCH_SIZE,
    BATCH_SPECS,
    LARGE_SEED,
    LARGE_SPEC,
)


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _instance_outputs(out: Path, name: str, inst) -> None:
    _dump(out / f"{name}.instance.json", instance_to_json(inst))
    (out / f"{name}.report.json").write_text(run_verification(inst).to_canonical_json())


def _column_module(n: int):
    cols = [np.eye(n, dtype=complex)[:, [i]] for i in range(n)]
    return build_module(build_algebra([(1, 1)]), cols)


def _amplification(n: int, m: int) -> Homomorphism:
    Mn = build_algebra([(n, 1)])
    return Homomorphism(Mn, n * m, np.stack([np.kron(b, np.eye(m)) for b in Mn.basis]))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir")
    ap.add_argument("--large", action="store_true", help="also write instance a")
    args = ap.parse_args()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    golden = golden_instance()
    _instance_outputs(out, "golden", golden)
    _instance_outputs(out, "golden_parsed", parse_instance(str(ROOT / "fixtures" / "golden.json")))
    for j in range(BATCH_SIZE):
        inst = generate_random_instance(BATCH_SPECS[j % len(BATCH_SPECS)], BATCH_SEED + j)
        _instance_outputs(out, f"batch_{BATCH_SEED + j}", inst)
    if args.large:
        _instance_outputs(out, "large", generate_random_instance(LARGE_SPEC, LARGE_SEED))

    _dump(out / "golden.product_system.json",
          verify_associativity(discrete_product_system(golden.E, golden.theta, 3)))
    theta1, theta2 = _amplification(2, 2), _amplification(4, 3)
    _dump(out / "amplification.contravariance.json",
          composition_contravariance(_column_module(2), _column_module(4),
                                     _column_module(12), theta1, theta2))
    omega = np.eye(2)[:, [0]]
    hilbert = {}
    for m in (1, 2, 3):
        theta = _amplification(2, m)
        ua = hilbert_space_intertwiners(theta)[1]
        ub = hilbert_space_compression(theta, omega)[1]
        hilbert[str(m)] = {"intertwiners": [ua.residual_unitary, ua.residual_intertwine],
                           "compression": [ub.residual_unitary, ub.residual_intertwine]}
    _dump(out / "amplification.hilbert_space.json", hilbert)
    return 0


if __name__ == "__main__":
    sys.exit(main())
