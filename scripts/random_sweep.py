#!/usr/bin/env python3
"""Sweep seeded random instances and aggregate residual statistics.

Usage: python scripts/random_sweep.py [--count 50] [--base-seed 0] [--json out.json]

The instances rotate over the acceptance suite's five seeded-batch specs
(``perfbench/workloads.BATCH_SPECS``) and ROADMAP instance ``a``'s spec
(``LARGE_SPEC``, H_F = 20).  Each is generated, written to JSON and parsed back, the path of
``modfactor verify``, and then verified.  Every instance carries its oracle,
so the sweep reports how far each construction lands from the seeded ground
truth, together with cross-method comparison residuals and the commutant
method's flip residual (``chain.flip_residual``).  It also prints the
closest decision of every Wedderburn frame built in the sweep (each
intertwiner solve): the smallest distance of a cluster separation and of a
coupling from its cut, in decades (a decision under one decade raises
ToleranceAmbiguity), and its spread decision, the one cut that is not a
``_decide`` call: the largest spread of a cluster kept whole and the
smallest of a cluster split, each over cut / 10 (a cluster splits at 1 or
more).  Last, per kind of a homomorphism check's ``certificate`` (an
identity's closure bound, an amplified action's product bound, theta's
factorization bound from its oracle link), how many checks were offered it
and how many fell back to the product-residual kernel, with the largest
accepted certificate over the bound
``Homomorphism.validate`` accepts (``numkernel.DEFECT_FACTOR`` tol); and how
many checks had no certificate and went to the kernel directly.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from modfactor import numkernel  # noqa: E402
from modfactor.errors import ModfactorError  # noqa: E402
from modfactor.harness import (  # noqa: E402
    generate_random_instance,
    instance_from_json,
    instance_to_json,
    run_verification,
)
from modfactor.hilbmod import Homomorphism  # noqa: E402
from workloads import BATCH_SPECS, LARGE_SPEC  # noqa: E402

SPECS = BATCH_SPECS + [LARGE_SPEC]


def _record_frame_margins(margins: dict) -> None:
    """Wrap numkernel._decide so that every frame cut records its smallest
    distance from the cut, in decades, under "cluster" or "coupling"; and
    numkernel._spreads so that every spread decision records its largest
    whole-cluster spread and smallest splitting spread over cut / 10, under
    "whole" and "split" (the cut is the frame's cluster cut, which _decide
    sees first)."""
    decide, spreads = numkernel._decide, numkernel._spreads
    cluster_cut = [np.nan]

    def recording(v, cut, what, *args, **kwargs):
        kind = what.rpartition(": ")[2]
        if what.startswith("solve_intertwiners") and np.size(v) and cut > 0:
            with np.errstate(divide="ignore"):
                dist = float(np.abs(np.log10(np.asarray(v) / cut)).min())
            margins[kind] = min(margins.get(kind, np.inf), dist)
        if kind == "cluster":
            cluster_cut[0] = cut
        return decide(v, cut, what, *args, **kwargs)

    def recording_spreads(comps, dims):
        out = spreads(comps, dims)
        ratio = out / (cluster_cut[0] / 10)
        margins["whole"] = max(margins.get("whole", 0.0), ratio[ratio < 1].max(initial=0.0))
        margins["split"] = min(margins.get("split", np.inf), ratio[ratio >= 1].min(initial=np.inf))
        return out

    numkernel._decide = recording
    numkernel._spreads = recording_spreads


def _record_certificates(stats: dict) -> None:
    """Wrap Homomorphism.validate so that every check of a map's products
    records, under the kind of its certificate, [checks, fallbacks to the
    kernel, largest accepted certificate / bound], the bound DEFECT_FACTOR
    tol: a fallback is a check whose construction handed in a bound that
    the kernel settled.  An identity's closure bound is certified at most
    the bound, so it never falls back."""
    validate = Homomorphism.validate

    def recording_validate(hom, tol=numkernel.DEFAULT_TOL):
        handed = hom.certificate
        if handed is not None and handed.tol is not None and handed.tol <= tol:
            return validate(hom, tol)
        validate(hom, tol)
        cert = hom.certificate
        kind = cert.kind
        if kind == "kernel" and handed is not None and handed.tol is None:
            kind = handed.kind
        row = stats.setdefault(kind, [0, 0, 0.0])
        row[0] += 1
        row[1] += cert.kind != kind
        if cert.kind == kind:
            row[2] = max(row[2], cert.value / (numkernel.DEFECT_FACTOR * tol))

    Homomorphism.validate = recording_validate


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    rows = []
    margins, certificates = {}, {}
    _record_frame_margins(margins)
    _record_certificates(certificates)
    t0 = time.perf_counter()
    failures = 0
    for i in range(args.count):
        spec = SPECS[i % len(SPECS)]
        seed = args.base_seed + i
        try:
            # verified as parsed back from its JSON, the path of ``modfactor
            # verify``: theta is then data, with no construction's certificate
            inst = instance_from_json(instance_to_json(generate_random_instance(spec, seed)))
            report = run_verification(inst)
        except ModfactorError as exc:
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        worst_theta = max(
            rep["theta_residual"] for rep in report.body["methods"].values()
            if rep["status"] == "ok")
        worst_cmp = max(
            (rep["residual"] for rep in report.body["comparisons"].values()
             if rep.get("residual") is not None), default=0.0)
        oracle = report.body["oracle"]["max_residual"] if report.body["oracle"] else None
        commutant = report.body["methods"]["commutant"]
        flip = commutant["chain"]["flip_residual"] if commutant["status"] == "ok" else None
        rows.append({
            "seed": seed,
            "dim_E": inst.E.dim,
            "dim_F": inst.F.dim,
            "H_F": inst.F.dim_H,
            "passed": report.passed,
            "worst_theta_residual": worst_theta,
            "worst_comparison_residual": worst_cmp,
            "oracle_residual": oracle,
            "flip_residual": flip,
        })
        failures += 0 if report.passed else 1
    elapsed = time.perf_counter() - t0

    theta_res = np.array([r["worst_theta_residual"] for r in rows])
    cmp_res = np.array([r["worst_comparison_residual"] for r in rows])
    orc_res = np.array([r["oracle_residual"] for r in rows if r["oracle_residual"] is not None])
    flip_res = np.array([r["flip_residual"] for r in rows if r["flip_residual"] is not None])
    print(f"{args.count} instances in {elapsed:.1f}s, {failures} failures, "
          f"max H_F {max((r['H_F'] for r in rows), default=0)}")
    if not rows:
        return 1
    print(f"theta residuals:      max {theta_res.max():.2e}  median {np.median(theta_res):.2e}")
    print(f"comparison residuals: max {cmp_res.max():.2e}  median {np.median(cmp_res):.2e}")
    if flip_res.size:
        print(f"flip residuals:       max {flip_res.max():.2e}  median {np.median(flip_res):.2e}")
    if orc_res.size:
        print(f"oracle residuals:     max {orc_res.max():.2e}  median {np.median(orc_res):.2e}")
    print(f"closest frame decision: cluster separation "
          f"{margins.get('cluster', np.inf):.2f} decades, coupling "
          f"{margins.get('coupling', np.inf):.2f} decades from their cuts")
    print(f"frame spread decision: largest whole-cluster spread "
          f"{margins.get('whole', 0.0):.2e}, smallest splitting spread "
          f"{margins.get('split', np.inf):.2e} of cut / 10")
    for kind in sorted(certificates, key=lambda kind: (kind == "kernel", kind)):
        checks, fallbacks, ratio = certificates[kind]
        if kind == "kernel":
            print(f"no certificate: {checks} homomorphism checks measured by the kernel")
        else:
            print(f"{kind} certificate: {checks} homomorphism checks, {fallbacks} fell back "
                  f"to the kernel; largest certificate / bound {ratio:.2e}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"rows": rows, "elapsed_s": elapsed}, f, indent=1)
        print(f"row data written to {args.json}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
