#!/usr/bin/env python3
"""Write the canonical outputs of modfactor on its fixed inputs, one file each.

Usage: OPENBLAS_NUM_THREADS=1 python scripts/canonical_outputs.py OUTDIR [--large] [--xl]
       python scripts/canonical_outputs.py --compare OLD NEW

For the golden fixture (built in code and parsed from fixtures/golden.json)
and the 50 seeded-batch instances, it writes the instance JSON and the
canonical verification report; each batch instance also gets
``batch_N.parsed.report.json``, the report of its saved instance file parsed
back, the path ``modfactor verify`` takes.  ``--large`` adds instance ``a``
of the ROADMAP (about 4 s) and ``--xl`` instance ``b`` (about 11 s, 350 MB
peak RSS).  It also writes the associativity reports of the golden product
system and of the product-system benchmark's inputs 0-4 at seed 2000
(inner automorphisms of seeded modules), the composition and
Hilbert-space residuals of two amplifications, and, for each rung of the
algebra-structure benchmark's ladder at each of the seeds 0-9, [ambient
dimension, commutant dimension, center dimension, blocks] (integers only, so
any change of dims fails ``--compare``).  ``dictionary.json`` holds, for the golden module and
the 50 seeded-batch modules E, the dimension of the adjointable algebra of
E and the dims and the subspace distance to E of the module rebuilt from
its commutant lifting and of the double bimodule commutant of E.
Run it on two checkouts and compare them with
``diff -r``: a change that keeps the numbers leaves no difference.

``--compare OLD NEW`` compares two such directories in substance.  It fails
on a missing file, on any difference in a boolean, string or integer, in
an array's length or in anything under a ``dims`` key, and on any report
whose ``passed`` is not true.  It prints the number of changed files and
the largest change of the residuals (absolute, with the largest changed
residual) and of the gaps (in decades, with the smallest changed gap; a
gap that goes to or from inf is counted on its own line);
float changes elsewhere, such as instance entries re-expressed in another
basis, are counted but do not fail.  Then it lists each key path where a
float changed, with batch numbers and list indices folded to ``*``, and the
number of files where it changed.
"""

import argparse
import json
import re
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
    GenSpec,
    _write_file,
    generate_random_instance,
    golden_instance,
    parse_instance,
    run_verification,
    save_instance,
)
from modfactor.hilbmod import (  # noqa: E402
    Homomorphism,
    adjointable_algebra,
    as_bimodule,
    build_module,
    commutant_bimodule,
    commutant_lifting,
    module_from_representation,
)
from modfactor.numkernel import subspace_equal  # noqa: E402
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
    PRODUCT_STEPS,
    AlgebraStructure,
    ProductSystem,
)


# ROADMAP instance ``b`` (H_F = 36), the target of its speed item.
XL_SPEC = GenSpec(blocks_B=[(3, 1), (3, 1)], blocks_C=[(2, 1), (1, 1)], compress=False)
XL_SEED = 1
# The product-system workload's inputs 0..PRODUCT_OPS-1 at this seed.
PRODUCT_SEED = 2000
PRODUCT_OPS = 5
# The algebra-structure workload's input 0 at each of these seeds.
ALGEBRA_SEEDS = range(10)


def _dump(path: Path, obj) -> None:
    _write_file(str(path), json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _instance_outputs(out: Path, name: str, inst, parsed: bool = False) -> None:
    """The instance file and the report of inst; with ``parsed``, also the
    report of the instance parsed back from that file."""
    path = out / f"{name}.instance.json"
    save_instance(inst, str(path))
    _write_file(str(out / f"{name}.report.json"), run_verification(inst).to_canonical_json())
    if parsed:
        _write_file(str(out / f"{name}.parsed.report.json"),
                    run_verification(parse_instance(str(path))).to_canonical_json())


def _dictionary(E) -> dict:
    """The module <-> representation dictionary on E: dim B^a(E), and the
    dims [dim, dim_H, dim_G] and the distance to E of the two round trips."""
    def trip(M):
        return {"dims": [M.dim, M.dim_H, M.dim_G],
                "distance": float(subspace_equal(M.space, E.space)[1])}
    return {"dims": {"adjointable": adjointable_algebra(E).dim},
            "representation": trip(module_from_representation(E.base, commutant_lifting(E))),
            "double_commutant": trip(commutant_bimodule(commutant_bimodule(as_bimodule(E))).module)}


def _column_module(n: int):
    cols = [np.eye(n, dtype=complex)[:, [i]] for i in range(n)]
    return build_module(build_algebra([(1, 1)]), cols)


def _amplification(n: int, m: int) -> Homomorphism:
    Mn = build_algebra([(n, 1)])
    return Homomorphism(Mn, n * m, np.stack([np.kron(b, np.eye(m)) for b in Mn.basis]))


def _kind(path: tuple) -> str:
    """Which float a key path names: a gap, a residual or anything else."""
    if any("gap" in str(p) for p in path):
        return "gap"
    if path[0].endswith(".instance.json") or \
            any(str(p) in ("tolerances", "rho_inverse_conditioning") for p in path):
        return "other"
    return "residual"


def _walk(old, new, path: tuple, faults: list, changes: list) -> None:
    where = "/".join(str(p) for p in path)
    if type(old) is not type(new):
        faults.append(f"{where}: {type(old).__name__} became {type(new).__name__}")
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            faults.append(f"{where}: keys {sorted(old.keys() ^ new.keys())} differ")
        for key in sorted(old.keys() & new.keys()):
            _walk(old[key], new[key], path + (key,), faults, changes)
    elif isinstance(old, list):
        if len(old) != len(new):
            faults.append(f"{where}: length {len(old)} became {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, path + (i,), faults, changes)
    elif isinstance(old, float) and "dims" not in path:
        if old != new and not (np.isnan(old) and np.isnan(new)):
            changes.append((_kind(path), old, new, where))
    elif old != new:
        faults.append(f"{where}: {old!r} became {new!r}")


def _folded_paths(changes: list) -> dict:
    """{key path with batch numbers and list indices folded to '*': names of
    the files where a float under it changed}."""
    out = {}
    for *_, where in changes:
        name, *keys = where.split("/")
        folded = [re.sub(r"_\d+\.", "_*.", name)] + \
            ["*" if k.isdigit() else k for k in keys]
        out.setdefault("/".join(folded), set()).add(name)
    return out


def compare(old_dir: Path, new_dir: Path) -> int:
    """Exit status 0 iff NEW keeps every flag, string, integer, dimension and
    shape of OLD and every report in both passed."""
    names = sorted({p.name for p in old_dir.glob("*.json")} |
                   {p.name for p in new_dir.glob("*.json")})
    faults, changes, changed = [], [], 0
    for name in names:
        if not (old_dir / name).exists() or not (new_dir / name).exists():
            faults.append(f"{name}: present on one side only")
            continue
        old = json.loads((old_dir / name).read_text())
        new = json.loads((new_dir / name).read_text())
        if name.endswith(".report.json"):
            for side, rep in (("old", old), ("new", new)):
                if rep.get("passed") is not True:
                    faults.append(f"{name}: the {side} report did not pass")
        before = len(changes)
        _walk(old, new, (name,), faults, changes)
        changed += len(changes) > before
    print(f"{len(names)} files, {changed} with changed floats")
    res = [(abs(b - a), max(a, b), w) for k, a, b, w in changes if k == "residual"]
    if res:
        big = max(res)
        print(f"residuals: {len(res)} changed, largest change {big[0]:.3e} at {big[2]}, "
              f"largest changed residual {max(r[1] for r in res):.3e}")
    gap_changes = [(a, b, w) for k, a, b, w in changes if k == "gap"]
    gaps = [(abs(np.log10(b) - np.log10(a)), min(a, b), w)
            for a, b, w in gap_changes if np.isfinite(a) and np.isfinite(b)]
    if gaps:
        big = max(gaps)
        print(f"gaps: {len(gaps)} changed, largest change {big[0]:.2f} decades at "
              f"{big[2]}, smallest changed gap {min(g[1] for g in gaps):.3e}")
    to_inf = [w for a, b, w in gap_changes if np.isinf(b)]
    from_inf = [w for a, b, w in gap_changes if np.isinf(a)]
    if to_inf or from_inf:
        print(f"gaps to or from inf: {len(to_inf)} became inf, {len(from_inf)} became "
              f"finite, first at {(to_inf or from_inf)[0]}")
    print(f"other floats: {sum(k == 'other' for k, *_ in changes)} changed")
    for path, files in sorted(_folded_paths(changes).items()):
        print(f"{path}: {len(files)} file{'s' if len(files) != 1 else ''}")
    for fault in faults:
        print(f"FAIL {fault}")
    return 1 if faults else 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?")
    ap.add_argument("--large", action="store_true", help="also write instance a")
    ap.add_argument("--xl", action="store_true", help="also write instance b")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two output directories instead of writing one")
    args = ap.parse_args()
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.outdir is None:
        ap.error("OUTDIR is required unless --compare is given")
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    golden = golden_instance()
    _instance_outputs(out, "golden", golden)
    _instance_outputs(out, "golden_parsed", parse_instance(str(ROOT / "fixtures" / "golden.json")))
    dictionary = {"golden": _dictionary(golden.E)}
    for j in range(BATCH_SIZE):
        inst = generate_random_instance(BATCH_SPECS[j % len(BATCH_SPECS)], BATCH_SEED + j)
        _instance_outputs(out, f"batch_{BATCH_SEED + j}", inst, parsed=True)
        dictionary[f"batch_{BATCH_SEED + j}"] = _dictionary(inst.E)
    _dump(out / "dictionary.json", dictionary)
    if args.large:
        _instance_outputs(out, "large", generate_random_instance(LARGE_SPEC, LARGE_SEED))
    if args.xl:
        _instance_outputs(out, "xl", generate_random_instance(XL_SPEC, XL_SEED))

    _dump(out / "golden.product_system.json",
          verify_associativity(discrete_product_system(golden.E, golden.theta, 3)))
    product = ProductSystem(str(out))
    seeded = {}
    for i in range(PRODUCT_OPS):
        E, theta = product.inputs(PRODUCT_SEED, i)
        seeded[str(i)] = verify_associativity(discrete_product_system(E, theta, PRODUCT_STEPS))
    _dump(out / "seeded.product_system.json", seeded)
    algebra = AlgebraStructure(str(out))
    algebra.setup()
    _dump(out / "algebra_structure.json",
          {str(seed): algebra.op(algebra.inputs(seed, 0)) for seed in ALGEBRA_SEEDS})
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
