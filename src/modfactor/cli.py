"""Command-line interface.

Subcommands: validate, factorize, verify, random, product-system.
Exit code 0 iff every check that ran passed.  All configuration comes from
flags and files; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ModfactorError
from .harness import (
    GenSpec,
    VerifyConfig,
    _write_file,
    factorize,
    generate_random_instance,
    golden_instance,
    instance_to_json,
    parse_instance,
    run_verification,
    save_instance,
)
from .numkernel import DEFAULT_TOL
from .prodsys import discrete_product_system, verify_associativity

METHOD_CHOICES = ("dual", "unit-vector", "qons", "commutant")


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def cmd_validate(args) -> int:
    try:
        inst = parse_instance(args.instance, args.tol)
    except ModfactorError as e:
        print(f"INVALID: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"valid instance: dim G={inst.E.dim_G} dim H={inst.E.dim_H} "
          f"dim E={inst.E.dim} dim F={inst.F.dim} "
          f"dim B^a(E)={inst.theta.domain.dim}"
          + (" (oracle recorded)" if inst.oracle is not None else ""))
    return 0


def cmd_factorize(args) -> int:
    try:
        inst = parse_instance(args.instance, args.tol)
        res = factorize(inst, args.method.replace("-", "_"), args.tol)
    except ModfactorError as e:
        print(f"ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    out = res.to_json(emit_unitary=args.emit_unitaries)
    _write_json(out, args.report)
    worst = max(res.report["residual_unitary"], res.report["residual_intertwine"],
                res.report["theta_residual"])
    print(f"method {res.method}: correspondence dimension "
          f"{res.report['dims']['correspondence']}, worst residual {worst:.3e}",
          file=sys.stderr)
    return 0 if worst <= args.cert_tol else 1


def cmd_verify(args) -> int:
    try:
        inst = parse_instance(args.instance, args.tol)
    except ModfactorError as e:
        print(f"ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    config = VerifyConfig(tol=args.tol, cert_tol=args.cert_tol,
                          emit_unitaries=args.emit_unitaries)
    report = run_verification(inst, config)
    if args.report:
        _write_file(args.report, report.to_canonical_json())
    sys.stdout.write(report.to_text())
    if args.timings:
        for k, v in report.timings.items():
            print(f"  timing {k}: {v:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_random(args) -> int:
    try:
        if args.golden:
            inst = golden_instance()
        else:
            with open(args.spec) as f:
                spec = GenSpec.from_json(json.load(f))
            inst = generate_random_instance(spec, args.seed, args.tol)
    except (ModfactorError, OSError, json.JSONDecodeError) as e:
        print(f"ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if args.out:
        save_instance(inst, args.out)
    else:
        _write_json(instance_to_json(inst), None)
    print(f"instance: dim E={inst.E.dim}, dim F={inst.F.dim}, "
          f"notes={inst.notes}", file=sys.stderr)
    return 0


def cmd_product_system(args) -> int:
    try:
        inst = parse_instance(args.instance, args.tol)
        if inst.E.dim_H != inst.F.dim_H:
            print("ERROR: product systems need an endomorphism "
                  "(E and F must share their total space)", file=sys.stderr)
            return 1
        ps = discrete_product_system(inst.E, inst.theta, args.steps, args.tol)
        report = verify_associativity(ps, args.tol)
    except ModfactorError as e:
        print(f"ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    _write_json(report, args.report)
    print(f"product system to {args.steps} steps: member dims "
          f"{report['member_dims']}, max residual {report['max_residual']:.3e}",
          file=sys.stderr)
    return 0 if report["max_residual"] <= args.cert_tol else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modfactor",
        description="Factor homomorphisms of adjointable-operator algebras "
                    "through correspondences and cross-verify the constructions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, certified=True):
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="relative tolerance for rank decisions (default %(default)s)")
        if certified:
            sp.add_argument("--cert-tol", type=float, default=VerifyConfig.cert_tol,
                            help="acceptance threshold for certification residuals")

    sp = sub.add_parser("validate", help="validate an instance file")
    sp.add_argument("instance")
    common(sp, certified=False)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("factorize", help="run one factorization method")
    sp.add_argument("--method", required=True, choices=METHOD_CHOICES)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--report", default=None, help="write the report JSON here")
    sp.add_argument("--emit-unitaries", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_factorize)

    sp = sub.add_parser("verify", help="run all methods and cross-checks")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--report", default=None)
    sp.add_argument("--emit-unitaries", action="store_true")
    sp.add_argument("--timings", action="store_true",
                    help="print stage timings to stderr (never in the report)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("random", help="generate a seeded instance with oracle")
    sp.add_argument("--spec", help="generator spec JSON")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--golden", action="store_true",
                    help="emit the golden fixture instead of a random instance")
    common(sp, certified=False)
    sp.set_defaults(fn=cmd_random)

    sp = sub.add_parser("product-system", help="discrete product system checks")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--steps", type=int, default=3)
    sp.add_argument("--report", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_product_system)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("tol", "cert_tol"):
        if not 0.0 < getattr(args, flag, 1.0) < float("inf"):
            parser.error(f"--{flag.replace('_', '-')} must be finite and > 0")
    if args.command == "random" and not args.golden and not args.spec:
        print("ERROR: random needs --spec or --golden", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
