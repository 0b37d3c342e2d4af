"""Per-layer tracing of modfactor from outside the package.

Entering a ``Tracer`` replaces each listed function with a wrapper in every
``modfactor`` module namespace that binds it (the modules import one
another's functions by name), and replaces listed methods on their class.
Each call records a span in memory: name, start, end, the index of the
span that called it, the op it belongs to, and its self time (its duration
minus the time its traced children took).  Leaving restores the originals.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

from modfactor.errors import ToleranceAmbiguity

# (layer module, qualified name) of every traced function, in layer order.
TRACED = [
    ("numkernel", "hs_orthonormalize"),
    ("numkernel", "solve_intertwiners"),
    ("numkernel", "op_norm"),
    ("numkernel", "psd_sqrt_pinv"),
    ("numkernel", "subspace_equal"),
    ("numkernel", "rank_cut"),
    ("cstar", "commutant"),
    ("cstar", "center"),
    ("cstar", "block_decomposition"),
    ("hilbmod", "Homomorphism.apply"),
    ("hilbmod", "Homomorphism.validate"),
    ("hilbmod", "build_module"),
    ("hilbmod", "commutant_lifting"),
    ("hilbmod", "dual_module"),
    ("hilbmod", "is_full"),
    ("tensorcalc", "interior_tensor"),
    ("tensorcalc", "_gram_coordinates"),
    ("tensorcalc", "certify_module_unitary"),
    ("tensorcalc", "unit_identities"),
    ("tensorcalc", "flip_unitary"),
    ("factorizations", "factor_dual"),
    ("factorizations", "factor_unit_vector"),
    ("factorizations", "factor_qons"),
    ("factorizations", "factor_commutant"),
    ("factorizations", "compare"),
    ("factorizations", "validate_theta"),
    ("harness", "generate_random_instance"),
    ("harness", "save_instance"),
    ("harness", "parse_instance"),
    ("harness", "run_verification"),
    ("prodsys", "discrete_product_system"),
    ("prodsys", "verify_associativity"),
]

COMMUTANT_DIMS = (12, 17, 18, 24)


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)


def _hs_orthonormalize_info(args, kwargs, result):
    mats = args[0] if args else kwargs["mats"]
    return {"inputs": len(mats), "kept": result.dim}


def _solve_intertwiners_info(args, kwargs, result):
    lefts = args[0] if args else kwargs["lefts"]
    rights = args[1] if len(args) > 1 else kwargs["rights"]
    k = len(lefts)
    n2 = len(lefts[0]) if k else 0
    n1 = len(rights[0]) if k else 0
    cols = n1 * n2
    rows = max(k * cols, cols)
    # thin complex SVD with U and V of the stacked Kronecker system:
    # 6 m n^2 + 20 n^3 real flops (R-SVD count), times 4 for complex
    flop = 4.0 * (6.0 * rows * cols ** 2 + 20.0 * cols ** 3)
    return {"gflop": flop / 1e9, "mbytes": 16.0 * rows * cols / 1e6}


def _commutant_info(args, kwargs, result):
    return {"n": args[0].ambient_dim}


INFO = {
    "numkernel.hs_orthonormalize": _hs_orthonormalize_info,
    "numkernel.solve_intertwiners": _solve_intertwiners_info,
    "cstar.commutant": _commutant_info,
}


class Tracer:
    """Records spans while entered; ``with tracer:`` patches the wrappers in
    and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[list] = []  # [span index, traced child seconds]
        self._swaps = None

    def _wrap(self, name: str, fn):
        info = INFO.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            spans.append(None)  # reserve the index so children can name it
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                extra = {}
                if error is not None:
                    extra["error"] = type(error).__name__
                elif info is not None:
                    extra = info(args, kwargs, result)
                spans[frame[0]] = Span(name, start, end, duration - frame[1],
                                       parent, self.op, extra)

        return traced

    def _bindings(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding of a
        traced function in the modfactor modules, and for each method."""
        modules = [m for k, m in sys.modules.items()
                   if k == "modfactor" or k.startswith("modfactor.")]
        out = []
        for layer, qualname in TRACED:
            home = sys.modules[f"modfactor.{layer}"]
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                out.append((cls, attr, original, self._wrap(name, original)))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        out.append((mod, attr, original, wrapper))
        return out

    def __enter__(self):
        if self._swaps is None:
            self._swaps = self._bindings()
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
        return False


def layer_metrics(spans: list[Span], ops: int) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced ops: calls and
    self seconds per op for each traced function, plus the extra counters."""
    names = [f"{layer}.{qualname}" for layer, qualname in TRACED]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    kept = inputs = 0
    gflop = mbytes = 0.0
    ambiguous = 0
    commutant_s = dict.fromkeys(COMMUTANT_DIMS, 0.0)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        if s.name == "numkernel.hs_orthonormalize" and "kept" in s.info:
            kept += s.info["kept"]
            inputs += s.info["inputs"]
        elif s.name == "numkernel.solve_intertwiners" and "gflop" in s.info:
            gflop += s.info["gflop"]
            mbytes += s.info["mbytes"]
        elif s.name == "numkernel.rank_cut" and \
                s.info.get("error") == ToleranceAmbiguity.__name__:
            ambiguous += 1
        elif s.name == "cstar.commutant" and s.info.get("n") in commutant_s:
            commutant_s[s.info["n"]] += s.end - s.start
    out = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        out[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
    out["numkernel.hs_orthonormalize.rank_kept_frac"] = (
        kept / inputs if inputs else 0.0, "frac")
    out["numkernel.solve_intertwiners.gflop_computed"] = (gflop / ops, "GFLOP/op")
    out["numkernel.solve_intertwiners.mbytes_computed"] = (mbytes / ops, "MB/op")
    out["numkernel.rank_cut.ambiguous"] = (float(ambiguous), "count")
    for n in COMMUTANT_DIMS:
        out[f"cstar.commutant.n{n}_s"] = (commutant_s[n] / ops, "s/op")
    return out
