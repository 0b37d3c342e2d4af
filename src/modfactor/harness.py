"""Instance I/O, seeded random generation with a built-in oracle, the golden
fixture, and the verification orchestrator.

JSON conventions: a matrix is written as {"shape": [rows, cols],
"complex128_le": base64 of its row-major little-endian complex128 bytes},
and the reader also takes the older row-major nested arrays of [re, im]
pairs.  Reports are serialized canonically (sorted keys, fixed separators)
so identical input and seed give byte-identical output; timings are
collected separately and never enter the canonical form.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import os
import stat
import time
from dataclasses import dataclass, field

import numpy as np

from .cstar import (
    FiniteCStarAlgebra,
    algebra_from_basis,
    build_algebra,
    commutant,
)
from .errors import (
    InfeasibleSpec,
    ModfactorError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .hilbmod import (
    Certificate,
    Correspondence,
    HilbertModule,
    Homomorphism,
    _pairwise_inner,
    build_module,
    dual_qons_family,
    finite_rank_algebra,
    fullification,
    is_full,
    module_from_parts,
    verify_unit_vector,
)
from .numkernel import (
    AGREE_TOL,
    BASIS_TOL,
    CERT_TOL,
    DEFAULT_TOL,
    DRAW_GAP,
    DRAW_TOL,
    OperatorSpace,
    _check_system_bytes,
    _combine,
    _stage1_weights,
    eigh_desc,
    hs_orthonormalize,
    norm_exceeds,
    rank_cut,
    solve_intertwiners,
)
from .factorizations import (
    METHODS,
    FactorizationResult,
    _factorization_bound,
    _theta_in_adjointables,
    _through_dual,
    compare,
    factor_commutant,
    factor_dual,
    factor_qons,
    factor_unit_vector,
    induced_homomorphism,
    validate_theta,
)
from .tensorcalc import (
    TensorProduct,
    adjoint_unitary,
    certify_module_unitary,
    compose_unitaries,
    unit_identities,
)

__all__ = [
    "Instance",
    "GenSpec",
    "VerificationReport",
    "golden_instance",
    "generate_random_instance",
    "parse_instance",
    "instance_to_json",
    "save_instance",
    "factorize",
    "run_verification",
    "oracle_unitary",
]


# ---------------------------------------------------------------------------
# JSON encoding of values


def _encode_matrix(m: np.ndarray):
    m = np.ascontiguousarray(m, dtype="<c16")  # exact: the float bytes themselves
    return {"shape": list(m.shape), "complex128_le": base64.b64encode(m.data).decode()}


def _decode_complex(v, where: str) -> complex:
    try:
        if isinstance(v, (list, tuple)) and len(v) == 2 and \
                not any(isinstance(t, bool) for t in v):
            return complex(*v)
    except (TypeError, OverflowError):
        pass
    raise ParseError(f"{where}: expected a [re, im] pair of numbers, got {v!r}")


def _decode_packed(m: dict, where: str) -> np.ndarray:
    if m.keys() != {"shape", "complex128_le"}:
        raise ParseError(f"{where}: expected the keys complex128_le and shape, got {sorted(m)}")
    shape, data = m["shape"], m["complex128_le"]
    if not isinstance(shape, list) or len(shape) != 2 or \
            not all(type(s) is int and s > 0 for s in shape):
        raise ParseError(f"{where}.shape: expected [rows, cols] of positive integers, got {shape!r}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as e:  # not a string, binascii.Error, or beyond ASCII
        raise ParseError(f"{where}.complex128_le: expected a base64 string ({e})") from None
    if len(raw) != 16 * shape[0] * shape[1]:  # before any array is made
        raise ParseError(f"{where}.complex128_le: {len(raw)} bytes for shape {shape}")
    return np.frombuffer(raw, "<c16").reshape(shape).astype(np.complex128)  # owned, writable


def _decode_matrix(m, where: str, shape: tuple | None = None) -> np.ndarray:
    """A stored matrix, packed (an object) or nested [re, im] pairs (a list)."""
    out = _decode_packed(m, where) if isinstance(m, dict) else _decode_nested(m, where)
    if not np.isfinite(out).all():
        raise ParseError(f"{where}: NaN or Inf entry")
    if shape is not None and out.shape != shape:
        raise ParseError(f"{where}: shape {out.shape} is not {shape}")
    return out


def _decode_nested(m, where: str) -> np.ndarray:
    if not isinstance(m, list) or not m or not all(isinstance(r, list) for r in m):
        raise ParseError(f"{where}: expected a nested array matrix")
    width = len(m[0])
    for i, row in enumerate(m):
        if len(row) != width:
            raise ParseError(f"{where}[{i}]: ragged matrix row")
    entries = list(itertools.chain.from_iterable(m))
    out = None  # one type scan (numpy would coerce a string, None or bool), one conversion
    if set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) <= {2}:
        numbers = list(itertools.chain.from_iterable(entries))  # re, im, re, im, ...
        if set(map(type, numbers)) <= {int, float}:
            with contextlib.suppress(OverflowError):  # an integer beyond the float range
                out = np.array(numbers, dtype=np.float64).view(np.complex128)
    if out is None:  # entry by entry, naming the first that is not a pair of numbers
        out = np.array([_decode_complex(v, f"{where}[{n // width}][{n % width}]")
                        for n, v in enumerate(entries)], dtype=np.complex128)
    return out.reshape(len(m), width)


def _decode_matrices(v, where: str, shape: tuple | None = None) -> list[np.ndarray]:
    """A nonempty list of matrices of one shape: ``shape`` where given, else
    the first matrix's."""
    if not isinstance(v, list) or not v:
        raise ParseError(f"{where}: expected a nonempty list of matrices")
    mats = []
    for i, m in enumerate(v):
        mats.append(_decode_matrix(m, f"{where}[{i}]", shape))
        shape = mats[0].shape
    return mats


def _decode_dim(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ParseError(f"{where}: expected a positive integer, got {v!r}")
    return v


def _encode_algebra(A: FiniteCStarAlgebra):
    return {"ambient_dim": A.ambient_dim,
            "basis": [_encode_matrix(b) for b in A.basis]}


def _decode_algebra(obj, where: str, tol: float, known: list) -> FiniteCStarAlgebra:
    """The algebra stored at ``where``.  ``known`` lists the algebras decoded
    so far: a copy whose decoded basis equals one of theirs byte for byte gets
    that algebra, so a file's copies of B and C are validated and framed once
    (every copy still goes through the type scan)."""
    if not isinstance(obj, dict) or "basis" not in obj or "ambient_dim" not in obj:
        raise ParseError(f"{where}: expected an algebra object")
    n = _decode_dim(obj["ambient_dim"], f"{where}.ambient_dim")
    mats = np.stack(_decode_matrices(obj["basis"], f"{where}.basis", (n, n)))
    for A in known:
        if A.basis.shape == mats.shape and A.basis.tobytes() == mats.tobytes():
            return A
    # keep the stored basis verbatim so index-aligned data (homomorphism
    # images, left actions) survives the round trip
    A = algebra_from_basis(mats, tol)
    known.append(A)
    return A


def _encode_module(E: HilbertModule):
    return {"base": _encode_algebra(E.base), "dim_H": E.dim_H,
            "generators": [_encode_matrix(x) for x in E.basis]}


def _decode_module(obj, where: str, tol: float, known: list) -> HilbertModule:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ParseError(f"{where}: expected a module object")
    base = _decode_algebra(obj.get("base"), f"{where}.base", tol, known)
    gens = _decode_matrices(obj["generators"], f"{where}.generators")
    arr = np.stack(gens)
    flat = arr.reshape(len(gens), -1)
    gram = flat @ flat.conj().T
    if np.abs(gram - np.eye(len(gens))).max() <= BASIS_TOL:
        # a stored orthonormal basis is kept verbatim, so recomputations on
        # a reloaded instance reproduce the original coordinates exactly
        space = OperatorSpace(arr.shape[1], arr.shape[2], arr)
        E = module_from_parts(base, space, tol)
    else:
        E = build_module(base, gens, tol)
    want = obj.get("dim_H")
    if want is not None and _decode_dim(want, f"{where}.dim_H") != E.dim_H:
        raise ValidationError(
            f"{where}: declared dim_H {want} differs from the nondegenerate "
            f"span dimension {E.dim_H}"
        )
    return E


def _encode_hom(h: Homomorphism):
    return {"domain": _encode_algebra(h.domain), "codomain_dim": h.codomain_dim,
            "images": [_encode_matrix(m) for m in h.images]}


def _decode_hom(obj, where: str, tol: float, known: list) -> Homomorphism:
    if not isinstance(obj, dict) or "images" not in obj:
        raise ParseError(f"{where}: expected a homomorphism object")
    dom = _decode_algebra(obj.get("domain"), f"{where}.domain", tol, known)
    d = _decode_dim(obj.get("codomain_dim"), f"{where}.codomain_dim")
    imgs = _decode_matrices(obj["images"], f"{where}.images", (d, d))
    if len(imgs) != dom.dim:
        raise ParseError(f"{where}: {len(imgs)} images for a basis of size {dom.dim}")
    return Homomorphism(dom, d, np.stack(imgs))  # validated with E and F


def _encode_correspondence(X: Correspondence):
    out = _encode_module(X.module)
    out["left"] = _encode_algebra(X.left)
    out["left_action"] = [_encode_matrix(m) for m in X.left_action.images]
    return out


def _decode_correspondence(obj, where: str, tol: float, known: list) -> Correspondence:
    mod = _decode_module(obj, where, tol, known)
    left = _decode_algebra(obj.get("left"), f"{where}.left", tol, known)
    imgs = _decode_matrices(obj.get("left_action"), f"{where}.left_action",
                            (mod.dim_H, mod.dim_H))
    if len(imgs) != left.dim:
        raise ParseError(f"{where}: left action must list one matrix per basis element")
    corr = Correspondence(mod, left, Homomorphism(left, mod.dim_H, np.stack(imgs)))
    corr.validate(tol)
    return corr


# ---------------------------------------------------------------------------
# instances


@dataclass(eq=False)
class Instance:
    """A verification problem: theta from the adjointable operators of E over
    B to those of F over C, with optional seeded oracle data."""

    B: FiniteCStarAlgebra
    C: FiniteCStarAlgebra
    E: HilbertModule
    F: HilbertModule
    theta: Homomorphism
    oracle: Correspondence | None = None
    unit_vector: np.ndarray | None = None
    qons_family: list | None = None
    notes: dict = field(default_factory=dict)
    # ((E, F, theta, oracle, tol), tensor F = E (.) oracle) of a passed oracle check
    oracle_check: tuple | None = field(default=None, repr=False)


def instance_to_json(inst: Instance) -> dict:
    out = {
        "B": _encode_algebra(inst.B),
        "C": _encode_algebra(inst.C),
        "E": _encode_module(inst.E),
        "F": _encode_module(inst.F),
        "theta": _encode_hom(inst.theta),
        "oracle": None if inst.oracle is None else _encode_correspondence(inst.oracle),
        "unit_vector": None if inst.unit_vector is None
        else _encode_matrix(inst.unit_vector),
        "qons_family": None if inst.qons_family is None
        else [_encode_matrix(e) for e in inst.qons_family],
        "notes": inst.notes,
    }
    return out


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``, overwriting a file in place and trimming its tail.

    An O_TRUNC open waits for the writeback of the old contents (about 50 ms
    on ext4 for a 100 KB file that was itself just rewritten).  Neither way
    is atomic or fsynced: a crash or a concurrent reader may see old and new
    bytes mixed.  Trade-off: with no truncate to zero, ext4's flush-on-close
    heuristic (auto_da_alloc) no longer starts writeback at close."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        f.write(text.encode())
        if stat.S_ISREG(os.fstat(fd).st_mode):  # devices such as /dev/null have no tail
            f.truncate()


def save_instance(inst: Instance, path: str) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(instance_to_json(inst), sort_keys=True, separators=(",", ":"))
    _write_file(path, text + "\n")


def parse_instance(path: str, tol: float = DEFAULT_TOL) -> Instance:
    """Load and fully validate an instance file.

    Raises ParseError with a location breadcrumb for malformed data and
    ValidationError naming the first violated invariant.
    """
    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from e
    return instance_from_json(obj, tol)


def instance_from_json(obj, tol: float = DEFAULT_TOL) -> Instance:
    if not isinstance(obj, dict):
        raise ParseError("instance: expected a JSON object")
    known = []  # each distinct stored algebra is decoded once
    B = _decode_algebra(obj.get("B"), "instance.B", tol, known)
    C = _decode_algebra(obj.get("C"), "instance.C", tol, known)
    E = _decode_module(obj.get("E"), "instance.E", tol, known)
    F = _decode_module(obj.get("F"), "instance.F", tol, known)
    # shapes first: a base of another dimension cannot be broadcast
    if E.base.basis.shape != B.basis.shape or not np.allclose(E.base.basis, B.basis):
        E = build_module(B, list(E.basis), tol)
    if F.base.basis.shape != C.basis.shape or not np.allclose(F.base.basis, C.basis):
        F = build_module(C, list(F.basis), tol)
    theta = _decode_hom(obj.get("theta"), "instance.theta", tol, known)
    _theta_in_adjointables(E, F, theta, tol)
    oracle, kept = obj.get("oracle"), None
    if oracle is not None:
        oracle = _decode_correspondence(oracle, "instance.oracle", tol, known)
        try:
            kept = ((E, F, theta, oracle, tol), _check_oracle_consistency(E, F, theta, oracle, tol))
        except ModfactorError:
            theta.validate(tol)  # a map that is no homomorphism is named by its basis pair
            raise
    validate_theta(E, F, theta, tol)  # kept by the oracle check
    shape = (E.dim_H, E.dim_G)
    xi = obj.get("unit_vector")
    if xi is not None:
        xi = _decode_matrix(xi, "instance.unit_vector", shape)
        if not verify_unit_vector(E, xi, tol):
            raise ValidationError("instance.unit_vector: not a unit vector of E")
    family = obj.get("qons_family") or None
    if family is not None:
        family = _decode_matrices(family, "instance.qons_family", shape)
    notes = obj.get("notes") or {}
    if not isinstance(notes, dict):
        raise ParseError("instance.notes: expected an object")
    return Instance(B, C, E, F, theta, oracle, xi, family, dict(notes), kept)


def _check_oracle_consistency(E, F, theta, oracle, tol):
    """F must be the module induced by the oracle and theta the induced map,
    up to one unitary U of the total spaces: U F2 = F and U theta2 U* = theta
    for the rebuilt (F2, theta2), so a file does not depend on the
    coordinates of the build that wrote it.

    U = 1 when the file carries F2's own coordinates (it was written by this
    build).  Else U is the polar part of a seeded generic member of the
    intertwiners T (theta(a) T = T theta2(a), one ``solve_intertwiners``)
    with T F2 inside span F (one null space).  Either is certified by
    ``certify_module_unitary`` at AGREE_TOL.  A theta with no certificate
    on theta2's own domain (E's K(E), which ``_theta_in_adjointables`` makes
    it) then gets the ``factorization`` bound.  Returns the tensor realizing
    F = E (.) oracle in F's coordinates: S -> U S and S+ -> S+ U*.
    """
    F2, theta2, tp = induced_homomorphism(E, oracle, tol)
    not_F = ValidationError("instance F is not the module induced by the recorded oracle")
    not_theta = ValidationError("instance theta is not induced by the recorded oracle")
    if (F2.dim, F2.dim_H, F2.dim_G) != (F.dim, F.dim_H, F.dim_G):
        raise not_F
    basis = theta.domain.basis
    imgs, imgs2 = theta.apply_many(basis, tol), theta2.apply_many(basis, tol)

    def certified(U):
        """U's certificate when U F2 = F and U theta2 U* = theta; else raises."""
        unitary = certify_module_unitary(F2, F, U)
        if unitary.residual > AGREE_TOL:
            raise not_F
        if norm_exceeds(U @ imgs2 - imgs @ U, AGREE_TOL).any():
            raise not_theta
        return unitary

    try:
        link = certified(np.eye(F.dim_H, dtype=np.complex128))
    except ValidationError:
        T = solve_intertwiners(imgs, imgs2, tol).mats
        if not len(T):
            raise not_theta
        # the combinations of T that map F2 into span F: the null space of the
        # residuals of every T_j f (f in F2's basis) off span F.  That system
        # has dim F * dim_H * dim_G >= dim_H^2 >= len(T) rows (F2's total
        # space is spanned by the ranges of its basis), so the thin SVD has
        # all of V
        moved = np.matmul(T[:, None], F2.basis[None])
        off = moved - _combine(F.space.coeffs(moved), F.space.mats)
        _, s, Vh = np.linalg.svd(off.reshape(len(T), -1).T, full_matrices=False)
        rank = rank_cut(s, tol, "oracle module map", floor=1.0)[0]
        if rank == len(T):
            raise not_F
        # polar part of a seeded generic member
        X = _combine(_stage1_weights(len(T) - rank)[0] @ Vh[rank:].conj(), T)
        W, _, Vx = np.linalg.svd(X)
        link = certified(W @ Vx)
    U = link.map
    if theta.certificate is None and theta2.domain is theta.domain:
        theta.certificate = Certificate("factorization", _factorization_bound(
            theta, theta2, U, link.residual_unitary))
    F_corr = validate_theta(E, F, theta, tol)[1]
    return TensorProduct(tp.left, tp.right, F_corr, U @ tp.S, tp.S_pinv @ U.conj().T, tp.gap)


def _oracle_tensor(inst: Instance, tol: float):
    """The tensor realizing F = E (.) oracle: the kept one if the instance's
    E, F, theta and oracle were checked at tol, else a fresh check's."""
    key = (inst.E, inst.F, inst.theta, inst.oracle, tol)  # compared by identity
    if inst.oracle_check is not None and inst.oracle_check[0] == key:
        return inst.oracle_check[1]
    return _check_oracle_consistency(*key)


# ---------------------------------------------------------------------------
# the golden fixture


def golden_instance() -> Instance:
    """The standard example: over the block algebra C (+) M2 inside M3, the
    module spanned by the four off-corner matrix units, with the identity
    homomorphism on its adjointable operators."""
    B = build_algebra([(1, 1), (2, 1)])

    def unit(i, j):
        m = np.zeros((3, 3), dtype=np.complex128)
        m[i - 1, j - 1] = 1.0
        return m

    E = build_module(B, [unit(2, 1), unit(3, 1), unit(1, 2), unit(1, 3)])
    K = finite_rank_algebra(E)
    theta = Homomorphism(K, E.dim_H, K.basis.copy())
    return Instance(B, B, E, E, theta, notes={"name": "golden"})


# ---------------------------------------------------------------------------
# random generation


@dataclass
class GenSpec:
    """Shape of a random instance; all randomness is drawn from the seed."""

    blocks_B: list
    blocks_C: list
    module_multiplicity: int = 2
    corr_multiplicity: int = 1
    with_unit_vector: bool = False
    compress: bool = True

    @staticmethod
    def from_json(obj) -> "GenSpec":
        if not isinstance(obj, dict) or "blocks_B" not in obj or "blocks_C" not in obj:
            raise ParseError("generator spec needs blocks_B and blocks_C")
        unknown = sorted(obj.keys() - GenSpec.__dataclass_fields__.keys())
        if unknown:
            raise ParseError(f"generator spec: unknown key {unknown[0]!r}")
        return GenSpec(
            blocks_B=_decode_blocks(obj["blocks_B"], "blocks_B"),
            blocks_C=_decode_blocks(obj["blocks_C"], "blocks_C"),
            module_multiplicity=_decode_dim(obj.get("module_multiplicity", 2),
                                            "module_multiplicity"),
            corr_multiplicity=_decode_dim(obj.get("corr_multiplicity", 1),
                                          "corr_multiplicity"),
            with_unit_vector=_decode_flag(obj, "with_unit_vector", False),
            compress=_decode_flag(obj, "compress", True),
        )


def _decode_flag(obj: dict, where: str, default: bool) -> bool:
    v = obj.get(where, default)
    if not isinstance(v, bool):
        raise ParseError(f"{where}: expected true or false, got {v!r}")
    return v


def _decode_blocks(v, where: str) -> list:
    if not isinstance(v, list) or not all(isinstance(b, list) and len(b) == 2 for b in v):
        raise ParseError(f"{where}: expected a list of [size, multiplicity] pairs, got {v!r}")
    return [tuple(_decode_dim(t, where) for t in b) for b in v]


def _random_projection_in(span_mats, rng) -> np.ndarray:
    """Spectral projection of a random Hermitian element of a *-closed span,
    cut at the largest spectral gap so the cut is never ambiguous.

    The element is the orthogonal projection onto the span of a seeded
    Gaussian Hermitian matrix, so it depends on the span and not on the
    basis the span is given in.  Falls back to the identity when the
    spectrum is too degenerate to carry a clean cut (e.g. the span is
    scalar), keeping the projection inside the span in every case.
    """
    space = hs_orthonormalize(span_mats)
    n = space.dim_out
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = space.project((z + z.conj().T) / 2.0)
    ident = np.eye(n, dtype=np.complex128)
    ev, V = eigh_desc(h)
    spread = float(ev[0] - ev[-1])
    if spread < DRAW_TOL:
        return ident
    gaps = -np.diff(ev)
    cut = int(np.argmax(gaps)) + 1
    if gaps[cut - 1] < DRAW_GAP * spread:
        return ident
    P = V[:, :cut] @ V[:, :cut].conj().T
    if not space.contains(P, DRAW_TOL):
        return ident
    return P


def _spec_stacks(spec: GenSpec) -> list:
    """(what, bytes) of each complex stack that generation forms at a size
    the spec alone fixes: the bases of B and C, the m^2 k_B candidates for q
    and the pair commutant's candidates.  The last is taken over the spec's
    B; a fullified B is a sum of some of its blocks, so it forms no more."""
    def dims(blocks):  # ambient dimension, algebra's dimension, commutant's dimension
        blocks = [(int(n), int(m)) for n, m in blocks]
        return (sum(n * m for n, m in blocks), sum(n * n for n, _ in blocks),
                sum(m * m for _, m in blocks))
    (G, k_B, k_Bp), (L, k_C, _) = dims(spec.blocks_B), dims(spec.blocks_C)
    m, mc = spec.module_multiplicity, spec.corr_multiplicity
    return [("the basis of B", 16 * k_B * G ** 2), ("the basis of C", 16 * k_C * L ** 2),
            ("the candidate stack for q", 16 * m * m * k_B * (m * G) ** 2),
            ("the pair commutant's candidate stack",
             16 * mc * mc * k_Bp * k_C * (mc * G * L) ** 2)]


def generate_random_instance(spec: GenSpec, seed: int,
                             tol: float = DEFAULT_TOL) -> Instance:
    """Deterministic seeded instance with a built-in oracle.

    E is a compressed free module over B (fullified when the compression
    destroys fullness, which is noted); M is a random correspondence built
    from a pair of commuting representations compressed inside their joint
    commutant; F and theta come from the induced homomorphism and the
    oracle M is recorded.
    """
    for name, blocks in (("blocks_B", spec.blocks_B), ("blocks_C", spec.blocks_C)):
        if not blocks or any(n < 1 or m < 1 for n, m in blocks):
            raise InfeasibleSpec(f"{name} must be nonempty pairs of positive integers")
    if spec.module_multiplicity < 1 or spec.corr_multiplicity < 1:
        raise InfeasibleSpec("multiplicities must be positive")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InfeasibleSpec(f"seed must be a nonnegative integer, got {seed!r}")
    for what, nbytes in _spec_stacks(spec):
        _check_system_bytes(nbytes, what, InfeasibleSpec)
    rng = np.random.default_rng(seed)
    notes = {"seed": seed}

    B = build_algebra(spec.blocks_B)
    C = build_algebra(spec.blocks_C)
    G = B.ambient_dim
    L = C.ambient_dim

    # E = q (free module B^m), q a projection in the matrix algebra over B
    m = spec.module_multiplicity
    mmb = _kron_stack(_units(m), B.basis)
    q = _random_projection_in(mmb, rng) if spec.compress else \
        np.eye(m * G, dtype=np.complex128)
    xi = None
    if spec.with_unit_vector:
        # adjoin an uncompressed free summand; its column is a unit vector
        q = np.block([
            [q, np.zeros((m * G, G), dtype=np.complex128)],
            [np.zeros((G, m * G), dtype=np.complex128), np.eye(G, dtype=np.complex128)],
        ])
        m = m + 1
        xi = np.zeros((m * G, G), dtype=np.complex128)
        xi[(m - 1) * G:, :] = np.eye(G)
    cols = np.eye(m, dtype=np.complex128)[:, :, None]
    E = build_module(B, q @ _kron_stack(cols, B.basis), tol)
    if xi is not None and E.h_embed is not None:
        xi = E.h_embed.conj().T @ xi
    full, _ = is_full(E, tol)
    if not full:
        E, V_support = fullification(E, tol)
        B = E.base
        notes["fullified"] = True
        if xi is not None:
            xi = xi @ V_support
    if xi is not None:
        xi = E.space.project(xi)
        if not verify_unit_vector(E, xi, tol):
            raise ValidationError("generated unit vector failed verification")

    # M: compress the commuting pair b -> 1 (x) b (x) 1, c' -> 1 (x) 1 (x) c'
    mc = spec.corr_multiplicity
    Bp = commutant(B, tol)
    pair_commutant = _kron_stack(_kron_stack(_units(mc), Bp.basis), C.basis)
    qM = _random_projection_in(pair_commutant, rng) if spec.compress else \
        np.eye(mc * B.ambient_dim * L, dtype=np.complex128)
    # e_a (x) e_g (x) c for a < mc, g < dim G, in that order
    cols = np.eye(mc * B.ambient_dim, dtype=np.complex128)[:, :, None]
    Mmod = build_module(C, qM @ _kron_stack(cols, C.basis), tol)
    VM = Mmod.h_embed if Mmod.h_embed is not None else \
        np.eye(mc * B.ambient_dim * L, dtype=np.complex128)
    rho_imgs = VM.conj().T @ _kron_stack(_kron_stack(np.eye(mc)[None], B.basis),
                                         np.eye(L)[None]) @ VM
    M = Correspondence(Mmod, B, Homomorphism(B, Mmod.dim_H, rho_imgs))
    M.validate(tol)

    F, theta, tp_F = induced_homomorphism(E, M, tol)
    return Instance(B, C, E, F, theta, oracle=M, unit_vector=xi, notes=notes,
                    oracle_check=((E, F, theta, M, tol), tp_F))


def _units(n: int) -> np.ndarray:
    """The matrix units e_ab of M_n, a stack (n*n, n, n) in the order a, b."""
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


def _kron_stack(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Every Kronecker product a_i (x) x_j of two stacks (m, p, q) and
    (k, r, s), a stack (m*k, p*r, q*s) in the order i, then j: one broadcast
    product, entry for entry the one ``np.kron`` forms."""
    (m, p, q), (k, r, s) = A.shape, X.shape
    out = A[:, None, :, None, :, None] * X[None, :, None, :, None, :]
    return out.reshape(m * k, p * r, q * s)


# ---------------------------------------------------------------------------
# oracle link


def oracle_unitary(res_dual: FactorizationResult, M: Correspondence, tp_F,
                   tol: float = DEFAULT_TOL):
    """Certified unitary from the dual-method correspondence onto a seeded
    oracle M, via x* (x) coord_F(y (x) h) -> rho_M(<x, y>) h, where the
    tensor product ``tp_F`` realizes F = E (.) M."""
    E: HilbertModule = res_dual.aux["E"]
    T = M.left_action.apply_many(_pairwise_inner(E.basis).reshape(-1, E.dim_G, E.dim_G), tol)
    U = res_dual.aux["tp_corr"].realize(T.reshape(E.dim, E.dim, *T.shape[1:]),
                                        inner=tp_F.S_pinv)
    return certify_module_unitary(res_dual.correspondence, M, U,
                                  {"kind": "oracle link"})


# ---------------------------------------------------------------------------
# verification


def _factoring_module(E: HilbertModule, tol: float):
    """(the module every method factors, whether E is full): E itself when it
    is full, else its fullification."""
    full, _ = is_full(E, tol)
    return (E if full else fullification(E, tol)[0]), full


def factorize(inst: Instance, method: str, tol: float = DEFAULT_TOL,
              E_run: HilbertModule | None = None) -> FactorizationResult:
    """Run one method (a name in ``METHODS``) on the instance exactly as
    ``run_verification`` does: on E's fullification when E is not full.
    ``E_run`` passes that module in when it is already built."""
    if E_run is None:
        E_run, _ = _factoring_module(inst.E, tol)
    F, theta = inst.F, inst.theta
    if method == "dual":
        return factor_dual(E_run, F, theta, tol)
    if method == "unit_vector":
        if inst.unit_vector is None:
            raise PreconditionError("instance carries no unit vector")
        return factor_unit_vector(E_run, F, theta, inst.unit_vector, tol)
    if method == "qons":
        family = inst.qons_family or dual_qons_family(E_run, tol)
        return factor_qons(E_run, F, theta, family, tol)
    if method == "commutant":
        return factor_commutant(E_run, F, theta, tol)[1]
    raise PreconditionError(f"unknown method {method!r}")


@dataclass
class VerifyConfig:
    tol: float = DEFAULT_TOL
    cert_tol: float = CERT_TOL
    emit_unitaries: bool = False


@dataclass(eq=False)
class VerificationReport:
    body: dict
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.body.get("passed"))

    def to_canonical_json(self) -> str:
        """Deterministic byte form; timings are intentionally excluded."""
        return json.dumps(self.body, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        def residual(rep, key, label="residual"):  # or the stage's recorded error
            value = rep.get(key)
            return f"{label} {value:.2e}" if value is not None else f"error: {rep.get('error')}"
        lines = [f"verification: {'PASS' if self.passed else 'FAIL'}"]
        for name, rep in sorted(self.body["methods"].items()):
            status = rep.get("status")
            if status == "ok":
                lines.append(
                    f"  method {name:<12} ok   dim {rep['dims']['correspondence']:>3}  "
                    f"theta residual {rep['theta_residual']:.2e}"
                )
            else:
                lines.append(f"  method {name:<12} {status}: {rep.get('reason', '')}")
        for pair, rep in sorted(self.body["comparisons"].items()):
            lines.append(f"  compare {pair:<18} {residual(rep, 'residual')}"
                         + ("  (composed)" if rep.get("composed") else ""))
        lines.append(f"  unit identities {residual(self.body['unit_identities'], 'max_residual')}")
        if self.body.get("oracle"):
            orc = self.body["oracle"]
            lines.append(f"  oracle links {residual(orc, 'max_residual', 'max residual')}")
        lines.append(f"  tolerances {self.body['tolerances']}")
        return "\n".join(lines) + "\n"


def run_verification(inst: Instance, config: VerifyConfig | None = None) -> VerificationReport:
    """Run every applicable method, all pairwise comparisons, the unit
    identities, and the oracle links when a seeded oracle is present.

    One failing method is reported and does not abort the others.
    """
    config = config or VerifyConfig()
    tol = config.tol
    ct = config.cert_tol
    timings = {}
    body = {
        "tolerances": {"tol": tol, "cert_tol": ct},
        "methods": {},
        "comparisons": {},
        "unit_identities": {},
        "oracle": None,
        "invariants": {},
    }

    t0 = time.perf_counter()
    E_run, full = _factoring_module(inst.E, tol)
    body["fullified"] = not full
    timings["setup"] = time.perf_counter() - t0

    results: dict[str, FactorizationResult] = {}
    for name in METHODS:
        if name == "unit_vector" and inst.unit_vector is None:
            body["methods"][name] = {
                "status": "not_applicable", "reason": "no unit vector supplied"}
            continue
        t = time.perf_counter()
        try:
            res = factorize(inst, name, tol, E_run)
            results[name] = res
            body["methods"][name] = {"status": "ok", **res.to_json(config.emit_unitaries)}
        except ModfactorError as e:
            body["methods"][name] = {"status": "error",
                                     "reason": f"{type(e).__name__}: {e}"}
        timings[name] = time.perf_counter() - t

    # pairwise comparisons; the composed pairs and oracle links reuse each dual -> X unitary
    t0 = time.perf_counter()
    names = [n for n in METHODS if n in results]
    via = results.get("dual")
    units = {}  # "a->b": the certified unitary, or the error its comparison raised
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            try:
                if a == "dual" or via is None:
                    u = compare(results[a], results[b], via=via, tol=tol)
                else:
                    u = _through_dual(_unwrap(units[f"dual->{a}"]), _unwrap(units[f"dual->{b}"]))
                units[f"{a}->{b}"] = u
                body["comparisons"][f"{a}->{b}"] = {
                    "residual": u.residual,
                    "composed": bool(u.meta.get("composed", False)),
                }
            except ModfactorError as e:
                units[f"{a}->{b}"] = e
                body["comparisons"][f"{a}->{b}"] = {
                    "residual": None, "error": f"{type(e).__name__}: {e}"}
    timings["comparisons"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        u1, u2 = unit_identities(E_run, tol)
        body["unit_identities"] = {
            "module_times_dual": max(u1.residual_unitary, u1.residual_intertwine),
            "dual_times_module": max(u2.residual_unitary, u2.residual_intertwine),
            "max_residual": max(u1.residual, u2.residual),
        }
    except ModfactorError as e:
        body["unit_identities"] = {"max_residual": None,
                                   "error": f"{type(e).__name__}: {e}"}
    timings["unit_identities"] = time.perf_counter() - t0

    # oracle links: every successful method's correspondence against M
    if inst.oracle is not None and via is not None and full:
        t0 = time.perf_counter()
        links = {}
        try:
            link_dual = oracle_unitary(via, inst.oracle, _oracle_tensor(inst, tol), tol)
            for name in names:
                u = link_dual if name == "dual" else compose_unitaries(
                    adjoint_unitary(_unwrap(units[f"dual->{name}"])), link_dual)
                links[name] = {"residual_unitary": u.residual_unitary,
                               "residual_intertwine": u.residual_intertwine}
            flat = [v for d in links.values() for v in d.values()]
            body["oracle"] = {"links": links, "max_residual": max(flat)}
        except ModfactorError as e:
            body["oracle"] = {"links": links,
                              "error": f"{type(e).__name__}: {e}", "max_residual": None}
        timings["oracle"] = time.perf_counter() - t0

    # cross-method dimension agreement
    dims = {n: results[n].correspondence.module.dim for n in names}
    body["invariants"]["correspondence_dims"] = dims
    body["invariants"]["dims_agree"] = len(set(dims.values())) <= 1

    body["passed"] = _decide_pass(body, ct)
    return VerificationReport(body, timings)


def _unwrap(kept):
    """A kept comparison unitary, or its comparison's error raised again."""
    if isinstance(kept, ModfactorError):
        raise kept
    return kept


def _decide_pass(body: dict, cert_tol: float) -> bool:
    ok = True
    for name, rep in body["methods"].items():
        if rep["status"] == "error":
            ok = False
        elif rep["status"] == "ok":
            if max(rep["residual_unitary"], rep["residual_intertwine"],
                   rep["theta_residual"],
                   rep.get("chain", {}).get("flip_residual", 0.0)) > cert_tol:
                ok = False
    for rep in body["comparisons"].values():
        if rep.get("residual") is None or rep["residual"] > cert_tol:
            ok = False
    ui = body["unit_identities"]
    if ui.get("max_residual") is None or ui["max_residual"] > cert_tol:
        ok = False
    if body.get("oracle") is not None:
        if body["oracle"].get("max_residual") is None or \
                body["oracle"]["max_residual"] > cert_tol:
            ok = False
    if not body["invariants"].get("dims_agree", True):
        ok = False
    return ok
