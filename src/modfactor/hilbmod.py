"""Hilbert modules over finite-dimensional C*-algebras, realized as operator
spaces E inside B(G, H) with inner product <x, y> = x* y.

Houses modules, correspondences (modules with a commuting left action),
homomorphisms given on an algebra basis, quasi-orthonormal systems, the
commutant lifting, and the module <-> representation dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cstar import (
    FiniteCStarAlgebra,
    _certify_closure,
    _from_space,
    _held_closure_bound,
    commutant,
    product_residuals,
)
from .errors import (
    DimensionMismatch,
    NotInModule,
    PreconditionError,
    StallError,
    ValidationError,
)
from .numkernel import (
    AGREE_TOL,
    DEFAULT_TOL,
    DEFECT_FACTOR,
    HELD_CLOSURE_FACTOR,
    QONS_TOL,
    UNIT_FACTOR,
    OperatorSpace,
    _fro_norms,
    as_matrix,
    as_stack,
    column_support,
    hs_orthonormalize,
    norm_exceeds,
    op_norm,
    psd_sqrt_pinv,
    rank_cut,
    require_finite,
    row_blocks,
    subspace_equal,
    wedderburn_frame,
)

__all__ = [
    "Certificate",
    "HilbertModule",
    "Correspondence",
    "Homomorphism",
    "QuasiONS",
    "build_module",
    "module_from_parts",
    "inner_product",
    "finite_rank_algebra",
    "finite_rank_products",
    "adjointable_residual",
    "adjointable_algebra",
    "dual_module",
    "is_full",
    "fullification",
    "verify_unit_vector",
    "quasi_orthonormal_system",
    "check_qons_family",
    "dual_qons_family",
    "commutant_lifting",
    "module_from_representation",
    "commutant_bimodule",
    "module_over_itself",
    "algebra_bimodule",
    "as_bimodule",
    "identity_homomorphism",
    "intertwiner_space",
]


@dataclass(frozen=True)
class Certificate:
    """How ``Homomorphism.validate`` certified a map's products (``identity``,
    ``amplified action``, ``factorization`` or ``kernel``): ``value`` bounds
    every residual (HS; the largest, for ``kernel``), accepted at ``tol``, None
    on a construction's bound (inf on an identity's, read off its domain)."""

    kind: str
    value: float
    tol: float | None = None


@dataclass(eq=False)
class Homomorphism:
    """A linear map given on the orthonormal basis of its domain algebra.

    Validated as a unital *-homomorphism into B(C^codomain_dim).
    """

    domain: FiniteCStarAlgebra
    codomain_dim: int
    images: np.ndarray  # (domain.dim, d, d)
    certificate: Certificate | None = None  # validate's last verdict, or a construction's bound

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.complex128)
        if self.images.shape != (self.domain.dim, self.codomain_dim, self.codomain_dim):
            raise DimensionMismatch(
                f"images shape {self.images.shape} does not match "
                f"({self.domain.dim}, {self.codomain_dim}, {self.codomain_dim})"
            )
        self.images.setflags(write=False)
        # what is read off the map once: its frame and amplifiers per tol,
        # "adjointables", the (E, F, tol) of its last membership check, and
        # "theta", the (E, F, tol, E_corr) of the last passed validate_theta
        self._cache: dict = {}

    def coefficients(self, mats, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Coefficients (m, k) of a batch (m, n, n) of domain elements against
        the domain's basis, from its ``decompose``.  ValidationError if an
        element lies farther than tol * max(1, ||m||) from the domain span.
        """
        dom = self.domain
        arr = np.asarray(mats, dtype=np.complex128)
        if arr.ndim != 3:
            raise DimensionMismatch(f"expected a batch of matrices, got shape {arr.shape}")
        require_finite(arr)
        c, resid = dom.space.decompose(arr)
        flat = arr.reshape(len(arr), dom.ambient_dim ** 2)
        excess = resid - tol * np.maximum(1.0, np.linalg.norm(flat, axis=1))
        if excess.size and excess.max() > 0.0:
            raise ValidationError(
                f"element leaves the algebra span (residual {resid[np.argmax(excess)]:.3e})")
        return c

    def apply_many(self, mats, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Images (m, d, d) of a batch: their ``coefficients`` times the images."""
        d = self.codomain_dim
        return (self.coefficients(mats, tol) @ self.images.reshape(self.domain.dim, d * d)
                ).reshape(-1, d, d)

    def apply(self, a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        return self.apply_many(np.asarray(a)[None], tol)[0]

    def image_space(self, tol: float = DEFAULT_TOL) -> OperatorSpace:
        return hs_orthonormalize(self.images, tol)

    def is_faithful(self, tol: float = DEFAULT_TOL) -> bool:
        v = self.images.reshape(self.domain.dim, -1)
        s = np.linalg.svd(v, compute_uv=False)
        return rank_cut(s, tol, "homomorphism faithfulness")[0] == self.domain.dim

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Unitality, *-preservation and multiplicativity on the basis, in HS
        norms, once per tolerance, the verdict kept as ``certificate``.  Each
        product residual must stay under DEFECT_FACTOR * tol * max(1, ||want||),
        want = sum_l c_ijl theta(b_l).  A construction's bound on them all (the
        domain's closure bound, for ``identity``) is accepted when at most
        DEFECT_FACTOR * tol.  Otherwise ``cstar.product_residuals`` measures
        them (``kernel``), with the domain's closure unless held, and names
        the first row i whose worst pair j breaks the rule."""
        cert = self.certificate
        if cert is not None and cert.tol is not None and cert.tol <= tol:
            return
        dom, bound = self.domain, DEFECT_FACTOR * tol
        k, d = dom.dim, self.codomain_dim
        unit_img = self.apply(dom.unit, tol)
        if norm_exceeds(unit_img - np.eye(d), bound):
            raise ValidationError("homomorphism is not unital")
        cadj, imflat = dom.adjoint_coefficients(), self.images.reshape(k, -1)
        star_res = np.empty(k)
        for s in row_blocks(k, 16 * d * d):
            # theta(b_i*), conjugated and transposed in place, minus theta(b_i)
            diff = (cadj[s] @ imflat).reshape(-1, d, d)
            np.conjugate(diff, out=diff)
            adj = diff.transpose(0, 2, 1)
            adj -= self.images[s]
            star_res[s] = _fro_norms(diff)
        if star_res.max() > bound * np.sqrt(d):
            i = int(np.argmax(star_res))
            raise ValidationError(f"homomorphism not *-preserving at basis element {i}")
        if cert is not None and cert.kind == "identity":
            r = _held_closure_bound(dom, tol)
            cert = Certificate("identity", dom.closure_residuals(tol).max() if r is None else r)
        if cert is None or cert.kind == "kernel" or cert.value > bound:  # kernel: from a looser tol
            if _held_closure_bound(dom, tol) is not None:
                res, = product_residuals(dom, self.images)
            else:
                closure, res = product_residuals(dom, dom.basis, self.images)
                _certify_closure(dom, tol, HELD_CLOSURE_FACTOR * tol, closure)
            for i in np.flatnonzero(res.max(axis=1) > bound):
                j = int(np.argmax(res[i]))
                want = np.tensordot(dom.space.coeffs(dom.basis[i] @ dom.basis[j]), self.images, 1)
                if res[i, j] > bound * max(1.0, float(np.linalg.norm(want))):
                    raise ValidationError(
                        f"homomorphism not multiplicative on basis pair ({i}, {j})")
            cert = Certificate("kernel", float(res.max()))
        self.certificate = replace(cert, tol=tol)
        if cert.kind == "identity":  # handed to every later identity action of dom
            dom._cache["identity"] = self.certificate

    def compose(self, inner: "Homomorphism", tol: float = DEFAULT_TOL) -> "Homomorphism":
        """self after inner."""
        return Homomorphism(inner.domain, self.codomain_dim,
                            self.apply_many(inner.images, tol))


def identity_homomorphism(A: FiniteCStarAlgebra) -> Homomorphism:
    """A acting on its ambient space.  Its product residuals are A's closure
    residuals ||b_i b_j - sum_l c_ijl b_l||, so ``validate`` reads a bound on
    them instead of forming the k^2 products again (``cstar._held_closure_bound``,
    else the largest of A's closure residuals, computed once).  It is handed
    the last verdict of an identity action of A, kept on A as a Certificate
    (which refers to nothing), so A is validated once per tol and no cycle
    runs through A."""
    cert = A._cache.get("identity", Certificate("identity", np.inf))
    return Homomorphism(A, A.ambient_dim, A.basis.copy(), cert)


def _representation_frame(rho: Homomorphism, tol: float):
    """The certified Wedderburn frame of rho's pairs (rho(b_l), b_l), cached on rho."""
    key = ("frame", tol)
    if key not in rho._cache:
        rho._cache[key] = wedderburn_frame(rho.images, rho.domain.space, tol)
    return rho._cache[key]


def intertwiner_space(rho: Homomorphism, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """HS-orthonormal basis of {X : rho(a) X = X a for a in rho's domain}, off
    rho's frame: the one intertwiner solve of every representation (the
    identity representation's is ``cstar.commutant``)."""
    return _representation_frame(rho, tol).intertwiners()


@dataclass(eq=False)
class HilbertModule:
    """Operator space E in B(G, H), right module over ``base`` acting on G.

    ``h_embed`` is the isometry from the (possibly trimmed) H back into the
    H the module was built in; None when no trim happened.
    """

    base: FiniteCStarAlgebra
    space: OperatorSpace  # (k, dim_H, dim_G)
    trimmed_from: int | None = None
    h_embed: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim_G(self) -> int:
        return self.space.dim_in

    @property
    def dim_H(self) -> int:
        return self.space.dim_out

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> np.ndarray:
        return self.space.mats

    def stacked(self) -> np.ndarray:
        """Horizontal stack [x_1 | ... | x_k], shape (dim_H, k * dim_G)."""
        return np.hstack(list(self.basis))

    def coeffs(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Coefficients (..., dim) of an element or a batch (..., dim_H, dim_G).
        NotInModule if one lies farther than tol * max(1, ||x||) from the span."""
        c, resid = self.space.decompose(x)
        excess = resid - tol * np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1)))
        if excess.size and excess.max() > 0.0:
            raise NotInModule("element leaves the module span "
                              f"(residual {resid.flat[np.argmax(excess)]:.3e})")
        return c


@dataclass(eq=False)
class Correspondence:
    """A Hilbert module with a unital *-representation of a left algebra.

    The left action acts on the codomain space of the module elements, so
    (a x) c = a (x c) holds exactly by associativity of composition.
    """

    module: HilbertModule
    left: FiniteCStarAlgebra
    left_action: Homomorphism
    meta: dict = field(default_factory=dict)

    @property
    def base(self) -> FiniteCStarAlgebra:
        return self.module.base

    def act(self, a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        return self.left_action.apply(a, tol)

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """The left action, a *-homomorphism, keeps the span (``_invariance``)."""
        if self.left_action.codomain_dim != self.module.dim_H:
            raise DimensionMismatch("left action must act on the module's codomain space")
        if self.left_action.domain is not self.left and \
                not subspace_equal(self.left_action.domain.space, self.left.space, AGREE_TOL)[0]:
            raise ValidationError("left_action domain differs from the left algebra")
        self.left_action.validate(tol)
        res = _invariance(self.module.space, self.left_action.images, self.module.basis)
        _first_failure(res, DEFECT_FACTOR * tol,
                       "left action of basis element {} leaves the module span")


@dataclass(eq=False)
class QuasiONS:
    """Pairs (e, p) with <e_a, e_b> = delta p_a, p_a projections in the base,
    and sum e e* = identity on H."""

    members: list  # of (e, p) ndarray pairs
    residual: float = 0.0

    def __len__(self):
        return len(self.members)


# ---------------------------------------------------------------------------
# construction and validation


def module_from_parts(base: FiniteCStarAlgebra, space: OperatorSpace,
                      tol: float = DEFAULT_TOL) -> HilbertModule:
    """Wrap an orthonormal operator space from data as a module, validating
    invariants and trimming H to the nondegenerate part (trim is reported)."""
    mod = _trimmed_module(base, space, tol)
    _validate_module(mod, tol)
    return mod


def _trimmed_module(base: FiniteCStarAlgebra, space: OperatorSpace,
                    tol: float) -> HilbertModule:
    """The nondegeneracy trim of ``module_from_parts`` without its invariant
    checks, for spans that are modules by the identity each caller names."""
    if space.dim_in != base.ambient_dim:
        raise DimensionMismatch("module domain must be the base algebra's ambient space")
    if space.dim == 0:
        raise ValidationError("module is zero")
    trimmed_from = None
    h_embed = None
    r, V = column_support(space.mats, tol, "module nondegeneracy trim")
    if r != space.dim_out:
        trimmed_from = space.dim_out
        h_embed = V
        mats = np.einsum("ij,kjl->kil", V.conj().T, space.mats)
        space = OperatorSpace(r, space.dim_in, mats, space.gap)
    return HilbertModule(base, space, trimmed_from, h_embed)


def _validate_module(E: HilbertModule, tol: float) -> None:
    """x b and x* y stay in their spans (``_invariance``); the first x
    failing is named."""
    X, bound = E.basis, DEFECT_FACTOR * tol
    _first_failure(_invariance(E.space, X, E.base.basis), bound,
                   "right action moves basis element {} out of the span")
    _first_failure(_invariance(E.base.space, _adjoints(X), X), bound,
                   "an inner product against basis element {} leaves the base algebra")


def _invariance(span: OperatorSpace, T: np.ndarray, R: np.ndarray,
                adjoints: bool = False) -> np.ndarray:
    """Per T_i of a stack (m, p, q), the largest ``span_residual`` of the T_i
    r_j over a family r (k, q, c); with ``adjoints``, rows (2, m) for T_i r_j
    and T_i* r_j.  In row blocks over i, one GEMM each with [r_1 | ... | r_k]."""
    (m, p, q), (k, _, c), sides = T.shape, R.shape, 1 + adjoints
    stacked = R.transpose(1, 0, 2).reshape(q, k * c)
    out = np.empty((sides, m))
    for s in row_blocks(m, 16 * sides * p * k * c):
        ops = np.concatenate([T[s], _adjoints(T[s])]) if adjoints else T[s]
        prods = (ops.reshape(-1, q) @ stacked).reshape(sides, -1, p, k, c)
        out[:, s] = span.span_residual(
            np.ascontiguousarray(prods.transpose(0, 1, 3, 2, 4))).max(axis=2)
    return out if adjoints else out[0]


def _first_failure(res: np.ndarray, bound, message: str) -> None:
    """Raise ValidationError(message.format(i, res[i])) for the first i with
    res[i] > bound: a check names its first failing element."""
    bad = np.flatnonzero(res > bound)
    if bad.size:
        raise ValidationError(message.format(bad[0], res[bad[0]]))


def _adjoints(mats: np.ndarray) -> np.ndarray:
    return mats.conj().transpose(0, 2, 1)


def _pairwise_inner(mats: np.ndarray) -> np.ndarray:
    """The products m_i* m_j of a stack, shape (k, k, c, c)."""
    return np.matmul(_adjoints(mats)[:, None], mats[None])


def build_module(base: FiniteCStarAlgebra, generators, tol: float = DEFAULT_TOL) -> HilbertModule:
    """Close generators under the right action, orthonormalize, validate, and
    trim H to the span of the columns (reported via ``trimmed_from``)."""
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise ValidationError("need at least one generator")
    dim_G = base.ambient_dim
    for g in gens:
        if g.shape[1] != dim_G:
            raise DimensionMismatch("generator domain must match the base ambient space")
    cands = []
    for g in gens:
        cands.append(g)
        for b in base.basis:
            cands.append(g @ b)
    space = hs_orthonormalize(cands, tol)
    return module_from_parts(base, space, tol)


def inner_product(E: HilbertModule, x, y, tol: float = DEFAULT_TOL) -> np.ndarray:
    """<x, y> = x* y, checked to lie in the base algebra."""
    x = as_matrix(x)
    y = as_matrix(y)
    E.coeffs(x, tol)
    E.coeffs(y, tol)
    p = x.conj().T @ y
    if not E.base.space.contains(p, DEFECT_FACTOR * tol):
        raise ValidationError("inner product leaves the base algebra")
    return p


def finite_rank_products(E: HilbertModule) -> np.ndarray:
    """The rank-one operators x y* on H over pairs of basis elements, shape
    (k, k, dim_H, dim_H); they span the finite-rank algebra."""
    return _pairwise_inner(_adjoints(E.basis))


def finite_rank_algebra(E: HilbertModule, tol: float = DEFAULT_TOL) -> FiniteCStarAlgebra:
    """Span of the rank-one operators x y* on H; unital on H at finite
    dimension for nondegenerate modules.  The span is *-closed by
    construction, so only identity membership is checked numerically.
    ``validate_theta`` keeps theta's domain here when it spans the x y*."""
    key = ("finite_rank", tol)
    if key not in E._cache:
        prods = finite_rank_products(E).reshape(-1, E.dim_H, E.dim_H)
        E._cache[key] = _from_space(hs_orthonormalize(prods, tol), tol)
    return E._cache[key]


def adjointable_residual(E: HilbertModule, mats, tol: float = DEFAULT_TOL,
                         what: str = "module") -> np.ndarray:
    """For each operator T of a batch (m, dim_H, dim_H), the largest relative
    residual ||y - P y|| / max(1, ||y||) from E's span of y = T x and T* x
    over E's basis x (``_adjointable_parts``).

    For a nondegenerate E, K(E) = B^a(E) holds exactly those T with T E and
    T* E inside E.  ValidationError if E's columns do not span H, where a
    projection onto the complement of their span would pass."""
    return _adjointable_parts(E, mats, tol, what).max(axis=0)


def _adjointable_parts(E: HilbertModule, mats, tol: float, what: str) -> np.ndarray:
    """The residuals (2, m) of T x and of T* x, one ``_invariance`` pass."""
    T = as_stack(mats)
    d = E.dim_H
    if T.shape[1:] != (d, d):
        raise DimensionMismatch(f"expected operators on C^{d}, got shape {T.shape}")
    rank = column_support(E.basis, tol, f"{what} nondegeneracy")[0]
    if rank != d:
        raise ValidationError(
            f"{what} is degenerate: its columns span {rank} of {d} dimensions")
    return _invariance(E.space, T, E.basis, adjoints=True)


def commutant_lifting(E: HilbertModule, tol: float = DEFAULT_TOL) -> Homomorphism:
    """The representation of the base's commutant on H determined by
    rho'(b') x = x b' for every x in E; faithful iff E is full."""
    key = ("commutant_lifting", tol)
    if key in E._cache:
        return E._cache[key]
    Bp = commutant(E.base, tol)
    X = E.stacked()
    # Y[b'] = [x_1 b' | ... | x_k b'], so that rho'(b') X = Y[b']
    Y = np.matmul(E.basis[None], Bp.basis[:, None]).transpose(0, 2, 1, 3).reshape(
        Bp.dim, E.dim_H, X.shape[1])
    R = Y @ np.linalg.pinv(X)
    resid = op_norm(R @ X - Y)
    bad = np.flatnonzero(resid > DEFECT_FACTOR * tol * np.maximum(1.0, op_norm(Y)))
    if bad.size:
        raise ValidationError(
            f"commutant lifting relation failed (residual {resid[bad[0]]:.3e})")
    hom = Homomorphism(Bp, E.dim_H, R)
    hom.validate(tol)
    E._cache[key] = hom
    return hom


def adjointable_algebra(E: HilbertModule, tol: float = DEFAULT_TOL) -> FiniteCStarAlgebra:
    """Adjointable operators, computed as the commutant of the lifted
    commutant (not as K(E)); asserted to contain every x y*."""
    key = ("adjointable", tol)
    if key in E._cache:
        return E._cache[key]
    rho_p = commutant_lifting(E, tol)
    Ba = commutant(_from_space(rho_p.image_space(tol), tol), tol)
    if Ba.space.span_residual(finite_rank_products(E)).max() > AGREE_TOL:
        raise ValidationError("adjointable algebra does not contain the finite-rank algebra")
    E._cache[key] = Ba
    return Ba


def dual_module(E: HilbertModule, tol: float = DEFAULT_TOL) -> Correspondence:
    """The dual module of adjoints, a correspondence from the base algebra to
    the finite-rank algebra; all operations are plain composition."""
    key = ("dual", tol)
    if key in E._cache:
        return E._cache[key]
    K = finite_rank_algebra(E, tol)
    adj = np.ascontiguousarray(_adjoints(E.basis))
    # a module by x* (y z*) = (z <y, x>)* and <x*, y*> = x y*, with b x* = (x b*)*
    mod = _trimmed_module(K, OperatorSpace(E.dim_G, E.dim_H, adj), tol)
    V = mod.h_embed
    action = identity_homomorphism(E.base) if V is None else \
        Homomorphism(E.base, mod.dim_H, V.conj().T @ E.base.basis @ V)
    action.validate(tol)
    corr = E._cache[key] = Correspondence(mod, E.base, action)
    return corr


def _ideal_data(E: HilbertModule, tol: float):
    """(uncompressed ideal span, support isometry or None, the ideal as an
    algebra on its support space)."""
    key = ("ideal", tol)
    if key in E._cache:
        return E._cache[key]
    # the inner products already span a two-sided *-ideal:
    # <x, y> b = <x, y b>, b <x, y> = <x b*, y> and <x, y>* = <y, x>
    span = hs_orthonormalize(_pairwise_inner(E.basis).reshape(-1, E.dim_G, E.dim_G), tol)
    r, V = column_support(span.mats, tol, "ideal support")
    if r == E.dim_G:
        V = None
        ideal = _from_space(span, tol)
    else:
        mats = np.einsum("ij,kjl,lm->kim", V.conj().T, span.mats, V)
        ideal = _from_space(hs_orthonormalize(mats, tol), tol)
    E._cache[key] = (span, V, ideal)
    return span, V, ideal


def is_full(E: HilbertModule, tol: float = DEFAULT_TOL):
    """(full?, ideal): the ideal generated by the inner products, returned as
    an algebra on its support space."""
    span, _, ideal = _ideal_data(E, tol)
    eq, _ = subspace_equal(span, E.base.space, AGREE_TOL)
    return eq, ideal


def fullification(E: HilbertModule, tol: float = DEFAULT_TOL):
    """(module over the inner-product ideal, support isometry).

    The base is compressed to the support of the ideal; module elements are
    restricted accordingly.  Identity isometry when E is already full.
    """
    _, V, base = _ideal_data(E, tol)
    if V is None:
        mats = E.basis.copy()
    else:
        mats = np.einsum("kij,jl->kil", E.basis, V)
    space = OperatorSpace(E.dim_H, base.ambient_dim, np.ascontiguousarray(mats))
    # a module by x V V* = x (x* x in the ideal) and (x V)* (y V) = V* <x, y> V
    mod = _trimmed_module(base, space, tol)
    return mod, (np.eye(E.dim_G, dtype=np.complex128) if V is None else V)


def verify_unit_vector(E: HilbertModule, xi, tol: float = DEFAULT_TOL) -> bool:
    """Whether <xi, xi> is the unit of the base algebra."""
    xi = as_matrix(xi)
    E.coeffs(xi, tol)  # NotInModule if outside the span
    return op_norm(xi.conj().T @ xi - E.base.unit) <= UNIT_FACTOR * tol


def quasi_orthonormal_system(E: HilbertModule, tol: float = DEFAULT_TOL) -> QuasiONS:
    """Greedy complete quasi-orthonormal system.

    Repeat: with q the projection complementary to sum e e*, pick the first
    basis element x whose ||q L_x|| is within a relative tol of the largest,
    set m = (q x)*(q x), e = q x pinv_sqrt(m), p = support(m).  Each step
    removes rank(m) >= 1 from q, so at most dim_H steps occur.
    """
    q = np.eye(E.dim_H, dtype=np.complex128)
    members = []
    for _ in range(E.dim_H + 1):
        if op_norm(q) <= UNIT_FACTOR * tol:
            break
        qX = q @ E.basis
        norms = op_norm(qX)
        best = int(np.flatnonzero(norms >= (1.0 - tol) * norms.max())[0])
        if norms[best] <= UNIT_FACTOR * tol:
            raise StallError("no generator reduces the residual projection")
        qx = qX[best]
        m = qx.conj().T @ qx
        _, pinv_sq, support = psd_sqrt_pinv(m, tol)
        e = qx @ pinv_sq
        members.append((e, support))
        q = q - e @ e.conj().T
    else:
        raise StallError("quasi-orthonormalization exceeded dim_H steps")
    es = np.stack([e for e, _ in members])
    ps = np.stack([p for _, p in members])
    if (E.space.span_residual(es) > AGREE_TOL).any():
        raise ValidationError("quasi-orthonormal element left the module span")
    if (E.base.space.span_residual(ps) > AGREE_TOL).any():
        raise ValidationError("quasi-orthonormal projection left the base algebra")
    residual = _qons_residual(E, es, ps)
    if residual > QONS_TOL:
        raise ValidationError(f"quasi-orthonormal invariants failed ({residual:.3e})")
    return QuasiONS(members, residual)


def _pairwise_residual(prods: np.ndarray) -> tuple[np.ndarray, float]:
    """(diagonal, largest off-diagonal operator norm) of a pairwise product
    stack (m, m, r, c)."""
    m = len(prods)
    diag = prods[np.arange(m), np.arange(m)]
    return diag, float(op_norm(prods[~np.eye(m, dtype=bool)]).max(initial=0.0))


def _projection_residual(p: np.ndarray) -> float:
    """max over a stack of ||p p - p|| and ||p - p*||."""
    return float(max(op_norm(p @ p - p).max(), op_norm(p - _adjoints(p)).max()))


def _qons_residual(E: HilbertModule, es: np.ndarray, ps: np.ndarray) -> float:
    """<e_a, e_b> = delta p_a with p_a projections, and sum e e* = 1."""
    gram, cross = _pairwise_residual(_pairwise_inner(es))
    total = (es @ _adjoints(es)).sum(axis=0)
    return max(_projection_residual(ps), float(op_norm(gram - ps).max()), cross,
               op_norm(total - np.eye(E.dim_H)))


def check_qons_family(E: HilbertModule, family, tol: float = DEFAULT_TOL) -> float:
    """Residual of the family conditions: e_a e_b* = delta * projection and
    sum <e_b, e_b> = unit."""
    f = np.asarray(family)
    diag, cross = _pairwise_residual(_pairwise_inner(_adjoints(f)))
    total = (_adjoints(f) @ f).sum(axis=0)
    return max(cross, _projection_residual(diag), op_norm(total - E.base.unit))


def dual_qons_family(E: HilbertModule, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Family (e_b) in E whose adjoints, paired with e_b e_b*, form a
    complete quasi-orthonormal system for the dual module.

    Postconditions checked: e_a e_b* = delta * projection on H and
    sum <e_b, e_b> = unit of the base.  Requires E full.
    """
    full, _ = is_full(E, tol)
    if not full:
        raise PreconditionError("dual_qons_family requires a full module")
    dual = dual_module(E, tol)
    qons = quasi_orthonormal_system(dual.module, tol)
    family = [u.conj().T for (u, _) in qons.members]
    res = check_qons_family(E, family, tol)
    if res > QONS_TOL:
        raise ValidationError(f"dual family postconditions failed ({res:.3e})")
    return family


def module_from_representation(B: FiniteCStarAlgebra, rho_p: Homomorphism,
                               tol: float = DEFAULT_TOL) -> HilbertModule:
    """The module {X in B(G, H) : rho'(b') X = X b'} over B, for a unital
    representation rho' of the commutant of B.  Degenerate representations
    are trimmed and reported via ``trimmed_from``."""
    Bp = commutant(B, tol)
    if rho_p.domain.ambient_dim != B.ambient_dim or \
            not subspace_equal(rho_p.domain.space, Bp.space, AGREE_TOL)[0]:
        raise PreconditionError("rho' must be defined on the commutant of B")
    return module_from_parts(B, intertwiner_space(rho_p, tol), tol)


def commutant_bimodule(X: Correspondence, tol: float = DEFAULT_TOL) -> Correspondence:
    """The commutant of an A-B correspondence: the intertwiner space
    {Y in B(K, H) : rho(a) Y = Y a}, a B'-A' correspondence on the same H.

    Right action of A' is composition; the left action of B' is the
    commutant lifting of the right structure of X.
    """
    A, rho = X.left, X.left_action
    if op_norm(rho.apply(A.unit) - np.eye(X.module.dim_H)) > AGREE_TOL:
        raise PreconditionError("left action must be unital")
    mod = module_from_parts(commutant(A, tol), intertwiner_space(rho, tol), tol)
    rho_p = commutant_lifting(X.module, tol)
    V = mod.h_embed
    if V is not None:
        rho_p = Homomorphism(rho_p.domain, mod.dim_H, V.conj().T @ rho_p.images @ V)
    corr = Correspondence(mod, rho_p.domain, rho_p)
    corr.validate(tol)
    return corr


# ---------------------------------------------------------------------------
# convenience constructors


def module_over_itself(B: FiniteCStarAlgebra, tol: float = DEFAULT_TOL) -> HilbertModule:
    """B on its own basis: its certified closure covers the right action
    and, B being *-closed, the inner products b* c."""
    if _held_closure_bound(B, tol) is None:
        B.closure_residuals(tol)
    return HilbertModule(B, B.space)


def algebra_bimodule(B: FiniteCStarAlgebra, tol: float = DEFAULT_TOL) -> Correspondence:
    """B as a B-B correspondence with both actions by multiplication."""
    mod = module_over_itself(B, tol)
    return Correspondence(mod, B, identity_homomorphism(B))


def as_bimodule(E: HilbertModule, left: FiniteCStarAlgebra | None = None,
                tol: float = DEFAULT_TOL) -> Correspondence:
    """E as a correspondence with a concrete algebra on H acting by
    multiplication from the left; defaults to E's ``finite_rank_algebra``,
    which is not measured: K(E) keeps E by x y* z = x <y, z>, and theta's
    domain is installed there once ``_theta_in_adjointables`` measured it."""
    if left is None:
        left = finite_rank_algebra(E, tol)
    corr = Correspondence(E, left, identity_homomorphism(left))
    if left is not E._cache.get(("finite_rank", tol)):
        corr.validate(tol)
    return corr
