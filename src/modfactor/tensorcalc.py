"""Interior tensor products of correspondences and canonical identifications.

A tensor product is built as a Gram quotient: the algebraic tensor of the
left factor's basis with the standard basis of the right factor's total
space carries the semi-inner product

    <x (x) k, x' (x) k'> = <k, rho(<x, x'>) k'>,

whose Gram matrix is factored by a pivoted Cholesky and the factor's thin
SVD; the support defines coordinates S: elementary vectors -> C^r with S+
a right inverse.  The resulting module is re-concretized on the right
factor's base space, so iterated constructions stay inside one uniform
data model.

"Canonical identification" is operationalized as: construct the specific
map given by its defining formula on elementary tensors and certify
unitarity plus intertwining; the library never searches for an arbitrary
isomorphism.  ``TensorProduct.realize`` turns such a formula into a matrix
with no least-squares fit and no Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, PreconditionError, ValidationError
from .hilbmod import (
    Certificate,
    Correspondence,
    HilbertModule,
    Homomorphism,
    _adjoints,
    _ideal_data,
    _pairwise_inner,
    _trimmed_module,
    algebra_bimodule,
    as_bimodule,
    dual_module,
    finite_rank_algebra,
    module_from_parts,
)
from .numkernel import (
    AGREE_TOL,
    DEFAULT_TOL,
    DEFECT_FACTOR,
    OperatorSpace,
    _fro_norms,
    _fro_settles,
    as_matrix,
    hs_orthonormalize,
    norm_exceeds,
    op_norm,
    rank_cut,
    row_blocks,
)

__all__ = [
    "ModuleUnitary",
    "TensorProduct",
    "interior_tensor",
    "unit_identities",
    "flip_unitary",
    "associator",
    "certify_module_unitary",
    "unitarity_residual",
    "intertwining_residual",
    "compose_unitaries",
    "adjoint_unitary",
    "identity_unitary",
]


@dataclass(eq=False)
class ModuleUnitary:
    """A unitary between total spaces carrying one module onto another.

    ``map`` sends the source total space to the target total space;
    ``residual_unitary`` bounds ||U*U - 1|| and ||UU* - 1||,
    ``residual_intertwine`` bounds the left-action intertwining defects and
    the distance of mapped module elements from the target span.
    """

    source: object
    target: object
    map: np.ndarray
    residual_unitary: float
    residual_intertwine: float
    meta: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return max(self.residual_unitary, self.residual_intertwine)


def _module_of(obj) -> HilbertModule:
    return obj.module if isinstance(obj, Correspondence) else obj


def unitarity_residual(U: np.ndarray) -> float:
    """max(||U*U - 1||, ||UU* - 1||)."""
    return max(op_norm(U.conj().T @ U - np.eye(U.shape[1])),
               op_norm(U @ U.conj().T - np.eye(U.shape[0])))


def intertwining_residual(U: np.ndarray, src_imgs, tgt_imgs) -> float:
    """max over pairs of ||U s - t U||."""
    src, tgt = np.asarray(src_imgs), np.asarray(tgt_imgs)
    if not len(src):
        return 0.0
    return float(op_norm(U @ src - tgt @ U).max())


def certify_module_unitary(source, target, U: np.ndarray,
                           meta: dict | None = None) -> ModuleUnitary:
    """Measure unitarity and bimodule intertwining residuals of U.

    Right-action intertwining is exact (composition), so the right-module
    check is membership of mapped basis elements in the target span.
    """
    src = _module_of(source)
    tgt = _module_of(target)
    U = as_matrix(U)
    if U.shape != (tgt.dim_H, src.dim_H):
        raise DimensionMismatch(
            f"map shape {U.shape} does not match target/source total spaces "
            f"({tgt.dim_H}, {src.dim_H})"
        )
    ru = unitarity_residual(U)
    ri = float(tgt.space.decompose(U @ src.basis)[1].max())
    if isinstance(source, Correspondence) and isinstance(target, Correspondence):
        basis = source.left.basis
        ri = max(ri, intertwining_residual(U, source.left_action.apply_many(basis),
                                           target.left_action.apply_many(basis)))
    return ModuleUnitary(source, target, U, float(ru), float(ri), meta or {})


def compose_unitaries(first: ModuleUnitary, second: ModuleUnitary) -> ModuleUnitary:
    """second after first, re-certified against the endpoints."""
    out = certify_module_unitary(first.source, second.target,
                                 second.map @ first.map,
                                 {"composed": True,
                                  "path": [first.meta, second.meta]})
    return out


def adjoint_unitary(u: ModuleUnitary) -> ModuleUnitary:
    return certify_module_unitary(u.target, u.source, u.map.conj().T,
                                  {"reversed": True, **u.meta})


def identity_unitary(obj) -> ModuleUnitary:
    mod = _module_of(obj)
    return certify_module_unitary(obj, obj, np.eye(mod.dim_H, dtype=np.complex128))


def _hstack(blocks: np.ndarray) -> np.ndarray:
    """[b_0 | b_1 | ...] of a stack of blocks (..., r, w), in C order of the
    leading indices."""
    return np.moveaxis(blocks, -2, 0).reshape(blocks.shape[-2], -1)


# ---------------------------------------------------------------------------
# interior tensor product


@dataclass(eq=False)
class TensorProduct:
    """An interior tensor product with its coordinate map.

    ``S`` maps elementary coefficient vectors (left-basis index major, right
    total-space index minor) isometrically onto C^r = the result's total
    space; ``S_pinv`` is its right inverse.
    """

    left: object
    right: Correspondence
    result: object  # Correspondence or HilbertModule
    S: np.ndarray
    S_pinv: np.ndarray
    gap: float

    @property
    def k_left(self) -> int:
        return _module_of(self.left).dim

    @property
    def right_total(self) -> int:
        return _module_of(self.right).dim_H

    def blocks(self) -> np.ndarray:
        """The column blocks of S as a stack (k_left, r, right_total): block i
        maps the right total space into the result's, x_i (x) kappa -> S_i kappa."""
        return _column_blocks(self.S, self.k_left)

    def embed(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Module element of the result for x in the left span and y in the
        right span (an operator from the base space to the result total)."""
        c = _module_of(self.left).coeffs(as_matrix(x))
        d = _module_of(self.right).coeffs(as_matrix(y))
        ymat = np.tensordot(d, _module_of(self.right).basis, axes=1)
        return np.tensordot(c, self.blocks(), axes=1) @ ymat

    def realize(self, blocks, inner: np.ndarray | None = None) -> np.ndarray:
        """The map on the result's total space given on elementary tensors by
        x_i (x) kappa -> blocks[i] kappa: [blocks[0] | blocks[1] | ...] S+.

        ``blocks`` is a stack (k_left, ..., n, w), its inner leading indices
        side by side in C order.  With ``inner``, the right inverse R of the
        coordinates of a tensor that is the right factor, blocks[i] acts on
        kappa = R kappa'; the rows blocks[i] R are formed in row blocks over
        i, from a function of a slice of i where ``blocks`` is one."""
        if inner is None:
            return _hstack(blocks) @ self.S_pinv
        at = blocks if callable(blocks) else blocks.__getitem__
        k, head = self.k_left, at(slice(0, 1))
        rows = np.empty((k, head.shape[-2], inner.shape[1]), dtype=np.complex128)
        for s in row_blocks(k, head.nbytes):
            part = at(s)
            rows[s] = np.moveaxis(part, -2, 1).reshape(len(part), part.shape[-2], -1) @ inner
        return _hstack(rows) @ self.S_pinv

    def pullback(self, elems: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Coefficients d (n, k_left, dim Y) of result elements z (n, r, .)
        with z_n = sum_a x_a (x) eta_na, eta_na = sum_b d[n, a, b] y_b: the
        blocks of S+ z_n against Y's basis (NotInModule off its span).  Exact:
        z = S S+ z, and S+ S, a spectral projection of the Gram, keeps the
        elementary coefficients of z in Y^k, as the Gram's blocks
        rho(<x_a, x_b>) keep Y."""
        Y = _module_of(self.right)
        eta = (self.S_pinv @ elems).reshape(len(elems), self.k_left, Y.dim_H, Y.dim_G)
        return Y.coeffs(eta, tol)


def _column_blocks(S: np.ndarray, k: int) -> np.ndarray:
    """Gram coordinates S over k elementary factors (factor index major) as
    the stack (k, r, w) of their column blocks S[:, i*w:(i+1)*w]."""
    return S.reshape(len(S), k, -1).transpose(1, 0, 2)


def _factor_coordinates(Z: np.ndarray, tol: float, residual: float = 0.0):
    """(S, S_pinv, gap) of a Gram matrix within ``residual`` (in norm) of
    Z* Z, from the thin SVD Z = U Sigma V*: S = Sigma V* and S+ = V Sigma^-1
    on the singular values that the cut on sigma^2 keeps.

    By Weyl every eigenvalue of the Gram lies within ``residual`` of the
    matching sigma^2 (or of 0), which ``rank_cut`` takes into account, and
    ||Gram - S* S|| <= sigma_(r+1)^2 + residual, the denominator of the gap.
    """
    _, s, Vh = np.linalg.svd(Z, full_matrices=False)
    r, gap = rank_cut(s ** 2, tol, "tensor Gram cut", residual=residual)
    if r == 0:
        raise ValidationError("tensor product collapsed to zero")
    return s[:r, None] * Vh[:r], Vh[:r].conj().T / s[:r], gap


def _gram_coordinates(gram: np.ndarray, tol: float):
    """(S, S_pinv, gap) with S* S the Gram on its support and S S* diagonal.

    A pivoted Cholesky (LAPACK zpstrf at its default stop, n eps max_i
    gram_ii; it reads the upper triangle) gives a factor Z with as many rows
    as pivots, in O(n r^2) instead of a full eigensolve.  The residual
    ||gram - Z* Z||_F is measured and the coordinates come from Z's thin
    SVD (``_factor_coordinates``), so noise pivots above the stop are cut
    there.
    """
    n = len(gram)
    c, piv, r0, _ = scipy.linalg.lapack.zpstrf(gram)
    Z = np.zeros((r0, n), dtype=np.complex128)
    Z[:, piv - 1] = np.triu(c[:r0])
    # ||gram - Z* Z||_F in row panels, without a second n x n array
    Zh = Z.conj().T
    sq = sum(np.linalg.norm(gram[i:i + 512] - Zh[i:i + 512] @ Z) ** 2
             for i in range(0, n, 512))
    return _factor_coordinates(Z, tol, float(np.sqrt(sq)))


def _induced_action(rho: Homomorphism, space: OperatorSpace, S: np.ndarray,
                    S_pinv: np.ndarray, tol: float) -> Homomorphism:
    """pi(a) = S (C_a (x) 1_w) S+ on a Gram quotient of span(space) (x) C^w,
    certified as a unital *-homomorphism without forming its k^2 products.

    C_a[c, x] is the coefficient of rho(a) x_x along x_c, R_X(a) the norm of
    rho(a) x_x minus that expansion over x, and D_b = (C_b (x) 1) S+ - S+ pi(b)
    the range-invariance residual.  With Delta_ab = C_a C_b - C_ab,

        pi(a) pi(b) - pi(ab) = S (Delta_ab (x) 1) S+ - S (C_a (x) 1) D_b,
        ||Delta_ab|| <= ||rho(a) rho(b) - rho(ab)|| + ||rho(a)|| R_X(b),

    so each product residual on A's basis is at most (norms bounded by HS)

        ||S|| ||C_a|| ||D_b|| + ||S|| ||S+|| (mu + ||rho(a)|| R_X(b))
            + 2 r eps ||pi(a)|| ||pi(b)||,

    mu being rho's certificate value and the last term the rounding of
    ``cstar.product_residuals`` on r x r images (all that is left where the
    rest is exactly 0).  ``validate`` takes the largest bound as pi's
    certificate and runs its own unit and star checks; where a large ||S||
    ||S+|| lifts it above DEFECT_FACTOR * tol, it measures pi's residuals instead.  On
    the elementary tensors S (e_x (x) y), pi(a) leaves the module span by at
    most ||S (C_a (x) 1)(1 - S+ S)|| <= ||S||^2 ||D_(a*)|| + ||S|| ||C_a* - C_(a*)||,
    which must stay under DEFECT_FACTOR * tol (ValidationError naming the certificate).
    C and R_X, the (C_a (x) 1) S+ and D_a, and the star residuals are formed
    in row blocks over a.
    """
    rho.validate(tol)
    A = rho.domain
    acts = rho.apply_many(A.basis, tol)
    m, k = len(acts), space.dim
    r, w = S.shape[0], S.shape[1] // k
    xflat = space.mats.reshape(k, -1)
    xconj = xflat.conj().T
    C, R_X = np.empty((m, k, k), dtype=np.complex128), np.empty(m)
    for s in row_blocks(m, 16 * xflat.size):
        moved = np.matmul(acts[s, None], space.mats[None]).reshape(-1, xflat.shape[1])
        C[s] = (moved @ xconj).reshape(-1, k, k)
        moved -= C[s].reshape(-1, k) @ xflat
        R_X[s] = _fro_norms(moved.reshape(len(C[s]), -1))
    Sp = S_pinv.reshape(k, w * r)
    images, R_inv = np.empty((m, r, r), dtype=np.complex128), np.empty(m)
    for s in row_blocks(m, 16 * k * w * r):
        # (C_a (x) 1_w) S+ without a Kronecker product (C[a] is C_a^T); pi(a) is S times it
        CS = (C[s].transpose(0, 2, 1) @ Sp).reshape(-1, k * w, r)
        images[s] = S @ CS
        CS -= S_pinv @ images[s]
        R_inv[s] = _fro_norms(CS)

    norm_S = float(_fro_norms(S).max())  # S S* is diagonal
    norm_pi = _fro_norms(images)
    bound = float((norm_S * (np.outer(_fro_norms(C), R_inv) + np.linalg.norm(S_pinv)
                             * (rho.certificate.value + np.outer(_fro_norms(acts), R_X)))
                   + 2 * r * np.finfo(float).eps * np.outer(norm_pi, norm_pi)).max())
    cadj = A.adjoint_coefficients()
    star_C = np.empty(m)
    for s in row_blocks(m, 16 * k * k):
        diff = cadj[s] @ C.reshape(m, -1)
        diff -= C[s].conj().transpose(0, 2, 1).reshape(len(diff), -1)
        star_C[s] = _fro_norms(diff)
    span = norm_S ** 2 * (np.abs(cadj) @ R_inv) + norm_S * star_C
    bad = np.flatnonzero(span > DEFECT_FACTOR * tol)
    if bad.size:
        raise ValidationError(
            f"induced left action fails its range-invariance certificate at basis "
            f"element {bad[0]} (bound {span[bad[0]]:.3e})")
    hom = Homomorphism(A, r, images, Certificate("induced action", bound))
    hom.validate(tol)
    return hom


def interior_tensor(X, Y: Correspondence, tol: float = DEFAULT_TOL) -> TensorProduct:
    """Interior tensor product X (.) Y of a module/correspondence over B with
    a correspondence whose left algebra is B.

    The result is a module by construction and is not re-validated: it is
    spanned by the S_i y (block i of S, y in Y's basis), so the right action
    comes from Y's, and (S_i y)* (S_j y') = y* rho(<x_i, x_j>) y' - y* E_ij y'
    with E = Gram - S* S, ||E|| at most sigma_(r+1)^2 plus the measured
    Cholesky residual (``_gram_coordinates``).  X's left action induces the
    certified ``_induced_action``.
    """
    Xm = _module_of(X)
    Ym = _module_of(Y)
    if not isinstance(Y, Correspondence):
        raise PreconditionError("right factor must be a correspondence")
    if Y.left.ambient_dim != Xm.dim_G:
        raise DimensionMismatch(
            "left algebra of the right factor must live on the left factor's base space"
        )
    k = Xm.dim
    w = Ym.dim_H
    # blocks rho(<x_i, x_j>) for i <= j, the lower triangle by adjoints
    iu, ju = np.triu_indices(k)
    B = Xm.basis
    blocks = Y.left_action.apply_many(
        np.matmul(B[iu].conj().transpose(0, 2, 1), B[ju]), tol)
    # written in place in the (k, w, k, w) layout of the (k w)^2 Gram; blocks
    # is conjugated in place and back for the lower triangle
    gram = np.empty((k, w, k, w), dtype=np.complex128)
    gram[ju, :, iu] = np.conjugate(blocks, out=blocks).transpose(0, 2, 1)
    gram[iu, :, ju] = np.conjugate(blocks, out=blocks)
    gram = gram.reshape(k * w, k * w)
    S, S_pinv, gap = _gram_coordinates(gram, tol)
    r = S.shape[0]
    # x_i (x) y for every pair, i major
    elements = _column_blocks(S, k)[:, None] @ Ym.basis[None]
    space = hs_orthonormalize(elements.reshape(-1, r, Ym.dim_G), tol)
    mod = _trimmed_module(Ym.base, space, tol)
    if mod.dim_H != r:
        raise ValidationError("tensor module is degenerate on its own total space")

    result: object
    if isinstance(X, Correspondence):
        action = _induced_action(X.left_action, Xm.space, S, S_pinv, tol)
        result = Correspondence(mod, X.left, action)
    else:
        result = mod
    return TensorProduct(X, Y, result, S, S_pinv, gap)


# ---------------------------------------------------------------------------
# unit identities


def unit_identities(E: HilbertModule, tol: float = DEFAULT_TOL):
    """Certified canonical unitaries  E (.) E* -> K(E)  (x (x) y* -> x y*)
    and  E* (.) E -> B_E  (x* (x) y -> <x, y>)."""
    K = finite_rank_algebra(E, tol)
    Ecorr = as_bimodule(E, K, tol)
    Estar = dual_module(E, tol)
    # for non-full modules the dual total space is the trimmed part of G
    V_d = Estar.module.h_embed
    if V_d is None:
        V_d = np.eye(E.dim_G, dtype=np.complex128)

    # u1: E (.) E*  ->  K(E) as a K(E)-K(E) correspondence
    tp1 = interior_tensor(Ecorr, Estar, tol)
    target1 = algebra_bimodule(K, tol)
    # U sends coord(x_i (x) g~) to x_i (V_d g~) in H
    u1 = certify_module_unitary(tp1.result, target1, tp1.realize(E.basis @ V_d),
                                {"identity": "module-times-dual"})

    # u2: E* (.) E  ->  B_E as a B-B correspondence: the inner-product ideal
    # as operators from G to its support space, with both actions from B
    ideal_span, V, _ = _ideal_data(E, tol)
    if V is None:
        V = np.eye(E.dim_G, dtype=np.complex128)
    rank = V.shape[1]
    ideal_mod = module_from_parts(
        E.base,
        OperatorSpace(rank, E.dim_G,
                      np.ascontiguousarray(
                          np.einsum("ij,kjl->kil", V.conj().T, ideal_span.mats))),
        tol)
    target2 = Correspondence(ideal_mod, E.base,
                             Homomorphism(E.base, rank, V.conj().T @ E.base.basis @ V))
    target2.validate(tol)
    tp2 = interior_tensor(Estar, Ecorr, tol)
    # U sends coord(x_j* (x) h) to V* x_j* h in the ideal's support space
    u2 = certify_module_unitary(tp2.result, target2,
                                tp2.realize(V.conj().T @ _adjoints(E.basis)),
                                {"identity": "dual-times-module"})
    return u1, u2


# ---------------------------------------------------------------------------
# flip identification


def flip_unitary(E: HilbertModule, W: OperatorSpace, rho_p: Homomorphism,
                 tol: float = DEFAULT_TOL) -> ModuleUnitary:
    """Unitary from the abstract space E (.) W (.) G onto span(W L_E G).

    W is an operator space composing with E's elements on the right of H and
    carrying a right action of the base's commutant through rho'.  The
    abstract Gram (computed through rho'^{-1} inner products) must equal the
    concrete Gram of the vectors w x g; their equality is exactly the flip
    identification, verified rather than assumed.

    The coordinates S+ = V Sigma^{-1} come from the thin SVD of the concrete
    factor (rank cut on sigma^2), so U = cols S+ is isometric by
    construction; the residual also measures S+* gram S+ against the
    identity, so the abstract Gram still certifies the flip.  meta keeps
    S+ U*, a right inverse of cols when they span H.  The abstract Gram is
    formed in row panels; it is formed whole only when the Frobenius norm of
    its difference does not settle the check.
    """
    if W.dim_in != E.dim_H:
        raise DimensionMismatch("W must compose with module elements on H")
    k, kw, g = E.dim, W.dim, E.dim_G
    n = k * kw * g
    bprime = _representation_inverter(rho_p)(_pairwise_inner(W.mats))[0]
    inner = _pairwise_inner(E.basis)

    def panel(pairs: slice) -> np.ndarray:
        """Rows (i, j, s) of the abstract Gram over x_i (x) w_j (x) g_s for
        the pairs i kw + j in ``pairs``: block (i, j), (m, l) is
        rho'^{-1}(w_j* w_l) <x_i, x_m>."""
        i, j = divmod(np.arange(pairs.start, pairs.stop), kw)
        blocks = np.matmul(bprime[j][:, None], inner[i][:, :, None])
        return blocks.transpose(0, 3, 1, 2, 4).reshape(-1, n)

    # concrete vectors w_j x_i, columns in the same (i, j, s) order
    cols = _hstack(np.matmul(W.mats[None], E.basis[:, None]))
    S, S_pinv, gap = _factor_coordinates(cols, tol)
    # ||cols* cols|| = sigma_0^2 = ||S[0]||^2, from the thin factor
    bound = AGREE_TOL * max(1.0, np.linalg.norm(S[0]) ** 2)
    # Gram - cols* cols screened by its Frobenius norm and S+* Gram S+, both
    # summed over row panels
    colsh = cols.conj().T
    sq, gram_S = 0.0, np.zeros((len(S), len(S)), dtype=np.complex128)
    for pairs in row_blocks(k * kw, 16 * g * n):
        rows = slice(pairs.start * g, pairs.stop * g)
        diff = panel(pairs)
        gram_S += S_pinv[rows].conj().T @ (diff @ S_pinv)
        diff -= colsh[rows] @ cols
        sq += np.linalg.norm(diff) ** 2
    # norm_exceeds's decision; the full difference only where its Frobenius
    # screen does not settle it
    if not _fro_settles(np.sqrt(sq), bound) and \
            norm_exceeds(panel(slice(0, k * kw)) - colsh @ cols, bound):
        raise ValidationError(
            "abstract and concrete Gram matrices differ: the factors are not "
            "a compatible module/commutant-module pair"
        )
    U = cols @ S_pinv
    eye = np.eye(len(S))
    ru = max(op_norm(U.conj().T @ U - eye), op_norm(gram_S - eye))
    return ModuleUnitary(("abstract tensor", "E.W.G"), ("concrete span", "W L_E G"),
                         U, float(ru), 0.0, {"gap": gap, "right_inverse": S_pinv @ U.conj().T})


# ---------------------------------------------------------------------------
# associativity


def associator(tp_left: TensorProduct, tp_xy: TensorProduct,
               tp_right: TensorProduct, tp_yz: TensorProduct,
               tol: float = DEFAULT_TOL) -> ModuleUnitary:
    """Canonical unitary (X (.) Y) (.) Z -> X (.) (Y (.) Z) from its formula
    (x (x) y) (x) kappa -> x (x) (y (x) kappa).

    tp_xy = X (.) Y, tp_left = (X (.) Y) (.) Z, tp_yz = Y (.) Z,
    tp_right = X (.) (Y (.) Z).  Basis element z_i of X (.) Y is
    sum_a x_a (x) eta_ia (``pullback``), so z_i (x) kappa goes to
    sum_a x_a (x) (eta_ia (x) kappa), S_right [S_yz (eta_ia (x) kappa)]_a.
    """
    d = tp_xy.pullback(_module_of(tp_left.left).basis, tol)
    # (1 (x) S_yz) on the eta_ia of each z_i: blocks (i, a) stacked over a
    into_yz = np.tensordot(d, tp_yz.blocks(), axes=1)
    n, k, r, w = into_yz.shape
    U = tp_left.realize(tp_right.S @ into_yz.reshape(n, k * r, w))
    return certify_module_unitary(tp_left.result, tp_right.result, U,
                                  {"associator": True})


def _representation_inverter(rho: Homomorphism):
    """Least-squares inverse of a faithful representation, with conditioning.

    One SVD of the stacked images gives both: the pseudo-inverse keeps the
    singular values above 1e-15 times the largest (``np.linalg.pinv``'s
    default cutoff).  Returns a callable m -> (preimage, conditioning) that
    takes a matrix or a stack (..., d, d).
    """
    P = np.stack([img.reshape(-1) for img in rho.images], axis=1)
    U, s, Vh = np.linalg.svd(P, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s[0])
    Pp = (Vh.conj().T * inv_s) @ U.conj().T
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf

    def inv(m: np.ndarray):
        c = m.reshape(m.shape[:-2] + (-1,)) @ Pp.T
        return np.tensordot(c, rho.domain.basis, axes=1), cond

    return inv
