"""Interior tensor products of correspondences and canonical identifications.

A tensor product is built from a thin factor of its Gram: the algebraic
tensor of the left factor's basis with the standard basis of the right
factor's total space carries the semi-inner product

    <x (x) k, x' (x) k'> = <k, rho(<x, x'>) k'>,

and rho(b) = V* (b (x) 1_m) V (the Stinespring form of rho) makes x (x) k
-> (x (x) 1_m) V k isometric: Z = [(x_i (x) 1_m) V]_i has Z* Z = Gram, and
Z's thin SVD gives coordinates S: elementary vectors -> C^r with S+ a right
inverse, with no Gram formed.  The resulting module is re-concretized on
the right factor's base space, so iterated constructions stay inside one
uniform data model.

"Canonical identification" is operationalized as: construct the specific
map given by its defining formula on elementary tensors and certify
unitarity plus intertwining; the library never searches for an arbitrary
isomorphism.  ``TensorProduct.realize`` turns such a formula into a matrix
with no least-squares fit and no Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cstar import _frame
from .errors import DimensionMismatch, PreconditionError, ValidationError
from .hilbmod import (
    Certificate,
    Correspondence,
    HilbertModule,
    Homomorphism,
    _adjoints,
    _first_failure,
    _ideal_data,
    _pairwise_inner,
    _representation_frame,
    _trimmed_module,
    algebra_bimodule,
    as_bimodule,
    dual_module,
    finite_rank_algebra,
)
from .numkernel import (
    AGREE_TOL,
    DEFAULT_TOL,
    DEFECT_FACTOR,
    OperatorSpace,
    _fro_norms,
    _fro_settles,
    as_matrix,
    eigh_desc,
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
    ri = float(tgt.space.distances(U @ src.basis).max())
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
    """(S, S_pinv, gap, Q) of a Gram within ``residual`` (in norm) of Z* Z,
    from the thin SVD Z = U Sigma V* on the values the cut on sigma^2 keeps:
    S = Sigma V*, S+ = V Sigma^-1 and Q = U, an isometry onto Z's range.  By
    Weyl each Gram eigenvalue lies within ``residual`` of its sigma^2, which
    ``rank_cut`` takes into account, and ||Gram - S* S|| <= sigma_(r+1)^2 +
    residual, the gap's denominator.  No Gram is formed."""
    U, s, Vh = np.linalg.svd(Z, full_matrices=False)
    r, gap = rank_cut(s ** 2, tol, "tensor Gram cut", residual=residual)
    if r == 0:
        raise ValidationError("tensor product collapsed to zero")
    return s[:r, None] * Vh[:r], Vh[:r].conj().T / s[:r], gap, U[:, :r]


_gram_coordinates = _factor_coordinates  # the name the benchmark's tracer times it by


def _amplified(mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The stack (x_i (x) 1_m) V, (k, H m, d) with rows (h, s), of a stack
    x (k, H, n) and V (n, m, d): one GEMM, no Kronecker product."""
    n, m, d = V.shape
    return (mats @ V.reshape(n, m * d)).reshape(len(mats), -1, d)


def _amplifier(rho: Homomorphism, tol: float, inverse: bool = False):
    """(V, residual), cached on rho, for a map rho of B (on C^n) into B(C^d):
    rho(b) = V* (b (x) 1_m) V, V (n, m, d) with rows (g, s), on B's
    Wedderburn frame; with ``inverse``, for a faithful representation, b =
    V* (rho(b) (x) 1_m) V, V (d, m, n), on the frame of rho's pairs.

    Per block p of the target frame (columns R_p[:, c, t], multiplicity mu_p,
    units e_cd = sum_t R_p[:, c, t] R_p[:, d, t]*), f = rho or rho^-1 has
    f(e_00) = sum_k lambda_k u_k u_k* above tol (a projection's scale, so a
    block f kills has no Kraus operator), and v_kc = f(e_c0) u_k
    lambda_k^(-1/2) gives sum_k v_kc v_kd* = f(e_cd) for a representation
    and every completely positive f whose Kraus operators have independent
    0-th rows (Stinespring).  Kraus operator [v_kc*]_c goes to copy k mod
    mu_p, slot k div mu_p: for nu_p copies of each block, m = max_p
    ceil(nu_p / mu_p) and V is a partial isometry.  The identity is V = 1.

    With x_i HS-orthonormal and closed under right multiplication by the d_l
    = b_l (rho(b_l) with ``inverse``), x_i* x_j = sum_l gamma^l_ij d_l with
    ||gamma^l|| <= w (1, or max_p mu_p / nu_p in the inner product tr f(x*
    y)), so ``residual`` = w sum_l ||V* (d_l (x) 1) V - f(d_l)|| (V's
    defect) bounds ||[f(x_i* x_j)] - Z* Z||, Z = [(x_i (x) 1_m) V]_i."""
    key = ("amplifier", tol, inverse)
    if key in rho._cache:
        return rho._cache[key]
    B, w = rho.domain, 1.0
    if rho.certificate is not None and rho.certificate.kind == "identity":  # rho(b) = b
        return rho._cache.setdefault(key, (np.eye(B.ambient_dim)[:, None] + 0j, 0.0))
    if inverse:
        frame = _representation_frame(rho, tol)
        targets, col0 = frame.left, [_units_c0(R) for R in frame.right]
        src, dst = B.basis, rho.images
        w = max(mu / nu if nu else np.inf for _, nu, mu in frame.blocks if mu)
    else:
        targets = _frame(B, tol).left
        col0 = [rho.apply_many(_units_c0(R), tol) for R in targets]
        src, dst = rho.images, B.basis
    kraus = []
    for M in col0:
        lam, U = eigh_desc(M[0])
        r, _ = rank_cut(lam, tol, "Stinespring rank", floor=1.0)
        kraus.append((M @ (U[:, :r] / np.sqrt(lam[:r]))).transpose(2, 0, 1).conj())
    m = max((-(-len(K) // R.shape[2]) for K, R in zip(kraus, targets) if R.shape[2]), default=1)
    V = np.zeros((len(targets[0]), m, src.shape[1]), dtype=np.complex128)
    for K, R in zip(kraus, targets):
        if mu := R.shape[2]:
            pad = np.zeros((m * mu,) + K.shape[1:], dtype=np.complex128)
            pad[:len(K)] = K
            V += np.tensordot(R, pad.reshape(m, mu, *K.shape[1:]), ([1, 2], [2, 1]))
    Vh = V.reshape(-1, V.shape[2]).conj().T
    defect = sum(_fro_norms(Vh @ _amplified(dst[s], V) - src[s]).sum()
                 for s in row_blocks(len(src), 2 * V.nbytes))
    return rho._cache.setdefault(key, (V, float(w * defect)))


def _units_c0(R: np.ndarray) -> np.ndarray:
    """The units e_c0 = sum_t R[:, c, t] R[:, 0, t]* of a frame block R."""
    return np.einsum("xct,yt->cxy", R, R[:, 0].conj())


def _amplified_action(lam: Homomorphism, Q: np.ndarray, m: int, tol: float) -> Homomorphism:
    """pi(a) = Q* (lam(a) (x) 1_m) Q on the range of an isometry Q ((n m) x
    r, rows (h, s)), certified without forming its products.  With W_a =
    (lam(a) (x) 1_m) Q and iota_a >= ||(1 - Q Q*) W_a|| (measured, plus 2 n
    m eps ||lam(a)|| for its GEMMs), exactly

        pi(a) pi(b) - pi(ab) = Q* (lam(a) (x) 1)(Q Q* - 1) W_b
                               + Q* ((lam(a) lam(b) - lam(ab)) (x) 1_m) Q,

    so every product residual (HS) is at most max ||lam(a)|| max iota +
    sqrt(m) mu + 2 n m eps max ||pi(a)||^2, mu lam's certificate value and
    the last term the rounding of pi's GEMMs and of the product kernel.
    ``validate`` takes that as pi's certificate (above DEFECT_FACTOR * tol it
    measures pi's residuals instead).  Q spanning the range of Z = [(x_i (x)
    1_m) V]_i, that range is invariant as lam(a) x_i lies in X; an iota_a
    above DEFECT_FACTOR * tol raises ValidationError.  The W_a are formed in
    row blocks over a."""
    lam.validate(tol)
    acts = lam.images
    k, n, r = len(acts), acts.shape[1], Q.shape[1]
    Q3, Qh = Q.reshape(n, m * r), Q.conj().T
    images, iota = np.empty((k, r, r), dtype=np.complex128), np.empty(k)
    for s in row_blocks(k, 16 * n * m * r):
        moved = (acts[s] @ Q3).reshape(-1, n * m, r)
        images[s] = Qh @ moved
        moved -= Q @ images[s]
        iota[s] = _fro_norms(moved)
    iota += 2 * n * m * np.finfo(float).eps * _fro_norms(acts)
    _first_failure(iota, DEFECT_FACTOR * tol, "induced left action fails its range-invariance "
                   "certificate at basis element {} (residual {:.3e})")
    bound = float(_fro_norms(acts).max() * iota.max() + np.sqrt(m) * lam.certificate.value
                  + 2 * n * m * np.finfo(float).eps * _fro_norms(images).max() ** 2)
    hom = Homomorphism(lam.domain, r, images, Certificate("amplified action", bound))
    hom.validate(tol)
    return hom


def interior_tensor(X, Y: Correspondence, tol: float = DEFAULT_TOL) -> TensorProduct:
    """Interior tensor product X (.) Y of a module/correspondence over B with
    a correspondence whose left algebra is B.

    Y's left action is rho(b) = V* (b (x) 1_m) V (``_amplifier``), so the
    thin factor Z = [(x_i (x) 1_m) V]_i, (H_X m) x (k w), has Z* Z within
    V's defect of the Gram <x_i (x) kappa, x_j (x) kappa'> = kappa* rho(<x_i,
    x_j>) kappa', and the coordinates S come from Z (``_factor_coordinates``)
    with no Gram formed.  The result is a module by construction, spanned by
    the S_i y (y in Y's basis): the right action is Y's, and (S_i y)* (S_j
    y') = y* rho(<x_i, x_j>) y' - y* E_ij y' with ||E|| = ||Gram - S* S||
    at most sigma_(r+1)^2 plus V's defect.  X's left action lambda(a) (x)
    1_m, compressed to Z's range, is the certified ``_amplified_action``.
    """
    Xm = _module_of(X)
    if not isinstance(Y, Correspondence):
        raise PreconditionError("right factor must be a correspondence")
    if Y.left.ambient_dim != Xm.dim_G:
        raise DimensionMismatch(
            "left algebra of the right factor must live on the left factor's base space"
        )
    action = (X.left, X.left_action) if isinstance(X, Correspondence) else ()
    return TensorProduct(X, Y, *_tensor(Xm.basis, Y.module, _amplifier(Y.left_action, tol), tol,
                                        "tensor module", *action))


def _tensor(basis: np.ndarray, Y: HilbertModule, amplifier, tol: float, what: str,
            left=None, action: Homomorphism | None = None):
    """(result, S, S_pinv, gap) of interior_tensor's construction for a stack
    x (k, H, n), Y and ``amplifier`` = (V, defect) of Y's left action; the
    result is a correspondence from ``left`` when x carries ``action``."""
    V, residual = amplifier
    S, S_pinv, gap, Q = _factor_coordinates(_hstack(_amplified(basis, V)), tol, residual)
    r = S.shape[0]
    # x_i (x) y for every pair, i major: a module by S_i (y b) and y* rho(<x_i, x_j>) y'
    elements = _column_blocks(S, len(basis))[:, None] @ Y.basis[None]
    mod = _trimmed_module(Y.base, hs_orthonormalize(elements.reshape(-1, r, Y.dim_G), tol), tol)
    if mod.dim_H != r:
        raise ValidationError(f"{what} is degenerate on its own total space")
    result = mod if action is None else \
        Correspondence(mod, left, _amplified_action(action, Q, V.shape[1], tol))
    return result, S, S_pinv, gap


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
    # a module by V* i b = V* (i b) and (V* i)* (V* j) = i* j (a two-sided ideal)
    ideal_mod = _trimmed_module(
        E.base,
        OperatorSpace(rank, E.dim_G,
                      np.ascontiguousarray(
                          np.einsum("ij,kjl->kil", V.conj().T, ideal_span.mats))),
        tol)
    action = Homomorphism(E.base, rank, V.conj().T @ E.base.basis @ V)
    action.validate(tol)
    target2 = Correspondence(ideal_mod, E.base, action)
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
    abstract Gram (computed through rho'^{-1} inner products, read off the
    inverse ``_amplifier``) must equal the concrete Gram of the vectors w x
    g; their equality is exactly the flip identification, verified rather
    than assumed.

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
    # rho'^-1(w_j* w_l) = V* (w_j* w_l (x) 1) V, V the inverse amplifier of rho'
    bprime = _pairwise_inner(_amplified(W.mats, _amplifier(rho_p, tol, inverse=True)[0]))
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
    S, S_pinv, gap, U = _factor_coordinates(cols, tol)
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

