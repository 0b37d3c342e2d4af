"""The constructions of the factorizing correspondence.

Given a unital *-homomorphism theta from the adjointable operators of a
module E to those of a module F, each method produces a correspondence and
a certified unitary u: E (.) corr -> F with theta(a) = u (a (.) id) u*.

Methods:
  dual        through the dual module: corr = E* (.) F
  unit_vector compression by theta(xi xi*) for a unit vector xi: the qons
              method on the one-member family {xi}
  qons        direct sum of compressions along a quasi-orthonormal family
  commutant   intertwiner space of theta, then its bimodule commutant

Surjectivity arguments are replaced by exact dimension counting: at finite
dimension the isometries are surjective iff total-space dimensions match,
and a mismatch raises instead of being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cstar import build_algebra
from .errors import (
    DimensionMismatch,
    PreconditionError,
    UnsupportedPair,
    ValidationError,
)
from .hilbmod import (
    Correspondence,
    HilbertModule,
    Homomorphism,
    _adjointable_parts,
    _adjoints,
    _first_failure,
    _pairwise_inner,
    _representation_frame,
    _trimmed_module,
    adjointable_residual,
    as_bimodule,
    check_qons_family,
    commutant_lifting,
    dual_module,
    finite_rank_products,
    identity_homomorphism,
    intertwiner_space,
    is_full,
    verify_unit_vector,
)
from .numkernel import (
    AGREE_TOL,
    DEFAULT_TOL,
    DEFECT_FACTOR,
    OMEGA_TOL,
    QONS_TOL,
    OperatorSpace,
    _fro_norms,
    as_matrix,
    column_support,
    eigh_desc,
    hs_orthonormalize,
    op_norm,
)
from .tensorcalc import (
    ModuleUnitary,
    TensorProduct,
    _amplifier,
    _column_blocks,
    _tensor,
    adjoint_unitary,
    certify_module_unitary,
    compose_unitaries,
    flip_unitary,
    identity_unitary,
    interior_tensor,
    intertwining_residual,
    unitarity_residual,
)

__all__ = [
    "FactorizationResult",
    "METHODS",
    "induced_homomorphism",
    "validate_theta",
    "factor_dual",
    "factor_unit_vector",
    "factor_qons",
    "factor_commutant",
    "compare",
    "hilbert_space_intertwiners",
    "hilbert_space_compression",
    "is_morita_equivalence",
    "scalar_inner",
    "intertwiner_composition_law",
    "compression_composition_law",
]

METHODS = ("dual", "unit_vector", "qons", "commutant")


@dataclass(eq=False)
class FactorizationResult:
    """A factorizing correspondence with its certified unitary E (.) corr -> F."""

    method: str
    correspondence: Correspondence
    unitary: ModuleUnitary
    report: dict
    aux: dict = field(default_factory=dict, repr=False)

    def to_json(self, emit_unitary: bool = False) -> dict:
        out = {"method": self.method, **self.report}
        if emit_unitary:
            u = self.unitary.map
            out["unitary"] = [[[float(z.real), float(z.imag)] for z in row] for row in u]
        return out


def validate_theta(E: HilbertModule, F: HilbertModule, theta: Homomorphism,
                   tol: float = DEFAULT_TOL) -> tuple[Correspondence, Correspondence]:
    """theta must be a unital *-homomorphism from B^a(E) into B^a(F), for
    nondegenerate E and F (``_theta_in_adjointables``, ``theta.validate``),
    whose images theta(b) y and domain b x stay within DEFECT_FACTOR * tol of
    F and E.  Returns E with theta's domain acting and F with theta acting,
    the correspondences every method factors theta through; kept with theta
    per E, F and tol (F's rebuilt: it holds theta, a reference cycle)."""
    if theta._cache.get("theta", ())[:3] == (E, F, tol):  # modules compare by identity
        return theta._cache["theta"][3], Correspondence(F, theta.domain, theta)
    left_parts = _theta_in_adjointables(E, F, theta, tol)
    theta.validate(tol)
    for res in left_parts:
        _first_failure(res, DEFECT_FACTOR * tol,
                       "left action of basis element {} leaves the module span")
    E_corr = Correspondence(E, theta.domain, identity_homomorphism(theta.domain))
    theta._cache["theta"] = (E, F, tol, E_corr)
    return E_corr, Correspondence(F, theta.domain, theta)


def _theta_in_adjointables(E: HilbertModule, F: HilbertModule, theta: Homomorphism,
                          tol: float = DEFAULT_TOL):
    """Membership by invariance (``_adjointable_parts``), reading no product
    of theta: its domain lies in B^a(E) = K(E) and holds every x y* of E (it
    becomes E's ``finite_rank_algebra`` when they lie within tol of it and
    each b x passes ``validate_theta``), and its images lie in B^a(F).
    Returns the residuals of theta(b) y and b x, kept per E, F and tol."""
    kept = theta._cache.get("adjointables", ())
    if kept[:3] == (E, F, tol):
        return kept[3]
    if theta.domain.ambient_dim != E.dim_H:
        raise ValidationError("theta's domain does not act on E's total space")
    if theta.codomain_dim != F.dim_H:
        raise ValidationError("theta's images do not act on F's total space")
    dom = theta.domain
    spans = dom.space.span_residual(finite_rank_products(E)).max()
    on_E = _adjointable_parts(E, dom.basis, tol, "E")
    if on_E.max() > AGREE_TOL or spans > AGREE_TOL:
        raise ValidationError("theta's domain is not the adjointable algebra of E")
    on_F = _adjointable_parts(F, theta.images, tol, "F")
    _first_failure(on_F.max(axis=0), AGREE_TOL,
                   "theta image of basis element {} leaves the adjointable algebra of F")
    if spans <= tol and on_E[0].max() <= DEFECT_FACTOR * tol:
        E._cache.setdefault(("finite_rank", tol), dom)
    theta._cache["adjointables"] = (E, F, tol, (on_F[0], on_E[0]))
    return on_F[0], on_E[0]


def _factorization_bound(theta: Homomorphism, pi: Homomorphism, U: np.ndarray,
                         defect: float) -> float:
    """A bound on theta's product residuals as ``cstar.product_residuals``
    computes them, from a unitary U carrying a certified *-homomorphism pi on
    the same domain basis b_i onto theta (the structure theorem's theta(a) =
    u (a (.) id) u*).  HS norms ||.||, op norms |.|, e the machine epsilon;
    T_i = theta(b_i), P_i = pi(b_i), mu pi's certificate value, delta >=
    |U*U - 1|, |UU* - 1| (``defect``; |U|^2 <= 1 + delta) and eps_i = ||T_i
    U - U P_i||.  D_i = T_i - U P_i U* = T_i (1 - UU*) + (T_i U - U P_i) U*
    has ||D_i|| <= eta_i = eps_i |U| + ||T_i|| delta, and exactly

        T_i T_j - sum_l c_ijl T_l = U P_i (U*U - 1) P_j U* + T_i D_j + D_i U P_j U*
            + U (P_i P_j - sum_l c_ijl P_l) U* - sum_l c_ijl D_l.

    With |U P_j U*| <= ||T_j|| + eta_j and ||(c_ijl)_l|| <= |B|^3, |B| the op
    norm of the basis as a k x n^2 matrix, the pair (i, j) is at most eta_i
    ||T_j|| + ||T_i|| eta_j + eta_i eta_j + (1 + delta) (||P_i|| ||P_j||
    delta + mu) + |B|^3 ||eta||_2.  Rounding: delta and eps_i add d e ||U||^2
    and d e ||U|| (||T_i|| + ||P_i||) for their GEMMs; mu and the bound add
    the kernel's own, (d w^2 + ||w||_2 (n + n^2 sqrt(k) + 2 k)) e for image
    norms w (its products, coefficients and sums); every computed norm
    takes the factor 1 + (d^2 + 2) e."""
    T, P, e = theta.images, pi.images, np.finfo(float).eps
    k, d, n = len(T), theta.codomain_dim, theta.domain.ambient_dim
    kappa, t, p, u = 1.0 + (d * d + 2) * e, _fro_norms(T), _fro_norms(P), np.linalg.norm(U)

    def rounding(w):
        return (d * w.max() ** 2 + np.linalg.norm(w) * (n + n * n * np.sqrt(k) + 2 * k)) * e

    delta = kappa * (defect + d * e * u * u)
    eta = kappa * (_fro_norms(T @ U - U @ P) + d * e * u * (t + p)) * np.sqrt(1.0 + delta) \
        + t * delta
    pairs = np.outer(eta, t) + np.outer(t + eta, eta) \
        + (1.0 + delta) * (delta * np.outer(p, p) + pi.certificate.value + rounding(p))
    basis = op_norm(theta.domain.basis.reshape(k, -1))
    return float(kappa * (pairs.max() + basis ** 3 * np.linalg.norm(eta) + rounding(t)))


def _unit_tensor(E_corr: Correspondence, F: HilbertModule, corr: Correspondence,
                 method: str, tol: float) -> TensorProduct:
    """E (.) corr with theta's domain acting on E, checked to have F's total
    dimension (the finite-dimensional form of surjectivity)."""
    tp = interior_tensor(E_corr, corr, tol)
    r = tp.result.module.dim_H
    if r != F.dim_H:
        raise ValidationError(
            f"dimension count failed for the {method} method: E (.) corr has "
            f"total dimension {r}, F has {F.dim_H}"
        )
    return tp


def _certify(method: str, tp: TensorProduct, F_corr: Correspondence,
             theta: Homomorphism, U: np.ndarray):
    """(certified unitary, residual report keys) of U: E (.) corr -> F,
    including max over the domain basis of ||theta(a) - U (a (.) id) U*||."""
    unitary = certify_module_unitary(tp.result, F_corr, U, {"method": method})
    lifted = U @ tp.result.left_action.apply_many(theta.domain.basis) @ U.conj().T
    return unitary, {"residual_unitary": unitary.residual_unitary,
                     "residual_intertwine": unitary.residual_intertwine,
                     "theta_residual": float(op_norm(theta.images - lifted).max())}


def induced_homomorphism(E: HilbertModule, M: Correspondence,
                         tol: float = DEFAULT_TOL):
    """The converse direction: F = E (.) M and theta(a) = a (.) id on the
    adjointable algebra of E.  Serves as the seeded oracle generator."""
    if M.left.ambient_dim != E.dim_G:
        raise DimensionMismatch("M's left algebra must act on E's base space")
    X = as_bimodule(E, None, tol)
    tp = interior_tensor(X, M, tol)
    # interior_tensor has validated theta with its correspondence
    return tp.result.module, tp.result.left_action, tp


def factor_dual(E: HilbertModule, F: HilbertModule, theta: Homomorphism,
                tol: float = DEFAULT_TOL) -> FactorizationResult:
    """Correspondence E* (.) F with inner product <x* . y, x'* . y'> =
    <y, theta(x x'*) y'>; the unitary sends x . (y* . z) to theta(x y*) z.

    Dual element j is x_j* for E's basis element x_j, also where the dual's
    total space is trimmed: it then stores V* x_j* with V V* x_j* = x_j*."""
    E_corr, F_corr = validate_theta(E, F, theta, tol)
    dual_corr = dual_module(E, tol)  # over K(E), theta's domain when it spans K(E)
    tp1 = interior_tensor(dual_corr, F_corr, tol)
    Ftheta = tp1.result

    tp2 = _unit_tensor(E_corr, F, Ftheta, "dual", tol)
    # x_i (x) coord(x_j* (x) f) -> theta(x_i x_j*) f, the k^2 images in row blocks over i
    k, n, d = E.dim, E.dim_H, F.dim_H
    pairs = np.matmul(E.basis[:, None], _adjoints(E.basis)[None]).reshape(k * k, n, n)
    c, images = theta.coefficients(pairs, tol).reshape(k, k, -1), theta.images.reshape(-1, d * d)
    U = tp2.realize(lambda s: (c[s] @ images).reshape(-1, k, d, d), inner=tp1.S_pinv)
    unitary, residuals = _certify("dual", tp2, F_corr, theta, U)
    report = {
        "dims": {"correspondence": Ftheta.module.dim,
                 "correspondence_total": Ftheta.module.dim_H,
                 "F_total": F.dim_H},
        **residuals,
        "gram_gap": tp1.gap,
    }
    aux = {"E": E, "F": F, "theta": theta, "tp_corr": tp1, "tp_unit": tp2,
           "dual": dual_corr}
    return FactorizationResult("dual", Ftheta, unitary, report, aux)


def _range_isometry(P: np.ndarray, tol: float) -> np.ndarray:
    """Columns spanning the range of a projection (eigenvalues ~0 or ~1)."""
    w, V = eigh_desc(P)
    if np.any((w > AGREE_TOL) & (w < 1.0 - AGREE_TOL)):
        raise ValidationError("matrix is not a projection within tolerance")
    return V[:, :int((w > 0.5).sum())]


def _compressions(method: str, E: HilbertModule, F: HilbertModule,
                  theta: Homomorphism, family: list, tol: float):
    """The compression construction shared by the unit-vector and QONS methods.

    corr = external direct sum of the compressions theta(e_b e_b*) F (the
    summands need not be orthogonal inside F) with matrix left action
    b . y_b = (+)_b' theta(e_b' b e_b*) y_b; the unitary sends
    x (.) y to sum_b theta(x e_b*) y_b.  Summand bases placed in disjoint
    row blocks are HS-orthogonal, so stacking them is already orthonormal.
    """
    E_corr, F_corr = validate_theta(E, F, theta, tol)
    isometries = [_range_isometry(theta.apply(e @ e.conj().T, tol), tol) for e in family]
    offs = np.concatenate([[0], np.cumsum([V.shape[1] for V in isometries])])
    H_B = int(offs[-1])

    comps = [hs_orthonormalize([V.conj().T @ y for y in F.basis], tol) for V in isometries]
    mats = np.concatenate([np.pad(c.mats, ((0, 0), (offs[b], H_B - offs[b + 1]), (0, 0)))
                           for b, c in enumerate(comps)])
    space = OperatorSpace(H_B, F.dim_G, mats, min(c.gap for c in comps))
    # a module by V_b* y c = V_b* (y c) and (V_b* y)* (V_b* y') = <y, theta(e_b e_b*) y'>
    mod = _trimmed_module(F.base, space, tol)
    if mod.h_embed is not None:
        raise ValidationError("compressed submodule is degenerate")

    imgs = np.zeros((E.base.dim, H_B, H_B), dtype=np.complex128)
    for bi, (ei, Vi) in enumerate(zip(family, isometries)):
        for bj, (ej, Vj) in enumerate(zip(family, isometries)):
            imgs[:, offs[bi]:offs[bi + 1], offs[bj]:offs[bj + 1]] = \
                Vi.conj().T @ theta.apply_many(ei @ E.base.basis @ ej.conj().T, tol) @ Vj
    # theta(e_b' b e_b*) F lies in theta(e_b' e_b'*) F, as e_b' e_b'* e_b' = e_b'
    corr = Correspondence(mod, E.base, Homomorphism(E.base, H_B, imgs))
    corr.left_action.validate(tol)

    tp = _unit_tensor(E_corr, F, corr, method, tol)
    U = tp.realize(np.concatenate([theta.apply_many(E.basis @ e.conj().T, tol) @ V
                                   for e, V in zip(family, isometries)], axis=2))
    unitary, residuals = _certify(method, tp, F_corr, theta, U)
    report = {
        "dims": {"correspondence": mod.dim, "correspondence_total": H_B,
                 "F_total": F.dim_H},
        **residuals,
    }
    aux = {"E": E, "F": F, "theta": theta, "family": family,
           "isometries": isometries, "offsets": offs, "tp_unit": tp}
    return FactorizationResult(method, corr, unitary, report, aux)


def factor_unit_vector(E: HilbertModule, F: HilbertModule, theta: Homomorphism,
                       xi, tol: float = DEFAULT_TOL) -> FactorizationResult:
    """Compression method: the QONS method on the one-member family {xi}.
    corr = range of theta(xi xi*) inside F with left action
    b . y = theta(xi b xi*) y; unitary x . y -> theta(x xi*) y."""
    xi = as_matrix(xi)
    if not verify_unit_vector(E, xi, tol):
        raise PreconditionError("xi is not a unit vector of E")
    res = _compressions("unit_vector", E, F, theta, [xi], tol)
    res.aux.update(xi=xi, isometry=res.aux["isometries"][0])
    return res


def factor_qons(E: HilbertModule, F: HilbertModule, theta: Homomorphism,
                family, tol: float = DEFAULT_TOL) -> FactorizationResult:
    """Direct-sum method along a quasi-orthonormal family (e_b): the direct
    sum of the compressions theta(e_b e_b*) F (see ``_compressions``)."""
    family = [as_matrix(e) for e in family]
    if not family:
        raise PreconditionError("empty quasi-orthonormal family")
    fam_res = check_qons_family(E, family, tol)
    if fam_res > QONS_TOL:
        raise PreconditionError(
            f"family violates the quasi-orthonormal conditions (residual {fam_res:.3e})"
        )
    res = _compressions("qons", E, F, theta, family, tol)
    res.report["dims"]["summands"] = [V.shape[1] for V in res.aux["isometries"]]
    res.report["family_residual"] = fam_res
    return res


def factor_commutant(E: HilbertModule, F: HilbertModule, theta: Homomorphism,
                     tol: float = DEFAULT_TOL):
    """Intertwiner-space method.

    prime = {X in B(H_E, H_F) : theta(a) X = X a} carries inner product
    rho'^{-1}(X* Y) over the base commutant and a left action of the target
    commutant; the factorizing correspondence is the bimodule commutant of
    prime, and the unitary is realized through the flip identification.
    Returns (prime, result).
    """
    full, _ = is_full(E, tol)
    if not full:
        raise PreconditionError("the commutant method requires a full module")
    E_corr, F_corr = validate_theta(E, F, theta, tol)
    W = intertwiner_space(theta, tol)
    # totality of the intertwiner space on H_F
    tot_rank = column_support(W.mats, tol, "intertwiner totality")[0]
    if tot_rank != F.dim_H:
        raise ValidationError(
            f"intertwiner space acts on a proper subspace ({tot_rank} of {F.dim_H})"
        )
    rho_p = commutant_lifting(E, tol)
    sigma_p = commutant_lifting(F, tol)

    # re-concretize prime over the base commutant: W over rho'(B') tensored
    # with G (basis 1_G), where rho'^-1(c) = V* (c (x) 1_m) V (inverse ``_amplifier``)
    G = HilbertModule(rho_p.domain, OperatorSpace(E.dim_G, E.dim_G, np.eye(E.dim_G)[None] + 0j))
    prime, S_P, S_P_pinv, gap_P = _tensor(W.mats, G, _amplifier(rho_p, tol, inverse=True), tol,
                                          "re-concretized intertwiner module",
                                          sigma_p.domain, sigma_p)
    prime_mod, rP = prime.module, S_P.shape[0]
    # rho''s singular values, as a map on HS norms, are (nu_p / mu_p)^(1/2)
    ratios = [nu / mu for _, nu, mu in _representation_frame(rho_p, tol).blocks if mu]
    conditioning = float(np.sqrt(max(ratios) / min(ratios) if min(ratios) else np.inf))

    # flip-chain link: the abstract E (.) W (.) G Gram equals the concrete one
    flip = flip_unitary(E, W, rho_p, tol)

    # the bimodule commutant of prime over F's base C: a module by pi(c') Y b =
    # Y b c' and Y* Z in C'' = C, pi prime's left action; tau(b) commutes with pi
    Fpp_mod = _trimmed_module(F.base, intertwiner_space(prime.left_action, tol), tol)
    if Fpp_mod.h_embed is not None:
        raise ValidationError("factorizing correspondence is degenerate on its total space")
    lifted = commutant_lifting(prime_mod, tol)
    tau = Homomorphism(E.base, rP, lifted.apply_many(E.base.basis, tol))
    tau.validate(tol)
    Fpp = Correspondence(Fpp_mod, E.base, tau)

    tp = _unit_tensor(E_corr, F, Fpp, "commutant", tol)
    # x_i (x) S_P (w_j (x) g) -> w_j x_i g, blocks (i, j)
    U = tp.realize(np.matmul(W.mats[None], E.basis[:, None]), inner=S_P_pinv)
    unitary, residuals = _certify("commutant", tp, F_corr, theta, U)
    report = {
        "dims": {"correspondence": Fpp_mod.dim, "correspondence_total": rP,
                 "prime": prime_mod.dim, "F_total": F.dim_H},
        **residuals,
        "rho_inverse_conditioning": conditioning,
        "chain": {"totality_rank": tot_rank,
                  "flip_residual": flip.residual_unitary,
                  "gram_gap": gap_P},
    }
    aux = {"E": E, "F": F, "theta": theta, "W": W, "S_P": S_P,
           "S_P_pinv": S_P_pinv, "rho_p": rho_p, "sigma_p": sigma_p,
           "prime": prime, "tp_unit": tp, "flip": flip}
    return prime, FactorizationResult("commutant", Fpp, unitary, report, aux)


# ---------------------------------------------------------------------------
# comparisons


def compare(result_a: FactorizationResult, result_b: FactorizationResult,
            via: FactorizationResult | None = None,
            tol: float = DEFAULT_TOL) -> ModuleUnitary:
    """Certified unitary corr_a -> corr_b, built from the defining formula of
    the ordered pair where one exists, reversed or composed through the
    dual-method result otherwise (composition is reported in meta).
    """
    a, b = result_a.method, result_b.method
    _require_same_theta(result_a, result_b)
    if a == b == "dual" or result_a is result_b:
        return identity_unitary(result_a.correspondence)
    direct = _DIRECT_COMPARISONS.get((a, b))
    if direct is not None:
        return direct(result_a, result_b, tol)
    reverse = _DIRECT_COMPARISONS.get((b, a))
    if reverse is not None:
        return adjoint_unitary(reverse(result_b, result_a, tol))
    if via is None or via.method != "dual":
        raise UnsupportedPair(
            f"no direct formula for ({a} -> {b}); supply the dual-method "
            f"result to compose through"
        )
    return _through_dual(compare(via, result_a, None, tol), compare(via, result_b, None, tol))


def _through_dual(dual_to_a: ModuleUnitary, dual_to_b: ModuleUnitary) -> ModuleUnitary:
    """corr_a -> corr_b from the comparisons dual -> a and dual -> b."""
    out = compose_unitaries(adjoint_unitary(dual_to_a), dual_to_b)
    out.meta["composed"] = True
    out.meta["via"] = "dual"
    return out


def _require_same_theta(ra: FactorizationResult, rb: FactorizationResult) -> None:
    ta: Homomorphism = ra.aux["theta"]
    tb: Homomorphism = rb.aux["theta"]
    if ta is tb:
        return
    if ta.images.shape != tb.images.shape or \
            float(np.abs(ta.images - tb.images).max()) > AGREE_TOL:
        raise PreconditionError("results do not factor the same homomorphism")


def _cmp_dual_to_qons(ra, rb, tol):
    tp1: TensorProduct = ra.aux["tp_corr"]
    theta: Homomorphism = ra.aux["theta"]
    family = rb.aux["family"]
    isometries = rb.aux["isometries"]
    xstars = _adjoints(ra.aux["E"].basis)
    U = tp1.realize(np.concatenate([V.conj().T @ theta.apply_many(e @ xstars, tol)
                                    for e, V in zip(family, isometries)], axis=1))
    return certify_module_unitary(ra.correspondence, rb.correspondence, U,
                                  {"pair": ("dual", rb.method)})


def _cmp_unit_vector_to_unit_vector(ra, rb, tol):
    theta: Homomorphism = ra.aux["theta"]
    xi_a = ra.aux["xi"]
    xi_b = rb.aux["xi"]
    Va = ra.aux["isometry"]
    Vb = rb.aux["isometry"]
    U = Vb.conj().T @ theta.apply(xi_b @ xi_a.conj().T, tol) @ Va
    return certify_module_unitary(ra.correspondence, rb.correspondence, U,
                                  {"pair": ("unit_vector", "unit_vector")})


def _cmp_dual_to_commutant(ra, rb, tol):
    """Through the flip chain: x* (x) (w y g) -> w (x) <x, y> g, on the
    flip's concrete vectors [w_l y_m], whose right inverse the flip keeps.
    The stack of blocks (j, m, l) = S_P,l (x_j* y_m), in the flip's (m, l)
    order, is handed over as a function of j, so that it is formed in row
    blocks over j."""
    S_P = _column_blocks(rb.aux["S_P"], rb.aux["W"].dim)[None]
    pairs = _pairwise_inner(ra.aux["E"].basis)[:, :, None]
    U = ra.aux["tp_corr"].realize(lambda s: S_P @ pairs[s],
                                  inner=rb.aux["flip"].meta["right_inverse"])
    return certify_module_unitary(ra.correspondence, rb.correspondence, U,
                                  {"pair": ("dual", "commutant")})


_DIRECT_COMPARISONS = {
    ("dual", "unit_vector"): _cmp_dual_to_qons,
    ("dual", "qons"): _cmp_dual_to_qons,
    ("unit_vector", "unit_vector"): _cmp_unit_vector_to_unit_vector,
    ("dual", "commutant"): _cmp_dual_to_commutant,
}


# ---------------------------------------------------------------------------
# Hilbert-space special cases


def scalar_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """The scalar lambda with x* y = lambda 1 (for intertwiners of a full
    matrix algebra); computed as a normalized trace."""
    n = x.shape[1]
    return complex(np.trace(x.conj().T @ y) / n)


def _require_full_matrix_domain(theta: Homomorphism) -> int:
    n = theta.domain.ambient_dim
    if theta.domain.dim != n * n:
        raise PreconditionError("domain must be a full matrix algebra")
    return n


def _scalar_column_correspondence(m: int, matrices: np.ndarray) -> Correspondence:
    """A Hilbert space C^m packaged as a correspondence over the scalars."""
    scalars = build_algebra([(1, 1)])
    mod = HilbertModule(scalars, OperatorSpace(m, 1, np.eye(m, dtype=np.complex128)[:, :, None]))
    return Correspondence(mod, scalars,
                          Homomorphism(scalars, m,
                                       np.stack([np.eye(m, dtype=np.complex128)])),
                          meta={"matrices": matrices})


def hilbert_space_intertwiners(theta: Homomorphism, tol: float = DEFAULT_TOL):
    """The intertwiner space {x : theta(a) x = x a} of a unital representation
    of a full matrix algebra, with x (x) h -> x h the certified unitary."""
    n = _require_full_matrix_domain(theta)
    theta.validate(tol)
    k = theta.codomain_dim
    space = intertwiner_space(theta, tol)
    scaled = space.mats * np.sqrt(n)
    m = space.dim
    if m * n != k:
        raise ValidationError(f"dimension count failed: {m} * {n} != {k}")
    U = np.hstack(list(scaled))
    basis = theta.domain.basis
    ri = intertwining_residual(U, [np.kron(np.eye(m), a) for a in basis],
                               theta.apply_many(basis, tol))
    corr = _scalar_column_correspondence(m, scaled)
    u = ModuleUnitary(("intertwiners (x) H",), ("K",), U, unitarity_residual(U), ri,
                      {"kind": "intertwiner factor"})
    return corr, u


def hilbert_space_compression(theta: Homomorphism, omega, tol: float = DEFAULT_TOL):
    """The compression factor: range of theta(omega omega*) for a unit column
    omega, with h (x) x -> theta(h omega*) x the certified unitary."""
    n = _require_full_matrix_domain(theta)
    omega = np.asarray(omega, dtype=np.complex128).reshape(n, 1)
    if abs(np.linalg.norm(omega) - 1.0) > OMEGA_TOL:
        raise PreconditionError("omega must be a unit column")
    theta.validate(tol)
    k = theta.codomain_dim
    P = theta.apply(omega @ omega.conj().T, tol)
    V = _range_isometry(P, tol)
    m = V.shape[1]
    if n * m != k:
        raise ValidationError(f"dimension count failed: {n} * {m} != {k}")
    units = np.eye(n, dtype=np.complex128)[:, :, None] @ omega.conj().T
    U = np.hstack(list(theta.apply_many(units, tol) @ V))
    basis = theta.domain.basis
    ri = intertwining_residual(U, [np.kron(a, np.eye(m)) for a in basis],
                               theta.apply_many(basis, tol))
    corr = _scalar_column_correspondence(m, np.stack([V]))
    u = ModuleUnitary(("H (x) compression",), ("K",), U, unitarity_residual(U), ri,
                      {"kind": "compression factor"})
    corr.meta["isometry"] = V
    return corr, u


def intertwiner_composition_law(theta2: Homomorphism, theta1: Homomorphism,
                                tol: float = DEFAULT_TOL) -> ModuleUnitary:
    """Certifies intertwiners(theta2 . theta1) = intertwiners2 (x) intertwiners1
    via x2 (x) x1 -> x2 x1 (contravariant order)."""
    comp = theta2.compose(theta1, tol)
    ha, _ = hilbert_space_intertwiners(comp, tol)
    ha2, _ = hilbert_space_intertwiners(theta2, tol)
    ha1, _ = hilbert_space_intertwiners(theta1, tol)
    basis = ha.meta["matrices"]
    # column (x2, x1), x2 major: scalar_inner of each basis element with x2 x1
    prods = np.matmul(ha2.meta["matrices"][:, None], ha1.meta["matrices"][None])
    flat = basis.reshape(len(basis), -1)
    Wmat = flat.conj() @ prods.reshape(-1, flat.shape[1]).T / basis.shape[2]
    return ModuleUnitary(("intertwiners2 (x) intertwiners1",),
                         ("intertwiners of the composition",),
                         Wmat, unitarity_residual(Wmat), 0.0, {"law": "intertwiner composition"})


def compression_composition_law(theta2: Homomorphism, theta1: Homomorphism,
                                omega, omega2, tol: float = DEFAULT_TOL) -> ModuleUnitary:
    """Certifies compression(theta2 . theta1) = compression1 (x) compression2
    via x1 (x) x2 -> theta2(x1 omega2*) x2 (covariant order)."""
    comp = theta2.compose(theta1, tol)
    hb, _ = hilbert_space_compression(comp, omega, tol)
    hb1, _ = hilbert_space_compression(theta1, omega, tol)
    hb2, _ = hilbert_space_compression(theta2, omega2, tol)
    V = hb.meta["isometry"]
    V1 = hb1.meta["isometry"]
    V2 = hb2.meta["isometry"]
    k1 = theta2.domain.ambient_dim
    omega2 = np.asarray(omega2, dtype=np.complex128).reshape(k1, 1)
    # column (i, j), i major: V* theta2(x1_i omega2*) x2_j
    imgs = theta2.apply_many(V1.T[:, :, None] @ omega2.conj().T, tol)
    Wmat = (V.conj().T @ imgs @ V2).transpose(1, 0, 2).reshape(V.shape[1], -1)
    return ModuleUnitary(("compression1 (x) compression2",),
                         ("compression of the composition",),
                         Wmat, unitarity_residual(Wmat), 0.0, {"law": "compression composition"})


# ---------------------------------------------------------------------------
# Morita equivalence


def is_morita_equivalence(M: Correspondence, tol: float = DEFAULT_TOL) -> bool:
    """True iff M is full over its base and the left action is a
    *-isomorphism onto the finite-rank operators of M: its image lies in
    B^a(M) = K(M) and contains every rank-one operator x y*."""
    full, _ = is_full(M.module, tol)
    if not full:
        return False
    if not M.left_action.is_faithful(tol):
        return False
    if adjointable_residual(M.module, M.left_action.images, tol).max() > AGREE_TOL:
        return False
    img = M.left_action.image_space(tol)
    return bool(img.span_residual(finite_rank_products(M.module)).max() <= AGREE_TOL)
