"""Discrete product systems from iterated unital endomorphisms.

The members are the dual-method correspondences of the powers of the
endomorphism; multiplication unitaries realize

    (x_s* . y_s) (x) (x_t* . y_t)  ->  x_s* . theta^t(y_s x_t*) y_t

and are certified, together with the associativity coherences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .hilbmod import Correspondence, HilbertModule, Homomorphism, _adjoints, as_bimodule
from .numkernel import AGREE_TOL, DEFAULT_TOL, op_norm
from .tensorcalc import (
    ModuleUnitary,
    TensorProduct,
    _module_of,
    associator,
    certify_module_unitary,
    interior_tensor,
)
from .factorizations import (
    FactorizationResult,
    compression_composition_law,
    factor_dual,
    intertwiner_composition_law,
)

__all__ = [
    "ProductSystem",
    "discrete_product_system",
    "verify_associativity",
    "composition_contravariance",
]


@dataclass(eq=False)
class ProductSystem:
    E: HilbertModule
    theta: Homomorphism
    members: list  # Correspondence, index t-1
    results: list  # FactorizationResult per member
    mult: dict  # (s, t) -> ModuleUnitary
    tensors: dict  # (s, t) -> TensorProduct of E_s (.) E_t

    @property
    def steps(self) -> int:
        return len(self.members)

    def member(self, t: int) -> Correspondence:
        return self.members[t - 1]


def _chain_unitary(res_left: FactorizationResult, res_right: FactorizationResult,
                   res_comp: FactorizationResult, tol: float = DEFAULT_TOL):
    """Unitary corr_left (.) corr_right -> corr_comp realizing
    (x* . y) (x) (y'* . z) -> x* . theta_right(y y'*) z.

    All three are dual-method results: corr_left factors theta_left:
    Ba(E) -> Ba(F), corr_right factors theta_right: Ba(F) -> Ba(G), and
    corr_comp factors theta_right o theta_left.  Basis element z_i of
    corr_left is sum_j x_j* . eta_ij (``pullback``); the map is built in
    the coordinates of corr_comp's own tensor product and certified against
    the same correspondence.
    """
    theta_right: Homomorphism = res_right.aux["theta"]
    tp = interior_tensor(res_left.correspondence, res_right.correspondence, tol)
    # d[i, j, m]: coefficients of eta_ij along y_m
    d = res_left.aux["tp_corr"].pullback(res_left.correspondence.module.basis, tol)
    pairs = np.matmul(res_left.aux["F"].basis[:, None],
                      _adjoints(res_right.aux["E"].basis)[None])
    imgs = theta_right.apply_many(pairs.reshape(-1, *pairs.shape[2:]), tol)
    # z_i (x) coord_t(x_l* (x) g) -> sum_j x_j* . theta_right(eta_ij x_l*) g,
    # in corr_comp's coordinates S_comp [theta_right(eta_ij x_l*)]_j: blocks (i, l)
    moved = np.tensordot(d, imgs.reshape(*pairs.shape[:2], *imgs.shape[1:]), axes=1)
    n, k, l, g, _ = moved.shape
    blocks = res_comp.aux["tp_corr"].S @ moved.swapaxes(1, 2).reshape(n, l, k * g, g)
    U = tp.realize(blocks, inner=res_right.aux["tp_corr"].S_pinv)
    unit = certify_module_unitary(tp.result, res_comp.correspondence, U,
                                  {"kind": "tensor multiplication"})
    return unit, tp


def discrete_product_system(E: HilbertModule, theta: Homomorphism, n: int,
                            tol: float = DEFAULT_TOL) -> ProductSystem:
    """Members for t = 1..n from the powers of a unital endomorphism, plus
    certified multiplication unitaries for all s + t <= n."""
    if n < 1:
        raise PreconditionError("need at least one step")
    if theta.codomain_dim != E.dim_H:
        raise ValidationError("theta must be an endomorphism of the operators on E's total space")
    bad = np.flatnonzero(theta.domain.space.span_residual(theta.images) > AGREE_TOL)
    if bad.size:
        raise ValidationError(
            f"theta image of basis element {bad[0]} leaves the adjointable algebra")
    powers = [theta]
    for _ in range(n - 1):
        powers.append(theta.compose(powers[-1], tol))
    results = [factor_dual(E, E, power, tol) for power in powers]
    members = [r.correspondence for r in results]
    mult = {}
    tensors = {}
    for s in range(1, n):
        for t in range(1, n - s + 1):
            mult[(s, t)], tensors[(s, t)] = _chain_unitary(
                results[s - 1], results[t - 1], results[s + t - 1], tol)
    return ProductSystem(E, theta, members, results, mult, tensors)


def verify_associativity(ps: ProductSystem, tol: float = DEFAULT_TOL) -> dict:
    """Coherence residuals for all r + s + t <= n, plus the compatibility of
    the factorization unitaries with multiplication for s + t <= n.

    Whether the members are pairwise isomorphic as right modules is not
    decided; the report only lists their dimensions.
    """
    n = ps.steps
    report = {
        "member_dims": [m.module.dim for m in ps.members],
        "member_totals": [m.module.dim_H for m in ps.members],
        "mult_residuals": {f"{s}+{t}": ps.mult[(s, t)].residual
                           for (s, t) in sorted(ps.mult)},
        "triple": {},
        "module_action": {},
    }
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                if r + s + t > n:
                    continue
                report["triple"][f"{r},{s},{t}"] = _triple_residual(ps, r, s, t, tol)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            if s + t > n:
                continue
            report["module_action"][f"{s},{t}"] = _module_coherence_residual(
                ps, s, t, tol)
    flat = list(report["triple"].values()) + list(report["module_action"].values()) \
        + list(report["mult_residuals"].values())
    report["max_residual"] = max(flat) if flat else 0.0
    return report


def _lifted_total_map(tp_from: TensorProduct, tp_to: TensorProduct,
                      w: ModuleUnitary, side: str) -> np.ndarray:
    """Total-space matrix of (w (.) id) or (id (.) w) between two tensors."""
    if side == "right":  # x_i (x) kappa -> x_i (x) w kappa
        return tp_from.realize(tp_to.blocks() @ w.map)
    # x_i (x) kappa -> (w x_i) (x) kappa, with w x_i = sum_c C[i, c] x'_c
    C = _module_of(w.target).space.coeffs(w.map @ _module_of(w.source).basis)
    return tp_from.realize(np.tensordot(C, tp_to.blocks(), axes=1))


def _triple_residual(ps: ProductSystem, r: int, s: int, t: int, tol: float) -> float:
    """|| mult(r+s,t) (mult(r,s) (.) id) - mult(r,s+t) (id (.) mult(s,t)) alpha ||."""
    Er, Es, Et = ps.member(r), ps.member(s), ps.member(t)
    tp_rs = ps.tensors[(r, s)]
    tp_st = ps.tensors[(s, t)]
    tp_left = interior_tensor(tp_rs.result, Et, tol)          # (E_r . E_s) . E_t
    tp_right = interior_tensor(Er, tp_st.result, tol)         # E_r . (E_s . E_t)
    alpha = associator(tp_left, tp_rs, tp_right, tp_st, tol)

    left1 = _lifted_total_map(tp_left, ps.tensors[(r + s, t)],
                              ps.mult[(r, s)], "left")
    path1 = ps.mult[(r + s, t)].map @ left1
    right1 = _lifted_total_map(tp_right, ps.tensors[(r, s + t)],
                               ps.mult[(s, t)], "right")
    path2 = ps.mult[(r, s + t)].map @ right1 @ alpha.map
    return float(op_norm(path1 - path2))


def _module_coherence_residual(ps: ProductSystem, s: int, t: int, tol: float) -> float:
    """Compatibility of u_t (u_s (.) id) with u_{s+t} (id (.) mult(s,t)) on
    (E (.) E_s) (.) E_t."""
    res_s = ps.results[s - 1]
    res_t = ps.results[t - 1]
    res_st = ps.results[s + t - 1]
    tp_Es = res_s.aux["tp_unit"]          # E (.) E_s with total ~ H_E
    tp_st = ps.tensors[(s, t)]            # E_s (.) E_t
    Et = ps.member(t)
    tp_left = interior_tensor(tp_Es.result, Et, tol)    # (E . E_s) . E_t
    tp_right = interior_tensor(as_bimodule(ps.E, res_s.aux["theta"].domain, tol),
                               tp_st.result, tol)       # E . (E_s . E_t)
    alpha = associator(tp_left, tp_Es, tp_right, tp_st, tol)

    us_lift = _lifted_total_map(tp_left, res_t.aux["tp_unit"],
                                _as_module_unitary(res_s), "left")
    path1 = res_t.unitary.map @ us_lift
    mult_lift = _lifted_total_map(tp_right, res_st.aux["tp_unit"],
                                  ps.mult[(s, t)], "right")
    path2 = res_st.unitary.map @ mult_lift @ alpha.map
    return float(op_norm(path1 - path2))


def _as_module_unitary(res: FactorizationResult) -> ModuleUnitary:
    """The factorization unitary viewed as a module map E (.) E_t -> E."""
    tp = res.aux["tp_unit"]
    target = as_bimodule(res.aux["F"])
    return certify_module_unitary(tp.result, target, res.unitary.map, {})


def composition_contravariance(E: HilbertModule, F: HilbertModule,
                               G_mod: HilbertModule,
                               theta1: Homomorphism, theta2: Homomorphism,
                               tol: float = DEFAULT_TOL) -> dict:
    """Certifies corr(theta2 o theta1) = corr(theta1) (.) corr(theta2) for
    the dual method (covariant order) and, when both algebras are full
    matrix algebras, the two opposite tensor orders of the Hilbert-space
    factors."""
    res1 = factor_dual(E, F, theta1, tol)
    res2 = factor_dual(F, G_mod, theta2, tol)
    res_comp = factor_dual(E, G_mod, theta2.compose(theta1, tol), tol)
    unit, tp = _chain_unitary(res1, res2, res_comp, tol)
    report = {
        "dims": {"corr1": res1.correspondence.module.dim,
                 "corr2": res2.correspondence.module.dim,
                 "composite": res_comp.correspondence.module.dim,
                 "tensor": tp.result.module.dim},
        "residual": unit.residual,
    }
    if theta1.domain.dim == theta1.domain.ambient_dim ** 2 and \
            theta2.domain.dim == theta2.domain.ambient_dim ** 2:
        # Hilbert-space case: both adjointable algebras are full matrix algebras
        ha = intertwiner_composition_law(theta2, theta1, tol)
        omega = np.zeros(theta1.domain.ambient_dim); omega[0] = 1.0
        omega2 = np.zeros(theta2.domain.ambient_dim); omega2[0] = 1.0
        hb = compression_composition_law(theta2, theta1, omega, omega2, tol)
        report["hilbert_space"] = {
            "intertwiner_order_residual": ha.residual,
            "compression_order_residual": hb.residual,
        }
    return report
