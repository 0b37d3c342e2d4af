import numpy as np
import pytest
import scipy.linalg

from modfactor.cstar import hermitian_basis
from modfactor.errors import ValidationError
from modfactor.factorizations import factor_dual
from modfactor.harness import generate_random_instance
from modfactor.hilbmod import (
    Homomorphism,
    as_bimodule,
    dual_module,
    finite_rank_algebra,
)
from modfactor.numkernel import op_norm
from modfactor.prodsys import (
    _chain_unitary,
    composition_contravariance,
    discrete_product_system,
    verify_associativity,
)
from modfactor.tensorcalc import _module_of, associator, interior_tensor
from conftest import amplification, column_module
from test_acceptance import BATCH_SPECS


def identity_endo(E):
    K = finite_rank_algebra(E)
    return Homomorphism(K, E.dim_H, K.basis.copy())


def inner_endo(E, seed):
    """theta = Ad(u) for a unitary u in the adjointable algebra."""
    K = finite_rank_algebra(E)
    rng = np.random.default_rng(seed)
    hb = hermitian_basis(K.space)
    h = np.tensordot(rng.standard_normal(hb.shape[0]), hb, axes=1)
    u = scipy.linalg.expm(1j * h)
    imgs = np.stack([u @ b @ u.conj().T for b in K.basis])
    return Homomorphism(K, E.dim_H, imgs)


def test_identity_endomorphism_members_are_the_base(golden_module, block_algebra):
    ps = discrete_product_system(golden_module, identity_endo(golden_module), 3)
    assert [m.module.dim for m in ps.members] == [block_algebra.dim] * 3
    rep = verify_associativity(ps)
    assert rep["max_residual"] <= 1e-10


@pytest.mark.parametrize("seed", range(1000, 1010))
def test_identity_endomorphism_on_seeded_modules(seed):
    # E_s (.) E_t -> E_{s+t} must be certified against the stored member,
    # whose Gram coordinates are the ones the map was built in
    spec = BATCH_SPECS[(seed - 1000) % len(BATCH_SPECS)]
    E = generate_random_instance(spec, seed).E
    rep = verify_associativity(discrete_product_system(E, identity_endo(E), 3))
    assert rep["max_residual"] <= 1e-8


def test_inner_endomorphism_on_columns_gives_lines():
    E = column_module(3)
    theta = inner_endo(E, 4)
    ps = discrete_product_system(E, theta, 4)
    # oracle: the intertwiner space of a unital endomorphism of a full
    # matrix algebra is one-dimensional, so every member is a line
    assert [m.module.dim for m in ps.members] == [1, 1, 1, 1]
    rep = verify_associativity(ps)
    assert rep["max_residual"] <= 1e-8


def test_inner_endomorphism_on_golden_module(golden_module):
    theta = inner_endo(golden_module, 11)
    ps = discrete_product_system(golden_module, theta, 4)
    dims = [m.module.dim for m in ps.members]
    assert len(set(dims)) == 1  # stable dimensions along the powers
    rep = verify_associativity(ps)
    assert rep["max_residual"] <= 1e-8
    # dimension bound with the multiplication certifying the quotient
    for (s, t), u in ps.mult.items():
        ds = ps.member(s).module.dim
        dt = ps.member(t).module.dim
        assert ps.member(s + t).module.dim <= ds * dt
        assert u.residual <= 1e-8


def test_rejects_non_endomorphism(golden_module):
    K = finite_rank_algebra(golden_module)
    # images leave the adjointable algebra: send everything through a
    # rank-one compression into the wrong corner, then validate fails
    imgs = np.stack([np.eye(3, dtype=complex) * np.trace(b) / 3 for b in K.basis])
    theta = Homomorphism(K, 3, imgs)
    with pytest.raises(ValidationError):
        discrete_product_system(golden_module, theta, 2)


def test_names_the_first_image_outside_the_domain(golden_module):
    from test_factorizations import theta_outside_K
    with pytest.raises(ValidationError, match="theta image of basis element 3 "):
        discrete_product_system(golden_module, theta_outside_K(golden_module), 2)


def test_composition_identity_comparison(golden_module):
    theta = identity_endo(golden_module)
    rep = composition_contravariance(golden_module, golden_module, golden_module,
                                     theta, theta)
    assert rep["residual"] <= 1e-9
    assert rep["dims"]["composite"] == rep["dims"]["corr1"]


def test_composition_of_amplifications_multiplies_multiplicities():
    n, m1, m2 = 2, 2, 3
    E = column_module(n)
    F = column_module(n * m1)
    G = column_module(n * m1 * m2)
    theta1 = amplification(n, m1)
    theta2 = amplification(n * m1, m2)
    rep = composition_contravariance(E, F, G, theta1, theta2)
    assert rep["residual"] <= 1e-8
    assert rep["dims"]["corr1"] == m1
    assert rep["dims"]["corr2"] == m2
    assert rep["dims"]["composite"] == m1 * m2
    hs = rep["hilbert_space"]
    assert hs["intertwiner_order_residual"] <= 1e-8
    assert hs["compression_order_residual"] <= 1e-8


def test_composition_on_seeded_modules():
    from modfactor.harness import GenSpec, generate_random_instance
    inst = generate_random_instance(
        GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(2, 1)],
                module_multiplicity=2, corr_multiplicity=1), 13)
    E, F, theta1 = inst.E, inst.F, inst.theta
    theta2 = identity_endo(F)
    rep = composition_contravariance(E, F, F, theta1, theta2)
    assert rep["residual"] <= 1e-8


def test_report_lists_member_dimensions(golden_module):
    ps = discrete_product_system(golden_module, inner_endo(golden_module, 2), 3)
    rep = verify_associativity(ps)
    assert len(rep["member_dims"]) == 3
    assert set(rep["triple"]) == {"1,1,1"}
    assert set(rep["module_action"]) == {"1,1", "1,2", "2,1"}


# The per-element constructions that the batched _chain_unitary and
# associator replace, kept as references: one coefficient solve,
# homomorphism image and Kronecker product per column, and the
# least-squares map through those columns.


def map_from_spanning(domain_vecs, target_vecs):
    return target_vecs @ np.linalg.pinv(domain_vecs)


def _block(tp, i):
    w = tp.right_total
    return tp.S[:, i * w:(i + 1) * w]


def chain_unitary_loop(res_left, res_right, res_comp, tol=1e-9):
    theta_right = res_right.aux["theta"]
    tp = interior_tensor(res_left.correspondence, res_right.correspondence, tol)
    left_mod = res_left.correspondence.module
    F_mid = res_left.aux["F"]
    tp_left, tp_right, tp_comp = (r.aux["tp_corr"] for r in (res_left, res_right, res_comp))
    dual_right = dual_module(res_right.aux["E"]).module
    lift = dual_right.h_embed if dual_right.h_embed is not None else np.eye(dual_right.dim_H)
    dom, tgt = [], []
    for j in range(res_left.aux["E"].dim):
        for m in range(F_mid.dim):
            c = left_mod.coeffs(_block(tp_left, j) @ F_mid.basis[m])
            for l in range(dual_right.dim):
                img = theta_right.apply(F_mid.basis[m] @ (lift @ dual_right.basis[l]), tol)
                dom.append(tp.S @ np.kron(c[:, None], _block(tp_right, l)))
                tgt.append(_block(tp_comp, j) @ img)
    return map_from_spanning(np.hstack(dom), np.hstack(tgt))


def associator_loop(tp_left, tp_xy, tp_right, tp_yz):
    kx, ky = _module_of(tp_xy.left).dim, _module_of(tp_xy.right).dim
    Y, XY, wz = _module_of(tp_xy.right), _module_of(tp_xy.result), tp_yz.right_total
    dom, tgt = [], []
    for a in range(kx):
        for b in range(ky):
            c = XY.coeffs(_block(tp_xy, a) @ Y.basis[b])
            for u in range(wz):
                kappa = np.eye(wz)[u]
                dom.append(tp_left.S @ np.kron(c, kappa))
                inner = tp_yz.S @ np.kron(np.eye(ky)[b], kappa)
                tgt.append(tp_right.S @ np.kron(np.eye(kx)[a], inner))
    return map_from_spanning(np.stack(dom, axis=1), np.stack(tgt, axis=1))


def _associator_cases(ps):
    """The associator arguments of verify_associativity on a 3-step system:
    the triple (1, 1, 1) and the module coherences (s, t), s + t <= 3."""
    tp_11 = ps.tensors[(1, 1)]
    yield (interior_tensor(tp_11.result, ps.member(1)), tp_11,
           interior_tensor(ps.member(1), tp_11.result), tp_11)
    for s, t in ((1, 1), (1, 2), (2, 1)):
        tp_Es = ps.results[s - 1].aux["tp_unit"]
        tp_st = ps.tensors[(s, t)]
        E_left = as_bimodule(ps.E, ps.results[s - 1].aux["theta"].domain)
        yield (interior_tensor(tp_Es.result, ps.member(t)), tp_Es,
               interior_tensor(E_left, tp_st.result), tp_st)


@pytest.mark.parametrize("seed", [None] + list(range(2000, 2005)))
def test_batched_maps_match_the_per_element_loops(seed, golden_module):
    # the golden module under an inner automorphism, and the inputs of the
    # product-system benchmark at seed 2000, ops 0-4
    if seed is None:
        E, theta = golden_module, inner_endo(golden_module, 11)
    else:
        E = generate_random_instance(BATCH_SPECS[(seed - 2000) % len(BATCH_SPECS)], seed).E
        theta = inner_endo(E, seed)
    ps = discrete_product_system(E, theta, 3)
    for (s, t), u in ps.mult.items():
        ref = chain_unitary_loop(ps.results[s - 1], ps.results[t - 1], ps.results[s + t - 1])
        assert op_norm(u.map - ref) <= 1e-12, (s, t)
    for args in _associator_cases(ps):
        assert op_norm(associator(*args).map - associator_loop(*args)) <= 1e-12


def test_batched_chain_matches_the_loop_across_modules():
    # E -> F -> G with three different modules (composition_contravariance)
    n, m1, m2 = 2, 2, 3
    E, F, G = column_module(n), column_module(n * m1), column_module(n * m1 * m2)
    theta1, theta2 = amplification(n, m1), amplification(n * m1, m2)
    res1, res2 = factor_dual(E, F, theta1), factor_dual(F, G, theta2)
    res_comp = factor_dual(E, G, theta2.compose(theta1))
    unit, _ = _chain_unitary(res1, res2, res_comp)
    assert op_norm(unit.map - chain_unitary_loop(res1, res2, res_comp)) <= 1e-12
