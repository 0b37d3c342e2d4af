import numpy as np
import pytest
import scipy.linalg

from modfactor.cstar import build_algebra, hermitian_basis
from modfactor.errors import ValidationError
from modfactor.harness import generate_random_instance
from modfactor.hilbmod import (
    Homomorphism,
    build_module,
    finite_rank_algebra,
)
from modfactor.prodsys import (
    composition_contravariance,
    discrete_product_system,
    verify_associativity,
)
from test_acceptance import BATCH_SPECS


def column_module(n):
    C1 = build_algebra([(1, 1)])
    cols = [np.zeros((n, 1), dtype=complex) for _ in range(n)]
    for i, c in enumerate(cols):
        c[i, 0] = 1.0
    return build_module(C1, cols)


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


def amplification(n, m):
    Mn = build_algebra([(n, 1)])
    return Homomorphism(Mn, n * m, np.stack([np.kron(b, np.eye(m)) for b in Mn.basis]))


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
