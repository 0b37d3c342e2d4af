import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfactor import cstar, hilbmod, numkernel
from modfactor.cstar import (
    FiniteCStarAlgebra,
    algebra_from_basis,
    build_algebra,
    commutant,
    star_isomorphic,
)
from modfactor.errors import (
    ModfactorError,
    NonFiniteInput,
    NotInModule,
    PreconditionError,
    ValidationError,
)
from modfactor.hilbmod import (
    Certificate,
    Correspondence,
    HilbertModule,
    Homomorphism,
    adjointable_algebra,
    adjointable_residual,
    algebra_bimodule,
    as_bimodule,
    build_module,
    commutant_bimodule,
    commutant_lifting,
    dual_module,
    dual_qons_family,
    finite_rank_algebra,
    fullification,
    identity_homomorphism,
    inner_product,
    intertwiner_space,
    is_full,
    module_from_parts,
    module_from_representation,
    module_over_itself,
    quasi_orthonormal_system,
    verify_unit_vector,
)
from modfactor.numkernel import (
    OperatorSpace,
    hs_orthonormalize,
    op_norm,
    row_blocks,
    subspace_equal,
)
from conftest import (
    adjoint_pair,
    batch_instances,
    column_module,
    corner_module,
    dense_failing_pair,
    dense_product_residuals,
    haar_conjugated,
    instance_a,
    matrix_unit,
    spy_invariance,
    spy_product_residuals,
    traced_peak,
)


def scalars(n=1):
    return build_algebra([(1, 1)] * n) if n > 1 else build_algebra([(1, 1)])


def seeded_module(seed, blocks=((1, 1), (2, 1)), mult=2):
    from modfactor.harness import GenSpec, generate_random_instance
    spec = GenSpec(blocks_B=list(blocks), blocks_C=[(1, 1)],
                   module_multiplicity=mult, corr_multiplicity=1)
    return generate_random_instance(spec, seed).E


class TestBuildModule:
    def test_golden_module(self, golden_module):
        assert golden_module.dim == 4
        assert golden_module.dim_G == golden_module.dim_H == 3
        assert golden_module.trimmed_from is None

    def test_algebra_over_itself(self):
        B = build_algebra([(2, 1)])
        E = module_over_itself(B)
        assert E.dim == 4

    def test_algebra_bimodule_is_the_algebra_on_its_own_basis(self, monkeypatch, rng):
        B = algebra_from_basis(haar_conjugated([(1, 1), (2, 2)], rng))
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return hs_orthonormalize(*args, **kwargs)

        for mod in (hilbmod, cstar):
            monkeypatch.setattr(mod, "hs_orthonormalize", spy)
        X = algebra_bimodule(B)
        assert calls == []
        X.validate()
        eq, dist = subspace_equal(X.module.space, B.space)
        assert eq, dist
        assert X.module.dim_H == X.module.dim_G == B.ambient_dim and X.module.h_embed is None
        hilbmod._validate_module(X.module, 1e-9)

    def test_columns_over_scalars(self):
        B = scalars()
        g1 = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        g2 = np.array([[0.0], [1.0], [1.0]], dtype=complex) / np.sqrt(2)
        E = build_module(B, [g1, g2])
        # scalars add nothing under the right action, H trims to the column span
        assert E.dim == 2
        assert E.dim_H == 2
        assert E.trimmed_from == 3

    def test_zero_module_rejected(self, block_algebra):
        empty = OperatorSpace(3, 3, np.zeros((0, 3, 3), dtype=complex))
        with pytest.raises(ValidationError, match="module is zero"):
            module_from_parts(block_algebra, empty)

    def test_inner_product_outside_base_rejected(self):
        B = build_algebra([(1, 1), (1, 1)])  # diagonal algebra in M2
        # the off-diagonal flip against the identity has <x, y> = x outside B
        with pytest.raises(ValidationError):
            build_module(B, [np.array([[0, 1], [1, 0]], dtype=complex),
                             np.eye(2, dtype=complex)])


class TestNonFiniteInput:
    def _nan(self):
        g = matrix_unit(2, 1)
        g[1, 2] = np.nan
        return g

    def test_build_module(self, block_algebra):
        with pytest.raises(NonFiniteInput) as err:
            build_module(block_algebra, [self._nan()])
        assert isinstance(err.value, ModfactorError)
        assert isinstance(err.value, ValueError)

    def test_apply(self, block_algebra):
        hom = identity_homomorphism(block_algebra)
        with pytest.raises(NonFiniteInput):
            hom.apply(self._nan())
        with pytest.raises(NonFiniteInput):
            hom.apply_many(np.stack([np.eye(3), self._nan()]))


class TestInnerProduct:
    def test_matrix_units(self, golden_module):
        v = inner_product(golden_module, matrix_unit(2, 1), matrix_unit(2, 1))
        assert np.allclose(v, matrix_unit(1, 1), atol=1e-12)

    def test_unit_column(self):
        E = column_module(3)
        x = E.basis[0]
        assert np.allclose(inner_product(E, x, x), [[1.0]], atol=1e-12)

    def test_matches_direct_multiplication(self, golden_module, rng):
        c1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = np.tensordot(c1, golden_module.basis, axes=1)
        y = np.tensordot(c2, golden_module.basis, axes=1)
        assert np.allclose(inner_product(golden_module, x, y),
                           x.conj().T @ y, atol=1e-12)

    def test_rejects_outside_elements(self, golden_module):
        with pytest.raises(NotInModule):
            inner_product(golden_module, np.eye(3), matrix_unit(2, 1))


class TestCoeffs:
    def test_batch_gives_the_coefficients(self, golden_module, rng):
        c = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        batch = np.tensordot(c, golden_module.basis, axes=1)
        assert np.abs(golden_module.coeffs(batch) - c).max() <= 1e-12

    def test_batch_with_one_element_off_the_span(self, golden_module):
        # E11 is orthogonal to the four off-corner matrix units; its
        # residual 1 exceeds tol * max(1, ||E11||) however the batch is shaped
        batch = np.concatenate([golden_module.basis, matrix_unit(1, 1)[None]])
        with pytest.raises(NotInModule, match="residual 1.000e"):
            golden_module.coeffs(batch)
        with pytest.raises(NotInModule):
            golden_module.coeffs(batch[None, ::-1])
        golden_module.coeffs(batch[:-1])  # the in-span part passes


class TestOperatorAlgebras:
    def test_golden_finite_rank(self, golden_module, block_algebra):
        K = finite_rank_algebra(golden_module)
        expected = hs_orthonormalize(
            [matrix_unit(1, 1), matrix_unit(2, 2), matrix_unit(3, 3),
             matrix_unit(2, 3), matrix_unit(3, 2)])
        assert K.dim == 5
        assert subspace_equal(K.space, expected)[0]
        assert star_isomorphic(K, block_algebra)

    def test_full_matrix_module(self):
        B = build_algebra([(3, 1)])
        E = module_over_itself(B)
        assert finite_rank_algebra(E).dim == 9

    def test_column_module(self):
        E = column_module(4)
        assert finite_rank_algebra(E).dim == 16
        assert adjointable_algebra(E).dim == 16

    def test_adjointable_equals_finite_rank(self, golden_module):
        K = finite_rank_algebra(golden_module)
        Ba = adjointable_algebra(golden_module)
        eq, dist = subspace_equal(K.space, Ba.space)
        assert eq, dist

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adjointable_equals_finite_rank_random(self, seed):
        E = seeded_module(seed)
        eq, dist = subspace_equal(finite_rank_algebra(E).space,
                                  adjointable_algebra(E).space)
        assert eq, dist


class TestDual:
    def test_golden_dual(self, golden_module, block_algebra):
        d = dual_module(golden_module)
        assert d.module.dim == 4
        assert star_isomorphic(d.base, block_algebra)

    def test_double_dual_recovers_module(self, golden_module):
        dd = dual_module(dual_module(golden_module).module)
        eq, dist = subspace_equal(dd.module.space, golden_module.space)
        assert eq, dist

    def test_algebra_over_itself_swaps_sides(self, block_algebra):
        E = module_over_itself(block_algebra)
        d = dual_module(E)
        eq, _ = subspace_equal(d.module.space, E.space)
        assert eq  # B* = B concretely, with left/right roles exchanged
        assert subspace_equal(d.base.space, block_algebra.space)[0]


class TestFullness:
    def test_golden_is_full(self, golden_module, block_algebra):
        full, ideal = is_full(golden_module)
        assert full
        assert ideal.dim == block_algebra.dim

    def test_corner_module_is_not_full(self, block_algebra):
        E = build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
        full, ideal = is_full(E)
        assert not full
        assert ideal.dim == 1  # inner products generate only the scalar corner
        E_full, support = fullification(E)
        assert E_full.base.dim == 1
        assert E_full.dim_G == 1
        assert support.shape == (3, 1)
        assert is_full(E_full)[0]

    def test_module_over_itself_full(self, block_algebra):
        assert is_full(module_over_itself(block_algebra))[0]

    @staticmethod
    def _triple_ideal(E, tol=1e-9):
        """The ideal generated by the inner products s as the span of s,
        b1 s, s b1 and b1 s b2 over base basis elements b1, b2."""
        inner = hs_orthonormalize(
            hilbmod._pairwise_inner(E.basis).reshape(-1, E.dim_G, E.dim_G), tol)
        triples = []
        for s in inner.mats:
            triples += [s] + [b @ s for b in E.base.basis] + [s @ b for b in E.base.basis]
            triples += [b1 @ s @ b2 for b1 in E.base.basis for b2 in E.base.basis]
        return hs_orthonormalize(triples, tol)

    @pytest.mark.parametrize("case", ["golden", "corner", "random_corner",
                                      "seeded_1", "seeded_2", "seeded_3"])
    def test_inner_products_already_span_the_ideal(self, case, golden_module,
                                                   block_algebra):
        if case == "golden":
            E = golden_module
        elif case in ("corner", "random_corner"):
            # random_corner: the ideal is the M2 block
            E = corner_module(case, block_algebra)
        else:
            E = seeded_module(int(case[-1]))
        span = hilbmod._ideal_data(E, 1e-9)[0]
        eq, dist = subspace_equal(span, self._triple_ideal(E), 1e-9)
        assert eq, dist
        assert is_full(E)[0] == (case not in ("corner", "random_corner"))


class TestUnitVectors:
    def test_unit_of_algebra_module(self, block_algebra):
        E = module_over_itself(block_algebra)
        assert verify_unit_vector(E, np.eye(3))

    def test_matrix_unit_is_not_a_unit_vector(self, golden_module):
        assert not verify_unit_vector(golden_module, matrix_unit(2, 1))

    def test_rank_certificate_for_golden(self, golden_module, rng):
        # for xi = a E12 + b E13 + c E21 + d E31 the lower 2x2 corner of
        # <xi, xi> is the outer product of (a, b), hence rank <= 1 and never
        # the identity; checked for many random coefficient vectors
        for _ in range(200):
            coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            xi = np.tensordot(coeff, golden_module.basis, axes=1)
            gram = xi.conj().T @ xi
            corner = gram[1:, 1:]
            w = np.array([xi[0, 1], xi[0, 2]])
            assert np.allclose(corner, np.outer(w.conj(), w), atol=1e-10)
            s = np.linalg.svd(corner, compute_uv=False)
            assert s[1] <= 1e-10  # rank <= 1 < 2, so never the corner identity
            assert not verify_unit_vector(golden_module, xi)


class TestQuasiOrthonormalSystems:
    def test_full_matrix_algebra(self):
        B = build_algebra([(2, 1)])
        q = quasi_orthonormal_system(module_over_itself(B))
        assert q.residual <= 1e-10

    def test_golden_module_members(self, golden_module):
        q = quasi_orthonormal_system(golden_module)
        assert q.residual <= 1e-10
        assert len(q) == 3
        mods = [np.abs(e) for e, _ in q.members]
        assert np.allclose(mods[0], matrix_unit(2, 1), atol=1e-10)
        assert np.allclose(mods[1], matrix_unit(3, 1), atol=1e-10)
        assert np.allclose(mods[2], matrix_unit(1, 2), atol=1e-10)

    def test_column_module(self):
        q = quasi_orthonormal_system(column_module(3))
        assert len(q) == 3
        for _, p in q.members:
            assert np.allclose(p, [[1.0]], atol=1e-10)

    def test_roundoff_does_not_choose_the_members(self):
        # seeded modules and their duals tie in ||q L_x|| at several steps: a
        # 1e-15 change of the basis keeps the member order and the supports
        E = seeded_module(1)
        rng = np.random.default_rng(0)
        for M in (E, dual_module(E).module):
            ref = quasi_orthonormal_system(M)
            for _ in range(4):
                shape = M.basis.shape
                noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                basis = M.basis + 1e-15 * noise
                moved = HilbertModule(M.base, OperatorSpace(M.dim_H, M.dim_G, basis))
                q = quasi_orthonormal_system(moved)
                assert [np.trace(p).real.round() for _, p in q.members] == \
                    [np.trace(p).real.round() for _, p in ref.members]
                for (e, _), (e0, _) in zip(q.members, ref.members):
                    assert np.abs(e - e0).max() <= 1e-12

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariants_on_random_modules(self, seed):
        E = seeded_module(seed)
        q = quasi_orthonormal_system(E)
        assert q.residual <= 1e-9
        total = sum(e @ e.conj().T for e, _ in q.members)
        assert op_norm(total - np.eye(E.dim_H)) <= 1e-9


class TestDualQonsFamily:
    def test_golden_family(self, golden_module):
        fam = dual_qons_family(golden_module)
        assert len(fam) == 3
        total = sum(e.conj().T @ e for e in fam)
        assert op_norm(total - np.eye(3)) <= 1e-9
        for i, e in enumerate(fam):
            for j, f in enumerate(fam):
                prod = e @ f.conj().T
                if i != j:
                    assert op_norm(prod) <= 1e-9
                else:
                    assert op_norm(prod @ prod - prod) <= 1e-9

    def test_singleton_unit_vector_family_is_valid(self, block_algebra):
        # any family satisfying the identities is accepted; in particular the
        # one-element family made of a unit vector always passes
        from modfactor.factorizations import check_qons_family
        E = module_over_itself(block_algebra)
        assert check_qons_family(E, [np.eye(3, dtype=complex)]) <= 1e-12
        fam = dual_qons_family(E)
        total = sum(e.conj().T @ e for e in fam)
        assert op_norm(total - np.eye(3)) <= 1e-9

    def test_column_module_single_element(self):
        fam = dual_qons_family(column_module(3))
        assert len(fam) == 1
        assert abs(np.linalg.norm(fam[0]) - 1.0) <= 1e-10

    def test_requires_full(self, block_algebra):
        E = build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
        with pytest.raises(PreconditionError):
            dual_qons_family(E)


class TestCommutantLifting:
    def test_column_module_lifts_scalars(self):
        E = column_module(3)
        rho = commutant_lifting(E)
        assert rho.domain.dim == 1
        img = rho.apply(np.eye(1))
        assert op_norm(img - np.eye(3)) <= 1e-10

    def test_full_matrix_module(self):
        B = build_algebra([(2, 1)])
        rho = commutant_lifting(module_over_itself(B))
        assert rho.domain.dim == 1
        assert rho.is_faithful()

    def test_golden_module(self, golden_module):
        rho = commutant_lifting(golden_module)
        assert rho.domain.dim == 2
        assert rho.is_faithful()
        assert rho.image_space().dim == 2
        # defining relation rho'(b') x = x b'
        for bp in rho.domain.basis:
            img = rho.apply(bp)
            for x in golden_module.basis:
                assert op_norm(img @ x - x @ bp) <= 1e-10

    def test_faithful_iff_full(self, block_algebra):
        E = build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
        assert not is_full(E)[0]
        assert not commutant_lifting(E).is_faithful()

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_faithful_on_full_random_modules(self, seed):
        E = seeded_module(seed)  # the generator fullifies
        assert is_full(E)[0]
        assert commutant_lifting(E).is_faithful()


class TestModuleRepresentationDictionary:
    def test_trivial_representation_gives_all_matrices(self):
        B = build_algebra([(2, 1)])
        Bp = commutant(B)
        rho = Homomorphism(Bp, 3, np.stack(
            [np.eye(3, dtype=complex) * np.trace(bp) / 2 for bp in Bp.basis]))
        E = module_from_representation(B, rho)
        assert E.dim == 6  # all of B(C^2, C^3)

    def test_roundtrip_on_golden(self, golden_module):
        rho = commutant_lifting(golden_module)
        back = module_from_representation(golden_module.base, rho)
        eq, dist = subspace_equal(back.space, golden_module.space)
        assert eq, dist

    def test_scalar_base_gives_column_module(self):
        B = scalars()
        Bp = commutant(B)
        rho = Homomorphism(Bp, 4, np.stack([np.eye(4, dtype=complex)]))
        E = module_from_representation(B, rho)
        assert (E.dim_H, E.dim_G, E.dim) == (4, 1, 4)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip_random(self, seed):
        E = seeded_module(seed)
        back = module_from_representation(E.base, commutant_lifting(E))
        eq, dist = subspace_equal(back.space, E.space)
        assert eq, dist


def test_intertwiner_space_refuses_images_that_are_not_star_closed():
    # a -> S a S^-1 with S invertible and not unitary is a unital
    # homomorphism of M2 that is not *-preserving: its images are not
    # closed under adjoints, so the intertwiner solve refuses it
    M2 = build_algebra([(2, 1)])
    S = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    rho = Homomorphism(M2, 2, S @ M2.basis @ np.linalg.inv(S))
    with pytest.raises(PreconditionError, match="not \\*-closed"):
        intertwiner_space(rho)


def test_intertwiner_space_fits_the_orthonormal_domain_without_lstsq(
        block_algebra, monkeypatch):
    # a -> a (x) 1_2 on C (+) M2: each block twice against once, 2 + 2
    fits = []
    real = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: fits.append(a) or real(*a, **kw))
    rho = Homomorphism(block_algebra, 6, np.stack([np.kron(b, np.eye(2))
                                                   for b in block_algebra.basis]))
    assert intertwiner_space(rho).dim == 4
    assert fits == []


class TestCommutantBimodule:
    def test_commutant_of_algebra_bimodule_is_the_commutant(self, block_algebra):
        X = algebra_bimodule(block_algebra)
        Xp = commutant_bimodule(X)
        Bp = commutant(block_algebra)
        eq, dist = subspace_equal(Xp.module.space, Bp.space)
        assert eq, dist

    def test_double_commutant_recovers_input(self, golden_module):
        K = finite_rank_algebra(golden_module)
        X = as_bimodule(golden_module, K)
        Xpp = commutant_bimodule(commutant_bimodule(X))
        eq, dist = subspace_equal(Xpp.module.space, golden_module.space)
        assert eq, dist
        # and the recovered left action is the original multiplication
        for a, img in zip(Xpp.left.basis, Xpp.left_action.images):
            assert op_norm(img - K.space.project(img)) <= 1e-8

    def test_column_module_with_full_left_action(self):
        E = column_module(3)
        Mn = build_algebra([(3, 1)])
        X = Correspondence(E, Mn, identity_homomorphism(Mn))
        X.validate()
        Xp = commutant_bimodule(X)
        # oracle: intertwiners of the identity representation of M3 are the
        # scalars, concretely a one-dimensional space
        from modfactor.numkernel import solve_intertwiners
        oracle = solve_intertwiners(list(Mn.basis), list(Mn.basis))
        assert Xp.module.dim == oracle.dim == 1


def _apply_reference(hom, a):
    """The per-element evaluation apply_many replaced: coefficients by an
    einsum against the basis, images by a tensordot."""
    c = np.einsum("kij,ij->k", hom.domain.basis.conj(), a)
    return np.tensordot(c, hom.images, axes=1)


def _haar_conjugated(blocks, seed):
    A = build_algebra(blocks)
    rng = np.random.default_rng(seed)
    n = A.ambient_dim
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return algebra_from_basis([u @ b @ u.conj().T for b in A.basis])


def _amplified(A, m):
    return Homomorphism(A, A.ambient_dim * m,
                        np.stack([np.kron(b, np.eye(m)) for b in A.basis]))


def _random_elements(A, count, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((count, A.dim)) + 1j * rng.standard_normal((count, A.dim))
    return np.tensordot(c, A.basis, axes=1)


class TestApplyMany:
    def _homomorphisms(self):
        from modfactor.harness import golden_instance
        yield golden_instance().theta
        yield _amplified(_haar_conjugated([(2, 1), (1, 2)], 7), 2)

    def test_agrees_with_per_element_evaluation(self):
        for hom in self._homomorphisms():
            mats = np.concatenate([hom.domain.basis,
                                   _random_elements(hom.domain, 6, 11)])
            got = hom.apply_many(mats)
            assert got.shape == (len(mats), hom.codomain_dim, hom.codomain_dim)
            for m, g in zip(mats, got):
                assert np.abs(g - _apply_reference(hom, m)).max() <= 1e-12
                assert np.abs(g - hom.apply(m)).max() <= 1e-12

    def test_one_element_outside_the_span_fails_the_batch(self):
        for hom in self._homomorphisms():
            n = hom.domain.ambient_dim
            rng = np.random.default_rng(3)
            outside = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert not hom.domain.contains(outside)
            mats = _random_elements(hom.domain, 5, 4)
            mats[2] = outside
            with pytest.raises(ValidationError, match="leaves the algebra span"):
                hom.apply_many(mats)

    def test_empty_batch(self):
        for hom in self._homomorphisms():
            n, d = hom.domain.ambient_dim, hom.codomain_dim
            assert hom.apply_many(np.zeros((0, n, n))).shape == (0, d, d)


class TestStructureConstants:
    def _spy(self, monkeypatch):
        """Record the tolerance of every closure certified or refused
        (``cstar._certify_closure``, wherever it is bound)."""
        fills = []
        real = cstar._certify_closure

        def spy(A, tol, bound, closure):
            fills.append(tol)
            return real(A, tol, bound, closure)

        monkeypatch.setattr(cstar, "_certify_closure", spy)
        monkeypatch.setattr(hilbmod, "_certify_closure", spy)
        return fills

    def test_shared_domain_is_filled_once_per_tolerance(self, monkeypatch):
        # the closure is checked once per tolerance, and a map on a domain
        # whose closure is not yet certified gets it from its own kernel pass
        fills = self._spy(monkeypatch)
        passes = spy_product_residuals(monkeypatch)
        A = build_algebra([(1, 1), (2, 1)])
        identity_homomorphism(A).validate()
        _amplified(A, 2).validate()
        assert fills == [1e-9]
        _amplified(A, 3).validate(1e-10)
        assert fills == [1e-9, 1e-10]
        assert [len(stacks) for _, stacks in passes] == [1, 1, 2]
        assert passes[2][1][0] is A.basis
        closure = A.closure_residuals()
        assert np.abs(closure - dense_product_residuals(A, A.basis)[0]).max() <= 1e-12

    def test_open_domain_fails_on_every_validation(self, monkeypatch):
        # a fresh domain that is not closed: every validation of a map on it,
        # and of its identity, checks its closure again in one pass and
        # raises, since a refused closure is not cached
        fills = self._spy(monkeypatch)
        passes = spy_product_residuals(monkeypatch)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        # I/sqrt(2), E12, E21: orthonormal, *-closed, but E12 E21 = E11 is outside
        mats = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), e12, e12.T])
        A = FiniteCStarAlgebra(2, OperatorSpace(2, 2, mats), np.eye(2, dtype=complex))
        hom = Homomorphism(A, 2, mats.copy())
        for _ in range(2):
            with pytest.raises(ValidationError, match="not multiplicatively closed"):
                hom.validate()
        assert len(fills) == 2 and [len(stacks) for _, stacks in passes] == [2, 2]
        for _ in range(2):
            with pytest.raises(ValidationError, match="not multiplicatively closed"):
                identity_homomorphism(A).validate()
        assert len(fills) == 4 and hom.certificate is None

    def test_validated_algebra_is_filled_once_by_its_closure_check(self, monkeypatch):
        fills = self._spy(monkeypatch)
        A = algebra_from_basis(list(build_algebra([(1, 1), (2, 1)]).basis))
        assert fills == [1e-9]
        identity_homomorphism(A).validate()
        A.closure_residuals()
        _amplified(A, 2).validate()
        assert fills == [1e-9]

    def test_identity_reads_the_closure_residuals(self, monkeypatch):
        # the identity's product residuals are the closure residuals, so its
        # validate forms no products of its own and keeps their largest as
        # its certificate
        A = _haar_conjugated([(2, 1), (1, 2)], 3)
        passes = spy_product_residuals(monkeypatch)
        hom = identity_homomorphism(A)
        hom.validate()
        closure = A.closure_residuals()
        assert all(stacks == (A.basis,) for _, stacks in passes)
        ref, _ = dense_product_residuals(A, A.basis)
        assert np.allclose(closure, ref, atol=1e-15)
        assert hom.certificate.kind == "identity"
        assert hom.certificate.value == closure.max() <= 1e-13

    def test_identity_reads_the_frame_closure_bound(self, monkeypatch):
        # an algebra validated through its frame: the identity's certificate
        # is the frame's closure bound, and neither the identity nor A as a
        # module over itself runs the kernel
        A = _haar_conjugated([(6, 1), (4, 1)], 5)
        fills = self._spy(monkeypatch)
        passes = spy_product_residuals(monkeypatch)
        hom = identity_homomorphism(A)
        hom.validate()
        r = cstar._frame_closure_bound(A, 1e-9)
        assert hom.certificate.kind == "identity"
        assert hom.certificate.value == r <= 1e-9
        assert module_over_itself(A).space is A.space
        algebra_bimodule(A).validate()
        assert not fills and not passes
        # A holds no frame at another tolerance: the closure residuals
        identity_homomorphism(A).validate(1e-10)
        assert fills == [1e-10] and len(passes) == 1
        # which the frame's bound dominates
        assert A.closure_residuals(1e-9).max() < r

    def test_adjoint_coefficients_are_computed_once_per_algebra(self):
        A = _haar_conjugated([(2, 1), (1, 2)], 3)
        cadj = A.adjoint_coefficients()
        # row k holds <b_l, b_k*> over l
        want = np.einsum("lij,kji->kl", A.basis.conj(), A.basis.conj())
        assert np.abs(cadj - want).max() <= 1e-14
        identity_homomorphism(A).validate()
        _amplified(A, 2).validate()
        assert A.adjoint_coefficients() is cadj and not cadj.flags.writeable

    def test_star_check_names_the_element_the_reference_names(self):
        # the image of a traceless element pushed off the adjoint relation
        # (theta stays unital); the in-place check names the basis element
        # with the largest ||theta(b_i*) - theta(b_i)*||
        A = _haar_conjugated([(2, 1), (1, 2)], 3)
        rng = np.random.default_rng(4)
        imgs = _amplified(A, 2).images.copy()
        m, _ = adjoint_pair(A)
        imgs[m] += 1e-5 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        bad = Homomorphism(A, 8, imgs)
        want = np.tensordot(A.adjoint_coefficients(), imgs, axes=1)
        ref = np.linalg.norm(want - imgs.conj().transpose(0, 2, 1), axis=(1, 2))
        with pytest.raises(ValidationError,
                           match=rf"not \*-preserving at basis element {int(np.argmax(ref))}$"):
            bad.validate()

    def test_bimodule_over_the_finite_rank_algebra_is_checked_once(self, golden_module,
                                                                  monkeypatch):
        import gc
        import weakref
        # K(E) keeps E by x y* z = x <y, z>: measured zero times, at every
        # tol; any other left algebra is measured once per call
        E = build_module(golden_module.base, list(golden_module.basis))
        checks = spy_invariance(monkeypatch)
        X = as_bimodule(E)
        K = finite_rank_algebra(E)
        again = as_bimodule(E, K)
        assert X.left is K and again.left is K and not checks
        assert as_bimodule(E, None, 1e-10).left is finite_rank_algebra(E, 1e-10) is not K
        assert not checks
        other = algebra_from_basis(list(K.basis))
        for n in (1, 2):
            assert as_bimodule(E, other).left is other
            assert len(checks) == n and all(span is E.space and np.array_equal(T, other.basis)
                                            for span, T, _, _ in checks)
        # nothing on E refers back to E
        ref = weakref.ref(E)
        del E, X, again, K, checks[:]
        gc.disable()
        try:
            assert ref() is None
        finally:
            gc.enable()

    def test_identity_action_is_validated_once_per_algebra_and_tol(self, golden_module,
                                                                   monkeypatch):
        import gc
        import weakref
        # every identity action of K(E) is handed the verdict kept on K(E):
        # the closure bound is read once per tol, and nothing on E or K(E)
        # refers back to either
        E = build_module(golden_module.base, list(golden_module.basis))
        reads, real = [], hilbmod._held_closure_bound
        monkeypatch.setattr(hilbmod, "_held_closure_bound",
                            lambda A, tol: reads.append(tol) or real(A, tol))
        for tol in (1e-9, 1e-8, 1e-10, 1e-9):
            for _ in range(2):
                as_bimodule(E).left_action.validate(tol)
        assert reads == [1e-9, 1e-10]
        K = finite_rank_algebra(E)
        held = as_bimodule(E).left_action.certificate
        assert held is K._cache["identity"] and (held.kind, held.tol) == ("identity", 1e-10)
        refs = [weakref.ref(E), weakref.ref(K)]
        del E, K
        gc.disable()
        try:
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_closure_check_names_the_pair(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        mats = [np.eye(2, dtype=complex) / np.sqrt(2), e12, e12.T]
        with pytest.raises(ValidationError, match=r"not multiplicatively closed.*\(1, 2\)"):
            algebra_from_basis(mats)


def _kernel_residuals(hom):
    """The residuals (k, k) of ``cstar.product_residuals`` on hom's images."""
    return cstar.product_residuals(hom.domain, hom.images)[0]


def _seeded_theta():
    # uncompressed instances keep theta's domain on a matrix-unit basis
    from modfactor.harness import GenSpec, generate_random_instance
    spec = GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(2, 1)], compress=False)
    return generate_random_instance(spec, 5).theta


# name -> (homomorphism factory, whether every c[i] has full support)
MULTIPLICATIVITY_CASES = {
    "haar_conjugated": (lambda: _amplified(_haar_conjugated([(2, 1), (1, 2)], 7), 2), True),
    "build_algebra": (lambda: _amplified(build_algebra([(1, 1), (2, 2)]), 2), False),
    "seeded_theta": (_seeded_theta, False),
    "identity": (lambda: identity_homomorphism(build_algebra([(2, 1), (3, 1)])), False),
}


@pytest.mark.parametrize("case", sorted(MULTIPLICATIVITY_CASES))
class TestMultiplicativityCheck:
    def test_residuals_match_the_dense_check(self, case, block_budget):
        make, dense = MULTIPLICATIVITY_CASES[case]
        hom = make()
        A, k = hom.domain, hom.domain.dim
        c = np.einsum("lab,ijab->ijl", A.basis.conj(),
                      np.matmul(A.basis[:, None], A.basis[None]))
        full = [np.count_nonzero((c[i] != 0).any(axis=0)) == k for i in range(k)]
        assert all(full) if dense else not any(full)
        ref_res, _ = dense_product_residuals(hom.domain, hom.images)
        # also one row a block, where a sparse basis sums over fewest columns
        for budget in (numkernel._BLOCK_BYTES, 1):
            block_budget(budget)
            assert np.abs(_kernel_residuals(hom) - ref_res).max() <= 1e-12
        hom.validate()
        # and on a map that is not multiplicative, where the sums matter
        m, n = adjoint_pair(A)
        imgs = hom.images.copy()
        imgs[[m, n]] *= 1.01
        bad = Homomorphism(A, hom.codomain_dim, imgs)
        ref_res, _ = dense_product_residuals(bad.domain, bad.images)
        assert ref_res.max() > 1e-3
        assert np.abs(_kernel_residuals(bad) - ref_res).max() <= 1e-12

    def test_names_the_pair_the_dense_check_names(self, case):
        make, _ = MULTIPLICATIVITY_CASES[case]
        hom = make()
        # scaling the images of an adjoint pair of traceless elements by one
        # real factor keeps theta unital and *-preserving but not
        # multiplicative
        m, n = adjoint_pair(hom.domain)
        imgs = hom.images.copy()
        imgs[[m, n]] *= 1.01
        bad = Homomorphism(hom.domain, hom.codomain_dim, imgs)
        i, j = dense_failing_pair(bad.domain, bad.images)
        with pytest.raises(ValidationError,
                           match=rf"not multiplicative on basis pair \({i}, {j}\)"):
            bad.validate()


def _loop_max(hom):
    """The largest residual of the kernel."""
    return float(_kernel_residuals(hom).max())


class TestCertificateFallback:
    """A construction's bound above the rule sends a map to the kernel, which
    makes every rejection."""

    def test_a_corrupted_image_falls_back_to_the_product_loop(self):
        # the images of an adjoint pair of traceless elements scaled by
        # 1 + 1e-6 keep theta unital and *-preserving but not multiplicative:
        # handed a factorization bound above the rule, validate runs the
        # kernel, which names the pair the dense check names, with the
        # message it has always had, and accepts nothing
        A = _haar_conjugated([(6, 1), (4, 1)], 3)
        m, n = adjoint_pair(A)
        imgs = _amplified(A, 2).images.copy()
        imgs[[m, n]] *= 1 + 1e-6
        handed = Certificate("factorization", 1.0)
        bad = Homomorphism(A, 20, imgs, handed)
        i, j = dense_failing_pair(A, imgs)
        with pytest.raises(ValidationError,
                           match=rf"^homomorphism not multiplicative on basis pair \({i}, {j}\)$"):
            bad.validate()
        assert bad.certificate is handed

    def test_a_failed_certificate_falls_back_to_the_kernel(self, monkeypatch):
        # valid maps whose handed bound is above the rule, a tensor
        # product's and an oracle link's: validate measures each one's
        # residuals in one kernel pass (the domain's closure is held from
        # its frame) and keeps their largest
        A = _haar_conjugated([(6, 1), (4, 1)], 3)
        assert cstar._held_frame(A, 1e-9) is not None
        passes = spy_product_residuals(monkeypatch)
        homs = [_amplified(A, 2), _amplified(A, 3)]
        for hom, kind in zip(homs, ("amplified action", "factorization")):
            hom.certificate = Certificate(kind, 1.0)
            hom.validate()
        assert len(passes) == 2
        assert all(len(stacks) == 1 and stacks[0] is h.images
                   for (_, stacks), h in zip(passes, homs))
        for h in homs:
            assert h.certificate.kind == "kernel" and h.certificate.tol == 1e-9
            assert h.certificate.value == _loop_max(h) <= 1e-13


class TestFrameOrKernelRule:
    """One work rule, ``cstar._frame_pays``, picks a frame certificate or the
    product-residual kernel for an algebra's closure.  A map's products take
    a construction's bound or the kernel, never a frame."""

    def test_theta_of_instance_a_settles_on_its_factorization(self):
        # parsed, so theta is built from data; k = 52, n = 10: the frame
        # pays for theta's domain K(E), and theta takes its oracle link's
        # bound, not a frame's
        from modfactor.harness import instance_from_json, instance_to_json
        theta = instance_from_json(instance_to_json(instance_a())).theta
        assert cstar._frame_pays(theta.domain)
        assert cstar._held_frame(theta.domain, 1e-9) is not None
        assert theta.certificate.kind == "factorization"

    def test_theta_of_instance_a_reads_no_structure_constants(self, tmp_path, monkeypatch):
        # one parse and verify: theta's domain K(E) holds its frame from
        # validation, K(E)'s identity reads the frame's closure bound, and
        # the kernel never runs on the domain, for its closure or for
        # theta's images; theta's oracle link builds no frame
        import traceback

        from modfactor.harness import parse_instance, run_verification, save_instance
        path = tmp_path / "a.json"
        save_instance(instance_a(), str(path))
        frames = []
        passes = spy_product_residuals(monkeypatch)
        real_frame = cstar.wedderburn_frame

        def frame_spy(*args):
            frames.append({f.name for f in traceback.extract_stack()})
            return real_frame(*args)

        monkeypatch.setattr(cstar, "wedderburn_frame", frame_spy)
        inst = parse_instance(str(path))
        assert run_verification(inst).passed
        dom = inst.theta.domain
        assert cstar._held_frame(dom, 1e-9) is not None
        fills = [A for A, stacks in passes if stacks[0] is A.basis]
        maps = [stacks[-1] for A, stacks in passes if stacks[-1] is not A.basis]
        assert fills and not any(A is dom for A in fills)
        assert maps and not any(A is dom for A, _ in passes)
        assert not any(images is inst.theta.images for images in maps)
        cert = inst.theta.certificate
        assert cert.kind == "factorization" and cert.tol == 1e-9 and 0.0 < cert.value <= 100 * 1e-9
        assert frames and not any({"_factorization_bound", "identity_homomorphism", "bounds"} & f
                                  for f in frames)

    def test_small_maps_settle_on_the_kernel_even_on_a_held_frame(self, tmp_path,
                                                                    monkeypatch):
        # a parse and verify of the seeded batch: a map that no construction
        # certifies settles on the kernel, also where its domain already
        # holds its frame
        from modfactor.harness import parse_instance, run_verification, save_instance
        instances = batch_instances(50)
        settled = []
        real = Homomorphism.validate

        def spy(hom, tol=1e-9):
            real(hom, tol)
            settled.append((hom.certificate.kind, cstar._held_frame(hom.domain, tol) is not None))

        monkeypatch.setattr(Homomorphism, "validate", spy)
        for i, inst in enumerate(instances):
            path = tmp_path / f"{i}.json"
            save_instance(inst, str(path))
            assert run_verification(parse_instance(str(path))).passed
        assert {kind for kind, _ in settled} <= {"kernel", "identity", "amplified action",
                                                 "factorization"}
        assert any(kind == "kernel" and held for kind, held in settled)

    def test_closure_switches_at_the_work(self, monkeypatch):
        # C (+) M_2 (x) 1_2 on C^4 (k = 5, n = 4): with the threshold one
        # below the kernel's work k^2 n^2 (n + k) the frame certifies the
        # closure, at the work itself the kernel; its amplification by 2
        # settles on the kernel either way
        basis = haar_conjugated([(1, 2), (2, 1)], np.random.default_rng(4))
        work = 25 * 16 * 9
        for limit, framed in [(work - 1, True), (work, False)]:
            monkeypatch.setattr(cstar, "_FRAME_CLOSURE_WORK", limit)
            A = algebra_from_basis(basis)
            assert (cstar._held_frame(A, 1e-9) is not None) is framed
            assert (("closure", 1e-9) in A._cache) is not framed
            hom = _amplified(A, 2)
            hom.validate()
            assert hom.certificate.kind == "kernel"


class TestCorrespondenceValidate:
    def test_names_the_first_left_image_leaving_the_span(self):
        # the diagonal module over the diagonal algebra on C^3; the left
        # algebra C (+) M2 has basis E11, E22, E23, E32, E33, so images 2
        # and 3 leave the diagonal span
        D = build_algebra([(1, 1), (1, 1), (1, 1)])
        E = build_module(D, [np.eye(3, dtype=complex)])
        A = build_algebra([(1, 1), (2, 1)])
        corr = Correspondence(E, A, identity_homomorphism(A))
        with pytest.raises(ValidationError, match="left action of basis element 2 "):
            corr.validate()
        Correspondence(E, D, identity_homomorphism(D)).validate()


def _one_shot_adjointable_residual(E, T):
    """adjointable_residual before row blocks: every T x and T* x at once."""
    m, d = len(T), E.dim_H
    both = np.concatenate([T, T.conj().transpose(0, 2, 1)]).reshape(2 * m * d, d)
    prods = (both @ E.stacked()).reshape(2, m, d, E.dim, E.dim_G).transpose(0, 1, 3, 2, 4)
    return E.space.span_residual(np.ascontiguousarray(prods)).max(axis=(0, 2))


def _one_shot_left_residuals(corr):
    """Correspondence.validate's span residuals before row blocks."""
    space = corr.module.space
    moved = np.matmul(corr.left_action.images[:, None], space.mats[None])
    return space.span_residual(moved).max(axis=1)


def _one_shot_module_check(E, tol=1e-9):
    """_validate_module before row blocks: every x b and every x* y at once."""
    X = E.basis
    moved = E.space.span_residual(np.matmul(X[:, None], E.base.basis[None]))
    bad = np.flatnonzero(moved.max(axis=1) > 100.0 * tol)
    if bad.size:
        raise ValidationError(f"right action moves basis element {bad[0]} out of the span")
    inner = E.base.space.span_residual(np.matmul(X.conj().transpose(0, 2, 1)[:, None], X[None]))
    bad = np.flatnonzero(inner.max(axis=1) > 100.0 * tol)
    if bad.size:
        raise ValidationError(
            f"an inner product against basis element {bad[0]} leaves the base algebra")


def _unit_module(base, units, n):
    """The span of matrix units (i, j) on C^n as a module over base, unchecked."""
    mats = np.stack([matrix_unit(i, j, n) for i, j in units])
    return HilbertModule(base, OperatorSpace(n, n, mats))


class TestRowBlockedChecks:
    @pytest.mark.parametrize("budget", [1, 2**18])
    def test_module_check_names_what_the_one_shot_check_names(self, block_budget, budget):
        # over C (+) M_2, E_21 b stays in the span but E_33 b and E_22 b do
        # not; over the diagonal algebra every x d stays, but E_11* E_12 and
        # E_12* E_11 leave it while E_33 and E_22 pair into it.  One element
        # a block names the first failing element in a later block
        block_budget(budget)
        cases = [(build_algebra([(1, 1), (2, 1)]), [(2, 1), (2, 2), (3, 3)],
                  "right action moves basis element 1 out of the span"),
                 (build_algebra([(1, 1)] * 3), [(3, 3), (2, 2), (1, 1), (1, 2)],
                  "an inner product against basis element 2 leaves the base algebra")]
        for base, units, message in cases:
            E = _unit_module(base, units, 3)
            with pytest.raises(ValidationError) as ref:
                _one_shot_module_check(E)
            assert str(ref.value) == message
            with pytest.raises(ValidationError, match=f"^{message}$"):
                hilbmod._validate_module(E, 1e-9)

    def test_module_check_peak_stays_below_the_one_shot_stacks(self, block_budget):
        # all of B(C^7, C^12) over M_7: k = 84, and each one-shot stack (the
        # x b and the x* y) takes 5.5 MB
        base = build_algebra([(7, 1)])
        mats = np.eye(84, dtype=complex).reshape(84, 12, 7)
        E = HilbertModule(base, OperatorSpace(12, 7, mats))
        stack = 16 * 84 * 49 * 84
        _one_shot_module_check(E)
        block_budget(2**16)
        _, peak = traced_peak(hilbmod._validate_module, E, 1e-9)
        assert peak < stack / 4, (peak, stack)

    def test_adjointable_residual_matches_the_one_shot_check(self, block_budget, rng):
        # theta's domain K(E) of instance a and three operators outside it
        inst = instance_a()
        E, d = inst.E, inst.E.dim_H
        T = np.concatenate([inst.theta.domain.basis, rng.standard_normal((3, d, d))])
        T = np.ascontiguousarray(T[rng.permutation(len(T))], dtype=complex)
        row = 2 * 16 * d * E.dim * E.dim_G
        block_budget(5 * row)
        assert len(row_blocks(len(T), row)) >= 3
        ref = _one_shot_adjointable_residual(E, T)
        assert (ref > 0.1).sum() == 3
        assert np.abs(adjointable_residual(E, T) - ref).max() <= 1e-12

    def test_adjointable_residual_peak_stays_below_the_one_shot_stack(self, block_budget):
        inst = instance_a()
        F, T = inst.F, inst.theta.images
        stack = 2 * 16 * T.size * F.dim * F.dim_G // F.dim_H
        block_budget(2**16)
        _, peak = traced_peak(adjointable_residual, F, T)
        assert peak < stack / 4, (peak, stack)

    def test_left_action_in_a_later_row_block_is_named(self, block_budget):
        # as test_names_the_first_left_image_leaving_the_span, one image a block
        block_budget(1)
        D = build_algebra([(1, 1), (1, 1), (1, 1)])
        E = build_module(D, [np.eye(3, dtype=complex)])
        A = build_algebra([(1, 1), (2, 1)])
        assert row_blocks(A.dim, 16 * E.space.mats.size)[2] == slice(2, 3)
        with pytest.raises(ValidationError, match="left action of basis element 2 "):
            Correspondence(E, A, identity_homomorphism(A)).validate()

    def test_correspondence_check_matches_and_stays_below_the_one_shot_stack(
            self, block_budget):
        inst = instance_a()
        corr = Correspondence(inst.F, inst.theta.domain, inst.theta)
        inst.theta.validate()
        ref = _one_shot_left_residuals(corr)
        assert ref.max() <= 1e-12
        stack = 16 * len(inst.theta.images) * inst.F.space.mats.size
        block_budget(2**16)
        _, peak = traced_peak(corr.validate)
        assert peak < stack / 4, (peak, stack)
