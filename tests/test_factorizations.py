import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from modfactor import factorizations, harness, hilbmod, numkernel, tensorcalc
from modfactor.cstar import algebra_from_basis, build_algebra, commutant
from modfactor.errors import PreconditionError, UnsupportedPair, ValidationError
from modfactor.factorizations import (
    compare,
    compression_composition_law,
    factor_commutant,
    factor_dual,
    factor_qons,
    factor_unit_vector,
    hilbert_space_compression,
    hilbert_space_intertwiners,
    induced_homomorphism,
    intertwiner_composition_law,
    is_morita_equivalence,
    scalar_inner,
    validate_theta,
)
from modfactor.harness import GenSpec, generate_random_instance, oracle_unitary
from modfactor.hilbmod import (
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
    module_from_representation,
    module_over_itself,
    verify_unit_vector,
)
from modfactor.numkernel import OperatorSpace, op_norm
from conftest import (
    amplification,
    column_module,
    corner_module,
    instance_a,
    matrix_unit,
    measured_twice,
    spy_invariance,
    traced_peak,
)


def golden_identity(golden_module):
    K = finite_rank_algebra(golden_module)
    return Homomorphism(K, golden_module.dim_H, K.basis.copy())


def seeded_instance(seed, with_unit_vector=False, blocks_C=((2, 1),)):
    spec = GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=list(blocks_C),
                   module_multiplicity=2, corr_multiplicity=1,
                   with_unit_vector=with_unit_vector)
    return generate_random_instance(spec, seed)


class TestInducedHomomorphism:
    def test_algebra_oracle_gives_identity(self, golden_module, block_algebra):
        F, theta, _ = induced_homomorphism(golden_module, algebra_bimodule(block_algebra))
        assert F.dim == golden_module.dim
        res = factor_dual(golden_module, F, theta)
        assert res.report["theta_residual"] <= 1e-9
        # the dual correspondence of the induced identity has the dimension
        # of the base (through the dual-times-module unit identity)
        assert res.correspondence.module.dim == block_algebra.dim

    def test_amplification_dimensions(self):
        E = column_module(2)
        M = _scalar_corr(3)
        F, theta, _ = induced_homomorphism(E, M)
        assert F.dim == 6
        validate_theta(E, F, theta)

    def test_mismatched_base_rejected(self, golden_module):
        from modfactor.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            induced_homomorphism(golden_module, _scalar_corr(2))

    def test_identity_through_the_algebra_is_the_identity(self, golden_module,
                                                          block_algebra):
        # inducing through B itself and pulling back along the canonical
        # unitary coord(x (x) g) -> x g recovers the identity exactly
        F, theta, tp = induced_homomorphism(golden_module, algebra_bimodule(block_algebra))
        U0 = np.hstack(list(golden_module.basis)) @ tp.S_pinv
        for a, img in zip(theta.domain.basis, theta.images):
            assert op_norm(U0 @ img @ U0.conj().T - a) <= 1e-10


def _scalar_corr(n):
    C1 = build_algebra([(1, 1)])
    mod = column_module(n)
    return Correspondence(mod, C1,
                          Homomorphism(C1, n, np.stack([np.eye(n, dtype=complex)])))


class TestFactorDual:
    def test_identity_gives_the_base(self, golden_module, block_algebra):
        theta = golden_identity(golden_module)
        res = factor_dual(golden_module, golden_module, theta)
        assert res.correspondence.module.dim == block_algebra.dim
        assert res.report["theta_residual"] <= 1e-10
        assert res.unitary.residual <= 1e-10

    def test_hilbert_space_amplification(self):
        E = column_module(2)
        F = column_module(6)
        res = factor_dual(E, F, amplification(2, 3))
        assert res.correspondence.module.dim == 3
        assert res.unitary.residual <= 1e-10

    def test_seeded_oracle_recovery(self):
        inst = seeded_instance(11)
        res = factor_dual(inst.E, inst.F, inst.theta)
        _, _, tp_F = induced_homomorphism(inst.E, inst.oracle)
        link = oracle_unitary(res, inst.oracle, tp_F)
        assert link.residual_unitary <= 1e-8
        assert link.residual_intertwine <= 1e-8

    @pytest.mark.parametrize("case", ["corner", "random_corner"])
    def test_non_full_module_takes_the_trimmed_dual(self, case, block_algebra):
        # the dual of a non-full module lives on a trimmed part of G; dual
        # element j is still x_j*, so the run matches the one on E's
        # fullification, which is what verify factors
        E = corner_module(case, block_algebra)
        assert dual_module(E).module.h_embed is not None
        theta = golden_identity(E)
        res = factor_dual(E, E, theta)
        for key in ("residual_unitary", "residual_intertwine", "theta_residual"):
            assert res.report[key] <= 1e-8
        E_full, _ = fullification(E)
        assert dual_module(E_full).module.h_embed is None
        assert res.report["dims"] == factor_dual(E_full, E, theta).report["dims"]

    def test_rejects_broken_theta(self, golden_module):
        K = finite_rank_algebra(golden_module)
        imgs = K.basis.copy()
        imgs = np.concatenate([imgs[:1] * 1.01, imgs[1:]])  # break unitality
        theta = Homomorphism(K, 3, imgs)
        with pytest.raises(ValidationError):
            factor_dual(golden_module, golden_module, theta)


def theta_outside_K(golden_module):
    """The golden identity with images 3 and 4 pushed off K(E) along E12,
    image 4 the farther."""
    K = finite_rank_algebra(golden_module)
    imgs = K.basis.copy()
    imgs[3] += 0.5 * matrix_unit(1, 2)
    imgs[4] += 2.0 * matrix_unit(1, 2)
    return Homomorphism(K, 3, imgs)


class TestValidateTheta:
    def test_names_the_first_image_outside_K_F(self, golden_module):
        with pytest.raises(ValidationError, match="theta image of basis element 3 "):
            validate_theta(golden_module, golden_module, theta_outside_K(golden_module))

    def test_a_later_row_block_names_the_same_image(self, golden_module, block_budget):
        # one image a block: images 3 and 4 are checked in blocks 3 and 4
        block_budget(1)
        with pytest.raises(ValidationError, match="theta image of basis element 3 "):
            validate_theta(golden_module, golden_module, theta_outside_K(golden_module))

    def test_golden_identity_passes(self, golden_module):
        validate_theta(golden_module, golden_module, golden_identity(golden_module))

    def test_a_failed_check_raises_every_time(self, golden_module):
        theta = theta_outside_K(golden_module)
        for _ in range(2):
            with pytest.raises(ValidationError, match="basis element 3 "):
                validate_theta(golden_module, golden_module, theta)

    def test_the_verdict_is_kept_for_the_same_modules_only(self, golden_module, monkeypatch):
        calls = spy_invariance(monkeypatch)
        theta = golden_identity(golden_module)

        def on_F():
            return sum(T is theta.images for _, T, _, _ in calls)

        validate_theta(golden_module, golden_module, theta)
        validate_theta(golden_module, golden_module, theta)
        assert on_F() == 1
        validate_theta(golden_module, golden_module, theta, tol=1e-10)
        copy = HilbertModule(golden_module.base, golden_module.space)
        validate_theta(golden_module, copy, theta)
        assert on_F() == 3

    def test_one_verify_performs_one_invariance_check(self, tmp_path, monkeypatch):
        # theta's images are measured on F once, T y and T* y in one pass,
        # and no pair is measured twice over the parse and verify
        path = tmp_path / "instance.json"
        harness.save_instance(seeded_instance(1001, blocks_C=((2, 1), (1, 1))), str(path))
        calls = spy_invariance(monkeypatch)
        parsed = harness.parse_instance(str(path))
        assert harness.run_verification(parsed).passed
        on_images = [(span, adj) for span, T, _, adj in calls if T is parsed.theta.images]
        assert on_images == [(parsed.F.space, True)]
        assert measured_twice(calls) == []


    def test_a_domain_spanning_K_within_tol_becomes_K(self, block_algebra):
        E = module_over_itself(block_algebra)
        theta = Homomorphism(block_algebra, 3, block_algebra.basis.copy())
        validate_theta(E, E, theta)
        assert finite_rank_algebra(E) is block_algebra

    def test_a_domain_spanning_K_only_within_1e_6_keeps_a_built_K(self, block_algebra):
        # the domain U B U* for U = exp(i eps h) contains the x y* of E = B
        # (K(E) = B) within about eps: inside 1e-6, outside tol
        E = module_over_itself(block_algebra)
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = scipy.linalg.expm(1e-8j * (h + h.conj().T))
        dom = algebra_from_basis(u @ block_algebra.basis @ u.conj().T)
        spans = dom.space.span_residual(hilbmod.finite_rank_products(E)).max()
        assert 1e-9 < spans < 1e-6
        validate_theta(E, E, Homomorphism(dom, 3, dom.basis.copy()))
        K = finite_rank_algebra(E)
        assert K is not dom and K.dim == block_algebra.dim


def first_image_outside_K_F(F, theta):
    """The former membership test, against the built finite-rank algebra of
    F: index of the first image farther than 1e-6 from K(F), or None."""
    bad = np.flatnonzero(finite_rank_algebra(F).space.span_residual(theta.images) > 1e-6)
    return int(bad[0]) if bad.size else None


def first_image_not_adjointable(F, theta):
    bad = np.flatnonzero(adjointable_residual(F, theta.images) > 1e-6)
    return int(bad[0]) if bad.size else None


def pushed_off_K_F(F, theta, pushes, seed):
    """A copy of theta with image i moved by t times a fixed unit operator
    orthogonal to K(F), for each (i, t) in pushes."""
    rng = np.random.default_rng(seed)
    d = F.dim_H
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    z = z - finite_rank_algebra(F).space.project(z)
    z /= np.linalg.norm(z)
    imgs = theta.images.copy()
    for i, t in pushes:
        imgs[i % len(imgs)] += t * z
    return Homomorphism(theta.domain, theta.codomain_dim, imgs)


def _adjointable_cases(golden_module):
    yield "golden", golden_module, golden_identity(golden_module)
    yield "amplification", column_module(6), amplification(2, 3)
    for seed in range(1000, 1010):
        inst = seeded_instance(seed, blocks_C=((2, 1), (1, 1)))
        yield f"seed {seed}", inst.F, inst.theta


class TestAdjointableInvariance:
    """The invariance test agrees with the former test against K(F)."""

    def test_agrees_with_the_finite_rank_oracle(self, golden_module):
        proper = 0
        for name, F, theta in _adjointable_cases(golden_module):
            assert first_image_not_adjointable(F, theta) is None, name
            assert first_image_outside_K_F(F, theta) is None, name
            if finite_rank_algebra(F).dim == F.dim_H ** 2:
                continue  # K(F) is all of B(H): nothing lies off it
            proper += 1
            m = theta.domain.dim
            for pushes in ([(m - 1, 1.0)], [(1, 1e-3), (m - 1, 2.0)],
                           [(0, 1e-12)], [(m // 2, 5e-5), (1, 1e-11)]):
                moved = pushed_off_K_F(F, theta, pushes, seed=len(name))
                want = first_image_outside_K_F(F, moved)
                got = first_image_not_adjointable(F, moved)
                assert got == want, (name, pushes)
        assert proper >= 8

    def test_golden_images_pushed_off_K(self, golden_module):
        theta = theta_outside_K(golden_module)
        assert first_image_outside_K_F(golden_module, theta) == 3
        assert first_image_not_adjointable(golden_module, theta) == 3

    def test_finite_rank_algebra_is_never_built_on_F(self, tmp_path, monkeypatch):
        seen = []
        real = hilbmod.finite_rank_algebra

        def spy(E, *args, **kwargs):
            seen.append(E)
            return real(E, *args, **kwargs)

        for mod in (hilbmod, harness, tensorcalc, factorizations):
            monkeypatch.setattr(mod, "finite_rank_algebra", spy, raising=False)
        inst = seeded_instance(1001, blocks_C=((2, 1), (1, 1)))
        path = tmp_path / "instance.json"
        harness.save_instance(inst, str(path))
        seen.clear()
        parsed = harness.parse_instance(str(path))
        assert harness.run_verification(parsed).passed
        assert seen  # the spy sees the calls on E
        assert parsed.E.dim_H != parsed.F.dim_H
        assert all(m is not parsed.F and m.dim_H != parsed.F.dim_H for m in seen)


def degenerate_columns(n, r):
    """The first r unit columns of C^n over the scalars, built directly so
    that H is not trimmed to their span."""
    C1 = build_algebra([(1, 1)])
    cols = np.eye(n, dtype=np.complex128)[:, :r].T[:, :, None]
    return HilbertModule(C1, OperatorSpace(n, 1, cols))


class TestNondegeneracyPrecondition:
    def test_degenerate_F_is_rejected(self):
        # the unital theta(1) = 1 on C^3 maps the span of e1, e2 into itself,
        # but 1 is not in K(F), which lives on that span only
        E = column_module(1)
        F = degenerate_columns(3, 2)
        theta = Homomorphism(E.base, 3, np.eye(3, dtype=np.complex128)[None])
        with pytest.raises(ValidationError, match="F is degenerate"):
            validate_theta(E, F, theta)

    def test_degenerate_E_is_rejected(self):
        E = degenerate_columns(2, 1)
        theta = Homomorphism(build_algebra([(2, 1)]), 2,
                             build_algebra([(2, 1)]).basis.copy())
        with pytest.raises(ValidationError, match="E is degenerate"):
            validate_theta(E, column_module(2), theta)

    def test_complement_projection_would_pass_unguarded(self):
        F = degenerate_columns(3, 2)
        p = np.zeros((1, 3, 3), dtype=np.complex128)
        p[0, 2, 2] = 1.0  # kills F, so T F and T* F stay in F
        with pytest.raises(ValidationError, match="module is degenerate"):
            adjointable_residual(F, p)


class TestFactorUnitVector:
    def test_algebra_module_with_identity(self, block_algebra):
        E = module_over_itself(block_algebra)
        theta = Homomorphism(finite_rank_algebra(E), 3,
                             finite_rank_algebra(E).basis.copy())
        res = factor_unit_vector(E, E, theta, np.eye(3))
        assert res.correspondence.module.dim == block_algebra.dim
        assert res.report["theta_residual"] <= 1e-10

    def test_hilbert_space_case_is_the_compression_factor(self):
        E = column_module(2)
        F = column_module(6)
        theta = amplification(2, 3)
        omega = np.array([[1.0], [0.0]], dtype=complex)
        res = factor_unit_vector(E, F, theta, omega)
        hb, _ = hilbert_space_compression(theta, omega)
        assert res.correspondence.module.dim == hb.module.dim == 3

    def test_seeded_with_unit_vector(self):
        inst = seeded_instance(3, with_unit_vector=True)
        assert inst.unit_vector is not None
        res = factor_unit_vector(inst.E, inst.F, inst.theta, inst.unit_vector)
        assert res.report["theta_residual"] <= 1e-8
        assert res.unitary.residual <= 1e-8

    def test_requires_a_unit_vector(self, golden_module):
        theta = golden_identity(golden_module)
        with pytest.raises(PreconditionError):
            factor_unit_vector(golden_module, golden_module, theta,
                               matrix_unit(2, 1))


class TestFactorQons:
    def test_golden_family(self, golden_module):
        theta = golden_identity(golden_module)
        fam = dual_qons_family(golden_module)
        res = factor_qons(golden_module, golden_module, theta, fam)
        assert res.report["theta_residual"] <= 1e-9
        assert res.unitary.residual <= 1e-9
        assert sum(res.report["dims"]["summands"]) == \
            res.report["dims"]["correspondence_total"]

    def test_singleton_family_reproduces_the_unit_vector_method(self):
        inst = seeded_instance(3, with_unit_vector=True)
        res_uv = factor_unit_vector(inst.E, inst.F, inst.theta, inst.unit_vector)
        res_q = factor_qons(inst.E, inst.F, inst.theta, [inst.unit_vector])
        assert res_q.correspondence.module.dim == res_uv.correspondence.module.dim
        res_d = factor_dual(inst.E, inst.F, inst.theta)
        u = compare(res_uv, res_q, via=res_d)
        assert u.residual <= 1e-8

    def test_one_orthonormalization_per_member(self, golden_module, monkeypatch):
        calls = []
        real = factorizations.hs_orthonormalize

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(factorizations, "hs_orthonormalize", spy)
        theta = golden_identity(golden_module)
        fam = dual_qons_family(golden_module)
        assert len(fam) > 1
        factor_qons(golden_module, golden_module, theta, fam)
        assert len(calls) == len(fam)

    def test_rejects_bad_family(self, golden_module):
        theta = golden_identity(golden_module)
        with pytest.raises(PreconditionError):
            factor_qons(golden_module, golden_module, theta,
                        [matrix_unit(2, 1)])  # sums to E11, not the unit


# the first ten seeded-batch instances that carry a unit vector
_UNIT_VECTOR_SEEDS = [1000 + j for j in range(25) if j % 5 in (2, 4)]


@pytest.mark.parametrize("seed", _UNIT_VECTOR_SEEDS)
def test_unit_vector_method_is_the_singleton_qons_method(seed):
    from test_acceptance import BATCH_SPECS
    inst = generate_random_instance(BATCH_SPECS[(seed - 1000) % len(BATCH_SPECS)], seed)
    assert inst.unit_vector is not None
    res_uv = factor_unit_vector(inst.E, inst.F, inst.theta, inst.unit_vector)
    res_q = factor_qons(inst.E, inst.F, inst.theta, [inst.unit_vector])
    assert np.array_equal(res_q.correspondence.module.basis,
                          res_uv.correspondence.module.basis)
    assert np.array_equal(res_q.correspondence.left_action.images,
                          res_uv.correspondence.left_action.images)
    assert np.array_equal(res_q.unitary.map, res_uv.unitary.map)
    assert "summands" not in res_uv.report["dims"]
    assert "family_residual" not in res_uv.report


class TestFactorCommutant:
    def test_hilbert_space_prime_is_the_intertwiner_space(self):
        E = column_module(2)
        F = column_module(6)
        theta = amplification(2, 3)
        prime, res = factor_commutant(E, F, theta)
        ha, u = hilbert_space_intertwiners(theta)
        assert prime.module.dim == ha.module.dim == 3
        assert res.report["theta_residual"] <= 1e-9
        assert u.residual <= 1e-10

    def test_identity_prime_is_the_base_commutant(self, golden_module):
        theta = golden_identity(golden_module)
        prime, res = factor_commutant(golden_module, golden_module, theta)
        Bp = commutant(golden_module.base)
        assert prime.module.dim == Bp.dim
        assert res.report["theta_residual"] <= 1e-9

    def test_requires_full(self, block_algebra):
        E = build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
        K = finite_rank_algebra(E)
        theta = Homomorphism(K, E.dim_H, K.basis.copy())
        with pytest.raises(PreconditionError):
            factor_commutant(E, E, theta)

    def test_seeded(self):
        inst = seeded_instance(5)
        prime, res = factor_commutant(inst.E, inst.F, inst.theta)
        assert res.unitary.residual <= 1e-8
        assert res.report["theta_residual"] <= 1e-8
        assert res.report["chain"]["flip_residual"] <= 1e-8

    def test_no_svd_of_the_abstract_gram_size(self, monkeypatch):
        # the flip identification decides its Gram check by a Frobenius
        # screen and takes its scale from the thin factor, so no SVD sees
        # a matrix as large as the abstract E (.) W (.) G Gram
        inst = seeded_instance(5)
        W = hilbmod.intertwiner_space(inst.theta, numkernel.DEFAULT_TOL)
        n = inst.E.dim * W.dim * inst.E.dim_G
        shapes = []
        # the module whose svd np.linalg.norm calls (numpy 1.x: linalg.linalg)
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        real = impl.svd

        def spy(a, *args, **kwargs):
            # only the SVDs made inside tensorcalc.flip_unitary
            frame = sys._getframe(1)
            while frame is not None:
                code = frame.f_code
                if (code.co_name, Path(code.co_filename).stem) == ("flip_unitary", "tensorcalc"):
                    shapes.append(np.shape(a)[-2:])
                    break
                frame = frame.f_back
            return real(a, *args, **kwargs)

        monkeypatch.setattr(impl, "svd", spy)
        monkeypatch.setattr(np.linalg, "svd", spy)
        factor_commutant(inst.E, inst.F, inst.theta)
        assert shapes  # the spy sees the SVDs
        assert all(min(s) < n for s in shapes), n

    def test_prime_is_the_span_of_its_coordinate_blocks(self):
        # prime is the tensor of W with G on the basis 1_G, and S_i 1 = S_i
        # in value (a -0.0 of S_i comes back +0.0, which can flip the sign of
        # a QR basis element): prime spans S_P's column blocks
        for seed in (5, 17):
            inst = seeded_instance(seed)
            prime, res = factor_commutant(inst.E, inst.F, inst.theta)
            blocks = tensorcalc._column_blocks(res.aux["S_P"], res.aux["W"].dim)
            ref = numkernel.hs_orthonormalize(blocks)
            assert prime.module.dim == ref.dim
            assert numkernel.subspace_equal(prime.module.space, ref)[1] <= 1e-13
            assert prime.left is res.aux["sigma_p"].domain
            assert prime.left_action.certificate.kind == "amplified action"

    def test_tol_reaches_every_intertwiner_solve(self, monkeypatch):
        # every Wedderburn frame built, the intertwiners' and the algebras'
        inst = seeded_instance(5)
        theta = amplification(2, 3)
        seen = []
        real = numkernel.wedderburn_frame

        def spy(lefts, rights, tol=numkernel.DEFAULT_TOL):
            seen.append(tol)
            return real(lefts, rights, tol)

        _patch_every_binding(monkeypatch, "wedderburn_frame", spy)
        factor_commutant(inst.E, inst.F, inst.theta, tol=1e-10)
        hilbert_space_intertwiners(theta, tol=1e-10)
        E = inst.E
        module_from_representation(E.base, commutant_lifting(E, 1e-10), 1e-10)
        commutant_bimodule(as_bimodule(E, tol=1e-10), 1e-10)
        adjointable_algebra(E, 1e-10)
        assert seen and set(seen) == {1e-10}


def _patch_every_binding(monkeypatch, name, spy):
    """Replace ``name`` in every modfactor module that binds it."""
    for key, mod in list(sys.modules.items()):
        if key.startswith("modfactor") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, spy)


def test_every_intertwiner_solve_goes_through_one_entry_point(monkeypatch):
    """Every Wedderburn frame, bound in any modfactor module, is built by
    cstar._frame (an algebra's), by hilbmod._representation_frame (a map's
    pairs, whose intertwiners intertwiner_space reads), at most once per
    map and tol, or by solve_intertwiners, which only the oracle check of
    the harness calls."""
    frames, solvers = [], set()
    real_frame, real_solve = numkernel.wedderburn_frame, numkernel.solve_intertwiners

    def caller():
        code = sys._getframe(2).f_code
        return Path(code.co_filename).stem, code.co_name

    def frame_spy(lefts, rights, tol=numkernel.DEFAULT_TOL):
        frames.append((caller(), lefts, tol))
        return real_frame(lefts, rights, tol)

    def solve_spy(lefts, rights, tol=numkernel.DEFAULT_TOL):
        solvers.add(caller())
        return real_solve(lefts, rights, tol)

    _patch_every_binding(monkeypatch, "wedderburn_frame", frame_spy)
    _patch_every_binding(monkeypatch, "solve_intertwiners", solve_spy)
    inst = seeded_instance(5)
    assert harness.run_verification(inst).passed
    E = inst.E
    module_from_representation(E.base, commutant_lifting(E))
    commutant_bimodule(as_bimodule(E))
    adjointable_algebra(E)
    callers = {c for c, _, _ in frames}
    assert ("hilbmod", "_representation_frame") in callers
    assert callers <= {("cstar", "_frame"), ("hilbmod", "_representation_frame"),
                       ("numkernel", "solve_intertwiners")}, callers
    assert solvers <= {("harness", "_check_oracle_consistency")}, solvers
    maps = [(id(lefts), tol) for c, lefts, tol in frames if c[0] == "hilbmod"]
    assert len(set(maps)) == len(maps)


def _one_shot_dual_to_commutant_map(ra, rb):
    """The dual -> commutant map before row blocks, from the whole stack T
    of blocks (j, m, l) = S_P,l (x_j* y_m) at once; returns it and T's
    bytes."""
    T = tensorcalc._column_blocks(rb.aux["S_P"], rb.aux["W"].dim)[None, None] @ \
        hilbmod._pairwise_inner(ra.aux["E"].basis)[:, :, None]
    U = ra.aux["tp_corr"].realize(T, inner=rb.aux["flip"].meta["right_inverse"])
    return U, T.nbytes


class TestRowBlockedComparison:
    def _results(self):
        inst = instance_a()
        return (factor_dual(inst.E, inst.F, inst.theta),
                factor_commutant(inst.E, inst.F, inst.theta)[1])

    def test_dual_to_commutant_matches_the_one_shot_map(self, block_budget):
        ra, rb = self._results()
        want, _ = _one_shot_dual_to_commutant_map(ra, rb)
        k = ra.aux["E"].dim
        row = 16 * k * rb.aux["S_P"].size  # one j of the stack
        block_budget(3 * row)  # 3 of k = 26 rows a block, the last one shorter
        got = compare(ra, rb)
        assert np.abs(got.map - want).max() <= 1e-12
        assert got.residual <= 1e-8

    def test_dual_to_commutant_peak_stays_below_the_one_shot_stack(self, block_budget):
        ra, rb = self._results()
        _, stack = _one_shot_dual_to_commutant_map(ra, rb)
        block_budget(2**16)
        _, peak = traced_peak(compare, ra, rb)
        assert peak < stack / 2


class TestCompare:
    def _all_results(self, inst):
        res_d = factor_dual(inst.E, inst.F, inst.theta)
        res_u = factor_unit_vector(inst.E, inst.F, inst.theta, inst.unit_vector)
        res_q = factor_qons(inst.E, inst.F, inst.theta,
                            dual_qons_family(inst.E))
        _, res_c = factor_commutant(inst.E, inst.F, inst.theta)
        return res_d, res_u, res_q, res_c

    def test_same_method_is_the_identity(self, golden_module):
        theta = golden_identity(golden_module)
        res = factor_dual(golden_module, golden_module, theta)
        u = compare(res, res)
        assert op_norm(u.map - np.eye(u.map.shape[0])) <= 1e-12

    def test_all_pairs_on_a_seeded_instance(self):
        inst = seeded_instance(9, with_unit_vector=True)
        res_d, res_u, res_q, res_c = self._all_results(inst)
        for a, b in [(res_d, res_u), (res_d, res_q), (res_d, res_c)]:
            u = compare(a, b)
            assert u.residual <= 1e-8
            assert not u.meta.get("composed")
        for a, b in [(res_u, res_q), (res_u, res_c), (res_q, res_c)]:
            u = compare(a, b, via=res_d)
            assert u.residual <= 1e-8
            assert u.meta.get("composed")

    def test_reversal_is_the_adjoint(self):
        inst = seeded_instance(9, with_unit_vector=True)
        res_d = factor_dual(inst.E, inst.F, inst.theta)
        res_u = factor_unit_vector(inst.E, inst.F, inst.theta, inst.unit_vector)
        fwd = compare(res_d, res_u)
        rev = compare(res_u, res_d)
        assert op_norm(rev.map - fwd.map.conj().T) <= 1e-12

    def test_triangle_consistency(self):
        inst = seeded_instance(21, with_unit_vector=True)
        res_d, res_u, res_q, _ = self._all_results(inst)
        du = compare(res_d, res_u)
        uq = compare(res_u, res_q, via=res_d)
        dq = compare(res_d, res_q)
        assert op_norm(uq.map @ du.map - dq.map) <= 1e-7

    def test_two_unit_vectors(self):
        inst = seeded_instance(2, with_unit_vector=True)
        E = inst.E
        xi1 = inst.unit_vector
        # a second unit vector: rotate by a unitary of the base algebra
        u_base = _unitary_in(E.base, seed=7)
        xi2 = E.space.project(xi1 @ u_base)
        assert verify_unit_vector(E, xi2)
        r1 = factor_unit_vector(E, inst.F, inst.theta, xi1)
        r2 = factor_unit_vector(E, inst.F, inst.theta, xi2)
        u = compare(r1, r2)
        assert u.residual <= 1e-8
        assert not u.meta.get("composed")

    def test_unsupported_without_via(self):
        inst = seeded_instance(9, with_unit_vector=True)
        res_d, res_u, res_q, _ = self._all_results(inst)
        with pytest.raises(UnsupportedPair):
            compare(res_u, res_q)


def _unitary_in(A, seed):
    rng = np.random.default_rng(seed)
    from modfactor.cstar import hermitian_basis
    hb = hermitian_basis(A.space)
    h = np.tensordot(rng.standard_normal(hb.shape[0]), hb, axes=1)
    import scipy.linalg
    return scipy.linalg.expm(1j * h)


class TestHilbertSpaceFactors:
    def test_identity_intertwiners(self):
        theta = Homomorphism(build_algebra([(3, 1)]), 3,
                             build_algebra([(3, 1)]).basis.copy())
        ha, u = hilbert_space_intertwiners(theta)
        assert ha.module.dim == 1
        assert u.residual <= 1e-10

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_amplification_multiplicity(self, n, m):
        theta = amplification(n, m)
        ha, ua = hilbert_space_intertwiners(theta)
        omega = np.zeros((n, 1)); omega[0, 0] = 1.0
        hb, ub = hilbert_space_compression(theta, omega)
        assert ha.module.dim == hb.module.dim == m
        assert ua.residual <= 1e-10
        assert ub.residual <= 1e-10

    def test_identity_compression(self):
        Mn = build_algebra([(3, 1)])
        theta = Homomorphism(Mn, 3, Mn.basis.copy())
        omega = np.zeros((3, 1)); omega[0, 0] = 1.0
        hb, u = hilbert_space_compression(theta, omega)
        assert hb.module.dim == 1
        assert u.residual <= 1e-10

    def test_scalar_inner(self):
        x = np.kron(np.eye(2), np.array([[1.0], [0.0]]))
        assert abs(scalar_inner(x, x) - 1.0) <= 1e-12

    @pytest.mark.parametrize("m1,m2", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_composition_laws(self, m1, m2):
        n = 2
        theta1 = amplification(n, m1)
        theta2 = amplification(n * m1, m2)
        ha_law = intertwiner_composition_law(theta2, theta1)
        assert ha_law.residual_unitary <= 1e-9
        assert ha_law.map.shape == (m1 * m2, m2 * m1)
        omega = np.zeros((n, 1)); omega[0, 0] = 1.0
        omega2 = np.zeros((n * m1, 1)); omega2[0, 0] = 1.0
        hb_law = compression_composition_law(theta2, theta1, omega, omega2)
        assert hb_law.residual_unitary <= 1e-9
        assert hb_law.map.shape == (m1 * m2, m1 * m2)

    def test_requires_full_matrix_domain(self, golden_module):
        theta = golden_identity(golden_module)
        with pytest.raises(PreconditionError):
            hilbert_space_intertwiners(theta)


class TestMorita:
    def test_golden_bimodule(self, golden_module):
        X = as_bimodule(golden_module)  # K(E)-B bimodule
        assert is_morita_equivalence(X)

    def test_algebra_over_itself(self, block_algebra):
        assert is_morita_equivalence(algebra_bimodule(block_algebra))

    def test_scalar_left_action_on_columns_fails(self):
        X = _scalar_corr(2)  # K(M) = M_2 but the left action hits only scalars
        assert not is_morita_equivalence(X)

    def test_non_full_fails(self, block_algebra):
        E = build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
        X = as_bimodule(E)
        assert not is_morita_equivalence(X)


class TestHilbertSpaceInvariant:
    def test_prime_space_matches_intertwiners_and_compression_matches_submodule(self):
        # in the Hilbert-space case the commutant-method prime space IS the
        # intertwiner space and the unit-vector module is the compression
        from modfactor.numkernel import hs_orthonormalize, subspace_equal
        n, m = 2, 3
        E = column_module(n)
        F = column_module(n * m)
        theta = amplification(n, m)
        prime, res_c = factor_commutant(E, F, theta)
        ha, _ = hilbert_space_intertwiners(theta)
        assert prime.module.dim == ha.module.dim
        # the raw intertwiner spaces agree as concrete operator subspaces
        W = res_c.aux["W"]
        ha_space = hs_orthonormalize(list(ha.meta["matrices"]))
        eq, dist = subspace_equal(W, ha_space)
        assert eq, dist
        omega = np.zeros((n, 1)); omega[0, 0] = 1.0
        res_uv = factor_unit_vector(E, F, theta, omega)
        hb, _ = hilbert_space_compression(theta, omega)
        V1 = res_uv.aux["isometry"]
        V2 = hb.meta["isometry"]
        # same subspace of K
        assert op_norm(V1 @ V1.conj().T - V2 @ V2.conj().T) <= 1e-10
