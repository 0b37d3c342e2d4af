from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from modfactor import cstar
from modfactor.cstar import build_algebra
from modfactor.errors import NotInModule, ValidationError
from modfactor.hilbmod import (
    Correspondence,
    Homomorphism,
    algebra_bimodule,
    as_bimodule,
    build_module,
    commutant_lifting,
    dual_module,
    finite_rank_algebra,
    module_over_itself,
)
from modfactor import numkernel
from modfactor.numkernel import OperatorSpace, norm_exceeds, op_norm, row_blocks
from modfactor.tensorcalc import (
    associator,
    certify_module_unitary,
    flip_unitary,
    interior_tensor,
    unit_identities,
)
from conftest import (
    batch_instances,
    dense_product_residuals,
    haar_conjugated,
    haar_unitary,
    instance_a,
    matrix_unit,
    spy_product_residuals,
    traced_peak,
)


def map_from_spanning(domain_vecs, target_vecs):
    """The least-squares map sending spanning columns to target columns, as
    a reference."""
    return target_vecs @ np.linalg.pinv(domain_vecs)


def scalar_correspondence(n):
    """C^n as a correspondence from the scalars to the scalars."""
    C1 = build_algebra([(1, 1)])
    cols = [np.zeros((n, 1), dtype=complex) for _ in range(n)]
    for i, c in enumerate(cols):
        c[i, 0] = 1.0
    mod = build_module(C1, cols)
    return Correspondence(mod, C1,
                          Homomorphism(C1, n, np.stack([np.eye(n, dtype=complex)])))


def seeded_module(seed, blocks=((1, 1), (2, 1)), mult=2):
    from modfactor.harness import GenSpec, generate_random_instance
    spec = GenSpec(blocks_B=list(blocks), blocks_C=[(1, 1)],
                   module_multiplicity=mult, corr_multiplicity=1)
    return generate_random_instance(spec, seed).E


class TestInteriorTensor:
    def test_batched_gram_and_action_match_the_loops(self):
        E = seeded_module(3)
        X = as_bimodule(E)
        Y = algebra_bimodule(E.base)
        tp = interior_tensor(X, Y)
        k, w = E.dim, Y.module.dim_H
        # the per-pair and per-element loops the batched code replaced
        gram = np.zeros((k * w, k * w), dtype=complex)
        for i in range(k):
            for j in range(k):
                gram[i * w:(i + 1) * w, j * w:(j + 1) * w] = \
                    Y.act(E.basis[i].conj().T @ E.basis[j])
        assert np.abs(tp.S.conj().T @ tp.S - gram).max() <= 1e-12
        for a, img in zip(X.left.basis, tp.result.left_action.images):
            C = np.stack([E.space.coeffs(X.act(a) @ x) for x in E.basis], axis=1)
            want = tp.S @ np.kron(C, np.eye(w)) @ tp.S_pinv
            assert np.abs(img - want).max() <= 1e-12

    def test_pullback_writes_result_elements_on_elementary_tensors(self, rng):
        E = seeded_module(3)
        X, Y = as_bimodule(E), algebra_bimodule(E.base)
        tp = interior_tensor(X, Y)
        Z = tp.result.module.basis
        d = tp.pullback(Z)
        # z_n = sum_a S_a eta_na, eta_na = sum_b d[n, a, b] y_b
        eta = np.tensordot(d, Y.module.basis, axes=1)
        rebuilt = np.einsum("arw,nawg->nrg", tp.blocks(), eta)
        assert np.abs(rebuilt - Z).max() <= 1e-12
        off = rng.standard_normal(Z.shape[1:]) + 1j * rng.standard_normal(Z.shape[1:])
        with pytest.raises(NotInModule):
            tp.pullback(off[None])

    def test_tol_reaches_every_homomorphism_application(self, golden_module,
                                                       block_algebra, monkeypatch):
        seen = []
        real = Homomorphism.apply_many

        def spy(self, mats, tol=1e-9):
            seen.append(tol)
            return real(self, mats, tol)

        X = as_bimodule(golden_module, None, tol=1e-10)
        Y = algebra_bimodule(block_algebra, tol=1e-10)
        monkeypatch.setattr(Homomorphism, "apply_many", spy)
        interior_tensor(X, Y, tol=1e-10)
        assert seen and set(seen) == {1e-10}

    def test_module_times_algebra_is_the_module(self, golden_module, block_algebra):
        tp = interior_tensor(as_bimodule(golden_module), algebra_bimodule(block_algebra))
        assert tp.result.module.dim == golden_module.dim
        assert tp.result.module.dim_H == golden_module.dim_H
        # the canonical map coord(x (x) g) -> x g is a certified unitary
        k, G = golden_module.dim, golden_module.dim_G
        M = np.hstack(list(golden_module.basis))
        U = M @ tp.S_pinv
        unit = certify_module_unitary(tp.result, as_bimodule(golden_module), U)
        assert unit.residual <= 1e-10

    def test_scalar_dimensions_multiply(self):
        tp = interior_tensor(scalar_correspondence(2).module, scalar_correspondence(3))
        assert tp.result.dim == 6
        assert tp.result.dim_H == 6

    def test_balanced_over_the_middle_algebra(self, golden_module, block_algebra, rng):
        tp = interior_tensor(as_bimodule(golden_module), algebra_bimodule(block_algebra))
        x = golden_module.basis[0]
        y = block_algebra.basis[1]
        b = block_algebra.basis[2]
        left = tp.embed(golden_module.space.project(x @ b), y)
        right = tp.embed(x, block_algebra.space.project(b @ y))
        assert np.linalg.norm(left - right) <= 1e-9

    def test_functoriality_of_the_left_action(self, golden_module):
        K = finite_rank_algebra(golden_module)
        tp = interior_tensor(as_bimodule(golden_module, K),
                             algebra_bimodule(golden_module.base))
        B = golden_module.base
        for a in K.basis[:3]:
            act = tp.result.act(a)
            for x in golden_module.basis[:2]:
                for y in B.basis[:2]:
                    lhs = act @ tp.embed(x, y)
                    ax = golden_module.space.project(a @ x)
                    rhs = tp.embed(ax, y)
                    assert np.linalg.norm(lhs - rhs) <= 1e-9

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dimension_bound(self, seed):
        E = seeded_module(seed)
        dual = dual_module(E)
        tp = interior_tensor(as_bimodule(E), dual)
        assert tp.result.module.dim <= E.dim * dual.module.dim


class TestUnitIdentities:
    def test_full_matrix_algebra(self):
        B = build_algebra([(2, 1)])
        E = module_over_itself(B)
        u1, u2 = unit_identities(E)
        assert u1.residual <= 1e-10
        assert u2.residual <= 1e-10

    def test_golden_module(self, golden_module, block_algebra):
        u1, u2 = unit_identities(golden_module)
        assert u1.residual <= 1e-10
        assert u2.residual <= 1e-10
        # u1 lands in K(E), a algebra *-isomorphic to the base
        K = finite_rank_algebra(golden_module)
        assert u1.target.module.dim == K.dim
        # u2 lands in the full base algebra (the module is full)
        assert u2.target.module.dim == block_algebra.dim

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_modules(self, seed):
        E = seeded_module(seed)
        u1, u2 = unit_identities(E)
        assert u1.residual <= 1e-8
        assert u2.residual <= 1e-8

    def test_non_full_module_hits_the_ideal(self, block_algebra):
        # the corner module is not full; the second identity lands in the
        # compressed inner-product ideal, not the whole base algebra
        E = build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
        u1, u2 = unit_identities(E)
        assert u1.residual <= 1e-10
        assert u2.residual <= 1e-10
        assert u2.target.module.dim == 1


class TestFlipUnitary:
    def test_scalar_w_reduces_to_the_total_space(self):
        B = build_algebra([(2, 1)])
        E = module_over_itself(B)
        W = OperatorSpace(2, 2, np.stack([np.eye(2, dtype=complex) / np.sqrt(2)]))
        rho_p = commutant_lifting(E)
        u = flip_unitary(E, W, rho_p)
        assert u.residual_unitary <= 1e-10
        assert u.map.shape[0] == E.dim_H  # onto span(W L_E G) = H

    def test_commutant_image_w(self, golden_module):
        rho_p = commutant_lifting(golden_module)
        W = rho_p.image_space()
        u = flip_unitary(golden_module, W, rho_p)
        assert u.residual_unitary <= 1e-10

    def test_incompatible_pair_rejected(self, golden_module):
        rho_p = commutant_lifting(golden_module)
        # a W that is not made of right-module maps: Gram equality must fail
        bad = OperatorSpace(3, 3, np.stack([matrix_unit(1, 2)]))
        with pytest.raises(ValidationError):
            flip_unitary(golden_module, bad, rho_p)

    def test_no_eigensolve(self, golden_module, monkeypatch):
        # the coordinates come from the thin SVD of the concrete factor
        from modfactor import numkernel
        rho_p = commutant_lifting(golden_module)
        W = rho_p.image_space()
        calls = []
        monkeypatch.setattr(numkernel, "eigh_desc",
                            lambda h, calls=calls: calls.append(h.shape))
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda h, *a, calls=calls, **k: calls.append(h.shape))
        # eigh_desc, wherever it was imported, calls LAPACK through _evr
        monkeypatch.setattr(numkernel, "_evr", lambda dtype, n: calls.append((n, n)))
        u = flip_unitary(golden_module, W, rho_p)
        assert calls == []
        assert u.residual_unitary <= 1e-10

    def test_residual_measures_the_abstract_gram(self, golden_module, monkeypatch):
        # U = cols S+ is isometric by construction, so only the abstract Gram
        # can show a defect below the 1e-6 screen: scale its (0, 0) block of
        # module inner products by 1 + 1e-7
        from modfactor import tensorcalc
        rho_p = commutant_lifting(golden_module)
        W = rho_p.image_space()
        real = tensorcalc._pairwise_inner

        def perturbed(mats):
            out = real(mats)
            if mats is golden_module.basis:
                out[0, 0] *= 1.0 + 1e-7
            return out

        monkeypatch.setattr(tensorcalc, "_pairwise_inner", perturbed)
        u = flip_unitary(golden_module, W, rho_p)
        assert u.residual_unitary > 1e-8
        assert op_norm(u.map.conj().T @ u.map - np.eye(u.map.shape[1])) <= 1e-12

    def test_flip_applied_twice_is_the_identity(self, golden_module):
        # build both orderings of the abstract triple-tensor coordinates and
        # check that the flip map (swap the first two factors) composed with
        # its reverse is the identity, and that it carries one concrete
        # realization onto the other
        from modfactor.tensorcalc import _gram_coordinates, _representation_inverter
        E = golden_module
        rho_p = commutant_lifting(E)
        W = rho_p.image_space()
        inv = _representation_inverter(rho_p)
        k, kw, G = E.dim, W.dim, E.dim_G
        n = k * kw * G
        gram1 = np.zeros((n, n), dtype=complex)  # index (i, j, s), E-major
        for j in range(kw):
            for l in range(kw):
                bp = inv(W.mats[j].conj().T @ W.mats[l])[0]
                for i in range(k):
                    for m in range(k):
                        blk = bp @ (E.basis[i].conj().T @ E.basis[m])
                        gram1[(i * kw + j) * G:(i * kw + j) * G + G,
                              (m * kw + l) * G:(m * kw + l) * G + G] = blk
        P = np.zeros((n, n))
        for i in range(k):
            for j in range(kw):
                for s in range(G):
                    P[(j * k + i) * G + s, (i * kw + j) * G + s] = 1.0
        gram2 = P @ gram1 @ P.T
        S1, S1p, _ = _gram_coordinates(gram1, 1e-9)
        S2, S2p, _ = _gram_coordinates(gram2, 1e-9)
        flip = S2 @ P @ S1p
        back = S1 @ P.T @ S2p
        r = S1.shape[0]
        assert op_norm(flip.conj().T @ flip - np.eye(r)) <= 1e-9
        assert op_norm(back @ flip - np.eye(r)) <= 1e-9
        # concrete realizations agree through the flip
        cols1 = np.hstack([W.mats[j] @ E.basis[i]
                           for i in range(k) for j in range(kw)])
        cols2 = np.hstack([W.mats[j] @ E.basis[i]
                           for j in range(kw) for i in range(k)])
        U1 = map_from_spanning(S1, cols1)
        U2 = map_from_spanning(S2, cols2)
        assert op_norm(U2 @ flip - U1) <= 1e-9


def _eigh_coordinates(gram, tol=1e-9):
    """The reference coordinates from a full eigensolve of the Gram:
    S = diag(sqrt(w)) V* on the eigenvalues above tol * largest."""
    w, V = np.linalg.eigh(gram)
    w, V = w[::-1], V[:, ::-1]
    r = int((w > tol * w[0]).sum())
    return (V[:, :r] * np.sqrt(w[:r])).conj().T


def _low_rank_gram(rng, n, spectrum):
    """A PSD n x n Gram with the given nonzero eigenvalues, Haar eigenvectors."""
    Q = haar_unitary(n, rng)[:, :len(spectrum)]
    return (Q * np.asarray(spectrum)) @ Q.conj().T


class TestGramCoordinates:
    def test_matches_the_eigensolve(self):
        from modfactor.tensorcalc import _gram_coordinates
        rng = np.random.default_rng(11)
        for n, spectrum in [(60, [3.0, 2.0, 1.0, 0.5, 0.1]),
                            (130, np.linspace(1.0, 4.0, 17))]:
            gram = _low_rank_gram(rng, n, spectrum)
            S, Sp, gap = _gram_coordinates(gram, 1e-9)
            S_ref = _eigh_coordinates(gram)
            assert S.shape == S_ref.shape
            # same support: S+ S is the projector of the eigenvector span
            proj_ref = np.linalg.pinv(S_ref) @ S_ref
            assert np.abs(Sp @ S - proj_ref).max() <= 1e-12
            SS = S @ S.conj().T
            assert np.abs(SS - np.diag(np.diag(SS))).max() <= 1e-12 * SS[0, 0].real
            # the reported gap's denominator bounds ||Gram - S* S||
            bound = np.diag(SS).real.min() / gap
            assert np.linalg.norm(gram - S.conj().T @ S, 2) <= bound

    def test_a_value_near_the_cut_is_ambiguous(self):
        from modfactor.errors import ToleranceAmbiguity
        from modfactor.tensorcalc import _gram_coordinates
        gram = _low_rank_gram(np.random.default_rng(12), 40, [1.0, 0.5, 2e-9])
        with pytest.raises(ToleranceAmbiguity):
            _gram_coordinates(gram, 1e-9)

    def test_noise_above_the_cholesky_stop_is_cut_by_the_svd(self):
        # Hermitian noise of 1e-12 lies above zpstrf's default stop (n eps
        # max gram_ii, about 1e-14 here), so the pivoted Cholesky keeps noise
        # pivots; the cut on sigma^2 drops them
        from modfactor.tensorcalc import _gram_coordinates
        rng = np.random.default_rng(13)
        n = 50
        gram = _low_rank_gram(rng, n, [2.0, 1.0, 0.7, 0.3])
        N = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gram = gram + 1e-12 * (N @ N.conj().T) / n
        assert scipy.linalg.lapack.zpstrf(gram)[2] > 4
        S, Sp, gap = _gram_coordinates(gram, 1e-9)
        S_ref = _eigh_coordinates(gram)
        assert S.shape == S_ref.shape == (4, n)
        assert np.abs(Sp @ S - np.linalg.pinv(S_ref) @ S_ref).max() <= 1e-10
        assert 1e8 < gap < 1e12

    def test_a_zero_residual_reports_the_floored_gap(self):
        # an exactly factored Gram: residual 0 and nothing dropped, so the gap
        # is the smallest value over the floor n eps scale (n = 2 values)
        from modfactor.tensorcalc import _gram_coordinates
        gram = np.diag([4.0, 0.0, 1.0, 0.0]).astype(complex)
        S, Sp, gap = _gram_coordinates(gram, 1e-9)
        assert S.shape == (2, 4)
        assert np.abs(S.conj().T @ S - gram).max() <= 1e-15
        assert gap == pytest.approx(1.0 / (2 * np.finfo(float).eps * 4.0), rel=1e-12)

    def test_no_hermitian_solve_of_a_gram_size_on_instance_a(self, tmp_path, monkeypatch):
        # ROADMAP instance a: parse and verify eigendecompose no tensor Gram
        # (k * w); the Hermitian solves left are of H_F-sized matrices
        from modfactor import factorizations, harness, tensorcalc
        spec = harness.GenSpec(blocks_B=[(2, 1), (3, 1)], blocks_C=[(2, 1)], compress=False)
        path = tmp_path / "a.json"
        harness.save_instance(harness.generate_random_instance(spec, 1), str(path))
        grams, solves = [], []
        real = tensorcalc._gram_coordinates

        def gram_spy(gram, tol):
            grams.append(gram.copy())
            return real(gram, tol)

        def solve_spy(real_solve):
            def spy(h, *args, **kwargs):
                solves.append(np.array(h))
                return real_solve(h, *args, **kwargs)
            return spy

        monkeypatch.setattr(tensorcalc, "_gram_coordinates", gram_spy)
        monkeypatch.setattr(factorizations, "_gram_coordinates", gram_spy)
        for owner, name in [(scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                            (np.linalg, "eigh"), (np.linalg, "eigvalsh")]:
            monkeypatch.setattr(owner, name, solve_spy(getattr(owner, name)))
        # eigh_desc, wherever it was imported, calls LAPACK through _evr
        evr = numkernel._evr
        monkeypatch.setattr(numkernel, "_evr",
                            lambda dtype, n: (solve_spy(evr(dtype, n)[0]), evr(dtype, n)[1]))
        assert harness.run_verification(harness.parse_instance(str(path))).passed
        assert len(grams) >= 8 and solves
        assert max(len(g) for g in grams) >= 500
        for h in solves:
            assert not any(g.shape == h.shape and np.allclose(g, h, atol=1e-12)
                           for g in grams)
        assert max(len(h) for h in solves) <= 20


class TestAssociativity:
    def _triple(self, E):
        K = finite_rank_algebra(E)
        X = as_bimodule(E, K)          # K(E) -> B
        Y = dual_module(E)             # B -> K(E)
        Z = as_bimodule(E, K)          # K(E) -> B
        return X, Y, Z

    def test_associator_on_golden(self, golden_module):
        X, Y, Z = self._triple(golden_module)
        tp_xy = interior_tensor(X, Y)
        tp_left = interior_tensor(tp_xy.result, Z)
        tp_yz = interior_tensor(Y, Z)
        tp_right = interior_tensor(X, tp_yz.result)
        alpha = associator(tp_left, tp_xy, tp_right, tp_yz)
        assert alpha.residual <= 1e-9

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000))
    def test_associator_on_random_modules(self, seed):
        E = seeded_module(seed)
        X, Y, Z = self._triple(E)
        tp_xy = interior_tensor(X, Y)
        tp_left = interior_tensor(tp_xy.result, Z)
        tp_yz = interior_tensor(Y, Z)
        tp_right = interior_tensor(X, tp_yz.result)
        alpha = associator(tp_left, tp_xy, tp_right, tp_yz)
        assert alpha.residual <= 1e-8


class TestRepresentationInverter:
    def _representations(self, golden_module):
        yield commutant_lifting(golden_module)
        yield commutant_lifting(seeded_module(3))
        # numerically rank-deficient: the second singular value lies below
        # pinv's cutoff of 1e-15 times the first, so it must be dropped
        A = build_algebra([(1, 1), (1, 1)])
        tiny = 1e-17 * np.diag([1.0, -1.0]).astype(complex)
        yield Homomorphism(A, 2, np.stack([np.eye(2, dtype=complex), tiny]))

    def test_matches_pinv_and_a_separate_svd(self, golden_module):
        from modfactor.tensorcalc import _representation_inverter
        rng = np.random.default_rng(8)
        for rho in self._representations(golden_module):
            P = np.stack([img.reshape(-1) for img in rho.images], axis=1)
            Pp = np.linalg.pinv(P)
            s = np.linalg.svd(P, compute_uv=False)
            cond_ref = s[0] / s[-1] if s[-1] > 0 else np.inf
            inv = _representation_inverter(rho)
            d = rho.codomain_dim
            mats = list(rho.images) + [np.eye(d)] + \
                list(rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
            for m in mats:
                pre, cond = inv(m)
                ref = np.tensordot(Pp @ m.reshape(-1), rho.domain.basis, axes=1)
                assert np.abs(pre - ref).max() <= 1e-12
                assert cond == cond_ref or abs(cond - cond_ref) <= 1e-12 * cond_ref


# ---------------------------------------------------------------------------
# the induced-action certificate


def _reference_product_residuals(hom):
    """The product check the certificate replaces, kept as the reference:
    residuals (k, k) of theta(b_i) theta(b_j) - sum_l c[i, j, l] theta(b_l)
    and the norms (k, k) of those sums."""
    return dense_product_residuals(hom.domain, hom.images)


def _spy_induced_actions(monkeypatch):
    """Record every certified induced action, from interior_tensor and from
    the commutant method's intertwiner module."""
    from modfactor import factorizations, tensorcalc
    made = []
    real = tensorcalc._induced_action

    def spy(*args):
        hom = real(*args)
        made.append(hom)
        return hom

    monkeypatch.setattr(tensorcalc, "_induced_action", spy)
    monkeypatch.setattr(factorizations, "_induced_action", spy)
    return made


class TestInducedActionCertificate:
    def test_bound_dominates_the_product_loop(self, monkeypatch):
        from modfactor.harness import golden_instance, run_verification
        made = _spy_induced_actions(monkeypatch)
        for inst in [golden_instance()] + batch_instances(10):
            assert run_verification(inst).passed
        assert len(made) >= 11 * 6
        for hom in made:
            cert = hom.certificate
            res, _ = _reference_product_residuals(hom)
            assert cert.kind == "induced action" and cert.tol == 1e-9
            assert res.max() <= cert.value <= 100 * 1e-9

    def test_bound_is_the_docstring_formula(self, golden_module):
        # the bound spelled out with Kronecker products on the golden
        # K(E)-bimodule against E*
        from modfactor.tensorcalc import _induced_action
        X, Y = as_bimodule(golden_module), dual_module(golden_module)
        tp = interior_tensor(X, Y)
        S, Sp = tp.S, tp.S_pinv
        rho, x = X.left_action, X.module.basis
        w = Y.module.dim_H
        acts = rho.apply_many(X.left.basis)
        # C[a][c, x]: the coefficient of rho(a) x_x along x_c
        C = np.einsum("cij,ail,xlj->acx", x.conj(), acts, x)
        images = tp.result.left_action.images
        D = np.stack([np.kron(Ca, np.eye(w)) @ Sp - Sp @ P for Ca, P in zip(C, images)])
        R_X = np.array([np.linalg.norm(acts[a] @ x - np.einsum("cx,cij->xij", C[a], x))
                        for a in range(len(acts))])
        norm_pi = np.linalg.norm(images, axis=(1, 2))
        want = np.linalg.norm(S, 2) * (
            np.outer(np.linalg.norm(C, axis=(1, 2)), np.linalg.norm(D, axis=(1, 2)))
            + np.linalg.norm(Sp) * (rho.certificate.value + np.outer(
                np.linalg.norm(acts, axis=(1, 2)), R_X))) \
            + 2 * len(S) * np.finfo(float).eps * np.outer(norm_pi, norm_pi)
        cert = _induced_action(rho, X.module.space, S, Sp, 1e-9).certificate
        assert cert.kind == "induced action"
        assert np.isclose(cert.value, want.max(), rtol=1e-6, atol=1e-30)
        assert tp.result.left_action.certificate == cert
        # the formula bounds each pair's residual
        res, _ = _reference_product_residuals(tp.result.left_action)
        assert (res <= want).all()

    @staticmethod
    def _golden_fixture_tensor():
        """E (.) E* of the golden fixture file, with K(E) acting on E."""
        from modfactor.harness import parse_instance
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "golden.json"
        E = parse_instance(str(fixture)).E
        X = as_bimodule(E)
        return X, interior_tensor(X, dual_module(E))

    def test_images_are_the_kronecker_formula(self):
        X, tp = self._golden_fixture_tensor()
        x, w = X.module.basis, tp.right_total
        acts = X.left_action.apply_many(X.left.basis)
        C = np.einsum("cij,ail,xlj->acx", x.conj(), acts, x)
        want = np.stack([tp.S @ np.kron(Ca, np.eye(w)) @ tp.S_pinv for Ca in C])
        got = tp.result.left_action.images
        assert len(got) == X.left.dim >= 2
        assert np.abs(got - want).max() <= 1e-12

    def test_ill_conditioned_coordinates_measure_an_a_priori_defect(self, monkeypatch):
        # rho, Haar-conjugated M_6 (+) M_4 amplified twice, takes the
        # matrix-unit route, so its defect mu is the route's bound, far above
        # its measured residuals.  With S = 1_20 (x) diag(1, 2^-13) on C^20 (x)
        # C^2 (sigma_max / sigma_min = 8192, which the rank cut keeps), pi(a)
        # = rho(a) (x) 1 and ||S+|| ~ 3.7e4 multiplies mu: pi's certificate
        # is above the rule, so validate measures pi's residuals in one
        # kernel pass and pi passes with them; rho keeps its certified bound
        from modfactor.cstar import algebra_from_basis
        from modfactor.tensorcalc import _induced_action
        A = algebra_from_basis(haar_conjugated([(6, 1), (4, 1)], np.random.default_rng(3)))
        rho = Homomorphism(A, 20, np.stack([np.kron(b, np.eye(2)) for b in A.basis]))
        passes = spy_product_residuals(monkeypatch)
        rho.validate()
        assert not passes
        loop = float(cstar.product_residuals(A, rho.images)[0].max())
        assert rho.certificate.kind == "matrix units"
        assert rho.certificate.value > 1e3 * loop
        space = OperatorSpace(20, 1, np.eye(20, dtype=complex)[:, :, None])
        s = 2.0 ** -13
        S, S_pinv = (np.kron(np.eye(20), np.diag([1.0, v])).astype(complex) for v in (s, 1 / s))
        route = rho.certificate.value
        assert route * np.linalg.norm(S_pinv) > 100 * 1e-9
        passes.clear()
        pi = _induced_action(rho, space, S, S_pinv, 1e-9)
        assert len(passes) == 1 and passes[0][1][0] is pi.images
        assert rho.certificate.value == route
        assert pi.certificate.kind == "kernel" and pi.certificate.tol == 1e-9
        assert pi.certificate.value == cstar.product_residuals(A, pi.images)[0].max() <= 1e-14
        want = np.stack([np.kron(m, np.eye(2)) for m in rho.images])
        assert np.abs(pi.images - want).max() <= 1e-14

    def test_corrupted_right_inverse_fails_the_certificate(self):
        from modfactor.tensorcalc import _induced_action
        X, tp = self._golden_fixture_tensor()
        rng = np.random.default_rng(5)
        bad = tp.S_pinv + 1e-3 * (rng.standard_normal(tp.S_pinv.shape)
                                  + 1j * rng.standard_normal(tp.S_pinv.shape))
        with pytest.raises(ValidationError, match="range-invariance certificate"):
            _induced_action(X.left_action, X.module.space, tp.S, bad, 1e-9)

    @pytest.mark.parametrize("block", [0, 1])
    def test_perturbed_coordinates_fail_the_certificate(self, golden_module, monkeypatch,
                                                        block):
        from modfactor import factorizations, harness, tensorcalc
        real = tensorcalc._gram_coordinates
        width = []  # the right factor's total dimension, when known

        def perturbed(gram, tol):
            S, S_pinv, gap = real(gram, tol)
            S = S.copy()
            w = width[0] if width else 1
            S[:, block * w:(block + 1) * w] += 1e-6  # one column block
            return S, S_pinv, gap

        monkeypatch.setattr(tensorcalc, "_gram_coordinates", perturbed)
        monkeypatch.setattr(factorizations, "_gram_coordinates", perturbed)
        X, Y = as_bimodule(golden_module), dual_module(golden_module)
        width.append(Y.module.dim_H)
        with pytest.raises(ValidationError, match="range-invariance certificate"):
            interior_tensor(X, Y)
        # through verify, where the block widths vary, one column of the block
        width.clear()
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "golden.json"
        report = harness.run_verification(harness.parse_instance(str(fixture)))
        assert not report.passed
        assert "range-invariance certificate" in report.to_canonical_json()


def _fresh(rho):
    """A copy of a homomorphism without its validation."""
    return Homomorphism(rho.domain, rho.codomain_dim, rho.images)


def _one_shot_induced_stacks(rho, space, S, S_pinv):
    """(C, R_X, images, R_inv) of _induced_action before row blocks."""
    acts = rho.apply_many(rho.domain.basis)
    m, k = len(acts), space.dim
    r, w = S.shape[0], S.shape[1] // k
    xflat = space.mats.reshape(k, -1)
    moved = np.matmul(acts[:, None], space.mats[None]).reshape(m * k, -1)
    C = (moved @ xflat.conj().T).reshape(m, k, k)
    R_X = np.linalg.norm((moved - C.reshape(m * k, k) @ xflat).reshape(m, -1), axis=1)
    CS = (C.transpose(0, 2, 1) @ S_pinv.reshape(k, w * r)).reshape(m, k * w, r)
    images = S @ CS
    R_inv = np.linalg.norm((CS - S_pinv @ images).reshape(m, -1), axis=1)
    return C, R_X, images, R_inv


class TestRowBlockedInducedAction:
    """E (.) E* of instance a with K(E) acting: m = 52, k = 26, w = 5, r = 10."""

    @staticmethod
    def _tensor():
        E = instance_a().E
        X = as_bimodule(E)
        return X, interior_tensor(X, dual_module(E))

    def _row_bytes(self, X, tp):
        k, r = X.module.dim, len(tp.S)
        return 16 * X.module.space.mats.size, 16 * k * tp.right_total * r

    def test_blocks_match_the_one_shot_stacks(self, block_budget):
        from modfactor.tensorcalc import _induced_action
        X, tp = self._tensor()
        rho, space = X.left_action, X.module.space
        ref = _induced_action(_fresh(rho), space, tp.S, tp.S_pinv, 1e-9)
        images = _one_shot_induced_stacks(rho, space, tp.S, tp.S_pinv)[2]
        left, cs = self._row_bytes(X, tp)
        block_budget(4 * max(left, cs))
        m = X.left.dim
        assert min(len(row_blocks(m, left)), len(row_blocks(m, cs))) >= 3
        # the product bounds carry C (through its norms) and R_X
        hom = _induced_action(_fresh(rho), space, tp.S, tp.S_pinv, 1e-9)
        assert np.abs(hom.images - images).max() <= 1e-12
        assert np.abs(hom.images - ref.images).max() <= 1e-12
        assert hom.certificate.kind == ref.certificate.kind == "induced action"
        assert np.abs(hom.certificate.value - ref.certificate.value) <= 1e-12

    def test_a_later_block_names_the_same_element(self, block_budget):
        from modfactor.tensorcalc import _induced_action
        X, tp = self._tensor()
        rho, space = _fresh(X.left_action), X.module.space
        rho.validate(1e-9)
        # corrupt rho(b_a), and so C_a, of the last basis element after rho's
        # own check: its range-invariance residual D_a, and so the
        # certificate of its adjoint, fails
        acts = rho.apply_many(rho.domain.basis, 1e-9)
        acts[-1] += 1e-3 * np.random.default_rng(3).standard_normal(acts[-1].shape)
        rho.apply_many = lambda mats, tol: acts
        names = []
        for budget in (numkernel._BLOCK_BYTES, self._row_bytes(X, tp)[1]):
            block_budget(budget)
            with pytest.raises(ValidationError, match="range-invariance") as err:
                _induced_action(rho, space, tp.S, tp.S_pinv, 1e-9)
            names.append(str(err.value))
        assert names[0] == names[1]
        assert int(names[0].split("basis element ")[1].split()[0]) > 2

    def test_peaks_stay_below_the_one_shot_stacks(self, block_budget):
        from modfactor.tensorcalc import _induced_action
        X, tp = self._tensor()
        rho, space = _fresh(X.left_action), X.module.space
        rho.validate()
        peaks = []
        for budget in (2**40, 2**15):  # one block (the one-shot stacks), then many
            block_budget(budget)
            peaks.append(traced_peak(_induced_action, rho, space, tp.S, tp.S_pinv, 1e-9)[1])
        # validate's (m, r, r) stacks included in both
        assert peaks[1] < peaks[0] / 2, peaks


class TestGramLayout:
    def test_the_gram_is_written_in_place(self, monkeypatch):
        # the dual method's E* (.) F_theta of instance a: N = 26 * 20 = 520
        import tracemalloc
        from modfactor import tensorcalc
        from modfactor.factorizations import validate_theta
        from modfactor.hilbmod import _pairwise_inner
        inst = instance_a()
        _, F_corr = validate_theta(inst.E, inst.F, inst.theta)
        X = dual_module(inst.E)
        seen = []
        real = tensorcalc._gram_coordinates

        def spy(gram, tol):
            peak = tracemalloc.get_traced_memory()[1]
            seen.append((gram.copy(), peak))
            return real(gram, tol)

        monkeypatch.setattr(tensorcalc, "_gram_coordinates", spy)
        traced_peak(interior_tensor, X, F_corr)
        gram, peak = seen[0]
        # the layout before: a (k, k, w, w) array and its transposed copy
        k, w = X.module.dim, F_corr.module.dim_H
        iu, ju = np.triu_indices(k)
        blocks = F_corr.left_action.apply_many(_pairwise_inner(X.module.basis)[iu, ju])
        ref = np.empty((k, k, w, w), dtype=complex)
        ref[ju, iu] = blocks.conj().transpose(0, 2, 1)
        ref[iu, ju] = blocks
        assert np.array_equal(gram, ref.transpose(0, 2, 1, 3).reshape(k * w, k * w))
        assert peak < 2 * gram.nbytes, (peak, gram.nbytes)


def _flip_inputs(inst):
    """(E, W, rho') of the commutant method's flip on an instance."""
    from modfactor.hilbmod import intertwiner_space
    return inst.E, intertwiner_space(inst.theta), commutant_lifting(inst.E)


def _one_shot_flip(E, W, rho_p):
    """(abstract Gram, concrete columns) of flip_unitary before row panels."""
    from modfactor import tensorcalc
    from modfactor.hilbmod import _pairwise_inner
    k, kw, g = E.dim, W.dim, E.dim_G
    bprime = tensorcalc._representation_inverter(rho_p)(_pairwise_inner(W.mats))[0]
    blocks = np.matmul(bprime[None, :, None], _pairwise_inner(E.basis)[:, None, :, None])
    gram = blocks.transpose(0, 1, 4, 2, 3, 5).reshape(k * kw * g, k * kw * g)
    cols = np.hstack([W.mats[j] @ E.basis[i] for i in range(k) for j in range(kw)])
    return gram, cols


class TestRowPanelFlip:
    def test_panels_match_the_one_shot_check(self, block_budget):
        from modfactor.tensorcalc import _factor_coordinates
        E, W, rho_p = _flip_inputs(instance_a())
        gram, cols = _one_shot_flip(E, W, rho_p)
        g, n = E.dim_G, len(gram)
        block_budget(5 * 16 * g * n)
        assert len(row_blocks(E.dim * W.dim, 16 * g * n)) >= 3
        _, S_pinv, _ = _factor_coordinates(cols, 1e-9)
        U = cols @ S_pinv
        eye = np.eye(S_pinv.shape[1])
        ru = max(op_norm(U.conj().T @ U - eye), op_norm(S_pinv.conj().T @ gram @ S_pinv - eye))
        u = flip_unitary(E, W, rho_p)
        assert np.abs(u.map - U).max() <= 1e-12
        assert abs(u.residual_unitary - ru) <= 1e-12

    def test_a_defect_in_a_later_panel_is_found(self, golden_module, block_budget,
                                                monkeypatch):
        # scale the last module inner-product block <x_k, x_k> by 1.01: only
        # the last row panels of the abstract Gram change
        from modfactor import tensorcalc
        rho_p = commutant_lifting(golden_module)
        W = rho_p.image_space()
        real = tensorcalc._pairwise_inner

        def scaled(mats):
            out = real(mats)
            if mats is golden_module.basis:
                out[-1, -1] *= 1.01
            return out

        monkeypatch.setattr(tensorcalc, "_pairwise_inner", scaled)
        block_budget(1)
        assert len(row_blocks(golden_module.dim * W.dim, 1)) >= 3
        with pytest.raises(ValidationError, match="abstract and concrete Gram"):
            flip_unitary(golden_module, W, rho_p)

    def test_peak_stays_below_the_one_shot_gram(self, block_budget):
        E, W, rho_p = _flip_inputs(instance_a())
        n = E.dim * W.dim * E.dim_G
        block_budget(2**16)
        _, peak = traced_peak(flip_unitary, E, W, rho_p)
        assert peak < 16 * n * n / 2, (peak, 16 * n * n)

    @pytest.mark.parametrize("op_over_bound", [0.8, 2.0])
    def test_the_screen_falls_back_to_norm_exceeds(self, golden_module, monkeypatch,
                                                   op_over_bound):
        # bprime(j, l) += c delta_jl 1 adds c (G_E (x) 1_kw), permuted, to
        # Gram - cols* cols (G_E the Gram of E's basis), of operator norm
        # c ||G_E|| and Frobenius norm c sqrt(kw) ||G_E||_F
        from modfactor import tensorcalc
        rho_p = commutant_lifting(golden_module)
        W = rho_p.image_space()
        X = golden_module.stacked()
        G_E = X.conj().T @ X
        op, fro = np.linalg.norm(G_E, 2), np.sqrt(W.dim) * np.linalg.norm(G_E)
        bound = 1e-6 * max(1.0, np.linalg.norm(X, 2) ** 2)
        assert fro / op > 1.4
        c = op_over_bound * bound / op
        assert c * fro > bound * 1.1  # the Frobenius screen does not settle it
        real = tensorcalc._representation_inverter

        def shifted(rho):
            inv = real(rho)

            def f(m):
                pre, cond = inv(m)
                kw, g = pre.shape[0], pre.shape[-1]
                return pre + c * np.eye(kw)[:, :, None, None] * np.eye(g), cond
            return f

        monkeypatch.setattr(tensorcalc, "_representation_inverter", shifted)
        gram, cols = _one_shot_flip(golden_module, W, rho_p)
        old = norm_exceeds(gram - cols.conj().T @ cols, bound)
        assert old == (op_over_bound > 1)
        checked = []
        monkeypatch.setattr(tensorcalc, "norm_exceeds",
                            lambda x, b: checked.append(x.shape) or norm_exceeds(x, b))
        if old:
            with pytest.raises(ValidationError, match="abstract and concrete Gram"):
                flip_unitary(golden_module, W, rho_p)
        else:
            flip_unitary(golden_module, W, rho_p)
        assert checked == [gram.shape]

    def test_a_settled_screen_forms_no_full_difference(self, golden_module, monkeypatch):
        from modfactor import tensorcalc
        checked = []
        monkeypatch.setattr(tensorcalc, "norm_exceeds",
                            lambda x, b: checked.append(x.shape) or norm_exceeds(x, b))
        rho_p = commutant_lifting(golden_module)
        assert flip_unitary(golden_module, rho_p.image_space(), rho_p).residual_unitary <= 1e-10
        assert checked == []
