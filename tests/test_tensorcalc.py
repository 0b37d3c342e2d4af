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
    Certificate,
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
    instance_b,
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
        # the coordinates come from the thin SVD of the concrete factor; the
        # Hermitian solves left are those of rho''s frame, of H_E-sized
        # matrices (rho' fresh, so that its frame is built here)
        rho_p = _fresh(commutant_lifting(golden_module))
        W = rho_p.image_space()
        calls = []

        def spy(real):
            return lambda h, *a, **k: calls.append(np.shape(h)) or real(h, *a, **k)

        monkeypatch.setattr(scipy.linalg, "eigh", spy(scipy.linalg.eigh))
        # eigh_desc, wherever it was imported, calls LAPACK through _evr
        evr = numkernel._evr
        monkeypatch.setattr(numkernel, "_evr",
                            lambda dtype, n: (spy(evr(dtype, n)[0]), evr(dtype, n)[1]))
        u = flip_unitary(golden_module, W, rho_p)
        assert calls and max(max(c) for c in calls) <= golden_module.dim_H
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
        E = golden_module
        rho_p = commutant_lifting(E)
        W = rho_p.image_space()
        k, kw, G = E.dim, W.dim, E.dim_G
        n = k * kw * G
        gram1 = np.zeros((n, n), dtype=complex)  # index (i, j, s), E-major
        for j in range(kw):
            for l in range(kw):
                bp = _rho_inverse(rho_p, W.mats[j].conj().T @ W.mats[l])
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
        S1, S1p = _coordinates(gram1)
        S2, S2p = _coordinates(gram2)
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


def _rho_inverse(rho, mats):
    """rho^-1 of a matrix or a stack (..., d, d) in rho's image, by a
    least-squares solve against rho's images: the reference inverse."""
    mats = np.asarray(mats)
    P = rho.images.reshape(len(rho.images), -1)
    c = mats.reshape(mats.shape[:-2] + (-1,)) @ np.linalg.pinv(P)
    return np.tensordot(c, rho.domain.basis, axes=1)


def _coordinates(gram, tol=1e-9):
    """(S, S+) of a PSD Gram from the thin factor of its eigensolve."""
    from modfactor.tensorcalc import _factor_coordinates
    w, V = np.linalg.eigh(gram)
    return _factor_coordinates((V * np.sqrt(np.clip(w, 0.0, None))).conj().T, tol)[:2]


def _eigh_coordinates(gram, tol=1e-9):
    """The reference coordinates from a full eigensolve of the Gram:
    S = diag(sqrt(w)) V* on the eigenvalues above tol * largest."""
    w, V = np.linalg.eigh(gram)
    w, V = w[::-1], V[:, ::-1]
    r = int((w > tol * w[0]).sum())
    return (V[:, :r] * np.sqrt(w[:r])).conj().T


def _low_rank_factor(rng, n, spectrum, extra=3):
    """A factor Z, len(spectrum) + extra rows by n columns, of the PSD Gram
    Z* Z with the given nonzero eigenvalues and Haar eigenvectors."""
    r = len(spectrum)
    Q = haar_unitary(n, rng)[:, :r]
    L = haar_unitary(r + extra, rng)[:, :r]
    return (L * np.sqrt(np.asarray(spectrum))) @ Q.conj().T


class TestGramCoordinates:
    """The coordinates of a Gram Z* Z from its thin factor Z, no Gram formed."""

    def test_matches_the_eigensolve(self):
        from modfactor.tensorcalc import _factor_coordinates
        rng = np.random.default_rng(11)
        for n, spectrum in [(60, [3.0, 2.0, 1.0, 0.5, 0.1]),
                            (130, np.linspace(1.0, 4.0, 17))]:
            Z = _low_rank_factor(rng, n, spectrum, extra=n)
            gram = Z.conj().T @ Z
            S, Sp, gap, Q = _factor_coordinates(Z, 1e-9)
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
            # Q = Z S+ is an isometry onto Z's range
            assert np.abs(Z @ Sp - Q).max() <= 1e-12
            assert np.abs(Q.conj().T @ Q - np.eye(len(S))).max() <= 1e-12
            assert np.abs(Q @ (Q.conj().T @ Z) - Z).max() <= 1e-12

    def test_a_value_near_the_cut_is_ambiguous(self):
        from modfactor.errors import ToleranceAmbiguity
        from modfactor.tensorcalc import _factor_coordinates
        Z = _low_rank_factor(np.random.default_rng(12), 40, [1.0, 0.5, 2e-9])
        with pytest.raises(ToleranceAmbiguity):
            _factor_coordinates(Z, 1e-9)
        # and so is a residual that is not a factor 10 below the cut
        Z = _low_rank_factor(np.random.default_rng(12), 40, [1.0, 0.5])
        with pytest.raises(ToleranceAmbiguity):
            _factor_coordinates(Z, 1e-9, 2e-10)

    def test_noise_in_the_factor_is_cut_by_the_svd(self):
        # noise of about 1e-7 in the factor leaves values of sigma^2 about
        # 1e-14, which the cut on sigma^2 drops
        from modfactor.tensorcalc import _factor_coordinates
        rng = np.random.default_rng(13)
        n = 50
        Z = _low_rank_factor(rng, n, [2.0, 1.0, 0.7, 0.3])
        Z = Z + 1e-6 * (rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape)) / n
        assert np.linalg.svd(Z, compute_uv=False)[4] > 1e-9
        S, Sp, gap, _ = _factor_coordinates(Z, 1e-9)
        S_ref = _eigh_coordinates(Z.conj().T @ Z)
        assert S.shape == S_ref.shape == (4, n)
        assert np.abs(Sp @ S - np.linalg.pinv(S_ref) @ S_ref).max() <= 1e-10
        assert 1e8 < gap < 1e16

    def test_a_zero_residual_reports_the_floored_gap(self):
        # an exact factor: residual 0 and nothing dropped, so the gap is the
        # smallest value over the floor n eps scale (n = 2 values)
        from modfactor.tensorcalc import _factor_coordinates
        Z = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], dtype=complex)
        gram = np.diag([4.0, 0.0, 1.0, 0.0]).astype(complex)
        S, Sp, gap, _ = _factor_coordinates(Z, 1e-9)
        assert S.shape == (2, 4)
        assert np.abs(S.conj().T @ S - gram).max() <= 1e-15
        assert gap == pytest.approx(1.0 / (2 * np.finfo(float).eps * 4.0), rel=1e-12)

    def test_no_hermitian_solve_of_a_gram_size_on_instance_a(self, tmp_path, monkeypatch):
        # ROADMAP instance a: parse and verify hand every tensor's coordinates
        # a thin factor, at most H_F = 20 rows against k * w up to 520
        # columns, and eigendecompose no tensor Gram; the Hermitian solves
        # left are of H_F-sized matrices
        from modfactor import harness, tensorcalc
        spec = harness.GenSpec(blocks_B=[(2, 1), (3, 1)], blocks_C=[(2, 1)], compress=False)
        path = tmp_path / "a.json"
        harness.save_instance(harness.generate_random_instance(spec, 1), str(path))
        factors, solves = [], []
        real = tensorcalc._factor_coordinates

        def factor_spy(Z, tol, residual=0.0):
            factors.append(Z.shape)
            return real(Z, tol, residual)

        def solve_spy(real_solve):
            def spy(h, *args, **kwargs):
                solves.append(np.shape(h))
                return real_solve(h, *args, **kwargs)
            return spy

        monkeypatch.setattr(tensorcalc, "_factor_coordinates", factor_spy)
        for owner, name in [(scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                            (np.linalg, "eigh"), (np.linalg, "eigvalsh")]:
            monkeypatch.setattr(owner, name, solve_spy(getattr(owner, name)))
        # eigh_desc, wherever it was imported, calls LAPACK through _evr
        evr = numkernel._evr
        monkeypatch.setattr(numkernel, "_evr",
                            lambda dtype, n: (solve_spy(evr(dtype, n)[0]), evr(dtype, n)[1]))
        assert harness.run_verification(harness.parse_instance(str(path))).passed
        assert len(factors) >= 8 and solves
        assert max(cols for _, cols in factors) >= 500
        assert max(rows for rows, _ in factors) <= 20
        assert max(max(h) for h in solves) <= 20


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
    """rho'^-1 read off rho''s inverse amplifier V: b = V* (rho'(b) (x) 1) V."""

    def _representations(self, golden_module):
        yield commutant_lifting(golden_module)
        yield commutant_lifting(seeded_module(3))
        # Haar-tilted M_2 (x) 1_2 on C^4 onto one copy: mu = 2 copies in the
        # domain, nu = 1 in the image, so V maps into m = 2 copies
        from modfactor.cstar import algebra_from_basis
        A = algebra_from_basis(haar_conjugated([(2, 2)], np.random.default_rng(6)))
        units = build_algebra([(2, 1)]).basis / np.sqrt(2)
        yield Homomorphism(A, 2, units)

    def test_matches_pinv_and_a_separate_svd(self, golden_module):
        from modfactor.factorizations import factor_commutant
        from modfactor.tensorcalc import _amplified, _amplifier
        rng = np.random.default_rng(8)
        ms = []
        for rho in self._representations(golden_module):
            rho.validate()
            V, residual = _amplifier(rho, 1e-9, inverse=True)
            ms.append(V.shape[1])
            assert residual <= 1e-12
            c = rng.standard_normal((2, rho.domain.dim)) + 1j * rng.standard_normal((2, rho.domain.dim))
            mats = np.concatenate([rho.images, np.eye(rho.codomain_dim)[None],
                                   np.tensordot(c, rho.images, axes=1)])
            got = V.reshape(-1, V.shape[2]).conj().T @ _amplified(mats, V)
            assert np.abs(got - _rho_inverse(rho, mats)).max() <= 1e-12
        assert max(ms) == 2
        # the commutant method reports rho''s conditioning as a separate SVD
        # of its images gives it
        inst = instance_a()
        _, res = factor_commutant(inst.E, inst.F, inst.theta)
        rho_p = res.aux["rho_p"]
        s = np.linalg.svd(rho_p.images.reshape(len(rho_p.images), -1), compute_uv=False)
        cond = res.report["rho_inverse_conditioning"]
        assert abs(cond - s[0] / s[-1]) <= 1e-12 * s[0] / s[-1]


class TestAmplifier:
    """Y's left action rho(b) = V* (b (x) 1_m) V, the Stinespring form read
    off B's frame."""

    @staticmethod
    def _tilted(scale):
        """B = C (+) M_2 on C^3, and b -> D u (b (x) 1_2) u* D on C^6 for a
        Haar unitary u and D = diag(scale, 1, ..., 1): a representation at
        scale 1, else completely positive and not multiplicative."""
        B = build_algebra([(1, 1), (2, 1)])
        u = haar_unitary(6, np.random.default_rng(9))
        D = np.diag([scale] + [1.0] * 5)
        images = np.stack([D @ u @ np.kron(b, np.eye(2)) @ u.conj().T @ D for b in B.basis])
        return B, Homomorphism(B, 6, images)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-4])
    def test_stinespring_form_reproduces_the_map(self, scale):
        from modfactor.tensorcalc import _amplified, _amplifier
        B, rho = self._tilted(scale)
        V, residual = _amplifier(rho, 1e-9)
        assert V.shape == (3, 2, 6) and residual <= 1e-13
        Vm = V.reshape(6, 6)
        got = Vm.conj().T @ _amplified(B.basis, V)
        assert np.abs(got - rho.images).max() <= 1e-13
        if scale == 1.0:  # a partial isometry onto rho's copies
            assert np.abs(Vm.conj().T @ Vm - np.eye(6)).max() <= 1e-13
        else:
            assert rho.certificate is None  # no multiplicativity was asked of rho

    def test_a_block_the_map_kills_has_no_kraus_operator(self):
        # B = C (+) M_2 on C^3 in a Haar basis and rho(b) = w* b w + t <e, b
        # e> diag(1, 1/2), w an isometry onto the M_2 block's range and e a
        # unit vector of C's: the image of C's unit has eigenvalues t and t/2.
        # At t = 1e-12 both are below tol at a unit's scale, so the rank cut
        # anchored there keeps no Kraus operator for C, and V's defect
        # carries t (anchored at t itself, the cut kept both, and V took two
        # copies)
        from modfactor.cstar import algebra_from_basis
        from modfactor.tensorcalc import _amplified, _amplifier
        u = haar_unitary(3, np.random.default_rng(6))
        B = algebra_from_basis(np.stack([u @ b @ u.conj().T
                                         for b in build_algebra([(1, 1), (2, 1)]).basis]))
        w, e = u[:, 1:], u[:, 0]
        killed = np.einsum("i,kij,j->k", e.conj(), B.basis, e)[:, None, None] * np.diag([1.0, 0.5])
        t = 1e-12
        rho = Homomorphism(B, 2, w.conj().T @ B.basis @ w + t * killed)
        V, residual = _amplifier(rho, 1e-9)
        assert V.shape == (3, 1, 2)
        Vm = V.reshape(3, 2)
        missed = np.linalg.norm(Vm.conj().T @ _amplified(B.basis, V) - rho.images, axis=(1, 2))
        assert t / 2 <= missed.max() <= 2 * t and missed.sum() <= residual <= 2 * missed.sum()
        assert np.abs(Vm.conj().T @ Vm - np.eye(2)).max() <= 1e-14

    def test_the_identity_representation_is_its_own(self, block_algebra):
        from modfactor.hilbmod import identity_homomorphism
        from modfactor.tensorcalc import _amplifier
        V, residual = _amplifier(identity_homomorphism(block_algebra), 1e-9)
        assert residual == 0.0 and np.array_equal(V[:, 0], np.eye(3))


# ---------------------------------------------------------------------------
# the amplified-action certificate


def _reference_product_residuals(hom):
    """The product check the certificate replaces, kept as the reference:
    residuals (k, k) of theta(b_i) theta(b_j) - sum_l c[i, j, l] theta(b_l)
    and the norms (k, k) of those sums."""
    return dense_product_residuals(hom.domain, hom.images)


def _spy_induced_actions(monkeypatch):
    """Record every certified amplified action, from interior_tensor and from
    the commutant method's intertwiner module."""
    from modfactor import tensorcalc
    made = []
    real = tensorcalc._amplified_action

    def spy(*args):
        hom = real(*args)
        made.append(hom)
        return hom

    monkeypatch.setattr(tensorcalc, "_amplified_action", spy)
    return made


def _block_isometry(lam, rng, m=2):
    """An orthonormal basis of (+)_p range(P_p) (x) w_p in C^n (x) C^m (rows
    (h, s)), P_p the central projections of lam's domain acting as the
    identity on C^n and w_p random unit vectors: invariant under lam (x) 1_m,
    proper, and no product C^n (x) w."""
    cols = []
    for z in cstar.center(lam.domain).basis:
        U, s, _ = np.linalg.svd(z)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        cols.append(np.kron(U[:, s > 0.5 * s[0]], (w / np.linalg.norm(w))[:, None]))
    Q = np.hstack(cols)
    assert np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    assert 2 <= len(cols) and Q.shape[1] < m * lam.codomain_dim
    return Q


def _isometry(X, Y, tp):
    """(Q, m) of X (.) Y: Q = Z S+ onto the range of Y's thin factor Z."""
    from modfactor.tensorcalc import _amplified, _amplifier, _hstack
    V = _amplifier(Y.left_action, 1e-9)[0]
    return _hstack(_amplified(_module_basis(X), V)) @ tp.S_pinv, V.shape[1]


def _module_basis(X):
    return X.module.basis if isinstance(X, Correspondence) else X.basis


class TestInducedActionCertificate:
    def test_bound_dominates_the_product_loop(self, monkeypatch):
        # the golden instance, where the bound's terms are exactly 0, and
        # tilted ones (instance a and the seeded batch, no matrix units),
        # where the measured residuals are not
        from modfactor.harness import golden_instance, run_verification
        made = _spy_induced_actions(monkeypatch)
        for inst in [golden_instance(), instance_a()] + batch_instances(10):
            assert run_verification(inst).passed
        assert len(made) >= 12 * 6
        nonzero = 0
        for hom in made:
            cert = hom.certificate
            res, _ = _reference_product_residuals(hom)
            assert cert.kind == "amplified action" and cert.tol == 1e-9
            assert res.max() <= cert.value <= 100 * 1e-9
            nonzero += res.max() > 0
        assert nonzero >= len(made) // 2

    def test_bound_is_the_docstring_formula(self):
        # the bound spelled out with Kronecker products, on instance a's
        # K(E) acting on E (x) C^2 and an invariant subspace of it tilted by
        # 1e-9 out of invariance, so that every term is nonzero
        from modfactor.tensorcalc import _amplified_action
        lam = as_bimodule(instance_a().E).left_action
        rng = np.random.default_rng(10)
        n, m, eps = lam.codomain_dim, 2, np.finfo(float).eps
        Q = _block_isometry(lam, rng)
        Q = np.linalg.qr(Q + 1e-9 * (rng.standard_normal(Q.shape) + 1j * rng.standard_normal(Q.shape)))[0]
        pi = _amplified_action(lam, Q, m, 1e-9)
        images = pi.images
        W = np.stack([np.kron(a, np.eye(m)) @ Q for a in lam.images])
        norm_lam = np.linalg.norm(lam.images, axis=(1, 2))
        iota = np.linalg.norm(W - Q @ images, axis=(1, 2)) + 2 * n * m * eps * norm_lam
        assert iota.min() > 1e-12
        norm_pi = np.linalg.norm(images, axis=(1, 2))
        pairs = np.outer(norm_lam, iota) + np.sqrt(m) * lam.certificate.value \
            + 2 * n * m * eps * np.outer(norm_pi, norm_pi)
        want = norm_lam.max() * iota.max() + np.sqrt(m) * lam.certificate.value \
            + 2 * n * m * eps * norm_pi.max() ** 2
        cert = pi.certificate
        assert cert.kind == "amplified action"
        assert np.isclose(cert.value, want, rtol=1e-6, atol=1e-30)
        assert np.abs(images - Q.conj().T @ W).max() <= 1e-14
        # the pairwise formula bounds each pair's residual
        res, _ = _reference_product_residuals(pi)
        # (pi's products differ from pi(ab) only to second order in iota)
        assert (res <= pairs).all() and pairs.max() <= want and res.max() > 0

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
        # pi(a) = Q* (lambda(a) (x) 1_m) Q
        Q, m = _isometry(X, tp.right, tp)
        want = np.stack([Q.conj().T @ np.kron(a, np.eye(m)) @ Q for a in acts])
        assert np.abs(got - want).max() <= 1e-12

    def test_ill_conditioned_coordinates_measure_an_a_priori_defect(self, monkeypatch):
        # rho, Haar-conjugated M_6 (+) M_4 amplified twice, is handed a
        # construction's bound mu far above its measured residuals.  An
        # ill-conditioned factor Z = 1_20 (x) diag(1, 2^-13) (sigma_max /
        # sigma_min = 8192, which the rank cut keeps) still gives an
        # isometry Q = Z S+, so pi(a) = Q* (rho(a) (x)
        # 1_2) Q carries sqrt(2) mu and no factor of ||S+||.  Where that
        # a-priori defect is above the rule, validate measures pi's
        # residuals in one kernel pass and pi passes with them; rho keeps
        # its certified bound
        from dataclasses import replace

        from modfactor.cstar import algebra_from_basis
        from modfactor.tensorcalc import _amplified_action, _factor_coordinates
        A = algebra_from_basis(haar_conjugated([(6, 1), (4, 1)], np.random.default_rng(3)))
        rho = Homomorphism(A, 20, np.stack([np.kron(b, np.eye(2)) for b in A.basis]),
                           Certificate("factorization", 7.1e-11))
        passes = spy_product_residuals(monkeypatch)
        rho.validate()
        assert not passes
        loop = float(cstar.product_residuals(A, rho.images)[0].max())
        passes.clear()
        assert rho.certificate.kind == "factorization"
        mu = rho.certificate.value
        assert mu > 1e3 * loop
        S, S_pinv, _, Q = _factor_coordinates(
            np.kron(np.eye(20), np.diag([1.0, 2.0 ** -13])).astype(complex), 1e-9)
        assert np.linalg.norm(S_pinv) > 3e4 and len(S) == 40
        want = np.stack([Q.conj().T @ np.kron(m, np.eye(2)) @ Q for m in rho.images])
        pi = _amplified_action(rho, Q, 2, 1e-9)
        assert not passes
        assert pi.certificate.kind == "amplified action"
        assert np.sqrt(2) * mu <= pi.certificate.value <= np.sqrt(2) * mu + 1e-12
        assert np.abs(pi.images - want).max() <= 1e-14
        rho.certificate = replace(rho.certificate, value=0.9e-7)  # within the rule
        pi = _amplified_action(rho, Q, 2, 1e-9)
        assert len(passes) == 1 and passes[0][1][0] is pi.images
        assert rho.certificate.value == 0.9e-7
        assert pi.certificate.kind == "kernel" and pi.certificate.tol == 1e-9
        assert pi.certificate.value == cstar.product_residuals(A, pi.images)[0].max() <= 1e-14

    def test_corrupted_right_inverse_fails_the_certificate(self):
        from modfactor.tensorcalc import _amplified_action
        X, tp = self._golden_fixture_tensor()
        Q, m = _isometry(X, tp.right, tp)
        Z = Q @ tp.S  # the thin factor, Z = Q S
        rng = np.random.default_rng(5)
        bad = tp.S_pinv + 1e-3 * (rng.standard_normal(tp.S_pinv.shape)
                                  + 1j * rng.standard_normal(tp.S_pinv.shape))
        with pytest.raises(ValidationError, match="range-invariance certificate"):
            _amplified_action(X.left_action, Z @ bad, m, 1e-9)

    @pytest.mark.parametrize("block", [0, 1])
    def test_perturbed_coordinates_fail_the_certificate(self, golden_module, monkeypatch,
                                                        block):
        from modfactor import harness, tensorcalc
        real = tensorcalc._factor_coordinates

        def perturbed(Z, tol, residual=0.0):
            S, S_pinv, gap, Q = real(Z, tol, residual)
            Q = Q.copy()
            Q[:, block % Q.shape[1]] += 1e-6  # one column of the isometry
            return S, S_pinv, gap, Q

        monkeypatch.setattr(tensorcalc, "_factor_coordinates", perturbed)
        X, Y = as_bimodule(golden_module), dual_module(golden_module)
        with pytest.raises(ValidationError, match="range-invariance certificate"):
            interior_tensor(X, Y)
        # through verify
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "golden.json"
        report = harness.run_verification(harness.parse_instance(str(fixture)))
        assert not report.passed
        assert "range-invariance certificate" in report.to_canonical_json()


def _fresh(rho):
    """A copy of a homomorphism without its validation."""
    return Homomorphism(rho.domain, rho.codomain_dim, rho.images)


def _one_shot_amplified_stacks(lam, Q, m):
    """(images, iota) of _amplified_action before row blocks."""
    n, r = lam.codomain_dim, Q.shape[1]
    W = (lam.images @ Q.reshape(n, m * r)).reshape(len(lam.images), n * m, r)
    images = Q.conj().T @ W
    iota = np.linalg.norm((W - Q @ images).reshape(len(W), -1), axis=1) \
        + 2 * n * m * np.finfo(float).eps * np.linalg.norm(lam.images, axis=(1, 2))
    return images, iota


class TestRowBlockedInducedAction:
    """E (.) E* of instance a with K(E) acting: 52 elements, W_a of (n m) x r
    = 10 x 10."""

    @staticmethod
    def _tensor():
        E = instance_a().E
        X, Y = as_bimodule(E), dual_module(E)
        return (X,) + _isometry(X, Y, interior_tensor(X, Y))

    def test_blocks_match_the_one_shot_stacks(self, block_budget):
        from modfactor.tensorcalc import _amplified_action
        X, Q, m = self._tensor()
        lam = X.left_action
        ref = _amplified_action(_fresh(lam), Q, m, 1e-9)
        images, iota = _one_shot_amplified_stacks(lam, Q, m)
        row = 16 * Q.size * m
        block_budget(4 * row)
        assert len(row_blocks(X.left.dim, row)) >= 3
        hom = _amplified_action(_fresh(lam), Q, m, 1e-9)
        assert np.abs(hom.images - images).max() <= 1e-12
        assert np.abs(hom.images - ref.images).max() <= 1e-12
        assert hom.certificate.kind == ref.certificate.kind == "amplified action"
        assert np.abs(hom.certificate.value - ref.certificate.value) <= 1e-12
        assert iota.max() <= hom.certificate.value

    def test_a_later_block_names_the_same_element(self, block_budget):
        from modfactor.tensorcalc import _amplified_action
        X, _, _ = self._tensor()
        lam = _fresh(X.left_action)
        lam.validate(1e-9)
        Q, m = _block_isometry(lam, np.random.default_rng(4)), 2
        # corrupt lambda(b_a) of the last basis element after lambda's own
        # check: its residual iota_a on a proper invariant subspace fails
        images = lam.images.copy()
        images[-1] += 1e-3 * np.random.default_rng(3).standard_normal(images[-1].shape)
        lam.images = images
        names = []
        for budget in (numkernel._BLOCK_BYTES, 16 * Q.size * m):
            block_budget(budget)
            with pytest.raises(ValidationError, match="range-invariance") as err:
                _amplified_action(lam, Q, m, 1e-9)
            names.append(str(err.value))
        assert names[0] == names[1]
        assert int(names[0].split("basis element ")[1].split()[0]) == X.left.dim - 1 > 2

    def test_peaks_stay_below_the_one_shot_stacks(self, block_budget):
        from modfactor.tensorcalc import _amplified_action
        # on an invariant subspace of C^10 (x) C^4, where W_a is 4 pi(a)
        X, _, _ = self._tensor()
        lam = _fresh(X.left_action)
        lam.validate()
        Q, m = _block_isometry(lam, np.random.default_rng(4), 4), 4
        peaks = []
        for budget in (2**40, 2**12):  # one block (the one-shot stacks), then many
            block_budget(budget)
            peaks.append(traced_peak(_amplified_action, lam, Q, m, 1e-9)[1])
        # validate's (k, r, r) stacks included in both
        assert peaks[1] < peaks[0] / 2, peaks


class TestGramLayout:
    def test_the_dual_tensor_peak_stays_below_one_gram_on_instance_b(self):
        """The dual method's E* (.) F_theta on instance b, k w = 36 * 36 =
        1,296, forms no Gram: its tracemalloc peak stays below one (k w)^2
        complex Gram, 26.9 MB.  With the Gram formed and factored by a
        pivoted Cholesky the peak was 89.6 MB; with the thin factor it is
        9.4 MB."""
        from modfactor.factorizations import validate_theta
        inst = instance_b()
        _, F_corr = validate_theta(inst.E, inst.F, inst.theta)
        X = dual_module(inst.E)
        kw = X.module.dim * F_corr.module.dim_H
        assert kw == 1296
        tp, peak = traced_peak(interior_tensor, X, F_corr)
        assert tp.result.module.dim_H == len(tp.S)
        assert peak < 16 * kw * kw, (peak, 16 * kw * kw)


def _flip_inputs(inst):
    """(E, W, rho') of the commutant method's flip on an instance."""
    from modfactor.hilbmod import intertwiner_space
    return inst.E, intertwiner_space(inst.theta), commutant_lifting(inst.E)


def _one_shot_flip(E, W, rho_p, shift=0.0):
    """(abstract Gram, concrete columns) of flip_unitary before row panels,
    rho'^-1(w_j* w_l) shifted by shift delta_jl 1."""
    from modfactor.hilbmod import _pairwise_inner
    k, kw, g = E.dim, W.dim, E.dim_G
    bprime = _rho_inverse(rho_p, _pairwise_inner(W.mats))
    bprime += shift * np.eye(kw)[:, :, None, None] * np.eye(g)
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
        _, S_pinv, _, _ = _factor_coordinates(cols, 1e-9)
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
        real = tensorcalc._pairwise_inner

        def shifted(mats):
            # rho'^-1(w_j* w_l) = V* (w_j* w_l (x) 1) V, the products of the
            # amplified W; the module inner products pass unchanged
            out = real(mats)
            if mats is not golden_module.basis:
                out += c * np.eye(len(mats))[:, :, None, None] * np.eye(out.shape[-1])
            return out

        monkeypatch.setattr(tensorcalc, "_pairwise_inner", shifted)
        gram, cols = _one_shot_flip(golden_module, W, rho_p, c)
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
