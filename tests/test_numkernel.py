import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from modfactor import cstar, numkernel
from modfactor.cstar import (
    algebra_from_basis,
    block_decomposition,
    build_algebra,
    center,
    commutant,
)
from modfactor.errors import (
    DimensionMismatch,
    ModfactorError,
    NonFiniteInput,
    NotPSD,
    PreconditionError,
    ToleranceAmbiguity,
    ValidationError,
)
from modfactor.harness import golden_instance
from modfactor.hilbmod import identity_homomorphism
from modfactor.numkernel import (
    OperatorSpace,
    eigh_desc,
    hs_orthonormalize,
    norm_exceeds,
    op_norm,
    psd_sqrt_pinv,
    rank_cut,
    solve_intertwiners,
    subspace_equal,
    wedderburn_frame,
)
from conftest import (
    haar_conjugated,
    haar_unitary,
    kronecker_intertwiners,
    matrix_unit,
    traced_peak,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHsOrthonormalize:
    def test_dependent_inputs_collapse(self):
        a = np.array([[1, 0], [0, 0]], dtype=complex)
        out = hs_orthonormalize([a, 2 * a])
        assert out.dim == 1

    def test_matrix_units_stay_orthonormal(self):
        out = hs_orthonormalize([matrix_unit(1, 1, 2), matrix_unit(2, 2, 2)])
        assert out.dim == 2
        gram = np.array([[np.vdot(x, y) for y in out.mats] for x in out.mats])
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_rank_matches_svd_oracle(self, rng):
        # five 3x3 matrices drawn from a rank-2 span; the oracle is a direct
        # SVD of the stacked vectorizations, independent of the QR path
        basis = [random_complex(rng, 3, 3) for _ in range(2)]
        mats = [sum(c * b for c, b in zip(random_complex(rng, 2), basis))
                for _ in range(5)]
        stacked = np.stack([m.reshape(-1) for m in mats])
        svd_rank = int((np.linalg.svd(stacked, compute_uv=False) > 1e-9).sum())
        out = hs_orthonormalize(mats)
        assert out.dim == svd_rank == 2
        assert out.gap > 1e4  # the cut is reported and well separated

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            hs_orthonormalize([np.eye(2), np.eye(3)])

    def test_empty_input_rejected(self):
        for empty in ([], np.zeros((0, 2, 2))):
            with pytest.raises(DimensionMismatch):
                hs_orthonormalize(empty)

    def test_array_and_sequence_inputs_agree(self, rng):
        # a stack is taken as is, a sequence is stacked once; either way
        # vec(basis[j]) is, to the byte, column j of the pivoted QR of the
        # per-matrix stack of vectorizations
        mats = random_complex(rng, 5, 3, 4)
        mats[4] = mats[0] + 2 * mats[1]
        a = hs_orthonormalize(mats)
        b = hs_orthonormalize([m.tolist() for m in mats])
        assert a.dim == 4
        assert a.mats.tobytes() == b.mats.tobytes()
        ref = np.stack([m.reshape(-1, order="F") for m in mats], axis=1)
        Q = scipy.linalg.qr(ref, mode="economic", pivoting=True)[0][:, :4]
        assert np.array_equal(np.stack([m.reshape(-1, order="F") for m in a.mats], axis=1), Q)
        gram = np.array([[np.vdot(x, y) for y in a.mats] for x in a.mats])
        assert np.abs(gram - np.eye(4)).max() <= 1e-12
        assert (a.span_residual(mats / 10.0) <= 1e-9).all()

    def test_non_finite_entry_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        for bad in ([np.eye(2), m], np.stack([np.eye(2), m])):
            with pytest.raises(NonFiniteInput) as err:
                hs_orthonormalize(bad)
            assert isinstance(err.value, ModfactorError)
            assert isinstance(err.value, ValueError)

    def test_ambiguous_rank_cut_is_reported(self):
        from modfactor.errors import ToleranceAmbiguity
        a = np.eye(2, dtype=complex)
        noise = np.array([[0.0, 3e-9], [0.0, 0.0]])  # lands inside the cut window
        with pytest.raises(ToleranceAmbiguity):
            hs_orthonormalize([a, a + noise])

    def test_svd_fallback_when_pivoted_qr_misses_the_span(self):
        # Kahan's matrix K_120(c=0.2) with column j scaled by 1 - 25 eps j:
        # column-pivoted QR keeps the natural order, so its leading 119
        # columns miss the span that the SVD rank of 119 asks for
        n, c, tol = 120, 0.2, 1e-9
        K = np.diag(np.sqrt(1 - c * c) ** np.arange(n)) @ \
            (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        K = K * (1.0 - 25.0 * np.finfo(float).eps * np.arange(n))
        mats = K.T[:, :, None].astype(complex)  # column j as a 120x1 matrix
        s = np.linalg.svd(K, compute_uv=False)
        assert s[-1] / s[0] < 1e-11 and s[-2] / s[0] > 1e-3  # a clean cut at 119
        Q = scipy.linalg.qr(K, mode="economic", pivoting=True)[0][:, :n - 1]
        fallback_threshold = 10.0 * tol * s[0] * np.sqrt(n)
        assert np.linalg.norm(K - Q @ (Q.T @ K)) > 1e4 * fallback_threshold
        out = hs_orthonormalize(mats, tol)
        assert out.dim == n - 1
        v = out.vecs()
        assert np.abs(v.conj() @ v.T - np.eye(n - 1)).max() <= 1e-12
        assert out.span_residual(mats).max() <= 1e-9

    @staticmethod
    def _with_negligible(mats, rng, scale):
        """mats with exact zeros and candidates of HS norm about ``scale``
        inserted at random places, the order of mats kept."""
        k = len(mats)
        out = np.concatenate([np.zeros((k,) + mats.shape[1:]),
                              scale * random_complex(rng, k, *mats.shape[1:])])
        out = out[rng.permutation(2 * k)]
        where = np.sort(rng.choice(3 * k, k, replace=False))
        out = np.insert(out, where - np.arange(k), mats, axis=0)
        assert np.array_equal(out[where], mats)
        return out

    def test_negligible_candidates_leave_the_basis_unchanged(self, rng):
        # every candidate of norm <= tol max / (DEFECT_FACTOR sqrt(k)) stays
        # out of the QR: the result is the stack's own to the byte, but for
        # the Weyl residual delta, the candidates' total norm, which joins the
        # floored largest dropped value (9 eps) under the gap's least kept (1)
        mats = np.stack([matrix_unit(i, j, 3) for i in (1, 2, 3) for j in (1, 2, 3)])
        alone = hs_orthonormalize(mats)
        assert alone.gap == 1.0 / (9 * np.finfo(float).eps)
        for scale in (0.0, 1e-20):
            stack = self._with_negligible(mats, rng, scale)
            delta = np.linalg.norm(stack[np.linalg.norm(stack, axis=(1, 2)) < 1e-3])
            out = hs_orthonormalize(stack)
            assert out.dim == alone.dim == 9
            assert out.mats.tobytes() == alone.mats.tobytes()
            assert out.gap == pytest.approx(1.0 / (9 * np.finfo(float).eps + delta), rel=1e-12)
            assert (out.gap == alone.gap) == (scale == 0.0)

    def test_the_pivoted_qr_sees_only_the_kept_columns(self, rng, monkeypatch):
        mats = random_complex(rng, 6, 3, 2)
        mats[5] = mats[0] - mats[1]
        seen = []

        def spy(a, *args, **kwargs):
            seen.append(np.array(a))
            return qr(a, *args, **kwargs)

        qr = scipy.linalg.qr
        monkeypatch.setattr(scipy.linalg, "qr", spy)
        alone = hs_orthonormalize(mats)
        out = hs_orthonormalize(self._with_negligible(mats, rng, 1e-20))
        ref = mats.transpose(2, 1, 0).reshape(6, 6)  # column j is vec(mats[j])
        assert len(seen) == 2 and all(np.array_equal(a, ref) for a in seen)
        assert out.dim == alone.dim == 5 and np.array_equal(out.mats, alone.mats)

    def test_svd_fallback_survives_negligible_columns(self):
        # the Kahan case above with 240 negligible columns appended: their
        # norm enters the fallback test as hypot(||R22||, delta), and the
        # leading pivots still miss the span, so Q is still rotated
        n, c, tol = 120, 0.2, 1e-9
        K = np.diag(np.sqrt(1 - c * c) ** np.arange(n)) @ \
            (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        K = K * (1.0 - 25.0 * np.finfo(float).eps * np.arange(n))
        mats = K.T[:, :, None].astype(complex)
        alone = hs_orthonormalize(mats, tol)
        tiny = np.concatenate([np.zeros_like(mats), 1e-20 * mats[::-1]])
        out = hs_orthonormalize(np.concatenate([mats, tiny]), tol)
        assert out.dim == n - 1 and np.array_equal(out.mats, alone.mats)
        Q = scipy.linalg.qr(K, mode="economic", pivoting=True)[0][:, :n - 1]
        assert np.abs(out.vecs() - Q.T).max() > 1e-3  # rotated, not Q's columns
        assert out.span_residual(mats).max() <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(2, 4))
    def test_idempotent(self, seed, count, n):
        rng = np.random.default_rng(seed)
        mats = [random_complex(rng, n, n) for _ in range(count)]
        once = hs_orthonormalize(mats)
        twice = hs_orthonormalize(list(once.mats))
        assert twice.dim == once.dim
        eq, dist = subspace_equal(once, twice)
        assert eq and dist <= 1e-9


class TestRankCut:
    EPS = np.finfo(float).eps

    def test_nothing_dropped_reports_the_floored_gap(self):
        # the dropped values are floored at n eps scale for the gap only
        rank, gap = rank_cut([1.0, 0.5], 1e-9)
        assert rank == 2 and gap == pytest.approx(0.5 / (2 * self.EPS))

    def test_roundoff_below_the_floor_does_not_move_the_gap(self):
        for tiny in (0.0, 1e-300, 1e-20):
            assert rank_cut([1.0, 0.5, tiny], 1e-9) == (2, 0.5 / (3 * self.EPS))
        rank, gap = rank_cut([1.0, 0.5, 1e-12], 1e-9)
        assert rank == 2 and gap == pytest.approx(0.5e12)

    def test_residual_enters_the_gap_and_the_ambiguity_check(self):
        rank, gap = rank_cut([1.0, 0.5, 1e-12], 1e-9, residual=1e-12)
        assert rank == 2 and gap == pytest.approx(0.25e12)
        with pytest.raises(ToleranceAmbiguity, match="residual"):
            rank_cut([1.0, 0.5], 1e-9, residual=2e-10)

    def test_nothing_kept_is_rank_zero(self):
        assert rank_cut([0.0, 0.0], 1e-9) == (0, np.inf)
        assert rank_cut([1e-20], 1e-9, floor=1.0) == (0, np.inf)


class TestSolveIntertwiners:
    def test_full_matrix_algebra_gives_scalars(self):
        basis = [matrix_unit(i, j, 3) for i in range(1, 4) for j in range(1, 4)]
        out = solve_intertwiners(basis, basis)
        assert out.dim == 1
        m = out.mats[0]
        assert op_norm(m - m[0, 0] * np.eye(3)) < 1e-10

    def test_identity_constraints_give_everything(self):
        out = solve_intertwiners([np.eye(2)], [np.eye(3)])
        assert out.dim == 6
        assert out.mats.shape == (6, 2, 3)

    def _brute_force_nullspace_dim(self, lefts, rights):
        # independent oracle: apply the map X -> (A X - X B) to every matrix
        # unit and take the kernel of the resulting column-stacked system
        n2 = lefts[0].shape[0]
        n1 = rights[0].shape[0]
        cols = []
        for p in range(n2):
            for q in range(n1):
                X = np.zeros((n2, n1), dtype=complex)
                X[p, q] = 1.0
                images = [a @ X - X @ b for a, b in zip(lefts, rights)]
                cols.append(np.concatenate([im.reshape(-1) for im in images]))
        M = np.stack(cols, axis=1)
        s = np.linalg.svd(M, compute_uv=False)
        return int((s <= 1e-9 * max(1.0, s.max())).sum()) + (n2 * n1 - len(s))

    def test_block_algebra_commutant_against_brute_force(self, block_algebra):
        basis = list(block_algebra.basis)
        out = solve_intertwiners(basis, basis)
        assert out.dim == self._brute_force_nullspace_dim(basis, basis) == 2
        expected = hs_orthonormalize(
            [matrix_unit(1, 1), matrix_unit(2, 2) + matrix_unit(3, 3)])
        eq, dist = subspace_equal(out, expected)
        assert eq, dist

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_outputs_satisfy_the_relations(self, seed):
        # a random *-representation: a Haar-conjugated amplification of a
        # random block algebra, against the algebra Haar-conjugated
        lefts, rights = _random_star_representation(np.random.default_rng(seed))
        out = solve_intertwiners(lefts, rights)
        for X in out.mats:
            for a, b in zip(lefts, rights):
                assert op_norm(a @ X - X @ b) <= 1e-9 * max(1.0, op_norm(X))
        ref = kronecker_intertwiners(lefts, rights)
        assert out.dim == ref.dim
        eq, dist = subspace_equal(out, ref, 1e-8)
        assert eq, dist

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_intertwiners([np.eye(2)], [])

    def test_no_constraints_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_intertwiners([], [])

    def test_tall_system_commutant(self, rng):
        # M3 (x) I2 (+) M2 (x) I3 on C^12 conjugated by a random unitary:
        # k = 13 constraints, a (13*144, 144) system, commutant of dimension 13
        u = np.linalg.qr(random_complex(rng, 12, 12))[0]
        basis = [u @ b @ u.conj().T for b in build_algebra([(2, 3), (3, 2)]).basis]
        out = solve_intertwiners(basis, basis)
        assert out.dim == self._brute_force_nullspace_dim(basis, basis) == 13
        # oracle: null space from a full SVD of the whole stacked system
        eye = np.eye(12)
        M = np.vstack([np.kron(eye, b) - np.kron(b.T, eye) for b in basis])
        _, s, Vh = np.linalg.svd(M)
        rank = int((s > 1e-9 * s[0]).sum())
        null = OperatorSpace(12, 12, np.stack(
            [row.reshape((12, 12), order="F") for row in Vh[rank:].conj()]))
        eq, dist = subspace_equal(out, null)
        assert eq, dist


def _random_star_representation(rng, m=None):
    """(lefts, rights): the Haar-conjugated amplification b (x) 1_m of a
    random block algebra's basis, and that basis Haar-conjugated."""
    blocks = [tuple(int(x) for x in rng.integers(1, 3, size=2))
              for _ in range(int(rng.integers(1, 3)))]
    m = int(rng.integers(1, 3)) if m is None else m
    basis = build_algebra(blocks).basis
    n = basis.shape[1]
    u, v = haar_unitary(n, rng), haar_unitary(n * m, rng)
    amplified = np.stack([np.kron(b, np.eye(m)) for b in basis])
    return v @ amplified @ v.conj().T, u @ basis @ u.conj().T


def _unit_weights(mats, generic_second_row=False):
    """Weights whose Hermitian element, and unless ``generic_second_row``
    also the second generic element, are multiples of the unit of the
    algebra that the orthonormal basis ``mats`` spans."""
    c = np.trace(mats, axis1=1, axis2=2).conj()
    real = numkernel._stage1_weights

    def weights(k):
        w = np.tile(c / np.linalg.norm(c), (2, 1))
        if generic_second_row:
            w[1] = real(k)[1]
        return w
    return weights


def _commutator_residual(mats, X):
    """max |b X - X b| over the basis mats and the matrices X."""
    comm = np.matmul(mats[:, None], X[None]) - np.matmul(X[None], mats[:, None])
    return np.abs(comm).max()


# the algebra-structure benchmark's ladder, n = 12, 17, 18 and 24
LADDER = [[(2, 3), (3, 2)], [(3, 3), (2, 4)], [(2, 2), (3, 2), (4, 2)], [(4, 3), (3, 4)]]


class TestTwoStageSolve:
    """The frame solve against the one-shot Kronecker reference."""

    def _assert_matches_reference(self, lefts, rights):
        out = solve_intertwiners(lefts, rights)
        ref = kronecker_intertwiners(lefts, rights)
        assert out.dim == ref.dim
        eq, dist = subspace_equal(out, ref, 1e-8)
        assert eq, dist
        return out

    @pytest.mark.parametrize("blocks", LADDER[:3])
    def test_haar_conjugated_ladder_commutants(self, blocks, rng):
        mats = haar_conjugated(blocks, rng)
        out = self._assert_matches_reference(mats, mats)
        assert out.dim == sum(m * m for _, m in blocks)

    def test_theta_of_the_golden_instance(self):
        theta = golden_instance().theta
        out = self._assert_matches_reference(theta.images, theta.domain.basis)
        assert out.dim > 0

    def test_family_that_is_not_star_closed(self, rng):
        # lefts_i = P (a_i (+) c_i) P^-1, rights_i = Q (a_i (+) e_i) Q^-1 with
        # invertible, non-unitary P and Q: the intertwiners carry the shared
        # a-block (dim 1), and the family is closed under no adjoint, so the
        # closed-form stage 1 does not apply
        k = 5
        P, Q = random_complex(rng, 5, 5), random_complex(rng, 4, 4)
        lefts, rights = [], []
        for _ in range(k):
            a = random_complex(rng, 2, 2)
            lefts.append(P @ scipy.linalg.block_diag(a, random_complex(rng, 3, 3))
                         @ np.linalg.inv(P))
            rights.append(Q @ scipy.linalg.block_diag(a, random_complex(rng, 2, 2))
                          @ np.linalg.inv(Q))
        adjoints = np.stack([m.conj().T for m in lefts])
        assert hs_orthonormalize(lefts).span_residual(adjoints).max() > 1e-3
        assert kronecker_intertwiners(lefts, rights).dim == 1
        with pytest.raises(PreconditionError, match="not \\*-closed"):
            solve_intertwiners(lefts, rights)

    def test_roundoff_sized_defect_keeps_every_solution(self, rng):
        # a non-Hermitian term of size 1e-12 on each left factor moves the
        # eigenvalues of h_L off those of h_R by about that much, far above
        # roundoff, so clusters cut at roundoff would drop solutions
        lefts, rights = _random_star_representation(rng, m=3)
        lefts = lefts + 1e-12 * random_complex(rng, *lefts.shape)
        out = self._assert_matches_reference(lefts, rights)
        assert out.dim > 0

    def test_ladder_rungs_form_no_kronecker_system(self, rng):
        # the frame works on k n x n matrices at a time: the solve allocates
        # less than one N x N matrix, a k-th of the Kronecker system
        for blocks in LADDER:
            mats = haar_conjugated(blocks, rng)
            N = mats.shape[1] ** 2
            tracemalloc.start()
            try:
                out = solve_intertwiners(mats, mats)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * N * N, (blocks, peak)
            assert out.dim == sum(m * m for _, m in blocks)
            assert _commutator_residual(mats, out.mats) < 1e-12

    def test_poor_stage1_draw_is_refused_or_exact(self, monkeypatch, rng):
        # h a multiple of the unit merges every cluster: the second generic
        # element refines them and the answer is the reference's; when it is
        # a multiple of the unit too, the certificate refuses the frame
        mats = haar_conjugated([(2, 3), (3, 2)], rng)
        good = self._assert_matches_reference(mats, mats)
        monkeypatch.setattr(numkernel, "_stage1_weights",
                            _unit_weights(mats, generic_second_row=True))
        refined = self._assert_matches_reference(mats, mats)
        assert refined.dim == good.dim == 13
        monkeypatch.setattr(numkernel, "_stage1_weights", _unit_weights(mats))
        with pytest.raises(ToleranceAmbiguity, match="from the frame's blocks"):
            solve_intertwiners(mats, mats)

    def test_memory_guard_raises_before_allocating(self, monkeypatch):
        A = build_algebra([(10, 10)])  # a 100-dimensional algebra on C^100
        # the frame-coordinate stack is 16*100*100^2 bytes, about 15 MiB
        monkeypatch.setattr(numkernel, "MAX_SYSTEM_BYTES", 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError,
                               match=r"frame-coordinate stack needs 15 MiB"):
                commutant(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_commutant_of_m37(self):
        # a full matrix algebra: its frame has 37 one-dimensional clusters
        assert commutant(build_algebra([(37, 1)])).dim == 1

    def test_commutant_at_ambient_dimension_100(self):
        # M_10 (x) 1_10: the commutant is 1_10 (x) M_10
        # (the projectors of subspace_equal would be 10^4 x 10^4)
        out = commutant(build_algebra([(10, 10)]))
        units = np.eye(100).reshape(100, 10, 10)
        expected = np.stack([np.kron(np.eye(10), u) / np.sqrt(10) for u in units])
        assert out.dim == 100
        assert out.space.decompose(expected)[1].max() < 1e-12


def _spread_reference(comps) -> float:
    """The frame's former per-cluster spread bound: comps are a cluster's
    Hermitian compressions, one per side (empty ones skipped)."""
    mid = [np.trace(C).real / len(C) for C in comps if len(C)]
    return max(mid) - min(mid) + 2 * max(
        np.linalg.norm(C - np.trace(C).real / len(C) * np.eye(len(C))) for C in comps if len(C))


class TestSpreads:
    """The spreads read off one compression per side against the per-cluster
    reference on each cluster's diagonal blocks, within 1e-13 times the
    compressions' norm (a whole cluster's spread is roundoff)."""

    @pytest.fixture
    def spreads(self, monkeypatch):
        seen = []
        spreads = numkernel._spreads

        def spy(comps, dims):
            seen.append((comps, dims, spreads(comps, dims)))
            return seen[-1][2]

        monkeypatch.setattr(numkernel, "_spreads", spy)
        return seen

    @staticmethod
    def _assert_match(seen):
        assert seen
        for comps, dims, out in seen:
            offs = np.vstack([np.zeros(len(comps), dtype=int), np.cumsum(dims, axis=0)]).T
            ref = [_spread_reference([C[o[c]:o[c + 1], o[c]:o[c + 1]] for C, o in zip(comps, offs)])
                   for c in range(len(dims))]
            scale = max(np.linalg.norm(C, 2) for C in comps)
            assert np.abs(out - ref).max() <= 1e-13 * scale, (dims, out, ref)

    @pytest.mark.parametrize("blocks", LADDER)
    def test_ladder_rungs(self, blocks, spreads, rng):
        mats = haar_conjugated(blocks, rng)
        solve_intertwiners(mats, mats)
        self._assert_match(spreads)
        # a rung's clusters stay whole: their spreads are roundoff
        assert max(out.max() for _, _, out in spreads) < 1e-12

    def test_two_sided_random_representations(self, spreads, rng):
        for m in (1, 2, 2, 3):
            lefts, rights = _random_star_representation(rng, m=m)
            solve_intertwiners(lefts, rights)
        self._assert_match(spreads)
        assert all(len(comps) == 2 for comps, _, _ in spreads)

    def test_forced_split_draws(self, spreads, monkeypatch, rng):
        # the draws of test_poor_stage1_draw_is_refused_or_exact: h_0 a
        # multiple of the unit, h_1 generic (split) or a multiple too (refused)
        mats = haar_conjugated([(2, 3), (3, 2)], rng)
        monkeypatch.setattr(numkernel, "_stage1_weights",
                            _unit_weights(mats, generic_second_row=True))
        solve_intertwiners(mats, mats)
        assert spreads[-1][2].min() > 0.1  # the one cluster must split
        monkeypatch.setattr(numkernel, "_stage1_weights", _unit_weights(mats))
        with pytest.raises(ToleranceAmbiguity):
            solve_intertwiners(mats, mats)
        self._assert_match(spreads)


class TestWedderburnFrame:
    def test_pairs_in_frame_coordinates(self, rng):
        # lefts: the algebra amplified twice, rights: the algebra, both
        # Haar-conjugated; every pair is (+)_p a_p (x) 1 with one a_p
        blocks = [(2, 1), (3, 2)]
        A = build_algebra(blocks)
        u, v = haar_unitary(8, rng), haar_unitary(16, rng)
        lefts = v @ np.stack([np.kron(b, np.eye(2)) for b in A.basis]) @ v.conj().T
        rights = u @ A.basis @ u.conj().T
        frame = wedderburn_frame(lefts, rights)
        assert sorted(frame.blocks) == [(2, 2, 1), (3, 4, 2)]
        for side, mats in ((frame.left, lefts), (frame.right, rights)):
            F = np.hstack([L.reshape(len(L), -1) for L in side])
            assert np.abs(F.conj().T @ F - np.eye(len(F))).max() < 1e-12
            T = F.conj().T @ mats @ F
            o = 0
            for n, mL, mR in frame.blocks:
                m = mL if side is frame.left else mR
                a = np.einsum("kajbj->kab", T[:, o:o + n * m, o:o + n * m]
                              .reshape(-1, n, m, n, m)) / m
                T[:, o:o + n * m, o:o + n * m] -= np.stack([np.kron(x, np.eye(m)) for x in a])
                o += n * m
            assert np.abs(T).max() < 1e-12

    def test_a_kernel_block_carries_no_algebra(self):
        # a non-unital representation: every pair vanishes on the last
        # coordinate, a block of the frame that holds no matrix algebra
        basis = build_algebra([(1, 1), (2, 1)]).basis
        mats = np.stack([scipy.linalg.block_diag(b, 0.0) for b in basis])
        out = solve_intertwiners(mats, mats.copy())
        ref = kronecker_intertwiners(mats, mats)
        assert out.dim == ref.dim == 3
        eq, dist = subspace_equal(out, ref)
        assert eq, dist


block_lists = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)


class TestWedderburnFrameProperties:
    """Haar-conjugated block algebras and random *-representations against
    their known structure and the Kronecker reference."""

    @seed(2010)
    @settings(max_examples=25, deadline=None)
    @given(block_lists, st.integers(0, 2**32 - 1))
    def test_structure_of_haar_conjugated_algebras(self, blocks, draw):
        mats = haar_conjugated(blocks, np.random.default_rng(draw))
        A = algebra_from_basis(list(mats))
        comm = commutant(A)
        # a commuting orthonormal family of the commutant's dimension spans it
        assert comm.dim == sum(m * m for _, m in blocks)
        assert _commutator_residual(mats, comm.basis) < 1e-11
        assert center(A).dim == len(blocks)
        assert block_decomposition(A) == sorted(blocks)

    @seed(2010)
    @settings(max_examples=25, deadline=None)
    @given(block_lists, st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_intertwiners_of_random_representations(self, blocks, m, draw):
        A = build_algebra(blocks)
        n = A.ambient_dim
        assume(m * n * n <= 400)  # keeps the Kronecker reference small
        rng = np.random.default_rng(draw)
        u, v = haar_unitary(n, rng), haar_unitary(n * m, rng)
        lefts = v @ np.stack([np.kron(b, np.eye(m)) for b in A.basis]) @ v.conj().T
        rights = u @ A.basis @ u.conj().T
        out = solve_intertwiners(lefts, rights)
        ref = kronecker_intertwiners(lefts, rights)
        assert out.dim == ref.dim == m * sum(k * k for _, k in blocks)
        eq, dist = subspace_equal(out, ref, 1e-8)
        assert eq, dist

    @seed(2010)
    @settings(max_examples=40, deadline=None)
    @given(block_lists, st.integers(-16, -3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_near_degenerate_draw_is_exact_or_refused(self, blocks, decades, both, draw):
        # weights within 10^decades of those whose generic element is the
        # unit (row 0, or both rows): the frame gives the reference answer
        # or raises ToleranceAmbiguity, never a wrong dimension
        mats = haar_conjugated(blocks, np.random.default_rng(draw))
        unit = _unit_weights(mats)
        real = numkernel._stage1_weights

        def weights(k):
            w = unit(k) + 10.0 ** decades * real(k)
            if not both:
                w[1] = real(k)[1]
            return w / np.linalg.norm(w, axis=1, keepdims=True)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numkernel, "_stage1_weights", weights)
            try:
                out = solve_intertwiners(mats, mats)
            except ToleranceAmbiguity:
                return
        assert out.dim == sum(m * m for _, m in blocks)
        # a poor draw costs accuracy, within the certificate's 100 * tol
        assert _commutator_residual(mats, out.mats) < 1e-8


class TestPsdSqrtPinv:
    def test_identity(self):
        s, p, supp = psd_sqrt_pinv(np.eye(3))
        for m in (s, p, supp):
            assert np.allclose(m, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        s, p, supp = psd_sqrt_pinv(np.diag([4.0, 0.0]))
        assert np.allclose(s, np.diag([2.0, 0.0]), atol=1e-12)
        assert np.allclose(p, np.diag([0.5, 0.0]), atol=1e-12)
        assert np.allclose(supp, np.diag([1.0, 0.0]), atol=1e-12)

    def test_random_gram_matrix_against_eigendecomposition(self, rng):
        a = random_complex(rng, 4, 4)
        m = a.conj().T @ a
        s, p, supp = psd_sqrt_pinv(m)
        assert op_norm(s @ s - m) <= 1e-8
        assert op_norm(p @ m @ p - supp) <= 1e-8
        # support reproduces m from both sides
        assert op_norm(supp @ m - m) <= 1e-9
        assert op_norm(m @ supp - m) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt_pinv(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPSD):
            psd_sqrt_pinv(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSubspaceEqual:
    def test_self(self):
        s = hs_orthonormalize([matrix_unit(1, 2), matrix_unit(2, 1)])
        eq, d = subspace_equal(s, s)
        assert eq and d <= 1e-12

    def test_orthogonal_spans_are_distance_one(self):
        s1 = hs_orthonormalize([matrix_unit(1, 1, 2)])
        s2 = hs_orthonormalize([matrix_unit(2, 2, 2)])
        eq, d = subspace_equal(s1, s2)
        assert not eq
        assert abs(d - 1.0) <= 1e-12

    def test_rotated_basis_is_the_same_span(self, rng):
        mats = [random_complex(rng, 3, 3) for _ in range(3)]
        s1 = hs_orthonormalize(mats)
        u = np.linalg.qr(random_complex(rng, 3, 3))[0]
        mixed = [sum(u[i, j] * s1.mats[j] for j in range(3)) for i in range(3)]
        s2 = hs_orthonormalize(mixed)
        eq, d = subspace_equal(s1, s2)
        assert eq and d <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_equal(hs_orthonormalize([np.eye(2)]),
                           hs_orthonormalize([np.eye(3)]))

    def test_empty_space(self):
        empty = OperatorSpace(2, 2, np.zeros((0, 2, 2), dtype=complex))
        ident = hs_orthonormalize([np.eye(2)])
        assert empty.vecs().shape == (0, 4)
        assert empty.projector().shape == (4, 4)
        for a, b in ((empty, ident), (ident, empty)):
            eq, dist = subspace_equal(a, b)
            assert not eq and abs(dist - 1.0) <= 1e-12
        assert subspace_equal(empty, empty) == (True, 0.0)

    @pytest.mark.parametrize("d1,d2,noise", [
        (3, 3, 0.0), (3, 3, 1e-7), (4, 4, 1.0), (2, 5, 1e-7), (5, 2, 1.0),
        (0, 4, 0.0), (4, 0, 0.0), (0, 0, 0.0)])
    def test_matches_the_projector_formula(self, rng, d1, d2, noise):
        # spans of 3x4 matrices: the second shares min(d1, d2) of the first's
        # basis matrices, moved by noise, and is completed at random
        mats = random_complex(rng, max(d1, d2, 1), 3, 4)
        s1 = hs_orthonormalize(mats[:d1]) if d1 else OperatorSpace(3, 4, mats[:0])
        moved = mats[:d2] + noise * random_complex(rng, d2, 3, 4)
        s2 = hs_orthonormalize(moved) if d2 else OperatorSpace(3, 4, mats[:0])
        # the N x N projectors subspace_equal no longer forms
        ref = op_norm(s1.projector() - s2.projector())
        assert abs(subspace_equal(s1, s2)[1] - ref) <= 1e-12

    def test_ambient_dimension_100_without_projectors(self):
        # the commutant of M_10 (x) 1_10 is 1_10 (x) M_10: N = 10^4, so the
        # two span projectors alone would take 3.2 GB
        out = commutant(build_algebra([(10, 10)])).space
        units = np.eye(100).reshape(100, 10, 10)
        expected = OperatorSpace(100, 100, np.stack(
            [np.kron(np.eye(10), u) / np.sqrt(10) for u in units]))
        tracemalloc.start()
        try:
            eq, dist = subspace_equal(out, expected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eq and dist <= 1e-12, dist
        assert peak < 64 * 2**20, peak


def _einsum_decomposition(space, m):
    """The per-matrix evaluation decompose replaced: coefficients by an
    einsum against the basis, the projection by a tensordot."""
    c = np.einsum("kij,ij->k", space.mats.conj(), m)
    proj = np.tensordot(c, space.mats, axes=1) if space.dim else np.zeros_like(m)
    return c, np.linalg.norm(m - proj)


def _haar_conjugated_space(blocks, seed):
    A = build_algebra(blocks)
    rng = np.random.default_rng(seed)
    n = A.ambient_dim
    u = np.linalg.qr(random_complex(rng, n, n))[0]
    return OperatorSpace(n, n, np.stack([u @ b @ u.conj().T for b in A.basis]))


class TestDecompose:
    def _spaces(self, golden_module):
        yield golden_module.space
        yield _haar_conjugated_space([(2, 1), (1, 2)], 5)

    def test_against_the_einsum_reference(self, golden_module, rng):
        for space in self._spaces(golden_module):
            inside = np.tensordot(random_complex(rng, 3, space.dim), space.mats, axes=1)
            mats = np.concatenate([
                space.mats, inside,
                random_complex(rng, 4, space.dim_out, space.dim_in)])
            coeffs, dist = space.decompose(mats)
            assert coeffs.shape == (len(mats), space.dim) and dist.shape == (len(mats),)
            for m, c, d in zip(mats, coeffs, dist):
                c_ref, d_ref = _einsum_decomposition(space, m)
                assert np.abs(c - c_ref).max() <= 1e-12
                assert abs(d - d_ref) <= 1e-12
                assert abs(space.distance(m) - d_ref) <= 1e-12
                assert np.abs(space.coeffs(m) - c_ref).max() <= 1e-12
                assert np.abs(space.project(m) - m).max() <= d_ref + 1e-12
            assert dist[:space.dim + 3].max() <= 1e-12
            assert dist[-4:].min() > 0.1
            # the views agree with the batch
            rel = space.span_residual(mats)
            assert np.array_equal(
                rel, dist / np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2))))
            assert [space.contains(m) for m in mats] == list(rel <= 1e-9)

    def test_leading_axes_are_kept(self, golden_module, rng):
        space = golden_module.space
        mats = random_complex(rng, 2, 3, space.dim_out, space.dim_in)
        coeffs, dist = space.decompose(mats)
        assert coeffs.shape == (2, 3, space.dim) and dist.shape == (2, 3)
        flat_c, flat_d = space.decompose(mats.reshape(6, space.dim_out, space.dim_in))
        assert np.array_equal(coeffs.reshape(6, -1), flat_c)
        assert np.array_equal(dist.reshape(6), flat_d)

    def test_empty_batch(self, golden_module):
        space = golden_module.space
        coeffs, dist = space.decompose(np.zeros((0, space.dim_out, space.dim_in)))
        assert coeffs.shape == (0, space.dim) and dist.shape == (0,)
        assert space.span_residual(np.zeros((0, space.dim_out, space.dim_in))).shape == (0,)

    def test_zero_dimensional_space(self, rng):
        empty = OperatorSpace(2, 3, np.zeros((0, 2, 3), dtype=complex))
        m = random_complex(rng, 2, 3)
        coeffs, dist = empty.decompose(m[None])
        assert coeffs.shape == (1, 0)
        assert abs(dist[0] - np.linalg.norm(m)) <= 1e-12
        assert np.array_equal(empty.project(m), np.zeros((2, 3)))
        assert not empty.contains(m)
        assert empty.contains(np.zeros((2, 3)))
        assert (hs_orthonormalize([m]).span_residual(empty.mats) <= 1e-9).all()

    def test_shape_mismatch(self, golden_module):
        with pytest.raises(DimensionMismatch):
            golden_module.space.decompose(np.zeros((2, 3, 2)))


def _one_shot_decomposition(space, mats):
    """The decomposition before row blocks: both GEMMs over the whole batch."""
    flat = mats.reshape(len(mats), -1)
    bflat = space.mats.reshape(space.dim, -1)
    c = flat @ bflat.conj().T
    return c, np.linalg.norm(flat - c @ bflat, axis=1)


def _random_span(rng, w, out=3, inn=4):
    """A random w-dimensional span of out x inn matrices (N = 12)."""
    return hs_orthonormalize(random_complex(rng, w, out, inn))


class TestDistances:
    """``distances`` is ``decompose``'s, except on a span that fills its space
    (w = N), where every distance is 0 and no product is formed."""

    @pytest.mark.parametrize("w", [12, 9, 5, 4, 2])
    def test_agree_with_decompose(self, w, rng):
        space = _random_span(rng, w)  # N = 12
        assert space.dim == w and space.fills == (w == 12)
        inside = np.tensordot(random_complex(rng, 3, w), space.mats, axes=1)
        mats = np.concatenate([space.mats, inside, random_complex(rng, 5, 3, 4)])
        dist, ref = space.distances(mats), space.decompose(mats)[1]
        assert dist.shape == (len(mats),)
        assert np.abs(dist - ref).max() <= 1e-12
        assert dist[:w + 3].max() <= 1e-12
        if not space.fills:
            assert np.array_equal(dist, ref) and dist[-5:].min() > 0.1
        # the views read the same distances, with the batch's leading axes
        assert np.array_equal(space.distances(mats[None]), dist[None])
        assert abs(space.distance(mats[-1]) - dist[-1]) <= 1e-12
        rel = space.span_residual(mats)
        assert np.array_equal(rel, dist / np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2))))
        assert [space.contains(m) for m in mats] == list(rel <= 1e-9)

    def test_a_span_that_fills_its_space_gives_exactly_zero(self, rng, monkeypatch):
        space = _random_span(rng, 12)

        def decompose(self, mats):
            raise AssertionError("a span that fills its space forms no product")

        monkeypatch.setattr(OperatorSpace, "decompose", decompose)
        mats = 1e3 * random_complex(rng, 7, 3, 4)
        assert space.fills
        assert np.array_equal(space.distances(mats), np.zeros(7))
        assert np.array_equal(space.span_residual(mats), np.zeros(7))
        assert space.distance(mats[0]) == 0.0 and space.contains(mats[0], 0.0)

    @pytest.mark.parametrize("w", [12, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_matrix_that_is_not_finite_is_not_contained(self, w, bad, rng):
        space = _random_span(rng, w)
        mats = np.concatenate([space.mats[:2], space.mats[:1]])
        mats[2, 1, 2] = bad
        with np.errstate(invalid="ignore"):
            dist = space.distances(mats)
            assert [space.contains(m) for m in mats] == [True, True, False]
        assert dist[:2].max() <= 1e-12 and np.isnan(dist[2])

    def test_shape_mismatch(self, rng):
        for w in (12, 9, 2):
            with pytest.raises(DimensionMismatch):
                _random_span(rng, w).distances(np.zeros((2, 4, 3)))


class TestRowBlocks:
    def test_slices_cover_the_rows_in_order(self, block_budget):
        block_budget(100)
        assert numkernel.row_blocks(10, 30) == [slice(0, 3), slice(3, 6), slice(6, 9),
                                               slice(9, 10)]
        assert numkernel.row_blocks(10, 10) == [slice(0, 10)]
        assert numkernel.row_blocks(3, 101) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert numkernel.row_blocks(0, 30) == []
        assert numkernel.row_blocks(2, 0) == [slice(0, 2)]

    def test_the_closure_check_has_no_budget_of_its_own(self):
        assert not hasattr(cstar, "_CLOSURE_BLOCK_BYTES")


class TestBlockedDecompose:
    def _batch(self, rng):
        space = _haar_conjugated_space([(2, 2), (3, 1)], 3)  # dim 13 on C^7
        inside = np.tensordot(random_complex(rng, 40, space.dim), space.mats, axes=1)
        mats = np.concatenate([inside, random_complex(rng, 20, space.dim_out, space.dim_in)])
        return space, mats[rng.permutation(len(mats))]

    def test_row_blocks_match_the_one_shot_decomposition(self, block_budget, rng):
        space, mats = self._batch(rng)
        block_budget(7 * 16 * 49)  # 7 rows a block, 9 blocks
        assert len(numkernel.row_blocks(len(mats), 16 * 49)) >= 3
        c_ref, d_ref = _one_shot_decomposition(space, mats)
        coeffs, dist = space.decompose(mats)
        assert np.abs(coeffs - c_ref).max() <= 1e-12
        assert np.abs(dist - d_ref).max() <= 1e-12

    def test_one_block_is_the_one_shot_gemm(self, rng, monkeypatch):
        space, mats = self._batch(rng)
        assert len(numkernel.row_blocks(len(mats), 16 * 49)) == 1

        def no_loop(*args):
            raise AssertionError("a batch within the budget runs no block loop")

        monkeypatch.setattr(numkernel, "row_blocks", no_loop)
        flat = mats.reshape(len(mats), -1)
        coeffs, dist = space.decompose(mats)
        assert np.array_equal(coeffs, flat @ space.mats.reshape(space.dim, -1).conj().T)
        assert np.abs(dist - _one_shot_decomposition(space, mats)[1]).max() <= 1e-12

    def test_the_worst_element_of_a_later_block_is_named(self, block_budget, rng):
        A = algebra_from_basis(_haar_conjugated_space([(2, 2), (3, 1)], 3).mats)
        hom = identity_homomorphism(A)
        mats = np.tensordot(random_complex(rng, 30, A.dim), A.basis, axes=1)
        mats[4] += 1e-3 * random_complex(rng, 7, 7)
        mats[23] += 1e-2 * random_complex(rng, 7, 7)  # the worst, in block 7
        worst = _one_shot_decomposition(A.space, mats)[1][23]
        for budget in (numkernel._BLOCK_BYTES, 3 * 16 * 49):
            block_budget(budget)
            with pytest.raises(ValidationError, match=rf"\(residual {worst:.3e}\)"):
                hom.apply_many(mats)

    def test_peak_stays_below_the_one_shot_stack(self, block_budget, rng):
        space = _haar_conjugated_space([(3, 3)], 4)  # dim 9 on C^9
        mats = random_complex(rng, 400, 9, 9)
        block_budget(16 * 81 * 8)
        _, peak = traced_peak(space.decompose, mats)
        assert peak < 16 * mats.size / 4, peak


class TestOpNorm:
    def test_stack_equals_the_per_matrix_loop(self, rng):
        for shape in ((7, 5, 4), (3, 4, 4), (1, 1, 6), (2, 3, 2, 2)):
            stack = random_complex(rng, *shape)
            loop = np.array([op_norm(m) for m in stack.reshape(-1, *shape[-2:])])
            assert np.array_equal(op_norm(stack), loop.reshape(shape[:-2]))
            assert all(op_norm(m) == float(np.linalg.norm(m, 2))
                       for m in stack.reshape(-1, *shape[-2:]))

    def test_bitwise_equal_to_numpy_spectral_norm(self, rng):
        for shape in ((6, 6), (5, 3), (2, 7), (4, 5, 5), (3, 2, 4, 3)):
            x = random_complex(rng, *shape)
            want = np.linalg.norm(x, 2, axis=(-2, -1))
            assert np.array_equal(op_norm(x), want)
        assert np.array_equal(op_norm(np.zeros((0, 4, 4))), np.zeros(0))

    def test_matrix_gives_a_float(self, rng):
        assert isinstance(op_norm(random_complex(rng, 3, 2)), float)
        assert op_norm(np.zeros((0, 3))) == 0.0

    def test_empty_stack(self):
        assert op_norm(np.zeros((0, 3, 3))).shape == (0,)
        assert np.array_equal(op_norm(np.zeros((2, 0, 3))), np.zeros(2))
        assert op_norm(np.zeros((0, 3, 3))).max(initial=0.0) == 0.0


class TestEighDesc:
    """Against numpy's eigh of the Hermitian part."""

    def _check(self, h):
        w, V = eigh_desc(h)
        herm = (h + h.conj().T) / 2.0
        ref = np.linalg.eigh(herm)[0]
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.all(np.diff(w) <= 0.0)
        assert np.abs(w - ref[::-1]).max() <= 1e-12 * scale
        assert np.abs(V.conj().T @ V - np.eye(len(w))).max() <= 1e-12
        assert np.abs((V * w) @ V.conj().T - herm).max() <= 1e-12 * scale
        return w, V

    def test_rank_deficient_gram(self, rng):
        a = random_complex(rng, 5, 60)
        w, _ = self._check(a.conj().T @ a)
        assert rank_cut(w, 1e-9)[0] == 5

    def test_one_by_one(self):
        w, V = self._check(np.array([[2.5 + 0.0j]]))
        assert w.tolist() == [2.5] and abs(abs(V[0, 0]) - 1.0) <= 1e-15

    def test_non_hermitian_input_uses_the_hermitian_part(self, rng):
        self._check(random_complex(rng, 7, 7))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 24, 52, 130])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_bitwise_equal_to_scipy_evr(self, n, dtype, rng):
        h = random_complex(rng, n, n) if dtype is np.complex128 else rng.standard_normal((n, n))
        h = h + h.conj().T
        w, V = eigh_desc(h)
        ref_w, ref_V = scipy.linalg.eigh((h + h.conj().T) / 2.0, driver="evr")
        assert (w.dtype, V.dtype) == (ref_w.dtype, ref_V.dtype) == (np.float64, dtype)
        assert w.tobytes() == ref_w[::-1].tobytes()
        assert np.ascontiguousarray(V).tobytes() == np.ascontiguousarray(ref_V[:, ::-1]).tobytes()

    def test_empty(self):
        w, V = eigh_desc(np.zeros((0, 0), dtype=np.complex128))
        assert w.shape == (0,) and V.shape == (0, 0) and V.dtype == np.complex128


class TestNormExceeds:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([(), (3,), (2, 2)]),
           st.integers(1, 5), st.integers(1, 5), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.5, 1.0 - 1e-12, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0]))
    def test_agrees_with_op_norm(self, seed, lead, r, c, rank_one, at_frobenius, rel):
        rng = np.random.default_rng(seed)
        if rank_one:  # ||x||_2 = ||x||_F: the screen alone cannot decide near the bound
            x = random_complex(rng, *lead, r, 1) @ random_complex(rng, *lead, 1, c)
        else:
            x = random_complex(rng, *lead, r, c)
        one = x.reshape(-1, r, c)[rng.integers(x.size // (r * c))]
        bound = rel * (np.linalg.norm(one) if at_frobenius else op_norm(one))
        got = norm_exceeds(x, bound)
        assert np.array_equal(got, op_norm(x) > bound)
        assert isinstance(got, bool) if x.ndim == 2 else got.shape == lead

    def test_empty_inputs(self):
        assert norm_exceeds(np.zeros((0, 3)), 0.0) is False
        assert norm_exceeds(np.zeros((0, 3, 3)), 1.0).shape == (0,)
        assert not norm_exceeds(np.zeros((2, 0, 3)), 0.0).any()
