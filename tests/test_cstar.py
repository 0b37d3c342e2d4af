import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfactor import cstar
from modfactor import numkernel
from modfactor.cstar import (
    FiniteCStarAlgebra,
    algebra_from_basis,
    block_decomposition,
    build_algebra,
    center,
    commutant,
    star_isomorphic,
)
from modfactor.errors import (
    DimensionMismatch,
    NonFiniteInput,
    PreconditionError,
    ToleranceAmbiguity,
    ValidationError,
)
from modfactor.numkernel import OperatorSpace, hs_orthonormalize, subspace_equal
from conftest import (
    dense_product_residuals,
    kronecker_intertwiners,
    matrix_unit,
    spy_product_residuals,
)


def _bindings(name):
    """(module, name) for every modfactor module that binds ``name``."""
    return [(mod, name) for key, mod in list(sys.modules.items())
            if key.startswith("modfactor") and hasattr(mod, name)]


def haar_conjugated(blocks, seed):
    """build_algebra(blocks) conjugated by a Haar unitary drawn from seed."""
    A = build_algebra(blocks)
    rng = np.random.default_rng(seed)
    n = A.ambient_dim
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return algebra_from_basis(list(np.einsum("ab,kbc,dc->kad", u, A.basis, u.conj())))


block_patterns = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3)


def test_build_block_algebra_dimensions(block_algebra):
    assert block_algebra.ambient_dim == 3
    assert block_algebra.dim == 5


@pytest.mark.parametrize("blocks,ambient,dim", [
    ([(3, 1)], 3, 9),
    ([(2, 3)], 6, 4),
    ([(1, 1), (1, 1)], 2, 2),
])
def test_build_algebra_shapes(blocks, ambient, dim):
    A = build_algebra(blocks)
    assert A.ambient_dim == ambient
    assert A.dim == dim


def test_commutant_of_full_matrix_algebra_is_scalars():
    A = build_algebra([(3, 1)])
    c = commutant(A)
    assert c.dim == 1


def test_commutant_of_scalars_is_everything():
    A = algebra_from_basis(hs_orthonormalize([np.eye(4)]).mats)
    assert commutant(A).dim == 16


def test_commutant_of_block_algebra(block_algebra):
    c = commutant(block_algebra)
    expected = hs_orthonormalize(
        [matrix_unit(1, 1), matrix_unit(2, 2) + matrix_unit(3, 3)])
    eq, dist = subspace_equal(c.space, expected)
    assert c.dim == 2 and eq, dist


def test_center_examples(block_algebra):
    assert center(build_algebra([(3, 1)])).dim == 1
    z = center(block_algebra)
    inter = hs_orthonormalize(
        [matrix_unit(1, 1), matrix_unit(2, 2) + matrix_unit(3, 3)])
    eq, _ = subspace_equal(z.space, inter)
    assert z.dim == 2 and eq
    diag = algebra_from_basis(
        hs_orthonormalize([matrix_unit(i, i, 4) for i in range(1, 5)]).mats)
    assert center(diag).dim == 4  # abelian algebra is its own center


def test_block_decomposition_examples(block_algebra):
    assert block_decomposition(block_algebra) == [(1, 1), (2, 1)]
    assert block_decomposition(build_algebra([(2, 3)])) == [(2, 3)]


def test_block_decomposition_conjugation_invariant(block_algebra, rng):
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = np.linalg.qr(g)[0]
    conj = algebra_from_basis(
        hs_orthonormalize([u @ b @ u.conj().T for b in block_algebra.basis]).mats)
    assert block_decomposition(conj) == [(1, 1), (2, 1)]


def test_star_isomorphic(block_algebra, golden_module):
    from modfactor.hilbmod import finite_rank_algebra
    K = finite_rank_algebra(golden_module)
    assert star_isomorphic(block_algebra, K)
    assert not star_isomorphic(build_algebra([(2, 1)]),
                               build_algebra([(1, 1), (1, 1)]))
    assert star_isomorphic(build_algebra([(2, 1)]), build_algebra([(2, 5)]))


def test_validation_rejects_non_closed_span():
    # the span of a single non-normal matrix unit is not *-closed
    with pytest.raises(ValidationError):
        algebra_from_basis(hs_orthonormalize([np.eye(2), matrix_unit(1, 2, 2)]).mats)


def test_missing_identity_is_reported_before_closure():
    # E12 alone is neither unital nor *-closed: the identity check runs first
    with pytest.raises(ValidationError, match="identity"):
        algebra_from_basis(hs_orthonormalize([matrix_unit(1, 2, 2)]).mats)
    with pytest.raises(ValidationError, match="identity"):
        algebra_from_basis([matrix_unit(1, 2, 2)])


def test_algebra_from_basis_requires_orthonormal():
    with pytest.raises(ValidationError):
        algebra_from_basis([np.eye(2)])  # HS norm sqrt(2), not 1


@settings(max_examples=15, deadline=None)
@given(block_patterns)
def test_dimension_counts_on_random_patterns(blocks):
    A = build_algebra(blocks)
    Ap = commutant(A)
    assert A.dim == sum(n * n for n, _ in blocks)
    assert Ap.dim == sum(m * m for _, m in blocks)


@settings(max_examples=10, deadline=None)
@given(block_patterns, st.integers(0, 10_000))
def test_double_commutant(blocks, seed):
    rng = np.random.default_rng(seed)
    A = build_algebra(blocks)
    n = A.ambient_dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = np.linalg.qr(g)[0]
    A = algebra_from_basis(hs_orthonormalize([u @ b @ u.conj().T for b in A.basis]).mats)
    eq, dist = subspace_equal(commutant(commutant(A)).space, A.space)
    assert eq, dist


@settings(max_examples=10, deadline=None)
@given(block_patterns)
def test_center_shared_with_commutant(blocks):
    A = build_algebra(blocks)
    eq, dist = subspace_equal(center(A).space, center(commutant(A)).space)
    assert eq, dist


def test_structure_solves_no_commutant(monkeypatch):
    """center, block_decomposition and star_isomorphic work inside A: they
    neither build the commutant nor solve an intertwiner system."""
    calls = []
    # commutant where cstar binds it, solve_intertwiners in every module that does
    for mod, name in [(cstar, "commutant")] + _bindings("solve_intertwiners"):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real, **kw:
                            calls.append(_n) or _f(*a, **kw))
    A = haar_conjugated([(1, 1), (2, 1), (1, 2)], 3)
    assert center(A).dim == 3
    assert block_decomposition(A) == [(1, 1), (1, 2), (2, 1)]
    assert star_isomorphic(A, build_algebra([(2, 3), (1, 1), (1, 1)]))
    assert calls == []


@pytest.mark.parametrize("blocks", [[(2, 1)] * 3, [(1, 2)] * 2, [(1, 1)] * 6])
def test_identical_and_abelian_blocks_under_haar_conjugation(blocks):
    # every element of the center's Hermitian basis can take one value on
    # several blocks; the joint refinement must still separate all of them
    for seed in range(20):
        A = haar_conjugated(blocks, seed)
        assert center(A).dim == len(blocks), seed
        assert block_decomposition(A) == sorted(blocks), seed


def _unit_weights(mats):
    """Stage-1 weights whose two generic elements are multiples of the unit."""
    c = np.trace(mats, axis1=1, axis2=2).conj()
    return lambda k: np.tile(c / np.linalg.norm(c), (2, 1))


@pytest.mark.parametrize("mats,error", [
    ([matrix_unit(i, j, 2) for i in (1, 2) for j in (1, 2)], ToleranceAmbiguity),
    ([np.eye(3), np.diag([1.0, 2.0, 4.0])], PreconditionError),
], ids=["not_minimal", "leaves_span"])
def test_central_projection_checks(mats, error, monkeypatch):
    # not_minimal: M2 with both generic elements multiples of the unit leaves
    # one cluster of dimension 2, which the frame's certificate refuses.
    # leaves_span: a span that is not an algebra; its frame's three blocks
    # hold three dimensions, the span two, so the central projections would
    # leave it
    space = hs_orthonormalize(mats)
    n = space.dim_out
    Z = FiniteCStarAlgebra(n, space, np.eye(n, dtype=complex))
    ref = kronecker_intertwiners(space.mats, space.mats)
    if error is ToleranceAmbiguity:
        assert center(Z).dim == ref.dim == 1
        eq, dist = subspace_equal(commutant(Z).space, ref)
        assert eq, dist
        Z = FiniteCStarAlgebra(n, space, np.eye(n, dtype=complex))
        monkeypatch.setattr(numkernel, "_stage1_weights", _unit_weights(space.mats))
    with pytest.raises(error):
        center(Z)
    with pytest.raises(error):
        block_decomposition(Z)


def _row_bytes(A):
    """What product_residuals prices for A's closure: one row of products
    b_i [b_0 | ... | b_(k-1)], its coefficients and their sum."""
    k, n = A.dim, A.ambient_dim
    return 16 * k * (2 * n * n + k)


def test_product_residuals_memory_guard_raises_before_allocating(monkeypatch):
    # M_30 (k = 900 on C^30): one row of its closure products, with their
    # coefficients and sums, takes 37 MiB, above a 16 MiB limit, and the
    # guard raises before any row is formed
    A = build_algebra([(30, 1)])
    assert _row_bytes(A) == 16 * 900 * 2700
    monkeypatch.setattr(numkernel, "MAX_SYSTEM_BYTES", 2**24)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError,
                           match=r"product_residuals: one row of products needs 37 MiB"):
            A.closure_residuals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _row_bytes(A) / 16, peak


def test_product_residuals_guard_prices_one_row(monkeypatch):
    # M_4 (x) 1_6 on C^24: k = 16, n = 24.  The k^2 products would take 2.25
    # MiB; one row of them with its coefficients fits a limit of exactly its
    # size, since the check never stacks every product
    A = haar_conjugated([(4, 6)], 11)
    k, n = 16, 24
    assert 16 * k ** 2 * n ** 2 > 7 * _row_bytes(A)
    monkeypatch.setattr(numkernel, "MAX_SYSTEM_BYTES", _row_bytes(A))
    # algebra_from_basis certified this basis's closure from its frame;
    # closure_residuals runs the row-blocked check
    assert ("closure", 1e-9) not in A._cache
    assert A.closure_residuals(1e-9).shape == (k, k)


def test_product_residuals_guard_refuses_a_row_over_the_limit(monkeypatch):
    A = haar_conjugated([(4, 6)], 11)
    monkeypatch.setattr(numkernel, "MAX_SYSTEM_BYTES", _row_bytes(A) - 1)
    with pytest.raises(PreconditionError, match="one row of products"):
        A.closure_residuals()
    # a homomorphism's check prices its images' row too
    monkeypatch.setattr(numkernel, "MAX_SYSTEM_BYTES", _row_bytes(A))
    imgs = np.stack([np.kron(b, np.eye(2)) for b in A.basis])
    with pytest.raises(PreconditionError, match="one row of products"):
        cstar.product_residuals(A, imgs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_algebra_from_basis_rejects_non_finite_entries(bad):
    basis = build_algebra([(1, 1), (2, 1)]).basis.copy()
    basis[2, 1, 2] = bad
    with pytest.raises(NonFiniteInput):
        algebra_from_basis(basis)


def test_algebra_from_basis_rejects_an_empty_basis():
    with pytest.raises(DimensionMismatch):
        algebra_from_basis([])


def test_algebra_from_basis_leaves_the_callers_array_writeable():
    basis = build_algebra([(1, 1), (2, 1)]).basis.copy()
    A = algebra_from_basis(basis)
    assert basis.flags.writeable and not A.basis.flags.writeable
    basis[0] = 0.0
    assert A.basis[0, 0, 0] != 0.0


@pytest.mark.parametrize("strided", [False, True])
def test_an_array_is_copied_and_a_list_is_converted_once(strided, monkeypatch):
    # the caller's array (or a view of it) is copied once, so it stays
    # writeable and unshared; a list is stacked into a new array, kept as is
    basis = build_algebra([(1, 1), (2, 1)]).basis
    stacked = []

    def spy(mats):
        stacked.append(numkernel.as_stack(mats))
        return stacked[-1]

    monkeypatch.setattr(cstar, "as_stack", spy)
    caller = np.repeat(basis, 2, axis=0)[::2] if strided else basis.copy()
    A = algebra_from_basis(caller)
    assert caller.flags.writeable and not np.shares_memory(A.basis, caller)
    assert not np.shares_memory(A.basis, stacked[-1])
    rows = [b.copy() for b in basis]
    A = algebra_from_basis(rows)
    assert A.basis is stacked[-1]
    assert all(r.flags.writeable and not np.shares_memory(A.basis, r) for r in rows)


def test_one_frame_per_algebra_and_tol(monkeypatch):
    frames = []
    real = numkernel.wedderburn_frame
    for mod, name in _bindings("wedderburn_frame"):
        monkeypatch.setattr(mod, name, lambda *a, _f=real: frames.append(a[2]) or _f(*a))
    A = haar_conjugated([(2, 2), (3, 1)], 4)  # validated by the direct check
    assert frames == []
    for tol in (1e-9, 1e-10):
        assert commutant(A, tol).dim == 5
        assert center(A, tol).dim == 2
        assert block_decomposition(A, tol) == [(2, 2), (3, 1)]
    assert frames == [1e-9, 1e-10]
    # M_21, k = 441: validation certifies closure from the frame the three
    # queries then read; its k^2 closure products (1.3 GiB) are never formed
    frames.clear()
    passes = spy_product_residuals(monkeypatch)
    M = haar_conjugated([(21, 1)], 4)
    assert 16 * M.dim ** 2 * M.ambient_dim ** 2 > numkernel.MAX_SYSTEM_BYTES
    assert commutant(M).dim == 1 and center(M).dim == 1
    assert block_decomposition(M) == [(21, 1)]
    assert frames == [1e-9]
    assert ("closure", 1e-9) not in M._cache and not passes


def test_orthonormal_rights_are_fitted_without_lstsq(monkeypatch):
    fits = []
    real = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: fits.append(a) or real(*a, **kw))
    A = haar_conjugated([(2, 2), (3, 1)], 5)
    assert commutant(A).dim == 5 and center(A).dim == 2
    assert fits == []


def _one_shot_closure(A):
    """The closure check the row blocks replaced: all k^2 products at once,
    decomposed against the span."""
    return A.space.decompose(np.matmul(A.basis[:, None], A.basis[None]))


def _closure_work(A):
    k, n = A.dim, A.ambient_dim
    return k * k * n * n * (n + k)


def _block_rows(A):
    return max(1, numkernel._BLOCK_BYTES // _row_bytes(A))


def test_blocked_closure_check_matches_the_one_shot_check():
    A = haar_conjugated([(4, 3), (3, 4)], 6)  # k = 25 on C^24
    assert A.dim > 2 * _block_rows(A)  # at least three row blocks
    cprod, closure = _one_shot_closure(A)
    assert np.abs(A.closure_residuals() - closure).max() <= 1e-12
    # the coefficients the blocks form, through A's images in C^24 (x) C^2,
    # whose residuals are those of the dense constants' sums
    imgs = np.stack([np.kron(b, np.eye(2)) for b in A.basis])
    imgs[3] *= 1 + 1e-6
    ref, _ = dense_product_residuals(A, imgs)
    assert ref.max() > 1e-7
    assert np.abs(cstar.product_residuals(A, imgs)[0] - ref).max() <= 1e-12
    assert np.abs(np.tensordot(cprod, A.basis, axes=1)
                  - np.matmul(A.basis[:, None], A.basis[None])).max() <= 1e-12


def test_worst_product_in_a_later_row_block_is_named():
    # M2 (x) 1_m and one Hermitian X = E_11 (x) (f_1 f_2* + f_2 f_1*) / sqrt 2
    # orthogonal to it: a unital, *-closed span where X^2 lies 0.69 from the
    # span, every other product at most 1 / sqrt m; X comes last, beyond the
    # first row block.  The frame route is tried first and gives the direct
    # check's verdict
    m = 26
    flip = np.zeros((m, m))
    flip[0, 1] = flip[1, 0] = 2 ** -0.5
    X = np.kron(matrix_unit(1, 1, 2), flip)
    u = np.linalg.qr(np.random.default_rng(7).standard_normal((2 * m,) * 2))[0]
    mats = np.concatenate([build_algebra([(2, m)]).basis, X[None]])
    mats = np.einsum("ab,kbc,dc->kad", u, mats, u)
    Z = FiniteCStarAlgebra(2 * m, OperatorSpace(2 * m, 2 * m, mats), np.eye(2 * m))
    assert _closure_work(Z) > cstar._FRAME_CLOSURE_WORK
    closure = _one_shot_closure(Z)[1]
    i, j = np.unravel_index(np.argmax(closure), closure.shape)
    assert (i, j) == (4, 4) and i >= _block_rows(Z)
    with pytest.raises(ValidationError) as direct:
        cstar._certify_closure(Z, 1e-9, 1e-9, *cstar.product_residuals(Z, Z.basis))
    with pytest.raises(ValidationError, match=r"basis elements \(4, 4\) leaves the span") as got:
        algebra_from_basis(mats)
    assert str(got.value) == str(direct.value)


# the algebra-structure benchmark ladder, the shape of theta's domain on
# instance a, one algebra above n = 30, and the scalars on C^3, whose frame
# is exact (delta = eps = 0) while the product (I / sqrt 3)^2 lies 1.9e-16
# from the span: only the rounding terms cover it
_CLOSURE_BOUND_CASES = [[(2, 3), (3, 2)], [(3, 3), (2, 4)], [(2, 2), (3, 2), (4, 2)],
                        [(4, 3), (3, 4)], [(6, 1), (4, 1)], [(5, 7), (3, 2)], [(1, 3)]]


@pytest.mark.parametrize("blocks", _CLOSURE_BOUND_CASES, ids=str)
@pytest.mark.parametrize("conjugated", [True, False], ids=["haar", "matrix_units"])
def test_frame_closure_bound_dominates_the_closure_residuals(blocks, conjugated):
    # on matrix-unit bases the frame's residuals are roundoff or exactly 0,
    # and only the rounding terms keep the bound above the direct residuals
    A = haar_conjugated(blocks, 8) if conjugated else build_algebra(blocks)
    tol = 1e-9
    bound = cstar._frame_closure_bound(A, tol)
    direct = A.closure_residuals(tol).max()
    assert direct <= bound <= tol, (direct, bound)


@pytest.mark.parametrize("blocks", [[(2, 3), (3, 2)], [(1, 1)] * 3], ids=str)
def test_frame_closure_bound_dominates_a_measurable_defect(blocks):
    # a basis perturbed by 1e-12 (Hermitian, then re-orthonormalized): its
    # products leave the span by 5e-12 to 2e-11, far above roundoff, and
    # the frame still certifies every block
    A = build_algebra(blocks)
    n = A.ambient_dim
    rng = np.random.default_rng(3)
    g = rng.standard_normal((A.dim, n, n)) + 1j * rng.standard_normal((A.dim, n, n))
    mats = hs_orthonormalize(A.basis + 1e-12 * (g + g.conj().transpose(0, 2, 1))).mats
    Z = FiniteCStarAlgebra(n, OperatorSpace(n, n, mats), np.eye(n, dtype=complex))
    direct = _one_shot_closure(Z)[1].max()
    assert 1e-12 < direct <= cstar._frame_closure_bound(Z, 1e-9) < np.inf


def test_frame_closure_bound_needs_its_delta_term(monkeypatch):
    # M_2 (+) M_1 on C^3 with three matrix units tilted off the blocks by
    # t = 1e-6: e_11 - t e_13, e_12 + t e_32 and e_21 + t e_23.  Weights on
    # e_22, e_33 and the Hermitian pair e_12 + e_21 + t (e_32 + e_23) give the
    # standard frame, so each delta_i is the element's tilt; the product
    # (e_12 + t e_32)(e_21 + t e_23) lies sqrt 5 t from the span, beyond the
    # 2 max delta of the bound's first two terms: only Delta covers it
    t = 1e-6
    mats = np.array([matrix_unit(1, 1, 3) - t * matrix_unit(1, 3, 3),
                     matrix_unit(1, 2, 3) + t * matrix_unit(3, 2, 3),
                     matrix_unit(2, 1, 3) + t * matrix_unit(2, 3, 3),
                     matrix_unit(2, 2, 3), matrix_unit(3, 3, 3)], dtype=complex)
    mats /= np.linalg.norm(mats, axis=(1, 2))[:, None, None]
    w = np.array([[0, 0, 0, 1, 2], [0, 1, 1, 0, 0]]) / np.array([[5 ** 0.5], [2 ** 0.5]])
    monkeypatch.setattr(numkernel, "_stage1_weights", lambda k: w)
    Z = FiniteCStarAlgebra(3, OperatorSpace(3, 3, mats), np.eye(3, dtype=complex))
    bound = cstar._frame_closure_bound(Z, 100 * t)
    residuals = cstar._frame(Z, 100 * t).residuals
    direct = _one_shot_closure(Z)[1].max()
    assert np.allclose(residuals, [t, t, t, 0, 0], rtol=1e-6, atol=1e-15)
    assert 2.2 * t < direct <= bound < 100 * t
    assert direct > 2.1 * residuals.max()


def test_a_failed_frame_falls_back_to_the_direct_check(monkeypatch):
    # both generic elements multiples of the unit: the frame is one cluster,
    # which its certificate refuses; validation still accepts the algebra
    # through the direct check, and commutant raises the cached refusal
    # without building the frame again
    A = build_algebra([(4, 3), (3, 4)])
    assert _closure_work(A) > cstar._FRAME_CLOSURE_WORK
    u = np.linalg.qr(np.random.default_rng(6).standard_normal((24, 24)))[0]
    mats = np.einsum("ab,kbc,dc->kad", u, A.basis, u)
    monkeypatch.setattr(numkernel, "_stage1_weights", _unit_weights(mats))
    frames = []
    real = numkernel.wedderburn_frame
    for mod, name in _bindings("wedderburn_frame"):
        monkeypatch.setattr(mod, name, lambda *a, _f=real: frames.append(a[2]) or _f(*a))
    B = algebra_from_basis(mats)
    assert ("closure", 1e-9) in B._cache
    assert isinstance(B._cache[("frame", 1e-9)], ToleranceAmbiguity)
    for query in (commutant, center, block_decomposition):
        with pytest.raises(ToleranceAmbiguity, match="from the frame's blocks"):
            query(B)
    assert frames == [1e-9]
