"""Finite-dimensional C*-algebras as concrete *-closed unital matrix algebras.

Algebras are always anchored to an ambient space; abstract algebras never
exist unanchored.  The unit is the ambient identity (nondegeneracy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PreconditionError, ToleranceAmbiguity, ValidationError
from .numkernel import (
    BASIS_TOL,
    CLOSURE_FACTOR,
    DEFAULT_TOL,
    HELD_CLOSURE_FACTOR,
    OperatorSpace,
    WedderburnFrame,
    _check_system_bytes,
    _fro_norms,
    as_stack,
    hs_norm,
    hs_orthonormalize,
    row_blocks,
    wedderburn_frame,
)

__all__ = [
    "FiniteCStarAlgebra",
    "build_algebra",
    "commutant",
    "center",
    "block_decomposition",
    "star_isomorphic",
    "hermitian_basis",
]


@dataclass(frozen=True, eq=False)
class FiniteCStarAlgebra:
    """A *-closed unital algebra of matrices acting on C^ambient_dim."""

    ambient_dim: int
    space: OperatorSpace
    unit: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.space.dim_out != self.ambient_dim or self.space.dim_in != self.ambient_dim:
            raise DimensionMismatch("algebra basis must consist of square ambient matrices")
        self.unit.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> np.ndarray:
        return self.space.mats

    def contains(self, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return self.space.contains(m, tol)

    def adjoint_coefficients(self) -> np.ndarray:
        """(k, k): row i holds the coefficients of b_i* against the basis.
        Computed once (the basis is read-only), for every star check on A."""
        if "adjoint_coefficients" not in self._cache:
            bflat = self.basis.reshape(self.dim, -1)
            cadj = self.basis.conj().transpose(0, 2, 1).reshape(self.dim, -1) @ bflat.conj().T
            cadj.setflags(write=False)
            self._cache["adjoint_coefficients"] = cadj
        return self._cache["adjoint_coefficients"]

    def closure_residuals(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """HS distances (k, k) of the products b_i b_j from the span, computed
        once per tolerance with every product within HELD_CLOSURE_FACTOR * tol
        of the span (an algebra validated by the direct check holds them from it)."""
        key = ("closure", tol)
        if key not in self._cache:
            _certify_closure(self, tol, HELD_CLOSURE_FACTOR * tol,
                             *product_residuals(self, self.basis))
        return self._cache[key]


def product_residuals(A: FiniteCStarAlgebra, *images) -> tuple:
    """Per stack t (k, d, d) of images of A's basis, the HS norms (k, k) of
    t_i t_j - sum_l c_ijl t_l, c_ijl = <b_l, b_i b_j>; on A's own basis, A's
    closure residuals.  Per row block of i, the products b_i [b_0 | ... |
    b_(k-1)] and c are formed once for every stack, and the sum runs over
    the block's exactly nonzero columns of c (a matrix-unit basis is
    sparse).  PreconditionError when one row would exceed MAX_SYSTEM_BYTES."""
    basis = A.basis
    k, n, _ = basis.shape
    row_bytes = 16 * k * (n * n + k + sum(t[0].size for t in images))
    _check_system_bytes(row_bytes, "product_residuals: one row of products")
    bconj = basis.reshape(k, -1).conj().T
    # [t_0 | ... | t_(k-1)] per distinct stack: t_i t_j over a block of i and every j is one GEMM
    wide = {id(t): np.ascontiguousarray(t.transpose(1, 0, 2)).reshape(len(t[0]), -1)
            for t in (basis,) + images}

    def products(t, s):  # rows (i, j)
        d = len(t[0])
        prods = (t[s].reshape(-1, d) @ wide[id(t)]).reshape(-1, d, k, d)
        return prods.transpose(0, 2, 1, 3).reshape(-1, d * d)

    out = [np.empty((k, k)) for _ in images]
    for s in row_blocks(k, row_bytes):
        prods = products(basis, s)
        c = prods @ bconj
        cols = np.flatnonzero(c.any(axis=0))
        sparse = len(cols) < k
        c = c[:, cols] if sparse else c
        for t, res in zip(images, out):
            # the basis's own products serve c only, so they are reused
            diff = prods if t is basis else products(t, s)
            diff -= c @ (t.reshape(k, -1)[cols] if sparse else t.reshape(k, -1))
            res[s] = _fro_norms(diff).reshape(-1, k)
    return tuple(out)


def _certify_closure(A: FiniteCStarAlgebra, tol: float, bound: float,
                     closure: np.ndarray) -> None:
    """Cache A's closure residuals under tol, or ValidationError naming the
    worst pair when one is above ``bound``."""
    if closure.max() > bound:
        i, j = np.unravel_index(np.argmax(closure), closure.shape)
        raise ValidationError(f"domain basis is not multiplicatively closed: the "
                              f"product of basis elements ({i}, {j}) leaves the span")
    closure.setflags(write=False)
    A._cache[("closure", tol)] = closure


# A frame certificate replaces ``product_residuals`` for an algebra's closure
# when the kernel's work k^2 n^2 (n + k) is above this.  A frame costs about
# 0.7 ms at these sizes and pays only when it is read later; below 5e5 the
# direct check costs under 0.25 ms.  Set from end-to-end runs (CHANGES.md):
# with no threshold seeded-batch, whose algebras are mostly below 5e5 and
# mostly never read a frame, ran 8% slower; at 4e6 algebra-structure's n =
# 12 and 17 rungs, which read their frames right after validation, paid for
# both checks.
_FRAME_CLOSURE_WORK = 5e5


def _frame_pays(A: FiniteCStarAlgebra) -> bool:
    """The rule above, for A's closure."""
    k, n = A.dim, A.ambient_dim
    return k * k * n * n * (n + k) > _FRAME_CLOSURE_WORK


def _frame_closure_bound(A: FiniteCStarAlgebra, tol: float) -> float:
    """An upper bound on the HS distance of every product b_i b_j from A's
    span, as the direct check computes it, from A's frame F (inf when the
    frame raises or its blocks' algebra D = (+)_p M_{n_p} (x) 1 is not near
    span B).  The frame holds every block (sum n_p^2 = k), so span B and D
    have equal dimension.

    Each b_i lies within d_i = delta_i + 3 eps + 5 n^2 e of U D U*, U the
    unitary nearest F: delta_i the frame's residual, eps its unitarity
    defect, e the machine epsilon.  The last term is the rounding of the two
    GEMMs forming F* b_i F (2 n^2 e) and of the one forming F* F (n^2 e,
    taken 3 times with eps): a GEMM F* X errs by at most n e |F*| |X|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 3.5, with
    e = 2u covering complex products), and || |F| ||_2^2 <= ||F||_HS^2 ~ n.  So
    ||(1 - P_B) P_D|| = ||(1 - P_D) P_B|| <= Delta = ||d||_2.  With b_i =
    x_i + e_i, x_i in U D U*: b_i b_j = x_i x_j + x_i e_j + e_i b_j, and x_i
    x_j, in the algebra U D U*, lies within Delta (1 + d_i)(1 + d_j) of span
    B; the sum of the three is largest at d_i = d_j = max d.  The direct
    check's own rounding is added last: the product (n e), its coefficients
    against the basis (n^2 e sqrt k, since || |B| ||_2 <= sqrt k) and their
    recombination (k e sqrt k).  Used for Delta < 1/2."""
    try:
        frame = _frame(A, tol)
    except (ToleranceAmbiguity, PreconditionError):
        return np.inf
    k, n, e = A.dim, A.ambient_dim, np.finfo(float).eps
    d = frame.residuals + 3.0 * frame.defect + 5.0 * n * n * e
    delta, dmax = float(np.linalg.norm(d)), float(d.max())
    if delta >= 0.5:
        return np.inf
    rounding = (n * n + np.sqrt(k) * (n * n + k)) * e
    return dmax + (1.0 + dmax) * dmax + delta * (1.0 + dmax) ** 2 + rounding


def _held_frame(A: FiniteCStarAlgebra, tol: float):
    """A's frame at tol if a query has already built it, else None (never
    builds one; a cached refusal is None)."""
    frame = A._cache.get(("frame", tol))
    return frame if isinstance(frame, WedderburnFrame) else None


def _held_closure_bound(A: FiniteCStarAlgebra, tol: float):
    """A certified bound on A's closure residuals at tol that forms no
    product: its held frame's ``_frame_closure_bound`` when at most tol (the
    bound validation accepts), else the largest of its cached closure
    residuals; else None."""
    bound = np.inf if _held_frame(A, tol) is None else _frame_closure_bound(A, tol)
    if bound <= CLOSURE_FACTOR * tol:
        return bound
    closure = A._cache.get(("closure", tol))
    return None if closure is None else float(closure.max())


def _validate_algebra(A: FiniteCStarAlgebra, tol: float) -> FiniteCStarAlgebra:
    """A, after checking *-closure and multiplicative closure within tol
    (``_from_space`` has checked the identity).  Closure of a basis where
    ``_frame_pays`` is accepted when ``_frame_closure_bound`` is at
    most tol, leaving the frame cached for ``commutant``, ``center`` and
    ``block_decomposition``; every other basis, and every rejection, goes
    through the direct check, ``product_residuals`` on A's own basis."""
    rnorm = A.space.span_residual(A.basis.conj().transpose(0, 2, 1))
    if rnorm.size and rnorm.max() > tol:
        raise ValidationError(
            f"adjoint of basis element {int(np.argmax(rnorm))} leaves the span"
        )
    if not _frame_pays(A) or _frame_closure_bound(A, tol) > CLOSURE_FACTOR * tol:
        _certify_closure(A, tol, CLOSURE_FACTOR * tol, *product_residuals(A, A.basis))
    return A


def algebra_from_basis(mats, tol: float = DEFAULT_TOL) -> FiniteCStarAlgebra:
    """Wrap an already-orthonormal basis verbatim (no re-orthonormalization,
    so index alignment with external data survives) and validate closure."""
    arr = as_stack(mats)  # OperatorSpace freezes it: copy the caller's own array
    arr = arr.copy() if isinstance(mats, np.ndarray) and np.may_share_memory(arr, mats) else arr
    if arr.shape[1] != arr.shape[2]:
        raise DimensionMismatch("algebra elements must be square")
    k = arr.shape[0]
    flat = arr.reshape(k, -1)
    gram = flat @ flat.conj().T
    if np.abs(gram - np.eye(k)).max() > BASIS_TOL:
        raise ValidationError("stored algebra basis is not HS-orthonormal")
    return _validate_algebra(_from_space(OperatorSpace(arr.shape[1], arr.shape[2], arr), tol), tol)


def _from_space(space: OperatorSpace, tol: float = DEFAULT_TOL) -> FiniteCStarAlgebra:
    """A span as an algebra after checking that it holds the identity; spans
    not *-closed by construction go through ``_validate_algebra`` too."""
    n = space.dim_out
    if space.distance(np.eye(n, dtype=np.complex128)) > tol * np.sqrt(n):
        raise ValidationError("algebra does not contain the ambient identity")
    return FiniteCStarAlgebra(n, space, np.eye(n, dtype=np.complex128))


def build_algebra(blocks) -> FiniteCStarAlgebra:
    """Block-diagonal sum of M_n tensor I_m for (size, multiplicity) pairs.

    Basis elements are the amplified matrix units, HS-normalized, so the
    returned basis is exactly structured (no orthonormalization pass).
    """
    blocks = [(int(n), int(m)) for n, m in blocks]
    for n, m in blocks:
        if n < 1 or m < 1:
            raise ValidationError(f"block sizes and multiplicities must be >= 1, got {(n, m)}")
    total = sum(n * m for n, m in blocks)
    mats, offset = [], 0
    for n, m in blocks:
        big = np.zeros((n * n, total, total), dtype=np.complex128)
        big[:, offset:offset + n * m, offset:offset + n * m] = np.kron(
            np.eye(n * n).reshape(n * n, n, n), np.eye(m)) / np.sqrt(m)
        mats.append(big)
        offset += n * m
    space = OperatorSpace(total, total, np.concatenate(mats))
    return FiniteCStarAlgebra(total, space, np.eye(total, dtype=np.complex128))


def commutant(A: FiniteCStarAlgebra, tol: float = DEFAULT_TOL) -> FiniteCStarAlgebra:
    """{X : XA = AX for all A} on the same ambient space."""
    key = ("commutant", tol)
    if key not in A._cache:
        A._cache[key] = _from_space(_frame(A, tol).intertwiners(), tol)
    return A._cache[key]


def _frame(A: FiniteCStarAlgebra, tol: float):
    """A's certified Wedderburn frame, computed once per tolerance: A =
    (+)_p M_{n_p} (x) 1_{m_p} in it.  A refusal is cached and raised again."""
    key = ("frame", tol)
    if key not in A._cache:
        try:
            A._cache[key] = wedderburn_frame(A.basis, A.space, tol)
        except (ToleranceAmbiguity, PreconditionError) as err:
            A._cache[key] = err  # raised again by every later query
    if isinstance(A._cache[key], Exception):
        raise A._cache[key]
    return A._cache[key]


def center(A: FiniteCStarAlgebra, tol: float = DEFAULT_TOL) -> FiniteCStarAlgebra:
    """The span of the block projections of A's frame, HS-normalized."""
    frame = _frame(A, tol)
    projs = np.stack([np.einsum("xcj,ycj->xy", L, L.conj()) / np.sqrt(L[0].size)
                      for L in frame.left])
    return _from_space(OperatorSpace(A.ambient_dim, A.ambient_dim, projs, frame.gap), tol)


def hermitian_basis(space: OperatorSpace) -> np.ndarray:
    """Real-orthonormal Hermitian matrices spanning the Hermitian part of a
    *-closed span.  Used for deterministic generic elements."""
    cands = []
    for b in space.mats:
        cands.append((b + b.conj().T) / 2.0)
        cands.append((b - b.conj().T) / 2.0j)
    out = hs_orthonormalize(cands, DEFAULT_TOL)
    # re-hermitize: the QR basis of a Hermitian real-span can pick up phases
    herm = []
    for m in out.mats:
        h = (m + m.conj().T) / 2.0
        a = (m - m.conj().T) / 2.0j
        herm.append(h if hs_norm(h) >= hs_norm(a) else a)
    return hs_orthonormalize(herm, DEFAULT_TOL).mats


def block_decomposition(A: FiniteCStarAlgebra, tol: float = DEFAULT_TOL):
    """Wedderburn data [(size, multiplicity), ...] of A's frame, sorted."""
    return sorted((n, m) for n, m, _ in _frame(A, tol).blocks)


def star_isomorphic(A1: FiniteCStarAlgebra, A2: FiniteCStarAlgebra,
                    tol: float = DEFAULT_TOL) -> bool:
    """Same multiset of block sizes; multiplicities ignored."""
    b1 = sorted(n for n, _ in block_decomposition(A1, tol))
    b2 = sorted(n for n, _ in block_decomposition(A2, tol))
    return b1 == b2
