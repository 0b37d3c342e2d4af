"""Dense complex linear-algebra kernel.

Hilbert-Schmidt orthonormal operator spaces, intertwiner (Sylvester-type)
nullspace solving, PSD square roots / pseudo-inverses, and subspace
comparison.  Everything downstream reduces its "canonical identification"
claims to rank decisions made here, so every rank cut uses a single
relative tolerance and records the spectral gap across the cut.
Vectorization is column-stacking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPSD,
    PreconditionError,
    ToleranceAmbiguity,
)

DEFAULT_TOL = 1e-9
# Seed of the stage-1 weights of solve_intertwiners.
STAGE1_SEED = 2010
# solve_intertwiners and structure_constants refuse to allocate a system
# larger than this; it caps the ambient dimension of a commutant near 76.
MAX_SYSTEM_BYTES = 2**30

__all__ = [
    "DEFAULT_TOL",
    "OperatorSpace",
    "as_matrix",
    "as_stack",
    "require_finite",
    "hs_norm",
    "op_norm",
    "norm_exceeds",
    "eigh_desc",
    "rank_cut",
    "column_support",
    "hs_orthonormalize",
    "solve_intertwiners",
    "psd_sqrt_pinv",
    "subspace_equal",
]


def require_finite(a: np.ndarray) -> None:
    """NonFiniteInput unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex128 2-d array."""
    a = np.array(m, dtype=np.complex128, copy=True, order="C")
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    require_finite(a)
    return a


def as_stack(mats) -> np.ndarray:
    """Coerce a nonempty batch of equal-shape matrices, an (m, r, c) array or
    a sequence, to a finite complex128 (m, r, c) array with one conversion
    and one finiteness check."""
    if not (isinstance(mats, np.ndarray) and mats.ndim == 3):
        mats = list(mats)
        shapes = {np.shape(m) for m in mats}
        if len(shapes) > 1:
            raise DimensionMismatch(f"mixed shapes {sorted(shapes)}")
    if not len(mats):
        raise DimensionMismatch("need at least one matrix")
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3:
        raise DimensionMismatch(f"expected a batch of matrices, got shape {a.shape}")
    require_finite(a)
    return a


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def op_norm(x: np.ndarray):
    """Operator (spectral) norm of a matrix (a float), or the per-matrix
    norms of a stack (..., r, c) from one stacked SVD."""
    x = np.asarray(x)
    n = np.linalg.norm(x, 2, axis=(-2, -1)) if x.size else np.zeros(x.shape[:-2])
    return float(n) if x.ndim == 2 else n


def norm_exceeds(x: np.ndarray, bound: float):
    """op_norm(x) > bound, for a matrix or per matrix of a stack.  The SVD
    runs only where the Frobenius norm, an upper bound, does not settle the
    answer (a 1e-10 relative margin covers roundoff in either norm)."""
    x = np.asarray(x)
    out = ~(np.linalg.norm(x, axis=(-2, -1)) * (1.0 + 1e-10) <= bound)
    if x.ndim == 2:
        return bool(out and op_norm(x) > bound)
    out[out] = op_norm(x[out]) > bound
    return out


def eigh_desc(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues in descending order, eigenvectors as columns) of the
    Hermitian part of h, from one MRRR (LAPACK zheevr) decomposition."""
    h = np.asarray(h)
    w, V = scipy.linalg.eigh((h + h.conj().T) / 2.0, driver="evr", check_finite=False)
    return w[::-1], V[:, ::-1]


def rank_cut(values: np.ndarray, tol: float, what: str = "rank cut",
             floor: float = 0.0, residual: float = 0.0) -> tuple[int, float]:
    """Count values above tol * scale, scale = max(values, floor), and report
    the gap across the cut: the smallest kept value over the largest dropped
    one, floored at n * eps * scale for the gap only (n values), so that
    roundoff never reports an infinite gap.

    ``floor`` anchors the cut at the natural scale of the producing problem,
    so a numerically-zero input (pure roundoff) yields rank 0 instead of
    mistaking noise for signal.  ``residual`` bounds how far every value may
    lie from the one it stands for (by Weyl, the norm of a perturbation); it
    is added to the dropped values for the gap.  Raises ToleranceAmbiguity
    when some value lies within a factor of ten of the cut, or the residual
    is not a factor of ten below it.  The gap is inf only when nothing is
    kept.
    """
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    if v.size == 0 or max(v.max(), floor) <= 0.0:
        return 0, np.inf
    scale = max(v.max(), floor)
    cut = tol * scale
    near = (v > cut / 10.0) & (v < cut * 10.0)
    if near.any():
        raise ToleranceAmbiguity(
            f"{what}: value {v[near].max():.6e} lies within a factor 10 "
            f"of the cut {cut:.6e}"
        )
    if residual > cut / 10.0:
        raise ToleranceAmbiguity(
            f"{what}: residual {residual:.6e} is not a factor 10 below "
            f"the cut {cut:.6e}")
    kept = v[v > cut]
    if not kept.size:
        return 0, np.inf
    dropped = max(v[v <= cut].max(initial=0.0), v.size * np.finfo(float).eps * scale)
    return kept.size, float(kept.min() / (dropped + residual))


@dataclass(frozen=True, eq=False)
class OperatorSpace:
    """HS-orthonormal basis of a space of dim_out x dim_in complex matrices.

    ``gap`` is the spectral gap of the rank cut that produced the basis
    (``rank_cut``'s; inf when no cut produced it).
    """

    dim_out: int
    dim_in: int
    mats: np.ndarray  # (dim, dim_out, dim_in)
    gap: float = field(default=np.inf, compare=False)

    def __post_init__(self):
        m = self.mats
        if m.ndim != 3 or m.shape[1:] != (self.dim_out, self.dim_in):
            raise DimensionMismatch(
                f"basis array shape {m.shape} does not match "
                f"({self.dim_out}, {self.dim_in})"
            )
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mats.shape[0]

    def vecs(self) -> np.ndarray:
        """Row-stack of column-stacking vectorizations, shape (dim, out*in)."""
        return self.mats.transpose(0, 2, 1).reshape(
            self.dim, self.dim_out * self.dim_in)

    def _flat(self) -> np.ndarray:
        return self.mats.reshape(self.dim, self.dim_out * self.dim_in)

    def decompose(self, mats) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients (..., dim), HS distances (...)) of a matrix or a batch
        (..., out, in) against the orthonormal basis: one GEMM gives the
        coefficients and one the residuals."""
        arr = np.asarray(mats)
        if arr.ndim < 2 or arr.shape[-2:] != (self.dim_out, self.dim_in):
            raise DimensionMismatch(
                f"expected a batch of {self.dim_out}x{self.dim_in} matrices, "
                f"got shape {arr.shape}")
        lead = arr.shape[:-2]
        flat = arr.reshape(int(np.prod(lead)), self.dim_out * self.dim_in)
        bflat = self._flat()
        c = flat @ bflat.conj().T
        dist = np.linalg.norm(flat - c @ bflat, axis=1)
        return c.reshape(lead + (self.dim,)), dist.reshape(lead)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Coefficients of m against the orthonormal basis (no residual check)."""
        return self.decompose(m)[0]

    def project(self, m: np.ndarray) -> np.ndarray:
        return (self.coeffs(m) @ self._flat()).reshape(self.dim_out, self.dim_in)

    def distance(self, m: np.ndarray) -> float:
        """HS distance of m from the span."""
        return float(self.decompose(m)[1])

    def contains(self, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return bool(self.span_residual(m) <= tol)

    def span_residual(self, mats: np.ndarray) -> np.ndarray:
        """Relative HS distance ||m - P m|| / max(1, ||m||) of each matrix of
        a batch (..., out, in) from the span."""
        dist = self.decompose(mats)[1]
        flat = np.asarray(mats).reshape(dist.size, self.dim_out * self.dim_in)
        return dist / np.maximum(1.0, np.linalg.norm(flat, axis=1)).reshape(dist.shape)

    def projector(self) -> np.ndarray:
        """Orthogonal projection onto the span, acting on vec space."""
        v = self.vecs()
        return v.T @ v.conj()


def column_support(mats: np.ndarray, tol: float, what: str):
    """(rank, isometry onto the joint column span) of a batch of matrices
    with a common row count, the rank cut on the singular values of
    [m_1 | ... | m_k]."""
    k, rows, cols = mats.shape
    stacked = mats.transpose(1, 0, 2).reshape(rows, k * cols)
    U, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank, _ = rank_cut(s, tol, what)
    return rank, U[:, :rank]


def hs_orthonormalize(mats, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """HS-orthonormal basis of the span of ``mats``.

    One column-pivoted QR, A P = Q R: the rank counts singular values of R
    (which are A's) > tol * largest, and the basis is the leading columns of
    Q, so that structured inputs (e.g. matrix units) stay structured instead
    of being mixed inside degenerate singular subspaces.
    """
    arr = as_stack(mats)
    k, r, c = arr.shape
    A = arr.transpose(2, 1, 0).reshape(r * c, k)  # column j is vec(mats[j])
    Q, R, _ = scipy.linalg.qr(A, mode="economic", pivoting=True)
    s = np.linalg.svd(R, compute_uv=False)
    rank, gap = rank_cut(s, tol, "hs_orthonormalize")
    if rank == 0:
        return OperatorSpace(r, c, np.zeros((0, r, c), dtype=np.complex128), gap)
    # ||R[rank:, rank:]|| is A's distance from the span of the leading pivots;
    # if they miss the span, rotate Q by R's left singular vectors
    if np.linalg.norm(R[rank:, rank:]) > 10.0 * tol * s[0] * max(1.0, np.sqrt(k)):
        Q = Q @ np.linalg.svd(R)[0]
    # each basis matrix is unvec of a column of Q, kept column-major in memory
    basis = np.ascontiguousarray(Q[:, :rank].T).reshape(rank, c, r).transpose(0, 2, 1)
    return OperatorSpace(r, c, basis, gap)


@functools.lru_cache(maxsize=64)
def _stage1_weights(k: int) -> np.ndarray:
    """Read-only (2, k) weights of solve_intertwiners' generic Hermitian
    element and generic combination: complex Gaussian, rows of unit norm, from
    the fixed seed STAGE1_SEED.  The solution never depends on them."""
    rng = np.random.default_rng(STAGE1_SEED)
    w = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w.setflags(write=False)
    return w


def _check_system_bytes(nbytes: int, what: str) -> None:
    if nbytes > MAX_SYSTEM_BYTES:
        raise PreconditionError(
            f"{what} needs {nbytes / 2**20:.0f} MiB, "
            f"above the {MAX_SYSTEM_BYTES / 2**20:.0f} MiB limit")


def _combine(c: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i c[..., i] mats[i] as one GEMM."""
    return (c @ mats.reshape(len(mats), -1)).reshape(c.shape[:-1] + mats.shape[1:])


def _null_space(A, B, W, tol: float, floor: float, what: str):
    """(orthonormal basis of {X in span W : A[i] X = X B[i] for all i}, gap).

    The residual system M, column j holding W[j]'s residuals, is F-ordered;
    a tall M is first reduced in place to its square triangular factor by a
    QR, whose SVD has the same singular values and right vectors, so the
    tall left factor of a thin SVD is never formed."""
    if not len(W):
        return W, np.inf
    M = np.matmul(A[None], W[:, None])
    M -= np.matmul(W[:, None], B[None])
    M = M.reshape(len(W), -1).T
    if M.shape[0] > M.shape[1]:
        # "raw" slices R from the top rows; "r" would triu-copy all of them
        M = scipy.linalg.qr(M, mode="raw", overwrite_a=True, check_finite=False)[1]
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    rank, gap = rank_cut(s, tol, what, floor=floor)
    return _combine(Vh[rank:].conj(), W), gap


def solve_intertwiners(lefts, rights, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """HS-orthonormal basis of {X : lefts[i] X = X rights[i] for all i} for a
    *-closed family (the pairs' span holds each pair's adjoint pair); N = n1*n2.

    Stage 1 fits h_R = g + g*, g a generic combination of the rights, as
    sum v_i rights[i]; with h_L = sum v_i lefts[i], every solution X has
    (lam_i - mu_j) (Q* X P)_ij = E_ij in their eigenbases, where ||E|| <=
    (2 delta + eps ||h_R||) ||X||, delta = max(fit residual, ||h_L - h_L*||),
    the last term the eigensolves' roundoff.  So for c = max(tol*scale,
    sqrt(N)*delta/tol, ||h_R||/100), X is within (2 tol/sqrt(N) + 100 eps) ||X||
    of W0 = span{q_i p_j* : |lam_i - mu_j| <= c}.  In W0 a generic combination
    of the pairs (the pairs if k <= 2), then every pair (stage 2), is imposed
    by one null space each, cut at the constraints' operator scale, so a
    poor draw only makes W0 larger.  Raises PreconditionError when delta >
    100*tol*scale, and before forming W0 when stage 2 may need more than
    MAX_SYSTEM_BYTES (16*k*N*dim W0 bytes, which bounds W0's systems too).
    """
    same = lefts is rights
    A = as_stack(lefts)
    B = A if same else as_stack(rights)
    if len(A) != len(B):
        raise DimensionMismatch(f"{len(A)} left factors vs {len(B)} right factors")
    k, n2, n1 = len(A), A.shape[1], B.shape[1]
    if A.shape[2] != n2 or B.shape[2] != n1:
        raise DimensionMismatch("left and right factors must be square")
    scale = max(1e-30, float((2 * op_norm(A) if same else op_norm(A) + op_norm(B)).max()))
    w = _stage1_weights(k)
    g = _combine(w[0], B)
    g += g.conj().T
    v = np.linalg.lstsq(B.reshape(k, -1).T, g.ravel(), rcond=None)[0]
    hR = _combine(v, B)
    hL = hR if same else _combine(v, A)
    delta = max(hs_norm(hR - g), hs_norm(hL - hL.conj().T))
    if delta > 100.0 * tol * scale:
        raise PreconditionError(f"solve_intertwiners: the family is not *-closed "
                                f"(defect {delta:.3e} above {100.0 * tol * scale:.3e})")
    lam, Q = eigh_desc(hL)
    mu, P = (lam, Q) if same else eigh_desc(hR)
    cut = max(tol * scale, np.sqrt(n1 * n2) * delta / tol, 1e-2 * np.abs(mu).max(initial=0.0))
    i, j = np.nonzero(np.abs(lam[:, None] - mu[None, :]) <= cut)
    _check_system_bytes(16 * k * n1 * n2 * len(i), "solve_intertwiners: the stage-2 system")
    W = Q.T[i][:, :, None] * P.T.conj()[j][:, None, :]  # W[m] = q_i p_j*
    gap = np.inf
    if k > 2:
        W, gap = _null_space(_combine(w[1:], A), _combine(w[1:], B), W, tol, scale,
                             "solve_intertwiners")
    W, gap2 = _null_space(A, B, W, tol, scale, "solve_intertwiners stage 2")
    return OperatorSpace(n2, n1, W, min(gap, gap2))


def psd_sqrt_pinv(m, tol: float = DEFAULT_TOL):
    """(sqrt, pinv_sqrt, support) of a PSD matrix.

    sqrt @ sqrt ~ m; pinv_sqrt is the pseudo-inverse of sqrt; support is the
    orthogonal projection onto range(m).  Raises NotPSD when m is not
    Hermitian or has an eigenvalue below -tol * scale.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("psd_sqrt_pinv expects a square matrix")
    scale = max(1.0, op_norm(a))
    if norm_exceeds(a - a.conj().T, 100.0 * tol * scale):
        raise NotPSD("matrix is not Hermitian within tolerance")
    w, V = eigh_desc(a)
    if w.size and w[-1] < -tol * scale:
        raise NotPSD(f"eigenvalue {w[-1]:.6e} below -tol*scale")
    rank, _ = rank_cut(w, tol, "psd_sqrt_pinv")
    V = V[:, :rank]
    root = np.sqrt(w[:rank])
    sq = (V * root) @ V.conj().T
    pinv_sq = (V / root) @ V.conj().T
    support = V @ V.conj().T
    return sq, pinv_sq, support


def subspace_equal(s1: OperatorSpace, s2: OperatorSpace, tol: float = DEFAULT_TOL):
    """(equal, distance): operator-norm distance of the two span projections."""
    if (s1.dim_out, s1.dim_in) != (s2.dim_out, s2.dim_in):
        raise DimensionMismatch(
            f"ambient shapes differ: {(s1.dim_out, s1.dim_in)} vs "
            f"{(s2.dim_out, s2.dim_in)}"
        )
    d = op_norm(s1.projector() - s2.projector())
    return d <= tol, d

