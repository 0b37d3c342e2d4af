"""Dense complex linear-algebra kernel.

Hilbert-Schmidt orthonormal operator spaces, Wedderburn frames and the
intertwiners read off them, PSD square roots / pseudo-inverses, and subspace
comparison.  Everything downstream reduces its "canonical identification"
claims to rank decisions made here, so every rank cut uses a single
relative tolerance and records the spectral gap across the cut.
Vectorization is column-stacking.
"""

from __future__ import annotations

import functools
import math
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

# Tolerance policy: every accept/reject threshold of the package, named once.
# Relative tiers scale with the run's tol (``--tol``): rank cuts and an
# algebra's validation cut at tol itself, and each factor below is the
# multiple of tol that one kind of decision allows.  The absolute tiers,
# AGREE_TOL onward, do not move with tol.
DEFAULT_TOL = 1e-9
# hs_orthonormalize rotates onto R's singular vectors when its dropped pivots
# lie farther than this * tol * s_0 * sqrt(k) from the span.
PIVOT_FACTOR = 10.0
# A construction's defect: a map's unit, star and product residuals, actions
# and inner products leaving their spans, the commutant lifting relation, an
# amplified action's range, a PSD matrix's Hermitian part, a frame's residuals;
# and, over sqrt(k), the candidates hs_orthonormalize leaves out of its QR.
DEFECT_FACTOR = 100.0
# An algebra's multiplicative closure when the algebra is validated ...
CLOSURE_FACTOR = 1.0
# ... and when its residuals are measured alongside a map's products
# (``closure_residuals``, ``Homomorphism.validate``): a looser strictness.
HELD_CLOSURE_FACTOR = 100.0
# A unit vector's ||<xi, xi> - 1||, and the remainder that ends a
# quasi-orthonormal system.
UNIT_FACTOR = 1000.0
# Two computed structures agree: equal spans, computed elements inside a
# computed span, the same theta, a module unitary, a projection's spectrum.
AGREE_TOL = 1e-6
# A quasi-orthonormal family's conditions, given, built or dual.
QONS_TOL = 1e-7
# A stored basis is kept verbatim when HS-orthonormal within this.
BASIS_TOL = 1e-8
# A report passes when every certified residual is at most this
# (``VerifyConfig.cert_tol``, ``--cert-tol``).
CERT_TOL = 1e-8
# The generator's draw falls back to the identity for a spectrum narrower
# than this or a projection farther than this from the span ...
DRAW_TOL = 1e-8
# ... or for a largest spectral gap below this fraction of the spread.
DRAW_GAP = 1e-6
# hilbert_space_compression's omega is a unit column within this.
OMEGA_TOL = 1e-9
# Seed of the weights of wedderburn_frame's generic elements.
STAGE1_SEED = 2010
# wedderburn_frame refuses to allocate a stack larger than this, and
# cstar.product_residuals one row of products.
MAX_SYSTEM_BYTES = 2**30
# The batched kernels form their stacks in row blocks of about this many
# bytes (``row_blocks``), each reduced before the next is formed, so that a
# block stays in cache and its pages are reused instead of faulted in anew.
_BLOCK_BYTES = 2**18

__all__ = [
    "DEFAULT_TOL",
    "OperatorSpace",
    "as_matrix",
    "as_stack",
    "require_finite",
    "hs_norm",
    "op_norm",
    "norm_exceeds",
    "row_blocks",
    "eigh_desc",
    "rank_cut",
    "column_support",
    "hs_orthonormalize",
    "WedderburnFrame",
    "wedderburn_frame",
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


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row (or matrix) of a complex stack, from its
    real view."""
    stack = np.ascontiguousarray(stack)
    v = stack.reshape(len(stack), math.prod(stack.shape[1:])).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def row_blocks(n: int, row_bytes: int) -> list:
    """Slices covering rows 0..n-1 in order, each of as many rows of
    ``row_bytes`` bytes as fit in the kernels' block budget (at least one):
    the one way a batched kernel bounds the stack it forms at a time."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def op_norm(x: np.ndarray):
    """Operator (spectral) norm of a matrix (a float), or the per-matrix
    norms of a stack (..., r, c) from one stacked SVD: the largest singular
    value, the one ``np.linalg.norm(x, 2)`` takes from the same LAPACK call."""
    x = np.asarray(x)
    n = np.linalg.svd(x, compute_uv=False)[..., 0] if x.size else np.zeros(x.shape[:-2])
    return float(n) if x.ndim == 2 else n


def _fro_settles(fro, bound: float):
    """True where a Frobenius norm ``fro``, an upper bound on the operator
    norm, already shows op_norm <= bound (a 1e-10 relative margin covers
    roundoff in either norm)."""
    return fro * (1.0 + 1e-10) <= bound


def norm_exceeds(x: np.ndarray, bound: float):
    """op_norm(x) > bound, for a matrix or per matrix of a stack.  The SVD
    runs only where the Frobenius norm does not settle the answer
    (``_fro_settles``)."""
    x = np.asarray(x)
    out = ~_fro_settles(np.linalg.norm(x, axis=(-2, -1)), bound)
    if x.ndim == 2:
        return bool(out and op_norm(x) > bound)
    out[out] = op_norm(x[out]) > bound
    return out


@functools.lru_cache(maxsize=256)
def _evr(dtype: np.dtype, n: int):
    """LAPACK's MRRR driver (?heevr, ?syevr) for n x n ``dtype`` and its workspace."""
    pfx = "he" if dtype.kind == "c" else "sy"
    keys = ("lwork", "lrwork", "liwork") if pfx == "he" else ("lwork", "liwork")
    drv, query = scipy.linalg.get_lapack_funcs((pfx + "evr", pfx + "evr_lwork"), dtype=dtype)
    return drv, {key: int(x.real) for key, x in zip(keys, query(n, lower=1))}


def eigh_desc(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues in descending order, eigenvectors as columns) of the Hermitian
    part of h: one call of LAPACK's MRRR driver, bitwise scipy's driver="evr"."""
    h = np.asarray(h)
    a = (h + h.conj().T) / 2.0
    if not len(a):
        return np.zeros(0), np.zeros((0, 0), dtype=a.dtype)
    drv, work = _evr(a.dtype, len(a))
    w, V, _, _, info = drv(a, lower=1, overwrite_a=1, **work)
    if info:
        raise np.linalg.LinAlgError(f"eigh_desc: {drv.__name__} failed (info {info})")
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
    kept, gap = _decide(v, cut, what, v.size * np.finfo(float).eps * scale, residual)
    if residual > cut / 10.0:
        raise ToleranceAmbiguity(
            f"{what}: residual {residual:.6e} is not a factor 10 below "
            f"the cut {cut:.6e}")
    return int(kept.sum()), gap


def _decide(v: np.ndarray, cut: float, what: str, floor: float, residual: float = 0.0):
    """(v > cut, gap) of one cut, the gap the least value above it over the
    largest below (floored, plus ``residual``; inf when none is above).
    ToleranceAmbiguity when a value lies within a factor of ten of the cut."""
    above = v > cut
    least, most = v[above].min(initial=np.inf), v[~above].max(initial=0.0)
    if most > cut / 10.0 or least < cut * 10.0:
        near = (v > cut / 10.0) & (v < cut * 10.0)
        raise ToleranceAmbiguity(f"{what}: value {v[near].max():.6e} lies within a "
                                 f"factor 10 of the cut {cut:.6e}")
    return above, np.inf if least == np.inf else float(least / (max(most, floor) + residual))


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

    def __getitem__(self, i):
        """The i-th basis matrix, so that a space passes wherever a family of
        matrices is read by index (the rights of ``solve_intertwiners``)."""
        return self.mats[i]

    def _flat(self) -> np.ndarray:
        return self.mats.reshape(self.dim, self.dim_out * self.dim_in)

    def decompose(self, mats) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients (..., dim), HS distances (...)) of a matrix or a batch
        (..., out, in) against the orthonormal basis: per row block, one GEMM
        gives the coefficients and one the residuals."""
        arr = np.asarray(mats)
        if arr.ndim < 2 or arr.shape[-2:] != (self.dim_out, self.dim_in):
            raise DimensionMismatch(
                f"expected a batch of {self.dim_out}x{self.dim_in} matrices, "
                f"got shape {arr.shape}")
        lead = arr.shape[:-2]
        flat = arr.reshape(int(np.prod(lead)), self.dim_out * self.dim_in)
        bflat = self._flat()
        bconj = bflat.conj().T

        def part(rows):
            c = rows @ bconj
            res = c @ bflat
            res -= rows
            return c, _fro_norms(res)

        row_bytes = 16 * flat.shape[1]
        if len(flat) * row_bytes <= _BLOCK_BYTES:  # one block: no loop
            c, dist = part(flat)
        else:
            c, dist = np.empty((len(flat), self.dim), dtype=np.complex128), np.empty(len(flat))
            for s in row_blocks(len(flat), row_bytes):
                c[s], dist[s] = part(flat[s])
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

    One column-pivoted QR (Businger-Golub), A P = Q R: the rank counts
    singular values of R > tol * largest, and the basis is the leading
    columns of Q, so that structured inputs (e.g. matrix units) stay
    structured instead of being mixed inside degenerate singular subspaces.

    Candidates of HS norm at most tol * max_j ||m_j|| / (DEFECT_FACTOR *
    sqrt(k)) stay out of the QR.  Deleting them perturbs A by delta, their
    total HS norm, at most tol * max_j ||m_j|| / DEFECT_FACTOR <= cut / 100,
    so by Weyl every singular value moves by at most delta, and the rank cut
    takes delta as its ``residual``.  When none is that small, A is formed
    from all of them, with no mask and no copy.
    """
    arr = as_stack(mats)
    k, r, c = arr.shape
    norms = _fro_norms(arr)
    floor = tol * norms.max() / (DEFECT_FACTOR * math.sqrt(k))
    delta = 0.0
    if norms.min() <= floor:
        small = norms <= floor
        if small.all():  # every candidate is 0
            return OperatorSpace(r, c, np.zeros((0, r, c), dtype=np.complex128), np.inf)
        delta = float(np.linalg.norm(norms[small]))
        arr = arr[~small]
    A = arr.transpose(2, 1, 0).reshape(r * c, len(arr))  # column j is vec(mats[j])
    Q, R, _ = scipy.linalg.qr(A, mode="economic", pivoting=True)
    s = np.linalg.svd(R, compute_uv=False)
    rank, gap = rank_cut(s, tol, "hs_orthonormalize", residual=delta)
    if rank == 0:
        return OperatorSpace(r, c, np.zeros((0, r, c), dtype=np.complex128), gap)
    # hypot(||R[rank:, rank:]||, delta) bounds A's distance from the span of
    # the leading pivots; if they miss the span, rotate Q by R's left
    # singular vectors
    if math.hypot(np.linalg.norm(R[rank:, rank:]), delta) > \
            PIVOT_FACTOR * tol * s[0] * max(1.0, np.sqrt(k)):
        Q = Q @ np.linalg.svd(R)[0]
    # each basis matrix is unvec of a column of Q, kept column-major in memory
    basis = np.ascontiguousarray(Q[:, :rank].T).reshape(rank, c, r).transpose(0, 2, 1)
    return OperatorSpace(r, c, basis, gap)


@functools.lru_cache(maxsize=64)
def _stage1_weights(k: int) -> np.ndarray:
    """Read-only (2, k) weights of wedderburn_frame's two generic elements:
    complex Gaussian, rows of unit norm, from the fixed seed STAGE1_SEED.
    The frame's certificate, not the draw, vouches for the result."""
    rng = np.random.default_rng(STAGE1_SEED)
    w = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w.setflags(write=False)
    return w


def _check_system_bytes(nbytes: int, what: str, error=PreconditionError) -> None:
    if nbytes > MAX_SYSTEM_BYTES:
        raise error(
            f"{what} needs {nbytes / 2**20:.0f} MiB, "
            f"above the {MAX_SYSTEM_BYTES / 2**20:.0f} MiB limit")


def _combine(c: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i c[..., i] mats[i] as one GEMM."""
    return (c @ mats.reshape(len(mats), -1)).reshape(c.shape[:-1] + mats.shape[1:])


@dataclass(frozen=True, eq=False)
class WedderburnFrame:
    """Unitary frames of the two sides of a family of pairs in which every
    pair reads (+)_p a_p (x) 1, the same a_p on both sides: per block p, the
    columns e_c (x) f_j as ``left[p][:, c, j]`` (n2, n_p, left multiplicity)
    and ``right[p]`` (n1, n_p, right multiplicity).  ``gap`` is the least
    ratio across a cluster or coupling cut (as in ``rank_cut``).  The
    certificate's measurements: ``residuals`` (k,), per pair the HS norm of
    F* x F outside (+)_p a_p (x) 1 (the larger over the two sides, F a
    side's frame and x its factor), and ``defect``, the larger
    ||F* F - 1|| (HS) over the sides."""

    left: list
    right: list
    gap: float
    residuals: np.ndarray
    defect: float

    @property
    def blocks(self) -> list:
        """(n_p, left multiplicity, right multiplicity) per block."""
        return [L.shape[1:] + R.shape[2:] for L, R in zip(self.left, self.right)]

    def intertwiners(self) -> OperatorSpace:
        """HS-orthonormal X = sum_c L_c Y R_c* / sqrt(n_p), one per block p and
        matrix unit Y of its left-by-right multiplicity space."""
        n2, n1 = len(self.left[0]), len(self.right[0])
        mats = [np.matmul(L.transpose(2, 0, 1)[:, None], R.conj().transpose(2, 1, 0)[None])
                .reshape(-1, n2, n1) / np.sqrt(L.shape[1]) for L, R in zip(self.left, self.right)]
        return OperatorSpace(n2, n1, np.concatenate(mats), self.gap)


def _clusters(eig, cut: float, floor: float, what: str):
    """Clusters of per-side eigenpairs [(values descending, vectors)]: the
    merged values are cut where sorted neighbours differ by more than ``cut``.
    Per cluster its per-side vectors, their widths (clusters, sides), the gap."""
    vals = np.sort(np.concatenate([w for w, _ in eig]))[::-1]
    split, gap = _decide(vals[:-1] - vals[1:], cut, f"{what}: cluster", floor)
    t = (vals[:-1][split] + vals[1:][split]) / 2  # thresholds between clusters
    at = np.array([[0, *np.searchsorted(-w, -t).tolist(), len(w)] for w, _ in eig])
    return [tuple(U[:, i:j] for (_, U), i, j in zip(eig, at[:, c], at[:, c + 1]))
            for c in range(len(t) + 1)], (at[:, 1:] - at[:, :-1]).T, gap


def _spreads(comps, dims) -> np.ndarray:
    """Per cluster, a bound on the eigenvalue spread of its compressions C,
    the diagonal blocks of widths dims[:, s] of comps[s] (empty C skipped):
    the spread of mid = tr C / dim C plus twice the largest ||C - mid 1||,
    by segment sums taken after mid is subtracted (before, they cancel)."""
    nc = len(dims)
    hi, lo, dev = np.full(nc, -np.inf), np.full(nc, np.inf), np.zeros(nc)
    for C, d in zip(comps, dims.T):
        at = np.repeat(np.arange(nc), d)
        mid = np.bincount(at, C.diagonal().real, nc) / np.maximum(d, 1)
        sq = np.where(at[:, None] == at, np.abs(C - np.diag(mid[at])) ** 2, 0.0)
        dev = np.maximum(dev, np.sqrt(np.bincount(at, sq.sum(axis=1), nc)))
        hi, lo = np.where(d > 0, np.maximum(hi, mid), hi), np.where(d > 0, np.minimum(lo, mid), lo)
    return hi - lo + 2 * dev


def wedderburn_frame(lefts, rights, tol: float = DEFAULT_TOL) -> WedderburnFrame:
    """Certified Wedderburn frame (Murota, Kanno, Kojima and Kojima, 2010) of
    a *-closed family of pairs spanning a *-algebra of pairs: a basis and
    its images under a *-representation.  Generic Hermitian h_r = g_r + g_r*,
    g_r = sum_i w[r, i] rights[i] (r = 0, 1; ``_stage1_weights``), are fitted
    as sum_i v_ri rights[i] and are sum_i v_ri lefts[i] on the left.  Rights
    given as an (HS-orthonormal) OperatorSpace are fitted by one GEMM,
    v_ri = <rights[i], h_r>, other families by least squares; delta is the
    larger of the fit residual and ||h_L - h_L*||.  Each h_r, compressed to
    each cluster, splits it where its sorted eigenvalues on both sides differ
    by more than cut = max(tol ||h||, 10 delta); h_1 is compressed once per
    side, and solved only on a cluster that spreads by cut / 10 (``_spreads``).
    Clusters coupled through g_1 (|Q_c* g_1 Q_d| normalised, cut at tol times
    the largest) form a block, aligned to its first by those couplings.
    Certificate, else ToleranceAmbiguity: each cut clears a decade, the frame
    is unitary and each pair in it is (+)_p a_p (x) 1, the rights' a_p on both
    sides, within bound = DEFECT_FACTOR tol max_i (||lefts[i]|| + ||rights[i]||), HS
    norms.  PreconditionError when delta exceeds the bound, before a
    frame-coordinate stack over MAX_SYSTEM_BYTES (16 k n^2 bytes), and unless
    the blocks where the rights act hold sum n_p^2 = dim span(rights): then
    the a_p are full, independent matrix algebras."""
    orthonormal = isinstance(rights, OperatorSpace)
    if orthonormal:
        rights = rights.mats
    same = lefts is rights
    A = as_stack(lefts)
    B = A if same else as_stack(rights)
    if len(A) != len(B):
        raise DimensionMismatch(f"{len(A)} left factors vs {len(B)} right factors")
    k, n2, n1 = len(A), A.shape[1], B.shape[1]
    if A.shape[2] != n2 or B.shape[2] != n1:
        raise DimensionMismatch("left and right factors must be square")
    what = "solve_intertwiners"
    _check_system_bytes(16 * k * max(n1, n2) ** 2, f"{what}: the frame-coordinate stack")
    pairs = (A,) if same else (A, B)
    norms = _fro_norms(A)
    # the 1e-30 floor keeps the bound positive for an all-zero family
    bound = DEFECT_FACTOR * tol * max(
        1e-30, float((norms + (norms if same else _fro_norms(B))).max()))
    w = _stage1_weights(k)
    g = _combine(w, B)
    g += g.conj().transpose(0, 2, 1)
    if orthonormal:  # the fit is the coefficients, one GEMM
        v, rank = g.reshape(2, -1) @ B.reshape(k, -1).conj().T, k
    else:
        v, _, rank, _ = np.linalg.lstsq(B.reshape(k, -1).T, g.reshape(2, -1).T, rcond=None)
        v = v.T
    hs = [_combine(v, M) for M in pairs]
    delta = max(hs_norm(hs[-1] - g), hs_norm(hs[0] - hs[0].conj().transpose(0, 2, 1)))
    if delta > bound:
        raise PreconditionError(f"{what}: the family is not *-closed "
                                f"(defect {delta:.3e} above {bound:.3e})")
    scale = max(hs_norm(h) for h in hs)
    cut, floor = max(tol * scale, 10.0 * delta), (n1 + n2) * np.finfo(float).eps * scale
    eig = [eigh_desc(h[0]) for h in hs]
    clusters, dims, gap = _clusters(eig, cut, floor, what)
    whole = _spreads([U.conj().T @ h[1] @ U for (_, U), h in zip(eig, hs)], dims) < cut / 10
    gaps = [gap]
    for i in np.flatnonzero(~whole)[::-1]:  # h_1 compressed to cluster i alone splits it
        comp = [V.conj().T @ h[1] @ V for V, h in zip(clusters[i], hs)]
        clusters[i:i + 1], d, gap = _clusters(
            [(w, V @ U) for V, (w, U) in zip(clusters[i], map(eigh_desc, comp))], cut, floor, what)
        dims = np.concatenate([dims[:i], d, dims[i + 1:]])
        gaps.append(gap)
    # couplings through g_1, normalised so that those within block p are |(g_p)_cd|
    nc = len(clusters)
    offs = np.vstack([np.zeros(len(pairs), dtype=int), np.cumsum(dims, axis=0)])
    G = [F.conj().T @ _combine(w[1], M) @ F for F, M in zip(map(np.hstack, zip(*clusters)), pairs)]
    one_hot = [np.repeat(np.eye(nc), d, axis=0) for d in dims.T]
    nu = np.sqrt(sum(m.T @ np.abs(Gs) ** 2 @ m for m, Gs in zip(one_hot, G))
                 / np.maximum(dims[:, None], dims[None, :]).sum(axis=2).clip(1))
    coupled = np.eye(nc, dtype=bool)
    coupled[~coupled], gap = _decide(nu[~coupled], tol * nu.max(), f"{what}: coupling",
                                     nu.size * np.finfo(float).eps * nu.max())
    ref = np.argmax(coupled | coupled.T, axis=0)  # each cluster's first coupled one
    if (ref[ref] != ref).any() or (dims != dims[ref]).any():
        raise ToleranceAmbiguity(f"{what}: the couplings do not form blocks")

    def aligned(d, s):
        """Cluster d's side-s vectors, aligned to its block's first cluster."""
        C = G[s][offs[ref[d], s]:offs[ref[d] + 1, s], offs[d, s]:offs[d + 1, s]]
        V = clusters[d][s]
        return V if ref[d] == d or not C.size else V @ C.conj().T * (len(C) ** 0.5 / hs_norm(C))
    sides = [[np.stack([aligned(d, s) for d, r in enumerate(ref) if r == b], axis=1)
              for b in dict.fromkeys(ref.tolist())] for s in range(len(pairs))]
    a = {}  # block p -> its a_p of every pair: the rights' where they act
    residuals, defect = np.zeros(k), 0.0
    for s in reversed(range(len(pairs))):
        F = np.hstack([L.reshape(len(L), -1) for L in sides[s]])
        defect = max(defect, hs_norm(F.conj().T @ F - np.eye(len(F))))
        if defect > bound:
            raise ToleranceAmbiguity(f"{what}: the frame is not unitary")
        T, o = np.matmul(np.matmul(F.conj().T, pairs[s]), F), 0
        for p, (_, n, m) in enumerate(L.shape for L in sides[s]):
            d = np.einsum("kajbj->kabj", T[:, o:o + n * m, o:o + n * m].reshape(k, n, m, n, m))
            d -= a.setdefault(p, np.einsum("kabj->kab", d) / m)[..., None] if m else 0.0
            o += n * m
        res = _fro_norms(T)
        if res.max() > bound:
            raise ToleranceAmbiguity(f"{what}: pair {int(np.argmax(res))} lies {res.max():.3e} "
                                     f"from the frame's blocks (bound {bound:.3e})")
        np.maximum(residuals, res, out=residuals)
    residuals.setflags(write=False)
    frame = WedderburnFrame(sides[0], sides[-1], min(gaps + [gap]), residuals, defect)
    # a block where every right factor vanishes (a kernel) carries no algebra
    held = sum(n * n for p, (n, _, mR) in enumerate(frame.blocks)
               if mR and np.abs(a[p]).max() > bound)
    if held != rank:
        raise PreconditionError(f"{what}: the rights span {rank} dimensions, "
                                f"not the {held} of their frame's algebra")
    return frame


def solve_intertwiners(lefts, rights, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """HS-orthonormal basis of {X : lefts[i] X = X rights[i] for all i}, read
    off the family's ``wedderburn_frame`` (rights a family of matrices or an
    OperatorSpace): no null space is solved."""
    return wedderburn_frame(lefts, rights, tol).intertwiners()


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
    if norm_exceeds(a - a.conj().T, DEFECT_FACTOR * tol * scale):
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
    """(equal, distance): operator-norm distance of the two span projections,
    ||P1 - P2|| = max(||(1 - P2) P1||, ||(1 - P1) P2||), from the d x N
    orthonormal bases (no N x N projector is formed)."""
    if (s1.dim_out, s1.dim_in) != (s2.dim_out, s2.dim_in):
        raise DimensionMismatch(
            f"ambient shapes differ: {(s1.dim_out, s1.dim_in)} vs "
            f"{(s2.dim_out, s2.dim_in)}"
        )
    q1, q2 = s1._flat(), s2._flat()
    d = max(op_norm(q - (q @ p.conj().T) @ p) for q, p in ((q1, q2), (q2, q1)))
    return d <= tol, d

