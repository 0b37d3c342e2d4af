import base64
import sys
import tracemalloc

import numpy as np
import pytest

from modfactor import numkernel
from modfactor.cstar import build_algebra
from modfactor.hilbmod import Homomorphism, build_module
from modfactor.numkernel import OperatorSpace, as_stack, op_norm, rank_cut


def unpack_matrix(m) -> np.ndarray:
    """The matrix that a packed instance-file matrix {"shape": [rows, cols],
    "complex128_le": base64} holds, read apart from harness."""
    return np.frombuffer(base64.b64decode(m["complex128_le"]), "<c16").reshape(m["shape"])


def nested_form(obj):
    """Instance JSON ``obj`` with every packed matrix rewritten as nested
    [re, im] pairs, the form older builds wrote (fixtures/golden.json)."""
    if isinstance(obj, dict) and obj.keys() == {"shape", "complex128_le"}:
        z = unpack_matrix(obj).astype(np.complex128)
        return z.view(np.float64).reshape(z.shape + (2,)).tolist()
    if isinstance(obj, dict):
        return {key: nested_form(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [nested_form(value) for value in obj]
    return obj


def matrix_unit(i, j, n=3):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i - 1, j - 1] = 1.0
    return m


def column_module(n):
    """C^n as a module over the scalars."""
    cols = [np.zeros((n, 1), dtype=complex) for _ in range(n)]
    for i, c in enumerate(cols):
        c[i, 0] = 1.0
    return build_module(build_algebra([(1, 1)]), cols)


def amplification(n, m):
    """a -> a (x) 1_m as a homomorphism M_n -> M_{n m}."""
    Mn = build_algebra([(n, 1)])
    return Homomorphism(Mn, n * m, np.stack([np.kron(b, np.eye(m)) for b in Mn.basis]))


def kronecker_intertwiners(lefts, rights, tol=1e-9):
    """Reference solve of {X : lefts[i] X = X rights[i]}: the null space of
    the whole stacked (k*N, N) Kronecker system from one SVD, cut at the
    operator scale of the constraints (column-stacking vec)."""
    A, B = as_stack(lefts), as_stack(rights)
    n2, n1 = A.shape[1], B.shape[1]
    I1, I2 = np.eye(n1), np.eye(n2)
    M = np.vstack([np.kron(I1, a) - np.kron(b.T, I2) for a, b in zip(A, B)])
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    rank, _ = rank_cut(s, tol, "reference", floor=float((op_norm(A) + op_norm(B)).max()))
    mats = Vh[rank:].conj().reshape(-1, n1, n2).transpose(0, 2, 1)
    return OperatorSpace(n2, n1, np.ascontiguousarray(mats))


def haar_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_conjugated(blocks, rng):
    """The basis of build_algebra(blocks) conjugated by a Haar unitary."""
    A = build_algebra(blocks)
    u = haar_unitary(A.ambient_dim, rng)
    return np.einsum("ab,kbc,dc->kad", u, A.basis, u.conj())


def instance_a():
    """ROADMAP's instance a (H_F = 20): the uncompressed seed-1 instance on
    blocks_B [(2, 1), (3, 1)] and blocks_C [(2, 1)]."""
    from modfactor.harness import GenSpec, generate_random_instance
    spec = GenSpec(blocks_B=[(2, 1), (3, 1)], blocks_C=[(2, 1)], compress=False)
    return generate_random_instance(spec, 1)


def instance_b():
    """ROADMAP's instance b (H_F = 36): the uncompressed seed-1 instance on
    blocks_B [(3, 1), (3, 1)] and blocks_C [(2, 1), (1, 1)]."""
    from modfactor.harness import GenSpec, generate_random_instance
    spec = GenSpec(blocks_B=[(3, 1), (3, 1)], blocks_C=[(2, 1), (1, 1)], compress=False)
    return generate_random_instance(spec, 1)


def batch_instances(count):
    """The first ``count`` instances of the acceptance suite's seeded batch."""
    from modfactor.harness import GenSpec, generate_random_instance
    specs = [
        GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(2, 1)],
                module_multiplicity=2, corr_multiplicity=1),
        GenSpec(blocks_B=[(2, 1)], blocks_C=[(1, 1), (1, 1)],
                module_multiplicity=2, corr_multiplicity=2),
        GenSpec(blocks_B=[(1, 1), (1, 1)], blocks_C=[(2, 1)],
                module_multiplicity=3, corr_multiplicity=1, with_unit_vector=True),
        GenSpec(blocks_B=[(2, 2)], blocks_C=[(2, 1)],
                module_multiplicity=1, corr_multiplicity=1),
        GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(1, 2)],
                module_multiplicity=2, corr_multiplicity=1, with_unit_vector=True),
    ]
    return [generate_random_instance(specs[i % 5], 1000 + i) for i in range(count)]


def corner_module(case, block_algebra):
    """A non-full module over C (+) M2: "corner" is spanned by E21 and E31,
    "random_corner" by a random generator supported on the M2 block."""
    if case == "corner":
        return build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return build_module(block_algebra, [x @ np.diag([0.0, 1.0, 1.0])])


@pytest.fixture(scope="session")
def block_algebra():
    """C (+) M2 embedded in M3."""
    return build_algebra([(1, 1), (2, 1)])


@pytest.fixture(scope="session")
def golden_module(block_algebra):
    """The standard full module without a unit vector over C (+) M2."""
    gens = [matrix_unit(2, 1), matrix_unit(3, 1), matrix_unit(1, 2), matrix_unit(1, 3)]
    return build_module(block_algebra, gens)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def block_budget(monkeypatch):
    """Set the byte budget of the kernels' row blocks for one test; returns
    the setter."""
    return lambda nbytes: monkeypatch.setattr(numkernel, "_BLOCK_BYTES", nbytes)


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak during the call, numpy's buffers
    included)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_product_residuals(monkeypatch):
    """Record every call of ``cstar.product_residuals``, through every
    modfactor module that binds it, as (A, stacks); returns the list."""
    from modfactor import cstar
    calls, real = [], cstar.product_residuals

    def spy(A, *images):
        calls.append((A, images))
        return real(A, *images)

    for key, mod in list(sys.modules.items()):
        if key.startswith("modfactor") and getattr(mod, "product_residuals", None) is real:
            monkeypatch.setattr(mod, "product_residuals", spy)
    return calls


def dense_product_residuals(A, images):
    """The reference for ``cstar.product_residuals``: the dense structure
    constants c[i, j, l] = <b_l, b_i b_j> of all k^2 products at once, and
    per pair ||t_i t_j - sum_l c[i, j, l] t_l|| and the norm of that sum.
    On A's own basis the first are A's closure residuals."""
    k = A.dim
    prods = np.matmul(A.basis[:, None], A.basis[None])
    c = np.einsum("lab,ijab->ijl", A.basis.conj(), prods)
    want = np.tensordot(c, images, axes=1).reshape(k, k, -1)
    got = np.matmul(images[:, None], images[None]).reshape(k, k, -1)
    return np.linalg.norm(got - want, axis=2), np.linalg.norm(want, axis=2)


def dense_failing_pair(A, images, tol=1e-9):
    """The basis pair (i, j) the dense check names: the first row i whose
    worst pair j breaks 100 tol max(1, ||want||)."""
    res, want = dense_product_residuals(A, images)
    bound = 100.0 * tol * np.maximum(1.0, want)
    i = next(i for i in range(len(res)) if res[i].max() > bound[i, np.argmax(res[i])])
    return i, int(np.argmax(res[i]))


def adjoint_pair(A):
    """Basis indices (m, n), m != n, with b_m* = b_n and b_m traceless (no
    unit component)."""
    b = A.basis
    overlap = np.abs(np.einsum("kij,lji->kl", b, b))  # |<b_l, b_k*>|
    for m in range(A.dim):
        n = int(np.argmax(overlap[m]))
        if n != m and overlap[m, n] > 1 - 1e-12 and abs(np.trace(b[m])) < 1e-12:
            return m, n
    raise AssertionError("no traceless adjoint pair in the basis")


def spy_invariance(monkeypatch):
    """Record every call of ``hilbmod._invariance``, the one span-invariance
    kernel, as (span, T, R, adjoints); returns the list."""
    from modfactor import hilbmod
    calls, real = [], hilbmod._invariance

    def spy(span, T, R, adjoints=False):
        calls.append((span, T, R, adjoints))
        return real(span, T, R, adjoints)

    monkeypatch.setattr(hilbmod, "_invariance", spy)
    return calls


def measured_twice(calls) -> list:
    """The (span, operators, factors) measured more than once among a kernel
    spy's calls, compared by content; a pass with adjoints also measures
    the operators' own products, so the flag is not part of the key."""
    import hashlib

    def digest(a):
        data = np.ascontiguousarray(a).tobytes() + repr(a.shape).encode()
        return hashlib.sha1(data).hexdigest()

    keys = [(digest(span.mats), digest(T), digest(R)) for span, T, R, _ in calls]
    return [k for i, k in enumerate(keys) if k in keys[:i]]
