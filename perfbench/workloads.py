"""The four benchmark workloads, each driving the public API of modfactor.

A workload is a closed loop with one client.  It has

- ``setup()``: builds the fixed inputs it shares between ops; timed and
  repeated by the runner for ``setup_s``;
- ``inputs(seed, i)``: the inputs of op ``i``, drawn only from the workload
  seed; made outside the timed region;
- ``op(inputs)``: the timed work, returning its outputs;
- ``check(inputs, out)``: ``None`` when the outputs are correct, else the
  reason they are not;
- ``fingerprint(out)``: canonical bytes of the outputs, compared between
  repeated and traced runs of the same op;
- ``timings(out)``: the stage timings of a verification report, if any;
- ``input_key(seed, i)``: equal for ops that get the same input, whose
  outputs must then be identical;
- ``ops_per_round``: a timed loop runs a whole multiple of this many ops;
- ``input_digest(seed, i)``: a hash of the op inputs, for the smoke check
  that a fixed seed gives identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import scipy.linalg

# Traced functions are called through their module, so that the tracer's
# wrappers in the modfactor namespaces see these calls too.
from modfactor import cstar, harness, prodsys
from modfactor.errors import ModfactorError
from modfactor.harness import GenSpec
from modfactor.hilbmod import Homomorphism, finite_rank_algebra

# Certification residual pinned by the acceptance suite (its ``CERT``).
CERT = 1e-8

# The acceptance suite's seeded batch: instance j has shape
# BATCH_SPECS[j % 5] and seed BATCH_SEED + j, for j < BATCH_SIZE; every
# one of them gives H_F <= 10.
BATCH_SPECS = [
    GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(2, 1)],
            module_multiplicity=2, corr_multiplicity=1),
    GenSpec(blocks_B=[(2, 1)], blocks_C=[(1, 1), (1, 1)],
            module_multiplicity=2, corr_multiplicity=2),
    GenSpec(blocks_B=[(1, 1), (1, 1)], blocks_C=[(2, 1)],
            module_multiplicity=3, corr_multiplicity=1,
            with_unit_vector=True),
    GenSpec(blocks_B=[(2, 2)], blocks_C=[(2, 1)],
            module_multiplicity=1, corr_multiplicity=1),
    GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(1, 2)],
            module_multiplicity=2, corr_multiplicity=1,
            with_unit_vector=True),
]
BATCH_SEED = 1000
BATCH_SIZE = 50
BATCH_MAX_H_F = 10

# ROADMAP instance ``a``: uncompressed, seed 1, H_F = 20.
LARGE_SPEC = GenSpec(blocks_B=[(2, 1), (3, 1)], blocks_C=[(2, 1)], compress=False)
LARGE_SEED = 1

# Block data of the algebra ladder; ambient dimensions 12, 17, 18 and 24.
LADDER = [
    [(2, 3), (3, 2)],
    [(3, 3), (2, 4)],
    [(2, 2), (3, 2), (4, 2)],
    [(4, 3), (3, 4)],
]

PRODUCT_STEPS = 3


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _instance_bytes(inst) -> bytes:
    return json.dumps(harness.instance_to_json(inst), sort_keys=True,
                      separators=(",", ":")).encode()


def _array_bytes(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _verify_file(path: str):
    config = harness.VerifyConfig(cert_tol=CERT)
    report = harness.run_verification(harness.parse_instance(path), config)
    return report, report.to_canonical_json().encode()


def _verify_reason(report) -> str | None:
    if report.passed:
        return None
    return f"report did not pass at cert {CERT}"


class SeededBatch:
    """Generate, save, parse, verify and serialize one instance of the seeded
    batch.

    Op i takes batch instance (seed + i) mod 50, and a run makes whole
    passes over the batch, so the workload seed picks where the rotation
    starts and every run measures the same instances; instance sizes vary
    enough that disjoint samples of a hundred would not give steady figures.
    A round is two passes, about 35 s: a 30 s run whose round length hung
    on the host's speed made one pass in some runs and two in others.
    """

    name = "seeded-batch"
    ops_per_round = 2 * BATCH_SIZE

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, "batch.json")

    def setup(self) -> None:
        # warm the whole write and read path once on the golden fixture
        harness.save_instance(harness.golden_instance(), self.path)
        report, _ = _verify_file(self.path)
        if not report.passed:
            raise ModfactorError("golden fixture failed verification in set-up")

    def input_key(self, seed: int, i: int):
        return (seed + i) % BATCH_SIZE

    def inputs(self, seed: int, i: int):
        j = self.input_key(seed, i)
        return BATCH_SPECS[j % len(BATCH_SPECS)], BATCH_SEED + j

    def op(self, inputs):
        spec, seed = inputs
        inst = harness.generate_random_instance(spec, seed)
        harness.save_instance(inst, self.path)
        report, canonical = _verify_file(self.path)
        return inst.F.dim_H, report, canonical

    def check(self, inputs, out) -> str | None:
        h_f, report, _ = out
        if h_f > BATCH_MAX_H_F:
            return f"H_F {h_f} exceeds {BATCH_MAX_H_F}"
        return _verify_reason(report)

    def fingerprint(self, out) -> bytes:
        return out[2]

    def timings(self, out) -> dict:
        return out[1].timings

    def input_digest(self, seed: int, i: int) -> str:
        spec, s = self.inputs(seed, i)
        return _sha(_instance_bytes(harness.generate_random_instance(spec, s)))


class VerifyLarge:
    """Parse and verify ROADMAP instance ``a``; the same file on every op."""

    name = "verify-large"
    ops_per_round = 1

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, "instance_a.json")

    def setup(self) -> None:
        inst = harness.generate_random_instance(LARGE_SPEC, LARGE_SEED)
        harness.save_instance(inst, self.path)

    def input_key(self, seed: int, i: int):
        return 0

    def inputs(self, seed: int, i: int):
        return self.path

    def op(self, path):
        report, canonical = _verify_file(path)
        return report, canonical

    def check(self, inputs, out) -> str | None:
        return _verify_reason(out[0])

    def fingerprint(self, out) -> bytes:
        return out[1]

    def timings(self, out) -> dict:
        return out[0].timings

    def input_digest(self, seed: int, i: int) -> str:
        return _sha(_instance_bytes(harness.generate_random_instance(LARGE_SPEC, LARGE_SEED)))


def haar_unitary(n: int, rng) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class AlgebraStructure:
    """Commutant, center and block decomposition along the algebra ladder,
    each algebra conjugated by a seeded Haar unitary."""

    name = "algebra-structure"
    ops_per_round = 1

    def __init__(self, workdir: str):
        self.ladder = None

    def setup(self) -> None:
        self.ladder = [cstar.build_algebra(blocks) for blocks in LADDER]
        # warm-up on the smallest rung, conjugated by a fixed unitary
        self.op(self._conjugate(np.random.default_rng(0))[:1])

    def _conjugate(self, rng):
        out = []
        for blocks, A in zip(LADDER, self.ladder):
            u = haar_unitary(A.ambient_dim, rng)
            mats = np.einsum("ab,kbc,dc->kad", u, A.basis, u.conj())
            out.append((blocks, mats))
        return out

    def input_key(self, seed: int, i: int):
        return i

    def inputs(self, seed: int, i: int):
        return self._conjugate(np.random.default_rng([seed, i]))

    def op(self, inputs):
        out = []
        for blocks, mats in inputs:
            A = cstar.algebra_from_basis(list(mats))
            out.append((A.ambient_dim, cstar.commutant(A).dim, cstar.center(A).dim,
                        cstar.block_decomposition(A)))
        return out

    def check(self, inputs, out) -> str | None:
        for (blocks, _), (n, dim_comm, dim_center, decomposition) in zip(inputs, out):
            want_comm = sum(m * m for _, m in blocks)
            if dim_comm != want_comm:
                return f"n={n}: commutant dimension {dim_comm}, expected {want_comm}"
            if dim_center != len(blocks):
                return f"n={n}: center dimension {dim_center}, expected {len(blocks)}"
            if decomposition != sorted(blocks):
                return f"n={n}: decomposition {decomposition}, expected {sorted(blocks)}"
        return None

    def fingerprint(self, out) -> bytes:
        return json.dumps(out).encode()

    def timings(self, out) -> dict:
        return {}

    def input_digest(self, seed: int, i: int) -> str:
        return _sha(_array_bytes(m for _, m in self.inputs(seed, i)))


def inner_automorphism(E, seed: int) -> Homomorphism:
    """theta = Ad(u) on the adjointable operators of E, u = exp(i h) for a
    seeded Hermitian h, as in acceptance criterion 7."""
    K = finite_rank_algebra(E)
    rng = np.random.default_rng(seed)
    hb = cstar.hermitian_basis(K.space)
    u = scipy.linalg.expm(1j * np.tensordot(rng.standard_normal(hb.shape[0]), hb, axes=1))
    return Homomorphism(K, E.dim_H, np.stack([u @ b @ u.conj().T for b in K.basis]))


class ProductSystem:
    """Product system of an inner automorphism of a seeded batch module, and
    its associativity coherences."""

    name = "product-system"
    ops_per_round = 1

    def __init__(self, workdir: str):
        pass

    def setup(self) -> None:
        g = harness.golden_instance()
        prodsys.verify_associativity(prodsys.discrete_product_system(g.E, g.theta, 2))

    def input_key(self, seed: int, i: int):
        return i

    def inputs(self, seed: int, i: int):
        s = seed + i
        E = harness.generate_random_instance(BATCH_SPECS[i % len(BATCH_SPECS)], s).E
        return E, inner_automorphism(E, s)

    def op(self, inputs):
        E, theta = inputs
        system = prodsys.discrete_product_system(E, theta, PRODUCT_STEPS)
        return prodsys.verify_associativity(system)

    def check(self, inputs, out) -> str | None:
        if out["max_residual"] > CERT:
            return f"associativity max_residual {out['max_residual']:.3e} > {CERT}"
        return None

    def fingerprint(self, out) -> bytes:
        return json.dumps(out, sort_keys=True).encode()

    def timings(self, out) -> dict:
        return {}

    def input_digest(self, seed: int, i: int) -> str:
        E, theta = self.inputs(seed, i)
        return _sha(_array_bytes([E.basis, theta.images]))


WORKLOADS = {w.name: w for w in (SeededBatch, VerifyLarge, AlgebraStructure, ProductSystem)}
