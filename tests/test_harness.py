import dataclasses
import gc
import json
import os
import re
import stat
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from modfactor import cstar, factorizations, harness, hilbmod
from modfactor.errors import InfeasibleSpec, ModfactorError, ParseError, ValidationError
from modfactor.harness import (
    GenSpec,
    generate_random_instance,
    golden_instance,
    instance_from_json,
    instance_to_json,
    parse_instance,
    run_verification,
    save_instance,
)
from modfactor.hilbmod import Correspondence, Homomorphism, is_full
from modfactor.numkernel import OperatorSpace, hs_orthonormalize
from conftest import (
    adjoint_pair,
    batch_instances,
    dense_failing_pair,
    dense_product_residuals,
    haar_unitary,
    instance_a,
    instance_b,
    measured_twice,
    spy_invariance,
    spy_product_residuals,
)


SPEC = GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(2, 1)],
               module_multiplicity=2, corr_multiplicity=1)


class TestGolden:
    def test_dimensions(self):
        g = golden_instance()
        assert g.E.dim_G == 3 and g.E.dim_H == 3 and g.E.dim == 4
        assert g.theta.domain.dim == 5

    def test_verification(self):
        rep = run_verification(golden_instance())
        assert rep.passed
        methods = rep.body["methods"]
        assert methods["dual"]["status"] == "ok"
        assert methods["qons"]["status"] == "ok"
        assert methods["commutant"]["status"] == "ok"
        assert methods["unit_vector"]["status"] == "not_applicable"


    def test_verification_leaves_no_reference_cycle(self):
        # theta's verdict holds E's correspondence, not F's (which holds
        # theta), so reference counting alone frees theta, E and F
        gc.collect()
        gc.disable()
        try:
            inst = golden_instance()
            report = run_verification(inst)
            refs = [weakref.ref(x) for x in (inst.theta, inst.E, inst.F)]
            del inst, report
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()


class TestParsing:
    def test_roundtrip(self, tmp_path):
        g = golden_instance()
        p = tmp_path / "g.json"
        save_instance(g, str(p))
        loaded = parse_instance(str(p))
        assert loaded.E.dim == 4
        assert loaded.theta.domain.dim == 5

    def test_malformed_complex_pair(self, tmp_path):
        g = instance_to_json(golden_instance())
        g["E"]["generators"][0][0][0] = [1.0]  # not a [re, im] pair
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(g))
        with pytest.raises(ParseError) as exc:
            parse_instance(str(p))
        assert "generators[0]" in str(exc.value)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_instance(str(p))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_instance("/nonexistent/instance.json")

    def test_perturbed_theta_names_the_basis_pair(self, tmp_path):
        g = instance_to_json(golden_instance())
        # corrupt one image so multiplicativity fails
        g["theta"]["images"][2][0][0] = [0.37, 0.0]
        p = tmp_path / "pert.json"
        p.write_text(json.dumps(g))
        with pytest.raises(ValidationError) as exc:
            parse_instance(str(p))
        msg = str(exc.value)
        assert "basis" in msg and ("pair" in msg or "element" in msg)


def _file_bytes(inst):
    """The bytes of an instance file: compact sorted JSON and a newline."""
    return (json.dumps(instance_to_json(inst), sort_keys=True, separators=(",", ":"))
            + "\n").encode()


class TestInstanceFile:
    def test_saving_over_a_longer_or_shorter_file_leaves_exactly_the_new_bytes(self, tmp_path):
        small, large = generate_random_instance(SPEC, 5), golden_instance()
        p = tmp_path / "i.json"
        save_instance(large, str(p))
        assert p.read_bytes() == _file_bytes(large)
        assert len(_file_bytes(small)) < p.stat().st_size
        save_instance(small, str(p))
        assert p.read_bytes() == _file_bytes(small)
        save_instance(large, str(p))
        assert p.read_bytes() == _file_bytes(large)

    def test_a_new_file_gets_the_mode_open_w_gives(self, tmp_path):
        old = os.umask(0o002)
        try:
            save_instance(golden_instance(), str(tmp_path / "new.json"))
            with open(tmp_path / "ref.json", "w"):
                pass
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("new.json", "ref.json")]
        assert modes == [0o664, 0o664]

    def test_saving_through_a_symlink_rewrites_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 100_000)
        link.symlink_to(target)
        save_instance(golden_instance(), str(link))
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == _file_bytes(golden_instance())

    def test_saving_to_a_device_that_cannot_be_truncated(self):
        save_instance(golden_instance(), os.devnull)


NAN, INF = float("nan"), float("inf")


def _golden_json():
    return instance_to_json(golden_instance())


def _seeded_json():
    return instance_to_json(generate_random_instance(SPEC, 5))


def _put(path, value):
    def mutate(obj):
        *keys, last = path
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return mutate


# (source, mutation): each must give ParseError, never a bare numpy or
# Python error and never a silent coercion
HOSTILE = {
    "nan_in_theta_image": (_golden_json, _put(["theta", "images", 0, 0, 0], [NAN, 0.0])),
    "inf_in_theta_image": (_golden_json, _put(["theta", "images", 1, 1, 1], [0.0, INF])),
    "inf_in_basis": (_golden_json, _put(["B", "basis", 0, 0, 0], [INF, 0.0])),
    "nan_in_generator": (_golden_json, _put(["E", "generators", 0, 0, 0], [0.0, NAN])),
    "nan_in_unit_vector": (_golden_json, _put(["unit_vector"], [[[NAN, 0.0]] * 3] * 3)),
    "bool_entry": (_golden_json, _put(["theta", "images", 0, 0, 0], [True, 0.0])),
    # entries numpy would coerce silently: a numeric string, None (to NaN) and
    # an integer beyond the float range
    "string_entry": (_golden_json, _put(["theta", "images", 0, 0, 0], ["1.0", 0.0])),
    "null_entry": (_golden_json, _put(["B", "basis", 0, 1, 1], [None, 0.0])),
    "huge_int_entry": (_golden_json, _put(["E", "generators", 0, 0, 0], [10 ** 400, 0.0])),
    "string_ambient_dim": (_golden_json, _put(["B", "ambient_dim"], "x")),
    "zero_codomain_dim": (_golden_json, _put(["theta", "codomain_dim"], 0)),
    "float_dim_H": (_golden_json, _put(["E", "dim_H"], 3.5)),
    "oversized_ambient_dim": (_golden_json, _put(["B", "ambient_dim"], 10 ** 9)),
    "ragged_row": (_golden_json, _put(["E", "generators", 0, 1], [[0.0, 0.0]])),
    "empty_basis": (_golden_json, _put(["C", "basis"], [])),
    "empty_generators": (_golden_json, _put(["F", "generators"], [])),
    "mixed_generator_shapes": (_golden_json, _put(["E", "generators", 3], [[[0.0, 0.0]] * 3] * 2)),
    "image_shape": (_golden_json, _put(["theta", "images", 2], [[[1.0, 0.0]] * 2] * 2)),
    "unit_vector_shape": (_golden_json, _put(["unit_vector"], [[[1.0, 0.0]] * 2] * 3)),
    "qons_family_shape": (_golden_json, _put(["qons_family"], [[[[1.0, 0.0]] * 2] * 3])),
    "left_action_shape": (_seeded_json, _put(["oracle", "left_action", 1], [[[1.0, 0.0]]])),
    "nan_in_left_action": (_seeded_json, _put(["oracle", "left_action", 0, 0, 0], [NAN, 0.0])),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_is_a_parse_error(name, tmp_path):
    source, mutate = HOSTILE[name]
    obj = source()
    mutate(obj)
    p = tmp_path / "hostile.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        parse_instance(str(p))


# blocks_B, or keys misspelled beside a valid one, which must not be ignored
@pytest.mark.parametrize("blocks", [[[1, "a"]], [[1]], 3, [[1, True]],
                                    {"compres": False}, {"module_multiplicty": 3}])
def test_hostile_generator_spec_is_a_parse_error(blocks):
    spec = {"blocks_B": [[1, 1]], **blocks} if isinstance(blocks, dict) else {"blocks_B": blocks}
    with pytest.raises(ParseError, match="|".join(blocks) if isinstance(blocks, dict) else None):
        GenSpec.from_json({**spec, "blocks_C": [[1, 1]]})


@pytest.mark.parametrize("flag", ["compress", "with_unit_vector"])
def test_generator_flags_must_be_json_booleans(flag):
    spec = {"blocks_B": [[1, 1]], "blocks_C": [[1, 1]]}
    for value in ("false", "no", 0, 1, None):
        with pytest.raises(ParseError):
            GenSpec.from_json({**spec, flag: value})
    assert getattr(GenSpec.from_json({**spec, flag: False}), flag) is False


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = instance_to_json(generate_random_instance(SPEC, 42))
        b = instance_to_json(generate_random_instance(SPEC, 42))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        a = instance_to_json(generate_random_instance(SPEC, 1))
        b = instance_to_json(generate_random_instance(SPEC, 2))
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_generated_instances_are_full(self):
        for seed in range(5):
            inst = generate_random_instance(SPEC, seed)
            assert is_full(inst.E)[0]

    def test_fullification_is_noted(self):
        # hunt a seed whose compression destroys fullness
        for seed in range(60):
            inst = generate_random_instance(SPEC, seed)
            if inst.notes.get("fullified"):
                assert is_full(inst.E)[0]
                return
        pytest.skip("no fullified instance in the scanned seed range")

    def test_trivial_spec_gives_hilbert_space_instance(self):
        spec = GenSpec(blocks_B=[(1, 1)], blocks_C=[(1, 1)],
                       module_multiplicity=3, corr_multiplicity=2)
        inst = generate_random_instance(spec, 0)
        assert inst.B.ambient_dim == 1 and inst.C.ambient_dim == 1
        rep = run_verification(inst)
        assert rep.passed

    def test_unit_vector_request(self):
        spec = GenSpec(blocks_B=[(1, 1), (2, 1)], blocks_C=[(2, 1)],
                       module_multiplicity=1, corr_multiplicity=1,
                       with_unit_vector=True)
        inst = generate_random_instance(spec, 8)
        assert inst.unit_vector is not None
        rep = run_verification(inst)
        assert rep.passed
        assert rep.body["methods"]["unit_vector"]["status"] == "ok"

    def test_infeasible_spec(self):
        with pytest.raises(InfeasibleSpec):
            generate_random_instance(GenSpec(blocks_B=[], blocks_C=[(1, 1)]), 0)
        with pytest.raises(InfeasibleSpec):
            generate_random_instance(
                GenSpec(blocks_B=[(0, 1)], blocks_C=[(1, 1)]), 0)
        for seed in (-1, 1.5, "3", True):
            with pytest.raises(InfeasibleSpec):
                generate_random_instance(SPEC, seed)

    @pytest.mark.parametrize("blocks_B, stack, mib", [
        ([(200, 1)], "the basis of B", 24414),  # 16 * 200^2 * 200^2 bytes
        ([(60, 1)], "the candidate stack for q", 3164),  # 16 * 2^2 * 60^2 * 120^2
        ([(1, 100)], "the pair commutant's candidate stack", 1526),  # 16 * 100^2 * 100^2
    ])
    def test_oversized_spec_is_refused_before_any_allocation(self, blocks_B, stack, mib):
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleSpec, match=f"{stack} needs {mib} MiB"):
                generate_random_instance(GenSpec(blocks_B=blocks_B, blocks_C=[(1, 1)]), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestSeededDrawIsBasisIndependent:
    def test_same_projection_from_a_rotated_basis(self):
        # the span the generator compresses E with: M_2 over C (+) M_2
        B = cstar.build_algebra([(1, 1), (2, 1)])
        mats = [np.kron(harness._eij(2, a, b), x)
                for a in range(2) for b in range(2) for x in B.basis]
        space = hs_orthonormalize(mats)
        rotated = np.tensordot(haar_unitary(space.dim, np.random.default_rng(1)), space.mats, axes=1)
        for seed in range(5):
            P = harness._random_projection_in(space.mats, np.random.default_rng(seed))
            Q = harness._random_projection_in(rotated, np.random.default_rng(seed))
            assert 0 < round(np.trace(P).real) < 6
            assert np.abs(P - Q).max() <= 1e-10

    def test_rotated_commutant_basis_gives_the_same_instance(self, monkeypatch):
        specs = [SPEC, GenSpec(blocks_B=[(2, 2)], blocks_C=[(2, 1)],
                               module_multiplicity=1, corr_multiplicity=1)]

        def dims(inst):
            return (inst.E.dim, inst.E.dim_H, inst.F.dim, inst.F.dim_H, inst.oracle.module.dim)

        seeds = range(1000, 1006)
        before = [dims(generate_random_instance(spec, s)) for spec in specs for s in seeds]
        real = cstar.commutant
        rng = np.random.default_rng(2)

        def rotated_commutant(A, tol):
            Bp = real(A, tol)
            mats = np.tensordot(haar_unitary(Bp.dim, rng), Bp.basis, axes=1)
            return cstar._from_space(OperatorSpace(A.ambient_dim, A.ambient_dim, mats), tol)

        monkeypatch.setattr(harness, "commutant", rotated_commutant)
        after = [dims(generate_random_instance(spec, s)) for spec in specs for s in seeds]
        assert after == before


class TestVerification:
    def test_seeded_instance_passes(self):
        inst = generate_random_instance(SPEC, 17)
        rep = run_verification(inst)
        assert rep.passed
        assert rep.body["oracle"]["max_residual"] <= 1e-8
        assert rep.body["invariants"]["dims_agree"]

    def test_reports_are_byte_identical(self):
        inst = generate_random_instance(SPEC, 23)
        r1 = run_verification(inst)
        r2 = run_verification(inst)
        assert r1.to_canonical_json() == r2.to_canonical_json()

    def test_reports_are_byte_identical_across_reload(self, tmp_path):
        inst = generate_random_instance(SPEC, 23)
        p = tmp_path / "i.json"
        save_instance(inst, str(p))
        r1 = run_verification(parse_instance(str(p)))
        r2 = run_verification(parse_instance(str(p)))
        assert r1.to_canonical_json() == r2.to_canonical_json()

    def test_timings_never_enter_the_canonical_report(self):
        inst = golden_instance()
        rep = run_verification(inst)
        assert rep.timings  # collected
        assert "timing" not in rep.to_canonical_json()
        assert "setup" not in rep.to_canonical_json()

    def test_fault_injection_isolates_the_homomorphism_check(self):
        # corrupt theta in memory: every method reports the homomorphism
        # failure while the unit identities (which ignore theta) still pass
        inst = golden_instance()
        K = inst.theta.domain
        imgs = inst.theta.images.copy()
        imgs[2] = imgs[2] * 1.01
        bad = Instance_with(inst, Homomorphism(K, 3, imgs))
        rep = run_verification(bad)
        assert not rep.passed
        for name in ("dual", "qons", "commutant"):
            entry = rep.body["methods"][name]
            assert entry["status"] == "error"
            assert "multiplicative" in entry["reason"] or "unital" in entry["reason"] \
                or "*-preserving" in entry["reason"]
        assert rep.body["unit_identities"]["max_residual"] <= 1e-8

    def test_flip_residual_above_cert_fails(self, monkeypatch):
        real = factorizations.flip_unitary

        def loose(*args, **kwargs):
            u = real(*args, **kwargs)
            u.residual_unitary = 1e-3
            return u

        monkeypatch.setattr(factorizations, "flip_unitary", loose)
        rep = run_verification(golden_instance())
        commutant = rep.body["methods"]["commutant"]
        assert commutant["status"] == "ok"
        assert commutant["chain"]["flip_residual"] == 1e-3
        assert not rep.passed

    def test_text_rendering(self):
        rep = run_verification(golden_instance())
        text = rep.to_text()
        assert "PASS" in text
        assert "dual" in text and "qons" in text and "commutant" in text

    def test_supplied_qons_family_survives_the_round_trip(self, tmp_path):
        from modfactor.hilbmod import dual_qons_family
        inst = generate_random_instance(SPEC, 19)
        inst.qons_family = dual_qons_family(inst.E)
        p = tmp_path / "fam.json"
        save_instance(inst, str(p))
        loaded = parse_instance(str(p))
        assert loaded.qons_family is not None
        assert len(loaded.qons_family) == len(inst.qons_family)
        rep = run_verification(loaded)
        assert rep.passed
        assert rep.body["methods"]["qons"]["status"] == "ok"


def Instance_with(inst, theta):
    from modfactor.harness import Instance
    return Instance(inst.B, inst.C, inst.E, inst.F, theta,
                    inst.oracle, inst.unit_vector, inst.qons_family, inst.notes)


class TestOracleConsistency:
    def test_mismatched_oracle_is_rejected(self):
        inst1 = generate_random_instance(SPEC, 31)
        inst2 = generate_random_instance(SPEC, 32)
        bad = Instance_with(inst1, inst1.theta)
        bad.oracle = inst2.oracle
        rep = run_verification(bad)
        orc = rep.body["oracle"]
        assert orc is None or orc.get("max_residual") is None or not rep.passed
        # a stage without a residual prints its recorded error
        assert rep.to_text().startswith("verification: FAIL")

    def test_a_replaced_oracle_is_checked_again(self):
        # the generator keeps the tensor of its own oracle; a replaced oracle
        # must not reuse it
        inst = generate_random_instance(SPEC, 31)
        inst.oracle = generate_random_instance(SPEC, 32).oracle
        rep = run_verification(inst)
        assert not rep.passed
        assert rep.body["oracle"]["error"] == \
            "DimensionMismatch: M's left algebra must act on E's base space"


def _rotated_F(inst, u):
    """inst with F's generators and theta's images moved by a unitary u of
    H_F: F -> u F and theta -> u theta u*."""
    from modfactor.hilbmod import module_from_parts
    F = module_from_parts(inst.F.base, OperatorSpace(
        inst.F.dim_H, inst.F.dim_G, np.ascontiguousarray(u @ inst.F.basis)))
    theta = Homomorphism(inst.theta.domain, inst.theta.codomain_dim,
                         u @ inst.theta.images @ u.conj().T)
    return harness.Instance(inst.B, inst.C, inst.E, F, theta, inst.oracle,
                            inst.unit_vector, inst.qons_family, inst.notes)


class TestOracleUpToUnitary:
    def test_a_rotated_F_parses_and_verifies(self, tmp_path, monkeypatch):
        # the oracle check compares F up to a certified unitary of H_F, so
        # files do not depend on the coordinates of the build that wrote them
        solves = _count_calls(monkeypatch, harness, "solve_intertwiners")
        for seed in (1, 23):  # H_F = 4 and 5
            inst = generate_random_instance(SPEC, seed)
            p = tmp_path / f"own_{seed}.json"
            save_instance(inst, str(p))
            parse_instance(str(p))
            assert solves == []  # a file of this build is carried by U = 1
            u = haar_unitary(inst.F.dim_H, np.random.default_rng(seed))
            p = tmp_path / f"rotated_{seed}.json"
            save_instance(_rotated_F(inst, u), str(p))
            loaded = parse_instance(str(p))
            assert len(solves) == 1
            solves.clear()
            assert np.abs(loaded.F.basis - u @ inst.F.basis).max() <= 1e-12
            # the kept tensor reads F's coordinates: its elementary tensors
            # x_i (x) m lie in the rotated F
            tp = loaded.oracle_check[1]
            assert tp.result.module is loaded.F
            elements = tp.blocks()[:, None] @ loaded.oracle.module.basis[None]
            assert loaded.F.space.decompose(elements)[1].max() <= 1e-10
            rep = run_verification(loaded)
            assert rep.passed
            assert rep.body["oracle"]["max_residual"] <= 1e-8

    def test_the_raw_theta2_images_are_fitted_by_least_squares(self, tmp_path, monkeypatch):
        # theta2's images of the domain basis are not HS-orthonormal, so the
        # moved-coordinates solve fits its generic elements by lstsq; every
        # other solve of a parse has an orthonormal domain and needs none
        fits = _count_calls(monkeypatch, np.linalg, "lstsq")
        inst = generate_random_instance(SPEC, 1)
        save_instance(inst, str(tmp_path / "own.json"))
        parse_instance(str(tmp_path / "own.json"))
        assert fits == []
        u = haar_unitary(inst.F.dim_H, np.random.default_rng(1))
        save_instance(_rotated_F(inst, u), str(tmp_path / "rotated.json"))
        parse_instance(str(tmp_path / "rotated.json"))
        assert [a[0].shape for a in fits] == [(inst.F.dim_H ** 2, inst.theta.domain.dim)]

    def test_theta_conjugated_off_F_is_rejected(self, tmp_path):
        # over C (+) C, a Haar unitary of H_F mixes F's two summands, so it
        # does not preserve F and moves theta out of B^a(F)
        spec = GenSpec(blocks_B=[(2, 1)], blocks_C=[(1, 1), (1, 1)],
                       module_multiplicity=2, corr_multiplicity=2)
        inst = generate_random_instance(spec, 5)
        u = haar_unitary(inst.F.dim_H, np.random.default_rng(3))
        bad = Instance_with(inst, Homomorphism(inst.theta.domain, inst.theta.codomain_dim,
                                               u @ inst.theta.images @ u.conj().T))
        p = tmp_path / "bad.json"
        save_instance(bad, str(p))
        with pytest.raises(ValidationError, match="leaves the adjointable algebra of F"):
            parse_instance(str(p))

    def test_an_oracle_inducing_another_F_is_rejected(self):
        # seeds 1 and 8 share B and E's dimensions; seed 8's oracle induces
        # an F of another dimension from seed 1's E
        inst = generate_random_instance(SPEC, 1)
        other = generate_random_instance(SPEC, 8)
        assert np.allclose(inst.B.basis, other.B.basis)
        with pytest.raises(ValidationError,
                           match="instance F is not the module induced by the recorded oracle"):
            harness._check_oracle_consistency(inst.E, inst.F, inst.theta, other.oracle, 1e-9)


UV_SPEC = dataclasses.replace(SPEC, with_unit_vector=True)


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a spy; returns the list of its calls' arguments."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestEachFactCheckedOnce:
    def test_parse_and_verify_induce_the_oracle_once(self, tmp_path, monkeypatch):
        p = tmp_path / "i.json"
        save_instance(generate_random_instance(SPEC, 23), str(p))
        calls = _count_calls(monkeypatch, harness, "induced_homomorphism")
        assert run_verification(parse_instance(str(p))).passed
        assert len(calls) == 1

    def test_a_generated_instance_keeps_its_induced_tensor(self, monkeypatch):
        inst = generate_random_instance(SPEC, 23)
        calls = _count_calls(monkeypatch, harness, "induced_homomorphism")
        assert run_verification(inst).passed
        assert calls == []

    def test_theta_acting_on_F_is_validated_once(self, monkeypatch):
        # measured once, by validate_theta's membership pass: T y and T* y
        # together; F with theta acting is never validated as a correspondence
        inst = generate_random_instance(UV_SPEC, 7)
        calls = _count_calls(monkeypatch, Correspondence, "validate")
        checks = spy_invariance(monkeypatch)
        rep = run_verification(inst)
        assert rep.passed and rep.body["methods"]["unit_vector"]["status"] == "ok"
        on_F = [(span, adj) for span, T, _, adj in checks if T is inst.theta.images]
        assert on_F == [(inst.F.space, True)]
        assert not [c for c in calls if c[0].left_action is inst.theta]

    def test_each_direct_comparison_runs_once(self, monkeypatch):
        counts = {}
        for pair, fn in list(factorizations._DIRECT_COMPARISONS.items()):
            def spy(ra, rb, tol, pair=pair, fn=fn):
                counts[pair] = counts.get(pair, 0) + 1
                return fn(ra, rb, tol)
            monkeypatch.setitem(factorizations._DIRECT_COMPARISONS, pair, spy)
        rep = run_verification(generate_random_instance(UV_SPEC, 7))
        assert rep.passed and len(rep.body["comparisons"]) == 6
        assert counts == {("dual", "unit_vector"): 1, ("dual", "qons"): 1,
                          ("dual", "commutant"): 1}

    def test_a_failed_comparison_is_the_oracle_links_error(self, monkeypatch):
        def boom(ra, rb, tol):
            raise ValidationError("boom")

        monkeypatch.setitem(factorizations._DIRECT_COMPARISONS, ("dual", "commutant"), boom)
        rep = run_verification(generate_random_instance(SPEC, 17))
        assert rep.body["comparisons"]["dual->commutant"]["error"] == "ValidationError: boom"
        assert rep.body["comparisons"]["qons->commutant"]["error"] == "ValidationError: boom"
        assert rep.body["oracle"]["error"] == "ValidationError: boom"
        assert not rep.passed
        assert "error: ValidationError: boom" in rep.to_text()

    def test_validate_theta_returns_the_kept_correspondences(self, monkeypatch):
        inst = generate_random_instance(SPEC, 17)
        E_corr, F_corr = factorizations.validate_theta(inst.E, inst.F, inst.theta)
        assert E_corr.module is inst.E and E_corr.left is inst.theta.domain
        assert F_corr.module is inst.F and F_corr.left_action is inst.theta
        checks = spy_invariance(monkeypatch)
        validations = _count_calls(monkeypatch, Correspondence, "validate")
        again = factorizations.validate_theta(inst.E, inst.F, inst.theta)
        assert again[0] is E_corr
        assert again[1].module is inst.F and again[1].left_action is inst.theta
        assert checks == [] and validations == []


class TestCertifyOnceReuse:
    @staticmethod
    def _parsed(tmp_path):
        """The golden fixture and one seeded instance, each parsed from its file."""
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "golden.json"
        seeded = tmp_path / "seeded.json"
        save_instance(generate_random_instance(SPEC, 23), str(seeded))
        return [str(fixture), str(seeded)]

    def test_parse_and_verify_form_no_least_squares_map(self, tmp_path, monkeypatch):
        """Every pseudo-inverse taken during parse and verify is the one of
        hilbmod.commutant_lifting."""
        paths = self._parsed(tmp_path)
        callers = set()
        real = np.linalg.pinv

        def spy(*args, **kwargs):
            code = sys._getframe(1).f_code
            callers.add((Path(code.co_filename).stem, code.co_name))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        for path in paths:
            assert run_verification(parse_instance(path)).passed
        assert callers == {("hilbmod", "commutant_lifting")}, callers

    def test_theta_domain_is_the_finite_rank_algebra_of_E(self, tmp_path):
        for path in self._parsed(tmp_path):
            inst = parse_instance(path)
            assert hilbmod.finite_rank_algebra(inst.E) is inst.theta.domain
            assert hilbmod.dual_module(inst.E).base is inst.theta.domain

    def test_E_is_checked_as_a_K_bimodule_once(self, tmp_path, monkeypatch):
        # E is measured over theta's domain once, by the membership pass that
        # installs it as K(E); no correspondence on E is validated again
        for path in self._parsed(tmp_path):
            calls = _count_calls(monkeypatch, Correspondence, "validate")
            checks = spy_invariance(monkeypatch)
            inst = parse_instance(path)
            assert run_verification(inst).passed
            over_K = [adj for span, T, _, adj in checks
                      if span is inst.E.space and T is inst.theta.domain.basis]
            assert over_K == [True]
            assert not [c for c in calls if c[0].module is inst.E]
            monkeypatch.undo()


class TestEachInvarianceMeasuredOnce:
    """Every span-invariance check runs through ``hilbmod._invariance``, and
    a parse and verify measure each (span, operators, factors) once."""

    @pytest.mark.parametrize("make", [instance_a, lambda: generate_random_instance(SPEC, 23)],
                             ids=["a", "seeded"])
    def test_parse_and_verify_measure_each_pair_once(self, make, tmp_path, monkeypatch):
        path = tmp_path / "i.json"
        save_instance(make(), str(path))
        checks = spy_invariance(monkeypatch)
        inst = parse_instance(str(path))
        assert run_verification(inst).passed
        assert measured_twice(checks) == []
        # theta's images on F and theta's domain on E, once each, T and T* together
        for span, ops in [(inst.F.space, inst.theta.images),
                          (inst.E.space, inst.theta.domain.basis)]:
            assert [adj for s, T, _, adj in checks if s is span and T is ops] == [True]

    @staticmethod
    def _leaking(inst, side, target):
        """theta conjugated by w = exp(i eps H) on H_F (side "F": its images
        leave F) or theta's domain conjugated by it on H_E (side "E": the
        domain leaves K(E)), H a seeded Hermitian matrix: an exact unital
        *-homomorphism whose largest relative span residual of b x (or
        theta(b) y) is about ``target``."""
        from modfactor.cstar import algebra_from_basis
        mod = inst.F if side == "F" else inst.E
        rng = np.random.default_rng(5)
        h = rng.standard_normal((mod.dim_H,) * 2) + 1j * rng.standard_normal((mod.dim_H,) * 2)

        def conjugated(eps):
            w = scipy.linalg.expm(1j * eps * (h + h.conj().T))
            if side == "F":
                theta = Homomorphism(inst.theta.domain, inst.theta.codomain_dim,
                                     w @ inst.theta.images @ w.conj().T)
                ops = theta.images
            else:
                dom = algebra_from_basis(w @ inst.theta.domain.basis @ w.conj().T)
                theta = Homomorphism(dom, inst.theta.codomain_dim, inst.theta.images)
                ops = dom.basis
            leak = mod.space.span_residual(np.matmul(ops[:, None], mod.basis[None])).max()
            return theta, leak

        theta, leak = conjugated(target * 1e-4 / conjugated(1e-4)[1])
        assert 0.9 * target < leak < 1.1 * target
        return theta

    # the verdicts of the parent commit, whose parse measured theta's images
    # on F twice and E over theta's domain twice
    PINNED = {
        ("F", 5e-7, False, 1e-9): "ValidationError: left action of basis element 0 leaves "
                                  "the module span",
        ("F", 5e-7, True, 1e-9): "ValidationError: left action of basis element 0 leaves "
                                 "the module span",
        ("F", 5e-6): "ValidationError: theta image of basis element 0 leaves the adjointable "
                     "algebra of F",
        ("E", 5e-7, False, 1e-9): "ValidationError: left action of basis element 0 leaves "
                                  "the module span",
        ("E", 5e-7, True, 1e-9): r"ValidationError: element leaves the algebra span "
                                 r"\(residual 7\.071e-07\)",
        ("E", 5e-6): "ValidationError: theta's domain is not the adjointable algebra of E",
    }

    @pytest.mark.parametrize("side", ["F", "E"])
    @pytest.mark.parametrize("target", [5e-7, 5e-6])
    def test_a_conjugated_theta_keeps_the_accept_set(self, side, target, tmp_path):
        # two blocks in C, so that F is not all of B(G_F, H_F); with and
        # without the oracle, at tol 1e-9 and 1e-6
        inst = generate_random_instance(dataclasses.replace(SPEC, blocks_C=[(2, 1), (1, 1)]), 11)
        theta = self._leaking(inst, side, target)
        for oracle in (False, True):
            path = tmp_path / f"{oracle}.json"
            save_instance(dataclasses.replace(inst, theta=theta,
                                              oracle=inst.oracle if oracle else None), str(path))
            for tol in (1e-9, 1e-6):
                want = self.PINNED.get((side, target)) or \
                    self.PINNED.get((side, target, oracle, tol))
                try:
                    parse_instance(str(path), tol)
                    got = None
                except ModfactorError as e:
                    got = f"{type(e).__name__}: {e}"
                if want is None:
                    assert got is None, (oracle, tol, got)
                else:
                    assert got is not None and re.fullmatch(want, got), (oracle, tol, got)


class TestCertifiedConstructions:
    def test_product_loop_runs_only_on_maps_from_input(self, tmp_path, monkeypatch):
        # ROADMAP instance a: parse and verify run the product-residual
        # kernel on a map's images only for the parsed oracle left action,
        # the commutant liftings and the other maps built from data; induced
        # actions and identity representations are certified where they are
        # built, and theta by its factorization through the oracle's
        # induced map
        import traceback

        from modfactor import hilbmod
        spec = GenSpec(blocks_B=[(2, 1), (3, 1)], blocks_C=[(2, 1)], compress=False)
        path = tmp_path / "a.json"
        save_instance(generate_random_instance(spec, 1), str(path))
        identities = []
        real_identity = hilbmod.identity_homomorphism

        def identity_spy(A):
            hom = real_identity(A)
            identities.append(hom)
            return hom

        runs = []
        real_kernel = cstar.product_residuals

        def kernel_spy(A, *stacks):
            # a map's images come last; a closure check alone passes A's basis
            if stacks[-1] is not A.basis:
                runs.append((stacks[-1], {f.name for f in traceback.extract_stack()}))
            return real_kernel(A, *stacks)

        monkeypatch.setattr(hilbmod, "identity_homomorphism", identity_spy)
        monkeypatch.setattr(cstar, "product_residuals", kernel_spy)
        monkeypatch.setattr(hilbmod, "product_residuals", kernel_spy)
        inst = parse_instance(str(path))
        assert run_verification(inst).passed
        assert identities
        assert 1 <= len(runs) <= 9
        for images, frames in runs:
            assert "interior_tensor" not in frames and "_amplified_action" not in frames
            assert not any(images is h.images for h in identities)
        callers = set().union(*(frames for _, frames in runs))
        assert {"_decode_correspondence", "commutant_lifting"} <= callers
        # theta settles on its oracle link instead of the kernel
        assert "_decode_hom" not in callers
        assert not any(images is inst.theta.images for images, _ in runs)
        cert = inst.theta.certificate
        assert cert.kind == "factorization" and cert.tol == 1e-9 and 0.0 < cert.value <= 100 * 1e-9


def _with_theta_images(inst, images) -> dict:
    """inst's JSON with theta's images replaced."""
    obj = instance_to_json(inst)
    obj["theta"] = harness._encode_hom(
        Homomorphism(inst.theta.domain, inst.theta.codomain_dim, images))
    return obj


class TestFactorizationCertificate:
    """A parsed theta is certified by its oracle link: theta(b_i) U = U
    theta2(b_i) with theta2 the oracle's induced map
    (``factorizations._factorization_bound``)."""

    def test_the_bound_dominates_the_kernel(self):
        # instances a and b and the seeded batch, parsed: theta2 shares
        # theta's domain, and the bound is at least the kernel's largest
        # measured residual and at most the rule
        for i, made in enumerate([instance_a(), instance_b()] + batch_instances(50)):
            theta = instance_from_json(instance_to_json(made)).theta
            cert = theta.certificate
            assert cert.kind == "factorization" and cert.tol == 1e-9, i
            measured = cstar.product_residuals(theta.domain, theta.images)[0].max()
            assert measured <= cert.value <= 100 * 1e-9, i

    def test_a_tilted_parse_is_bounded_by_the_docstring_formula(self, monkeypatch):
        # F and theta rewritten by a Haar unitary of H_F: U is the polar
        # part of an intertwiner, so eps and delta are nonzero
        links = _count_calls(monkeypatch, harness, "_factorization_bound")
        inst = instance_a()
        u = haar_unitary(inst.F.dim_H, np.random.default_rng(2))
        theta = instance_from_json(instance_to_json(_rotated_F(inst, u))).theta
        (same, pi, U, measured_defect), = links
        assert same is theta and pi.domain is theta.domain
        T, P, B = theta.images, pi.images, theta.domain.basis
        k, d, n = len(T), len(T[0]), len(B[0])
        e, eye = np.finfo(float).eps, np.eye(d)
        kappa = 1 + (d * d + 2) * e

        def norms(S):
            return np.linalg.norm(S, axis=(1, 2))

        def rounding(S):
            w = norms(S)
            return (d * w.max() ** 2 + np.linalg.norm(S) * (n + n * n * np.sqrt(k) + 2 * k)) * e

        defect = max(np.linalg.norm(U.conj().T @ U - eye, 2),
                     np.linalg.norm(U @ U.conj().T - eye, 2))
        assert measured_defect == defect
        eps = norms(T @ U - U @ P)
        assert defect > 0 and eps.min() > 0
        t, p, hs = norms(T), norms(P), np.linalg.norm(U)
        delta = kappa * (defect + d * e * hs ** 2)
        eta = kappa * (eps + d * e * hs * (t + p)) * np.sqrt(1 + delta) + t * delta
        mu = pi.certificate.value + rounding(P)
        pairs = eta[:, None] * t + (t + eta)[:, None] * eta \
            + (1 + delta) * (delta * p[:, None] * p + mu)
        c3 = np.linalg.norm(B.reshape(k, -1), 2) ** 3
        want = kappa * (pairs + c3 * np.linalg.norm(eta) + rounding(T))
        cert = theta.certificate
        assert cert.kind == "factorization"
        assert np.isclose(cert.value, want.max(), rtol=1e-6, atol=0)
        # the pairwise formula bounds each pair's residual
        res, _ = dense_product_residuals(theta.domain, T)
        assert (res <= want).all() and res.max() > 0

    @pytest.mark.parametrize("scale", [1 + 1e-6, 1 + 1e-3])
    def test_a_map_that_is_not_multiplicative_is_named_by_its_pair(self, scale):
        # the images of an adjoint pair of traceless elements scaled by one
        # real factor keep theta unital and *-preserving: the oracle link
        # fails, and the kernel names the pair the dense check names
        inst = instance_a()
        m, n = adjoint_pair(inst.theta.domain)
        imgs = inst.theta.images.copy()
        imgs[[m, n]] *= scale
        i, j = dense_failing_pair(inst.theta.domain, imgs)
        with pytest.raises(ValidationError,
                           match=rf"^homomorphism not multiplicative on basis pair \({i}, {j}\)$"):
            instance_from_json(_with_theta_images(inst, imgs))

    def test_a_homomorphism_that_is_not_the_oracles_is_rejected(self, monkeypatch):
        # over C (+) C, theta has multiplicities (2, 2) on C^4 and the map
        # diag(x, y) -> diag(x, x, x, y) has (3, 1): a unital *-homomorphism
        # into B^a(F) = M_4, measured by the kernel, that no unitary carries
        # onto the induced map
        spec = GenSpec(blocks_B=[(1, 1), (1, 1)], blocks_C=[(1, 1)], compress=False,
                       module_multiplicity=1, corr_multiplicity=2)
        inst = generate_random_instance(spec, 0)
        imgs = np.stack([np.diag([b[0, 0]] * 3 + [b[1, 1]]) for b in inst.theta.domain.basis])
        passes = spy_product_residuals(monkeypatch)
        with pytest.raises(ValidationError,
                           match="^instance theta is not induced by the recorded oracle$"):
            instance_from_json(_with_theta_images(inst, imgs))
        assert any(np.array_equal(stacks[-1], imgs) for _, stacks in passes)

    def test_theta_on_another_domain_object_is_measured(self):
        # theta2 acts on E's K(E); a theta on an equal but distinct algebra
        # gets no factorization bound, and validate_theta runs the kernel
        inst = instance_from_json(instance_to_json(instance_a()))
        dom = cstar.algebra_from_basis(inst.theta.domain.basis)
        theta = Homomorphism(dom, inst.theta.codomain_dim, inst.theta.images)
        harness._check_oracle_consistency(inst.E, inst.F, theta, inst.oracle, 1e-9)
        assert theta.certificate.kind == "kernel"


def _dims(obj):
    """Every value under a ``dims`` key of a report body, by key path."""
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "dims":
                    out[path] = value
                else:
                    walk(value, f"{path}.{key}")

    walk(obj, "")
    return out


def _rotated_golden(seed):
    """The golden instance after a seeded unitary change of basis of G (the
    base space, shared by B = C) and of H (E = F's total space)."""
    from modfactor.cstar import algebra_from_basis
    from modfactor.hilbmod import module_from_parts
    g = golden_instance()
    rng = np.random.default_rng(seed)
    u_G = haar_unitary(g.E.dim_G, rng)
    u_H = haar_unitary(g.E.dim_H, rng)
    B = algebra_from_basis(list(u_G @ g.B.basis @ u_G.conj().T))
    gens = np.ascontiguousarray(u_H @ g.E.basis @ u_G.conj().T)
    E = module_from_parts(B, OperatorSpace(g.E.dim_H, g.E.dim_G, gens))
    K = algebra_from_basis(list(u_H @ g.theta.domain.basis @ u_H.conj().T))
    theta = Homomorphism(K, E.dim_H, u_H @ g.theta.images @ u_H.conj().T)
    return harness.Instance(B, B, E, E, theta, notes={"name": "golden rotated"})


class TestChangeOfBasis:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_golden_verifies_with_the_same_dims(self, seed):
        want = _dims(run_verification(golden_instance()).body)
        assert want
        report = run_verification(_rotated_golden(seed))
        assert report.passed
        assert _dims(report.body) == want


def _encode_matrix_reference(m):
    """The former per-entry encoder of harness._encode_matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


class TestEncodeMatrix:
    """One tolist() of the float view gives the per-entry encoder's JSON."""

    def _assert_same_json(self, inst, monkeypatch):
        new = json.dumps(instance_to_json(inst), sort_keys=True, separators=(",", ":"))
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_encode_matrix", _encode_matrix_reference)
            old = json.dumps(instance_to_json(inst), sort_keys=True, separators=(",", ":"))
        assert new == old

    def test_golden_fixture(self, monkeypatch):
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "golden.json"
        self._assert_same_json(parse_instance(str(fixture)), monkeypatch)
        self._assert_same_json(golden_instance(), monkeypatch)

    def test_batch_instance_with_signed_zeros_and_subnormals(self, monkeypatch):
        inst = generate_random_instance(SPEC, 1002)  # theta's images are 13 5 x 5
        images = inst.theta.images.copy()
        special = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(5e-324, -2.5e-310),
                   complex(-1e-308 / 3, 1e-320)]
        images.reshape(-1)[:len(special)] = special
        theta = Homomorphism(inst.theta.domain, inst.theta.codomain_dim, images)
        self._assert_same_json(Instance_with(inst, theta), monkeypatch)
        encoded = json.dumps([harness._encode_matrix(m) for m in images])
        assert encoded == json.dumps([_encode_matrix_reference(m) for m in images])
        assert "-0.0" in encoded and "5e-324" in encoded
