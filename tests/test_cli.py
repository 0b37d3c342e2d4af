"""Integration tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modfactor
from modfactor import harness
from modfactor.cli import build_parser, main
from modfactor.cstar import build_algebra
from modfactor.harness import Instance, VerifyConfig, save_instance
from modfactor.hilbmod import Homomorphism, finite_rank_algebra
from modfactor.numkernel import DEFAULT_TOL
from conftest import corner_module

CLI = [sys.executable, "-m", "modfactor.cli"]
# the subprocess imports the same package as the tests, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(modfactor.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")]))}


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=ENV, **kw)


@pytest.fixture(scope="module")
def golden_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "golden.json"
    r = run_cli("random", "--golden", "--out", str(p))
    assert r.returncode == 0, r.stderr
    return p


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "spec.json"
    p.write_text(json.dumps({
        "blocks_B": [[1, 1], [2, 1]], "blocks_C": [[2, 1]],
        "module_multiplicity": 2, "corr_multiplicity": 1,
        "with_unit_vector": True,
    }))
    return p


def test_help():
    r = run_cli("--help")
    assert r.returncode == 0
    assert "usage:" in r.stdout.lower()


def test_validate_golden(golden_path):
    r = run_cli("validate", str(golden_path))
    assert r.returncode == 0
    assert "dim E=4" in r.stdout


def test_validate_missing_file():
    r = run_cli("validate", "/no/such/file.json")
    assert r.returncode != 0
    assert "INVALID" in r.stderr


def test_verify_golden(golden_path, tmp_path):
    report = tmp_path / "report.json"
    r = run_cli("verify", "--instance", str(golden_path),
                "--report", str(report))
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    body = json.loads(report.read_text())
    assert body["passed"] is True
    assert body["methods"]["unit_vector"]["status"] == "not_applicable"


def test_verify_reports_are_byte_identical(golden_path, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("verify", "--instance", str(golden_path),
                   "--report", str(p1)).returncode == 0
    assert run_cli("verify", "--instance", str(golden_path),
                   "--report", str(p2)).returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_report_over_a_longer_file_is_exactly_the_new_report(golden_path, tmp_path):
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    reused.write_bytes(b" " * 1_000_000)
    for p in (fresh, reused):
        assert run_cli("verify", "--instance", str(golden_path),
                       "--report", str(p)).returncode == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_no_file_write_opens_with_o_trunc(tmp_path, monkeypatch):
    # truncating on open waits for the writeback of the file's old contents
    calls, real_open = [], os.open

    def spy(path, flags, *args, **kw):
        calls.append((str(path), flags))
        return real_open(path, flags, *args, **kw)

    monkeypatch.setattr(os, "open", spy)
    inst, out = str(tmp_path / "i.json"), str(tmp_path / "out.json")
    for argv in (["random", "--golden", "--out", inst],
                 ["random", "--golden", "--out", inst],
                 ["verify", "--instance", inst, "--report", out],
                 ["factorize", "--method", "dual", "--instance", inst, "--report", out],
                 ["product-system", "--instance", inst, "--steps", "2", "--report", out]):
        assert main(argv) == 0, argv
    assert [path for path, _ in calls if path in (inst, out)] == [inst, inst, out, out, out]
    assert not any(flags & os.O_TRUNC for _, flags in calls)


def test_factorize_runs_a_method_as_verify_does(block_algebra, tmp_path):
    # E is not full, so verify factors its fullification; factorize must too
    E = corner_module("random_corner", block_algebra)
    K = finite_rank_algebra(E)
    inst = tmp_path / "corner.json"
    save_instance(Instance(E.base, E.base, E, E, Homomorphism(K, E.dim_H, K.basis.copy())),
                  str(inst))
    rep, vrep = tmp_path / "dual.json", tmp_path / "verify.json"
    r = run_cli("factorize", "--method", "dual", "--instance", str(inst), "--report", str(rep))
    assert r.returncode == 0, r.stderr
    run_cli("verify", "--instance", str(inst), "--report", str(vrep))
    body = json.loads(vrep.read_text())
    assert body["fullified"] is True
    dual = body["methods"]["dual"]
    assert dual.pop("status") == "ok"
    assert json.loads(rep.read_text()) == dual


def test_random_roundtrip_and_factorize(spec_path, tmp_path):
    inst = tmp_path / "inst.json"
    r = run_cli("random", "--spec", str(spec_path), "--seed", "4",
                "--out", str(inst))
    assert r.returncode == 0, r.stderr

    for method in ("dual", "unit-vector", "qons", "commutant"):
        rep = tmp_path / f"rep_{method}.json"
        r = run_cli("factorize", "--method", method, "--instance", str(inst),
                    "--report", str(rep), "--tol", "1e-9")
        assert r.returncode == 0, (method, r.stderr)
        body = json.loads(rep.read_text())
        assert body["residual_unitary"] <= 1e-8
        assert body["theta_residual"] <= 1e-8

    dims = set()
    for method in ("dual", "unit-vector", "qons", "commutant"):
        body = json.loads((tmp_path / f"rep_{method}.json").read_text())
        dims.add(body["dims"]["correspondence"])
    assert len(dims) == 1  # every method found the same correspondence size


def test_factorize_emit_unitaries(spec_path, tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli("random", "--spec", str(spec_path), "--seed", "4",
                   "--out", str(inst)).returncode == 0
    rep = tmp_path / "rep.json"
    r = run_cli("factorize", "--method", "dual", "--instance", str(inst),
                "--report", str(rep), "--emit-unitaries")
    assert r.returncode == 0
    body = json.loads(rep.read_text())
    assert "unitary" in body
    assert isinstance(body["unitary"][0][0], list)


def test_random_determinism(spec_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("random", "--spec", str(spec_path), "--seed", "9",
                   "--out", str(a)).returncode == 0
    assert run_cli("random", "--spec", str(spec_path), "--seed", "9",
                   "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_product_system(golden_path, tmp_path):
    rep = tmp_path / "ps.json"
    r = run_cli("product-system", "--instance", str(golden_path),
                "--steps", "3", "--report", str(rep))
    assert r.returncode == 0, r.stderr
    body = json.loads(rep.read_text())
    assert body["member_dims"] == [5, 5, 5]
    assert body["max_residual"] <= 1e-8


def test_random_requires_spec_or_golden():
    r = run_cli("random")
    assert r.returncode == 2


def test_cert_tol_only_where_residuals_are_certified():
    p = build_parser()
    for argv in (["validate", "x.json"], ["random", "--golden"]):
        with pytest.raises(SystemExit):
            p.parse_args(argv + ["--cert-tol", "1e-6"])
    for argv in (["verify", "--instance", "x.json"], ["product-system", "--instance", "x.json"],
                 ["factorize", "--method", "dual", "--instance", "x.json"]):
        assert p.parse_args(argv + ["--cert-tol", "1e-6"]).cert_tol == 1e-6


def test_tolerance_defaults_are_the_library_defaults():
    p = build_parser()
    assert p.parse_args(["validate", "x.json"]).tol == DEFAULT_TOL
    args = p.parse_args(["verify", "--instance", "x.json"])
    assert (args.tol, args.cert_tol) == (DEFAULT_TOL, VerifyConfig().cert_tol)


def test_failed_stages_print_their_errors(golden_path):
    # at tol 1e-30 every method and the unit identities fail, so the text
    # report has no residual to format for them
    r = run_cli("verify", "--instance", str(golden_path), "--tol", "1e-30")
    assert r.returncode == 1, r.stderr
    assert "verification: FAIL" in r.stdout
    assert "unit identities error: ValidationError" in r.stdout
    assert "Traceback" not in r.stderr


def test_tolerances_must_be_finite_and_positive():
    for flag in ("--tol", "--cert-tol"):
        for value in ("nan", "0", "-1e-9", "inf", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--instance", "x.json", flag, value])
            assert exc.value.code == 2, (flag, value)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "x.json", "--tol", "nan"])
    assert exc.value.code == 2
    r = run_cli("verify", "--instance", "x.json", "--tol", "nan")
    assert r.returncode == 2 and "--tol must be finite and > 0" in r.stderr


def test_hostile_input_is_one_line_parse_error(golden_path, spec_path, tmp_path):
    inst = json.loads(golden_path.read_text())
    inst["theta"]["images"][0][0][0] = [float("nan"), 0.0]
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(inst))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"blocks_B": [[1, "a"]], "blocks_C": [[1, 1]]}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"blocks_B": [[200, 1]], "blocks_C": [[1, 1]]}))
    # a base algebra of another dimension than the module's: diagonal on
    # C^3 for B, on C^2 for C
    for side, blocks in (("B", [(1, 1)] * 3), ("C", [(1, 1)] * 2)):
        inst = json.loads(golden_path.read_text())
        inst[side] = harness._encode_algebra(build_algebra(blocks))
        (tmp_path / f"base_{side}.json").write_text(json.dumps(inst))
    for args, error in ((("validate", str(bad)), "ParseError"),
                        (("random", "--spec", str(spec)), "ParseError"),
                        (("random", "--spec", str(spec_path), "--seed", "-1"),
                         "InfeasibleSpec"),
                        (("random", "--spec", str(huge)), "InfeasibleSpec"),
                        (("validate", str(tmp_path / "base_B.json")), "ValidationError"),
                        (("validate", str(tmp_path / "base_C.json")), "DimensionMismatch")):
        r = run_cli(*args)
        assert r.returncode == 1, (args, r.stderr)
        assert error in r.stderr and "Traceback" not in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1


def test_canonical_outputs_compare(tmp_path):
    """scripts/canonical_outputs.py --compare tolerates float changes and
    fails on a changed flag, string, dimension, length or failed report."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "canonical_outputs.py"
    base = {"passed": True, "dims": {"F_total": 3}, "summands": [1, 2],
            "dual": {"status": "ok", "residual_unitary": 1e-16, "gram_gap": 1e15}}
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "x.report.json").write_text(json.dumps(base))

    def compare(**changes):
        body = json.loads(json.dumps(base))
        for path, value in changes.items():
            *keys, last = path.split("__")
            target = body
            for key in keys:
                target = target[key]
            target[last] = value
        (new / "x.report.json").write_text(json.dumps(body))
        return subprocess.run([sys.executable, str(script), "--compare", str(old), str(new)],
                              capture_output=True, text=True, env=ENV)

    assert compare().returncode == 0
    r = compare(dual__residual_unitary=3e-16, dual__gram_gap=1e16)
    assert r.returncode == 0, r.stdout
    assert "1 with changed floats" in r.stdout
    assert "largest change 2.000e-16" in r.stdout
    assert "largest change 1.00 decades" in r.stdout
    for bad in ({"passed": False}, {"dual__status": "failed"}, {"dims__F_total": 4},
                {"summands": [1, 2, 3]}):
        assert compare(**bad).returncode == 1, bad
    (new / "x.report.json").unlink()
    assert compare().returncode == 0
    (new / "y.report.json").write_text(json.dumps(base))
    assert compare().returncode == 1


def test_canonical_outputs_compare_lists_changed_paths(tmp_path):
    """--compare folds batch numbers and list indices of changed floats and
    counts the files per folded key path."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "canonical_outputs.py"
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
    for seed, moved in ((1001, [0, 1]), (1002, [1]), (1003, [])):
        body = {"passed": True, "r": [1e-16, 2e-16], "s": 1e-16}
        (old / f"batch_{seed}.report.json").write_text(json.dumps(body))
        body["r"] = [v * (3 if i in moved else 1) for i, v in enumerate(body["r"])]
        (new / f"batch_{seed}.report.json").write_text(json.dumps(body))
    r = subprocess.run([sys.executable, str(script), "--compare", str(old), str(new)],
                       capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stdout
    assert "batch_*.report.json/r/*: 2 files" in r.stdout
    assert "/s:" not in r.stdout
