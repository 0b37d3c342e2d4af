"""Runner of the modfactor benchmark: timed loops, metrics, environment
record and the smoke check.  Entered through ``run.py``, which pins BLAS to
one thread and puts ``src/`` on the path before this module is imported."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.special

from modfactor.errors import ModfactorError

from hostclock import HostClock
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, at most SETUP_MAX_REPEATS times; setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
SETUP_MAX_REPEATS = 15
STAGES = ("setup", "dual", "unit_vector", "qons", "commutant", "comparisons",
          "unit_identities", "oracle")
# The workloads the benchmark definition lists; product-system is run by
# name or by the smoke check only, because most of its ops fail today.
DRIVER_WORKLOADS = ("seeded-batch", "verify-large", "algebra-structure")


@dataclass
class Loop:
    """What one closed loop of ops measured."""

    latencies: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # None where the op passed
    stages: dict = field(default_factory=dict)  # stage -> summed seconds

    @property
    def ops(self) -> int:
        return len(self.latencies)


def _run_op(workload, x, loop: Loop, clock: HostClock | None = None) -> None:
    out = None
    start = time.perf_counter()
    try:
        with clock.timed() if clock is not None else contextlib.nullcontext():
            out = workload.op(x)
    except ModfactorError as e:
        reason = f"{type(e).__name__}: {e}"
    loop.latencies.append(time.perf_counter() - start if clock is None else clock.raw[-1])
    if out is None:
        loop.fingerprints.append(None)
    else:
        reason = workload.check(x, out)
        loop.fingerprints.append(workload.fingerprint(out))
        for stage, s in workload.timings(out).items():
            loop.stages[stage] = loop.stages.get(stage, 0.0) + s
    loop.failures.append(reason)


def _run_traced(workload, x, loop: Loop, tracer: Tracer, i: int) -> None:
    tracer.op = i
    with tracer:
        _run_op(workload, x, loop)


def run_loop(workload, seed: int, seconds: float, tracer: Tracer | None = None,
             clock: HostClock | None = None) -> tuple[Loop, Loop]:
    """Run ops 0, 1, ... of ``workload`` for ``seconds``: (untraced, traced).

    With a tracer, each op runs untraced and traced back to back on the same
    inputs, so both see the same machine conditions; which goes first
    alternates, so the order does not bias the overhead.  The loop
    runs whole rounds of ``workload.ops_per_round`` ops.  It starts another
    round only while half a round, at the wall time per op so far, still
    fits before the deadline, and always runs at least one round.  With a
    clock, the untraced ops are timed by it.
    """
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        if i and i % workload.ops_per_round == 0:
            now = time.perf_counter()
            if now + (now - start) / i * workload.ops_per_round / 2 >= deadline:
                break
        x = workload.inputs(seed, i)
        if tracer is not None and i % 2:
            _run_traced(workload, x, traced, tracer, i)
        _run_op(workload, x, plain, clock)
        if tracer is not None and not i % 2:
            _run_traced(workload, x, traced, tracer, i)
        i += 1
    return plain, traced


def percentile(latencies: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, which moves less from run to run than any single one."""
    xs = np.sort(latencies)
    n = len(xs)
    # beta distribution function, as the regularized incomplete beta function
    cdf = scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    weights = np.diff(cdf)
    return float(weights @ xs)


def tail_latency(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; never below the median, so fewer than 20
    samples give their median."""
    n = len(latencies)
    p = max(1.0 - 10.0 / n, 0.5)
    return percentile(latencies, p), 100.0 * p, round(n * (1.0 - p))


def per_input(workload, seed: int, latencies: list) -> list:
    """Mean latency of each distinct op input of the run.  Percentiles are
    taken over these, so they do not depend on how many passes over the same
    inputs a run makes."""
    groups = {}
    for i, t in enumerate(latencies):
        groups.setdefault(workload.input_key(seed, i), []).append(t)
    return [statistics.fmean(g) for g in groups.values()]


def timed_setups(workload) -> tuple[list, list]:
    """Set-up times: (raw, at the reference speed)."""
    clock = HostClock()
    while len(clock.raw) < SETUP_REPEATS or \
            (sum(clock.raw) < SETUP_SECONDS and len(clock.raw) < SETUP_MAX_REPEATS):
        with clock.timed():
            workload.setup()
    return clock.raw, clock.seconds()


def determinism_problems(workload, seed: int, loop: Loop) -> list:
    """Ops on the same input must give the same canonical outputs."""
    seen = {}
    for i, fp in enumerate(loop.fingerprints):
        key = workload.input_key(seed, i)
        if fp is not None and seen.setdefault(key, fp) != fp:
            return [f"op {i} repeats the input of an earlier op with different outputs"]
    return []


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _result(loops: list, problems: list, metrics: dict, details: dict) -> dict:
    failures = [f for loop in loops for f in loop.failures]
    failed = sum(f is not None for f in failures)
    details.update(ops_failed_frac=failed / len(failures),
                   failures=sorted({f for f in failures if f is not None})[:5],
                   determinism_problems=problems)
    return {"correct": failed == 0 and not problems, "attempted": len(failures),
            "failed": failed, "metrics": metrics, "details": details}


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run, with the end-to-end metrics."""
    raw_setups, setups = timed_setups(workload)
    clock = HostClock()
    loop, _ = run_loop(workload, seed, seconds, clock=clock)
    latencies = clock.seconds()
    inputs = per_input(workload, seed, latencies)
    raw_inputs = per_input(workload, seed, loop.latencies)
    tail, pct, beyond = tail_latency(inputs)
    metrics = {
        "ops_per_s": _metric(loop.ops / sum(latencies), "1/s"),
        "latency_p50_s": _metric(percentile(inputs, 0.5), "s"),
        "latency_tail_s": _metric(tail, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "ops": loop.ops,
        "distinct_inputs": len(inputs),
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latencies_s": latencies,
        "setup_runs_s": setups,
        "raw": {
            "ops_per_s": loop.ops / sum(loop.latencies),
            "latency_p50_s": percentile(raw_inputs, 0.5),
            "latency_tail_s": tail_latency(raw_inputs)[0],
            "setup_s": statistics.median(raw_setups),
            "latencies_s": loop.latencies,
            "setup_runs_s": raw_setups,
        },
        "host_speed": clock.speeds(),
        "stage_s_per_op": {k: v / loop.ops for k, v in sorted(loop.stages.items())},
    }
    return _result([loop], determinism_problems(workload, seed, loop), metrics, details)


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """The traced run, with the per-layer metrics: every op runs untraced
    and traced."""
    workload.setup()
    tracer = Tracer()
    plain, traced = run_loop(workload, seed, seconds, tracer)
    problems = determinism_problems(workload, seed, plain)
    if traced.fingerprints != plain.fingerprints:
        problems.append("canonical outputs differ with tracing on and off")
    ops = plain.ops
    metrics = {name: _metric(v, unit)
               for name, (v, unit) in layer_metrics(tracer.spans, ops).items()}
    for stage in STAGES:
        metrics[f"harness.stage.{stage}_s"] = _metric(
            plain.stages.get(stage, 0.0) / ops, "s/op")
    metrics["trace_overhead_s"] = _metric(
        (sum(traced.latencies) - sum(plain.latencies)) / ops, "s/op")
    details = {"ops": ops, "spans": len(tracer.spans)}
    return _result([plain, traced], problems, metrics, details)


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower():
                libs.add(parts[5])
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is itself a git work tree, else None."""
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "modfactor").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_thread_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }


# ---------------------------------------------------------------------------
# one run, as the benchmark definition invokes it


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass  # another run still uses it


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload and return the result object (the last output line)
    with its details under ``"details"``."""
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](str(workdir))
        result = (measure_traced if trace else measure)(workload, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(workdir.parent)
    result["details"].update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                             env=environment(root))
    return result


def print_result(result: dict) -> None:
    details = result.pop("details")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


# ---------------------------------------------------------------------------
# smoke check


def _run_cli(root: Path, name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The shortest run (one round of ops) of the command, in its own
    process as the benchmark definition runs it: (result, details)."""
    res = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=root)
    if res.returncode != 0:
        raise AssertionError(f"{name} trace={trace}: exit {res.returncode}\n{res.stderr}")
    lines = res.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def smoke(root: Path, seed: int) -> int:
    """Every listed metric is emitted with its unit on every workload, and a
    fixed seed gives identical op inputs.  Prints the end-to-end figures of
    one short run per workload."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    listed = [w["name"] for w in spec["workloads"]]
    if sorted(listed) != sorted(DRIVER_WORKLOADS):
        raise AssertionError(f"BENCHMARK.json lists {listed}, expected {DRIVER_WORKLOADS}")
    for name, cls in WORKLOADS.items():
        workdir = root / ".bench_work" / f"smoke-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            w = cls(str(workdir))
            w.setup()
            first = [w.input_digest(seed, i) for i in range(3)]
            second = [w.input_digest(seed, i) for i in range(3)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            _remove_if_empty(workdir.parent)
        if first != second:
            raise AssertionError(f"{name}: seed {seed} gave different op inputs")
        for trace in (0, 1):
            result, details = _run_cli(root, name, seed, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                raise AssertionError(f"{name}: result keys {sorted(result)}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(want[trace]) & set(got)
                               if want[trace][k] != got[k])
                raise AssertionError(f"{name} trace={trace}: missing {missing}, "
                                     f"unlisted {extra}, wrong units {wrong}")
            # end-to-end metrics are never 0; per-layer ones are 0 where a
            # workload does not reach the function
            bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])
                   or (trace == 0 and m["value"] <= 0)]
            if bad:
                raise AssertionError(f"{name} trace={trace}: bad metric values {bad}")
            if name in DRIVER_WORKLOADS and not result["correct"]:
                raise AssertionError(f"{name} trace={trace}: incorrect output {details}")
            if trace:
                continue
            print(f"{name}: {details['ops']} op(s), ops_failed_frac "
                  f"{details['ops_failed_frac']:.3f}"
                  + (f"  failures {details['failures']}" if details["failures"] else ""))
            for k, m in result["metrics"].items():
                print(f"  {k:<16} {m['value']:.6g} {m['unit']}")
    print("smoke: ok")
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwind, so the work directory is removed


def cli(argv: list, root: Path) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check metric names, units and input determinism on every workload")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.smoke:
        return smoke(root, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root))
    return 0
