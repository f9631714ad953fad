#!/usr/bin/env python3
"""Benchmark of the quadcover verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pointwise --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

Workloads (perfbench/README.md gives the reasons):

* ``pointwise``, ``quadrature``, ``integrator`` split the check registry by
  the layer that does the work. One call is one ``verify run --suite <id>
  --format json`` through ``quadcover.cli.main``, at registry defaults.
* ``replay`` calls ``quadcover.run_check(id, {"witness": input})`` on
  single inputs of every residual-kind check of ``pointwise``; the inputs
  are generated before the timed region.

A run repeats passes over the workload's calls for ``--seconds`` (always at
least one full pass; after it a call is skipped once it would end past the
budget). A fixed reference kernel samples the machine's pace all along
(``pace.py``), and each latency is scaled to the calm pace; a call's latency
is the median of its scaled repeats.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes each call
once untraced and once traced, whatever ``--seconds`` says, and reports the
per-layer metrics.

Every call is gated: each verdict must pass, each ``samples`` must equal the
registry generator's count, and each output must equal the first one of the
run (JSON bytes, or the replayed residual). The last line of stdout is the
JSON result; the exit code is 1 if any call failed the gate and 2 on a usage
error or a checkout without ``src/quadcover``.
"""

from __future__ import annotations

import os

# every matrix is at most 8 x 8: BLAS threads only add contention
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

from pace import Pace, burst_scale
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# the three suites partition the registry; an id in none or two is an error
SUITES = {
    "pointwise": (
        "L-projemb",
        "L-sphereembedding",
        "L-sphereembedding-lift",
        "P-unitcut-boundary",
        "P-unitcut-flow",
        "C-branchedcover-deck",
        "C-branchedcover-fibers",
        "R-pi-not-symplectic",
        "P-segre-pullback",
        "P-segre-equivariance",
        "R-diag-antidiag",
        "P-evenedrescale",
        "P-omega-r-descent",
        "R-omega-r-not-FS",
        "T-zerosection",
    ),
    "quadrature": ("I-period-CP1", "I-period-Q1", "I-period-match"),
    "integrator": ("P-unitcut-rk4", "P-unitcut-rk4-order", "P-evenedflow-restored", "R-uneven-flow"),
}
WORKLOADS = (*SUITES, "replay")
REPLAY_PER_CHECK = 100
SETUP_REPEATS = 5
SETUP_CODE = "import quadcover; quadcover.build_registry()"

END_TO_END = [
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class UsageFailure(Exception):
    """The checkout or the registry does not fit the benchmark (exit 2)."""


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_quadcover():
    if not (SRC / "quadcover" / "__init__.py").is_file():
        raise UsageFailure(f"no quadcover sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import quadcover
    import quadcover.cli

    if Path(quadcover.__file__).resolve().parent != SRC / "quadcover":
        raise UsageFailure(f"imported quadcover from {quadcover.__file__}, not from {SRC}")
    return quadcover


def _check_partition(registry) -> None:
    listed = [cid for ids in SUITES.values() for cid in ids]
    twice = sorted({cid for cid in listed if listed.count(cid) > 1})
    unknown = sorted(set(listed) - set(registry))
    unassigned = [cid for cid in registry if cid not in listed]
    if twice or unknown or unassigned:
        raise UsageFailure(
            f"suites must partition the registry: in two suites {twice}, "
            f"not in the registry {unknown}, in no suite {unassigned}"
        )


# ---------------------------------------------------------------------------
# Calls and the correctness gate.
# ---------------------------------------------------------------------------


class SuiteCall:
    """One ``verify run --suite <id> --format json`` through ``cli.main``."""

    def __init__(self, quadcover, check_id: str, seed: int, expected_samples: int, out: Path):
        self.qc = quadcover
        self.key = check_id
        self.argv = ["run", "--suite", check_id, "--seed", str(seed), "--format", "json", "--out", str(out)]
        self.expected_samples = expected_samples
        self.out = out
        self.first: bytes | None = None

    def __call__(self):
        # looked up per call so the traced run sees the wrapped entry point
        return self.qc.cli.main(self.argv)

    def verdict(self, status) -> str | None:
        payload = self.out.read_bytes()
        self.out.unlink()
        if self.first is None:
            self.first = payload
        if status != 0:
            return f"exit status {status}"
        reports = json.loads(payload)
        if [r["id"] for r in reports] != [self.key]:
            return f"report ids {[r['id'] for r in reports]}"
        if not reports[0]["passed"]:
            return f"failed: max_residual {reports[0]['max_residual']} tolerance {reports[0]['tolerance']}"
        if reports[0]["samples"] != self.expected_samples:
            return f"samples {reports[0]['samples']} != declared {self.expected_samples}"
        if payload != self.first:
            return "JSON bytes differ from the first pass at this seed"
        return None


class ReplayCall:
    """``run_check(id, {"witness": input})`` on one serialized input."""

    def __init__(self, quadcover, check_id: str, index: int, witness: dict, seed: int):
        self.qc = quadcover
        self.key = f"{check_id}#{index}"
        self.check_id = check_id
        self.params = {"witness": witness}
        self.seed = seed
        self.first: float | None = None

    def __call__(self):
        return self.qc.checks.run_check(self.check_id, self.params, seed=self.seed)

    def verdict(self, report) -> str | None:
        if self.first is None:
            self.first = report.max_residual
        if not report.passed:
            return f"failed: max_residual {report.max_residual} tolerance {report.tolerance}"
        if report.samples != 1:
            return f"samples {report.samples} != 1"
        if report.max_residual != self.first:
            return f"residual {report.max_residual!r} differs from the first pass {self.first!r}"
        return None


def build_calls(quadcover, workload: str, seed: int) -> list:
    """The workload's calls; all generation happens here, outside any timed region."""
    checks = quadcover.checks
    registry = checks.build_registry()
    if workload in SUITES:
        out = OUT / f"report-{os.getpid()}.json"
        calls = []
        for cid in SUITES[workload]:
            check = registry[cid]
            declared = len(check.gen(dict(check.params), quadcover.derive_stream(seed, cid)))
            calls.append(SuiteCall(quadcover, cid, seed, declared, out))
        return calls
    # witness-kind checks need their full sample set to find a witness, so a
    # single-input replay of one is expected to fall below its threshold
    calls = []
    for cid in SUITES["pointwise"]:
        check = registry[cid]
        if check.kind != "residual":
            continue
        # the fewest samples that still give REPLAY_PER_CHECK inputs, so the
        # generated lists do not set the workload's peak RSS
        size = 34
        while True:
            params = dict(check.params)
            if "samples" in params:
                params["samples"] = min(size, params["samples"])
            inputs = check.gen(params, quadcover.derive_stream(seed, f"perfbench-replay:{cid}"))
            if len(inputs) >= REPLAY_PER_CHECK or params == check.params:
                break
            size *= 2
        picks = np.linspace(0, len(inputs) - 1, min(REPLAY_PER_CHECK, len(inputs))).round().astype(int)
        calls.extend(ReplayCall(quadcover, cid, int(i), inputs[i], seed) for i in picks)
    return calls


class Gate:
    """Counts attempted and failed calls; a failure is a verdict or an exception."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        # set while a Pace samples, so its kernel time comes out of latencies
        self.pace: Pace | None = None
        self.last_span = (0.0, 0.0)

    def run(self, call) -> float:
        """Time one call; judge its output after the clock stops.

        Returns the latency without the time pace samples took inside it;
        ``last_span`` holds the call's (start, end) on the perf_counter clock.
        """
        self.attempted += 1
        spent = self.pace.spent if self.pace else 0.0
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            elapsed = self._stop(start, spent)
            self.failed += 1
            print(f"FAIL {call.key}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed
        elapsed = self._stop(start, spent)
        try:
            reason = call.verdict(result)
        except Exception as exc:
            reason = f"output unreadable: {exc!r}"
        if reason is not None:
            self.failed += 1
            print(f"FAIL {call.key}: {reason}", file=sys.stderr)
        return elapsed

    def _stop(self, start: float, spent: float) -> float:
        end = time.perf_counter()
        self.last_span = (start, end)
        return end - start - ((self.pace.spent - spent) if self.pace else 0.0)


def measure(calls: list, seconds: float, gate: Gate) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Round-robin passes over ``calls`` for ``seconds``, pace sampled throughout.

    The first pass always completes. After it, a call is skipped when its last
    latency says it would end past the budget; the run ends when all are.
    Returns each call's latencies as measured and as scaled to the calm pace,
    and the median kernel time of the run.
    """
    # one flat record (call index, start, end, latency) per call made, so the
    # bookkeeping adds little to the peak RSS however many calls a run makes
    records = array("d")
    last = [0.0] * len(calls)
    with Pace() as pace:
        gate.pace = pace
        begin = time.perf_counter()
        passes = 0
        while True:
            ran = False
            for i, call in enumerate(calls):
                if passes and time.perf_counter() - begin + last[i] > seconds:
                    continue
                last[i] = gate.run(call)
                records.extend((i, *gate.last_span, last[i]))
                ran = True
            if not ran:
                break
            passes += 1
        gate.pace = None
    table = np.frombuffer(records).reshape(-1, 4)
    scale = np.array([pace.scale(start, end) for start, end in table[:, 1:3]])
    order = np.argsort(table[:, 0], kind="stable")
    cuts = np.cumsum(np.bincount(table[:, 0].astype(int), minlength=len(calls)))[:-1]
    raw = np.split(table[order, 3], cuts)
    scaled = np.split((table[:, 3] * scale)[order], cuts)
    return raw, scaled, statistics.median(pace.kernel_s)


# ---------------------------------------------------------------------------
# Metrics and environment.
# ---------------------------------------------------------------------------


def setup_seconds(repeats: int) -> list[float]:
    """Wall time of fresh interpreters running ``import quadcover; build_registry()``,
    each scaled to the calm pace by kernel samples taken just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        before = burst_scale()
        start = time.perf_counter()
        # a blocking wait: with a timeout, Popen polls in steps of up to 50 ms
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT)
        status = child.wait()
        elapsed = time.perf_counter() - start
        if status != 0:
            raise subprocess.CalledProcessError(status, SETUP_CODE)
        samples.append(elapsed * (before + burst_scale()) / 2)
    return samples


def end_to_end(times: list[np.ndarray], setup: list[float]) -> dict[str, float]:
    """Each distinct call's latency is the median of its scaled repeats."""
    latencies = np.array([np.median(t) for t in times])
    return {
        "wall_s": float(latencies.sum()),
        "call_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "call_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def run_workload(args) -> tuple[dict, dict]:
    """One workload run: (result object, human-readable extras)."""
    quadcover = _import_quadcover()
    _check_partition(quadcover.checks.build_registry())
    OUT.mkdir(exist_ok=True)
    calls = build_calls(quadcover, args.workload, args.seed)
    gate = Gate()
    extras = {"distinct_calls": len(calls)}
    try:
        if args.trace:
            # each call untraced and then traced, back to back, so the
            # overhead compares neighbours rather than passes minutes apart
            tracer = Tracer()
            untraced = traced = 0.0
            for call in calls:
                untraced += gate.run(call)
                tracer.install()
                try:
                    traced += gate.run(call)
                finally:
                    tracer.restore()
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans)
            values = tracer.layer_metrics(traced, untraced)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
            extras["spans"] = f"{len(tracer.start)} spans in {spans.relative_to(ROOT)}"
        else:
            raw, scaled, kernel_s = measure(calls, args.seconds, gate)
            values = end_to_end(scaled, setup_seconds(SETUP_REPEATS))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            extras["calls_made"] = sum(len(t) for t in raw)
            extras["wall_s as measured (unscaled)"] = float(sum(np.median(t) for t in raw))
            extras["pace (kernel ms, median of run)"] = kernel_s * 1e3
            extras["setup_samples"] = SETUP_REPEATS
    finally:
        for leftover in OUT.glob(f"report-{os.getpid()}.json"):
            leftover.unlink()
    extras["checks_failed_ratio"] = gate.failed / gate.attempted
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    return result, extras


def _print_table(workload: str, result: dict, extras: dict) -> None:
    moves = {name: move for name, _, _, move in LAYER_METRICS}
    print(f"[{workload}] attempted {result['attempted']}, failed {result['failed']}, "
          f"checks_failed_ratio {extras['checks_failed_ratio']:.4g} (ratio)")
    for name, metric in result["metrics"].items():
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<6}{note}")
    for key, value in extras.items():
        if key != "checks_failed_ratio":
            print(f"  {key}: {value}")


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            return 2
        results[workload] = json.loads(lines[-1])
        status = max(status, done.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        result, extras = run_workload(args)
    except UsageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, **result}, indent=1) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(env)}")
    _print_table(args.workload, result, extras)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
