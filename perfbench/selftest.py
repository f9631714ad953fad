#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout (about 3 minutes):

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, passes the gate and
   emits exactly the metrics BENCHMARK.json names.
2. Two traced runs at one seed give identical counts (cheap workloads).
3. The gate trips on a forced failure: with L-projemb's tolerance set to
   1e-16 every replay of it fails, and with P-unitcut-rk4's set to 1e-16 the
   integrator suite fails; the failure ratio is above 0 and the exit is 1.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits 2 without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        status = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    return status, json.loads(stdout.getvalue().strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def metrics_named() -> None:
    names = {0: [m["name"] for m in BENCH["end_to_end"]], 1: [m["name"] for m in BENCH["per_layer"]]}
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            status, result = invoke(workload, trace)
            expect(status == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace} passes the gate ({result['attempted']} calls)")
            expect(list(result["metrics"]) == names[trace], f"{workload} trace {trace} emits every metric by name")


def counts_repeat() -> None:
    for workload in ("replay", "integrator"):
        _, first = invoke(workload, 1)
        _, second = invoke(workload, 1)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")}
        again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in ("count", "bytes")}
        expect(counts == again, f"{workload} traced counts repeat exactly at one seed")


def forced_failure() -> None:
    quadcover = run._import_quadcover()
    checks = quadcover.checks
    original = checks.build_registry

    def forced(*args, **kwargs):
        registry = original(*args, **kwargs)
        for cid in ("L-projemb", "P-unitcut-rk4"):
            registry[cid] = dataclasses.replace(registry[cid], tolerance=1e-16)
        return registry

    checks.build_registry = forced
    try:
        for workload in ("replay", "integrator"):
            status, result = invoke(workload, 0)
            ratio = result["failed"] / result["attempted"]
            expect(status == 1 and not result["correct"] and ratio > 0,
                   f"{workload} gate trips on a forced failure (checks_failed_ratio {ratio:.3g})")
    finally:
        checks.build_registry = original


def bare_checkout() -> None:
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCH["command"], "--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(done.returncode not in (0, None) and not done.stdout.strip(),
           f"bare checkout exits {done.returncode} without a result")


if __name__ == "__main__":
    metrics_named()
    counts_repeat()
    forced_failure()
    bare_checkout()
    print("selftest passed")
