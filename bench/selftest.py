"""Self-test of the benchmark.

    python3 bench/selftest.py

1. At a tiny length and the default seed, every workload prints every metric
   BENCHMARK.json names, with its unit, traced and untraced, and no op fails
   (so every CLI output also matches its recorded digest).
2. The checker counts a corrupted output, a wrong exit code, stdout written on
   an error path, a digest mismatch and a wrong library result as failed.
3. Without the program's sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import loop
import run
import workloads
from verify import CheckFailed

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((loop.ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(condition, what: str) -> None:
    print(("PASS  " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def run_benchmark(workload: str, trace: int, cwd=loop.ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def metrics_complete() -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            if proc.returncode != 0:
                expect(False, f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: every {key} metric with its unit")
            expect(result["failed"] == 0 and result["correct"], f"{workload} trace {trace}: no failed op")


def checker_counts_failures() -> None:
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = run.build_cli("cli-small", 3, workdir)
        env = loop.child_env()
        ops = {op.name: (i, op) for i, op in enumerate(workload.ops)}

        def tally_of(name, mutate, golden=None):
            index, op = ops[name]
            _, result = loop.cli_subprocess(workload, op, env)
            mutate(result)
            tally = loop.Tally({op.name: golden} if golden else None)
            tally.cli_result(index, op, result)
            return tally.failed

        expect(tally_of("fit-v4-SK", lambda r: None) == 0, "an unchanged output passes")
        def nudge_distance(result):
            data = json.loads(result.stdout)
            data["per_point"][0]["distance"] += 1e-3
            result.stdout = json.dumps(data, indent=2).encode()

        expect(tally_of("fit-v4-SK", nudge_distance) == 1, "a corrupted distance is counted as failed")
        expect(tally_of("economy-csv", lambda r: setattr(r, "stdout", r.stdout.replace(b"SK", b"PL", 1))) == 1,
               "a wrong country row is counted as failed")
        expect(tally_of("fit-v4-SK", lambda r: setattr(r, "exit_code", 1)) == 1,
               "a wrong exit code is counted as failed")
        expect(tally_of("error-identical", lambda r: setattr(r, "exit_code", 0)) == 1,
               "an error op that succeeds is counted as failed")
        expect(tally_of("error-non-numeric", lambda r: setattr(r, "stdout", b"{\n")) == 1,
               "partial stdout on an error path is counted as failed")
        expect(tally_of("economy-json", lambda r: None, golden="0" * 64) == 1,
               "a digest mismatch at the default seed is counted as failed")
        expect(tally_of("economy-plot", lambda r: r.artifacts.pop("plots/scene_SK.json")) == 1,
               "a missing plot file is counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    modules = loop.import_program()
    lib = workloads.build_lib_small(3)
    plane = next(op for op in lib.ops if op.name.startswith("plane-regular"))
    model = plane.call(modules)
    tilted = model.normal + 1e-6 * np.roll(model.normal, 1)
    tilted /= np.linalg.norm(tilted)
    wrong = type(model)(tilted, model.centroid, -float(tilted @ model.centroid), model.error)
    try:
        plane.check(wrong)
        caught = False
    except CheckFailed:
        caught = True
    expect(caught, "a library normal tilted by 1e-6 rad is counted as failed")
    tally = loop.Tally()
    tally.seen = {lib.ops.index(plane): Counter({"not-a-fingerprint": 2})}
    tally.lib_verify(lib.ops, modules)
    expect(tally.failed == 2, "library results that differ from the checked run are counted as failed")


def refuses_without_program() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(loop.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("cli-small", 0, cwd=bare, script=bare / BENCH.name / "run.py")
        expect(proc.returncode != 0 and proc.stdout.strip() == "",
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    checker_counts_failures()
    refuses_without_program()
    metrics_complete()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
