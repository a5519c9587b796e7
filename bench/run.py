"""orthoreg benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload cli-bulk --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory and nothing is installed. Workloads (see ``workloads.py``):

  cli-bulk   orthoreg subprocesses on 1e5-row CSVs: gen-bumblebee, fit line
             json, fit plane csv, fit line text, compare. Parse and render
             dominate; the fit is about 1%.
  cli-small  orthoreg subprocesses on tiny inputs: economy in three formats
             and with --plot, builtin V4 plane fits, a 5-point compare,
             economy --data, and two expected errors (exit 3, exit 4).
             Interpreter start and import dominate.
  lib-small  in-process fit_line / fit_hyperplane / compare_ols_tls /
             economy_indicators on 3..50-point clouds in 2..5 dimensions,
             with thin, 1e8-offset, nearly tied, duplicated and n = dim
             clouds. The eigensolver and per-call overhead dominate.
  lib-large  in-process fit_line / fit_hyperplane / total_orthogonal_error
             on 1e6 x 3 and 2e5 x 5 clouds. Array passes in fitting dominate.

Every workload is a closed loop with one client: the next op starts when
the previous one ends, so at most two processes are busy. With ``--trace 0``
the last line of stdout is a JSON object whose metrics are the end-to-end
metrics. Times are scaled to an uncontended core by ``loop.Speed`` (a fixed
kernel timed next to each op), because neighbours on a shared host slow the
same code by up to 70% for seconds to minutes at a time.

  setup_s          median of 5 set-ups: workload start to the first timed op
                   (input generation and one ``import orthoreg.cli`` for the
                   CLI workloads; interpreter, import, input generation and
                   one warm-up pass of a fresh worker, until it is ready, for
                   the library ones, whose measuring worker is a sixth)
  points_per_s     median over ops of the op's input points over its time
  op_ms_p50        median op time
  peak_rss_mb      peak RSS of the process doing the work (the CLI children,
                   via RUSAGE_CHILDREN, or the library worker, read before
                   its outputs are checked)
  axis_digits_min  minimum over checked fits of -log10(angle in radians to
                   the np.linalg.svd axis), capped at 16; deterministic per
                   seed

Lines before it record the inputs, the environment, the failed fraction and,
on runs of at least 100 ops, the p90 op time with its sample count. Every op
fails if it raises, exits with the wrong code, writes stdout on an error
path, or disagrees with the reference (``verify.py``); failures count in
``failed``, and at the default seed every CLI output must also match its
recorded SHA-256 (``golden_sha256.json``).

With ``--trace 1`` the ops run in this process (the CLI through
``orthoreg.cli.main(argv)``), each once untraced and once with the program's
public functions wrapped (``spans.py``), for a fixed number of passes. The
metrics are per-layer self times (ms, unscaled) and counts over the traced
ops, ``import.*`` from ``python -X importtime``, the traced op time and the
sum of self times (``trace.op_ms``, ``trace.self_sum_ms``), and
``trace.overhead_frac``: traced over untraced op time, minus one.
``cli.failed`` counts main() calls with a non-zero exit, the expected errors
included. Traced runs give no end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import loop
import spans
import workloads

ROOT = loop.ROOT
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"
DEFAULT_SEED = 0
SETUPS = 5
IMPORT_RUNS = 3
P90_MIN_OPS = 100

#: Seconds one traced pass (every op once untraced, once traced) takes on the
#: 2-core reference machine. A traced run makes round(seconds / this) passes,
#: so its work, and every per-layer count, is fixed by --seconds alone.
TRACE_PASS_S = {"cli-bulk": 8.5, "cli-small": 0.08, "lib-small": 0.65, "lib-large": 0.85}


def golden_for(workload: str, seed: int):
    """Recorded stdout digests apply at the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())[workload]


def build_cli(name: str, seed: int, workdir: Path):
    build = workloads.build_cli_bulk if name == "cli-bulk" else workloads.build_cli_small
    return build(seed, workdir)


# -- untraced runs -------------------------------------------------------------


def measure_cli(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    env = loop.child_env()
    speed = loop.Speed()
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload = build_cli(name, seed, workdir)
        subprocess.run([sys.executable, "-c", "import orthoreg.cli"], env=env, check=True)
        setups.append((time.perf_counter() - start) * speed.factor())
    tally = loop.Tally(golden_for(name, seed), speed)
    loop.run_cli(workload, seconds, lambda w, op: loop.cli_subprocess(w, op, env), tally)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return summary(tally.times, tally.points_per_s(workload.ops), tally.attempted, tally.failed,
                   tally.digits, tally.messages, setups, peak, workload.sizes)


def measure_lib(name: str, seed: int, seconds: float) -> dict:
    base = [sys.executable, str(Path(loop.__file__)), "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds)]
    speed = loop.Speed()
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.Popen(base + ["--setup-only"], stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.read()
        elapsed = time.perf_counter() - start
        code = proc.wait()
        proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"library worker failed (exit {code})")
        # Time the kernel only once the worker has exited, so it runs alone.
        setups.append(elapsed * speed.factor())
    proc = subprocess.Popen(base, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        proc.stdin.write("go\n")
        proc.stdin.close()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"library worker failed (exit {code})")
    out = json.loads(rest.strip().splitlines()[-1])
    return summary(out["times"], out["points_per_s"], out["attempted"], out["failed"],
                   out["digits"], out["messages"], setups, out["peak_rss_mb"], out["sizes"])


def summary(times, points_per_s, attempted, failed, digits, messages, setups, peak, sizes) -> dict:
    if not times or not digits:
        raise RuntimeError("no op completed and passed its check")
    info = {
        "inputs": sizes,
        "ops": len(times),
        "setup_samples_s": setups,
        "failed_frac": failed / attempted,
        "failures": messages,
    }
    if len(times) >= P90_MIN_OPS:
        info["op_ms_p90"] = {"value": statistics.quantiles(times, n=10)[-1] * 1e3,
                             "unit": "ms", "samples": len(times)}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "points_per_s": (points_per_s, "points/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
        "axis_digits_min": (min(digits), "digits"),
    }
    return {"attempted": attempted, "failed": failed, "info": info, "metrics": metrics}


# -- traced runs ---------------------------------------------------------------


def import_times(env) -> dict:
    """Median over fresh interpreters of ``-X importtime -c 'import orthoreg.cli'``."""
    totals, numpy_ms = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import orthoreg.cli"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=True)
        total, numpy_us = 0, None
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, package = line.split("|")
            if package.startswith(" orthoreg") and not package.startswith("  "):
                total += int(cumulative)
            if package.strip() == "numpy" and numpy_us is None:
                numpy_us = int(cumulative)
        totals.append(total / 1e3)
        numpy_ms.append((numpy_us or 0) / 1e3)
    return {"import.total_ms": statistics.median(totals), "import.numpy_ms": statistics.median(numpy_ms)}


def measure_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    passes = max(1, round(seconds / TRACE_PASS_S[name]))
    modules = loop.import_program()
    tracer = spans.Tracer(vars(modules))
    tally = loop.Tally(golden_for(name, seed) if name.startswith("cli") else None)
    if name.startswith("cli"):
        workload = build_cli(name, seed, workdir)
        run_op = lambda w, op: loop.cli_inprocess(w, op, modules)  # noqa: E731
        for op in workload.ops:
            run_op(workload, op)
        loop.run_traced(workload, passes, modules, tracer, tally, run_op)
    else:
        workload = loop.build_lib(name, seed)
        loop.warm_up(workload, modules)
        loop.run_traced(workload, passes, modules, tracer, tally)
        tally.lib_verify(workload.ops, modules)
    layers = tracer.metrics()
    layers.update(import_times(loop.child_env()))
    traced, untraced = sum(tally.traced_times), sum(tally.times)
    self_sum = sum(v for k, v in layers.items() if k in spans.SELF_METRIC.values())
    layers["trace.op_ms"] = traced * 1e3
    layers["trace.self_sum_ms"] = self_sum
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    units = {k: ("ms" if k.endswith("_ms") else "ratio" if k.endswith("_frac")
                 else "bytes" if "bytes" in k else "count") for k in layers}
    info = {"inputs": workload.sizes, "passes": passes, "traced_ops": len(tally.traced_times),
            "untraced_ops": len(tally.times), "failures": tally.messages}
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    return {"attempted": tally.attempted, "failed": tally.failed, "info": info, "metrics": metrics}


# -- environment and entry point -------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    try:
        out = subprocess.run(["lscpu"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "caches": caches or "unknown",
        "seed": seed,
        "lib_large_array_bytes": {f"{n}x{d}": n * d * 8 for n, d in workloads.LARGE_SHAPES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (loop.SRC / "orthoreg" / "__init__.py").is_file():
        print(f"error: no orthoreg package under {loop.SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, workdir)
        elif args.workload.startswith("cli"):
            result = measure_cli(args.workload, args.seed, args.seconds, workdir)
        else:
            result = measure_lib(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    for key, value in result["info"].items():
        print(f"{key} " + json.dumps(value))
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<24} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
