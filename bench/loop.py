"""Closed-loop measurement: one client, the next op starts when the last ends.

Runs whole passes over a workload's ops until the summed unscaled op time reaches the
requested seconds. Every result is fingerprinted; the first result of each
op with a new fingerprint is checked in full, and later results must repeat
a checked fingerprint. Library results are checked after the timed loop
(and after peak RSS is read), so the reference SVDs never count towards the
program's memory.

Run as a script, this is the library-workload worker: it imports the
program, builds its inputs and warms up, prints ``ready``, and (unless
``--setup-only``) measures and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import workloads
from verify import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_REPORTED_FAILURES = 5


_KERNEL_DATA = np.linspace(0.0, 1.0, 1 << 17)  # 1 MiB, resident in L2


def _kernel_s() -> float:
    """Interpreter loop plus small numpy passes, like the ops it calibrates."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(20):
        _KERNEL_DATA.sum()
        _KERNEL_DATA @ _KERNEL_DATA
    return time.perf_counter() - start


class Speed:
    """Scales wall times to the speed of an uncontended reference core.

    On a shared 2-vCPU host the same code runs up to ~70% slower while a
    neighbour loads the core, in regimes lasting seconds to minutes, which
    moves medians between runs by 20% or more. A fixed kernel (an
    interpreter loop and small numpy passes) tracks that slowdown: op times
    over 10-second windows varied by 5-6% scaled against 16% unscaled.
    ``factor()``, called right after a timed interval, times the kernel
    again if the last timing is older than ``max_age`` and returns
    REFERENCE_S over the mean of the kernel times just before and just after
    the interval. The kernel is benchmark code, so no change to the program
    moves it.
    """

    #: Kernel time on an uncontended core of the 2-vCPU reference machine.
    REFERENCE_S = 0.0038

    def __init__(self, max_age: float = 0.2):
        self.max_age = max_age
        # A process that starts after the host idled can run 40x slow for
        # about its first second; wait (at most 3 s) for normal speed.
        deadline = time.perf_counter() + 3.0
        self.kernel_s = self._time()
        while self.kernel_s > 4 * self.REFERENCE_S and time.perf_counter() < deadline:
            self.kernel_s = self._time()
        self.at = time.perf_counter()
        self.mean_s = self.kernel_s

    def factor(self) -> float:
        if time.perf_counter() - self.at > self.max_age:
            before = self.kernel_s
            self.kernel_s = self._time()
            self.at = time.perf_counter()
            self.mean_s = 0.5 * (before + self.kernel_s)
        return self.REFERENCE_S / self.mean_s

    @staticmethod
    def _time() -> float:
        """Best of three, so one preemption of this process does not count."""
        return min(_kernel_s() for _ in range(3))


class Tally:
    """Op times, points, failures and axis digits of one measured run."""

    def __init__(self, golden=None, speed=None):
        self.traced_times = []
        self.wall = 0.0  # unscaled seconds of untraced ops, for the stopping rule
        # op index -> scaled seconds of its untraced runs; compact arrays keep
        # the worker's own bookkeeping out of the peak RSS it reports
        self.by_op = {}
        self.attempted = 0
        self.failed = 0
        self.digits = []
        self.messages = []
        self.verified = {}  # op index -> checked fingerprint
        self.seen = {}  # op index -> Counter of fingerprints (library ops)
        self.golden = golden  # op name -> expected SHA-256, or None
        self.speed = speed  # scales untraced times; None keeps wall times

    def timed(self, index: int, elapsed: float, traced: bool = False) -> None:
        if traced:
            self.traced_times.append(elapsed)
        else:
            self.wall += elapsed
            if self.speed is not None:
                elapsed *= self.speed.factor()
            self.by_op.setdefault(index, array.array("d")).append(elapsed)

    @property
    def times(self) -> list:
        """Untraced op times, scaled when a Speed was given."""
        return [t for times in self.by_op.values() for t in times]

    def points_per_s(self, ops) -> float:
        """Median over untraced ops of the op's input points over its time."""
        return statistics.median(ops[i].points / t for i, times in self.by_op.items() for t in times)

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(f"{name}: {reason}")

    def cli_result(self, index: int, op, result) -> None:
        """Check one CLI result now: in full, or by its repeated fingerprint."""
        fp = result.fingerprint()
        if self.golden is not None and self.golden.get(op.name) != fp:
            self.fail(op.name, "output differs from the recorded SHA-256 digest")
            return
        if self.verified.get(index) == fp:
            return
        try:
            self.digits += op.check(result)
        except (CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
            self.fail(op.name, f"{type(exc).__name__}: {exc}")
            return
        self.verified[index] = fp

    def lib_verify(self, ops, modules) -> None:
        """Re-run each op once, check it in full, and match every timed result to it."""
        for index, op in enumerate(ops):
            seen = self.seen.get(index, Counter())
            if not seen:
                continue
            try:
                result = op.call(modules)
                self.digits += op.check(result)
                fp = workloads.fingerprint(result)
            except Exception as exc:  # any error from the program or check is a failed op
                for _ in range(sum(seen.values())):
                    self.fail(op.name, f"{type(exc).__name__}: {exc}")
                continue
            for other, count in seen.items():
                if other != fp:
                    for _ in range(count):
                        self.fail(op.name, "result differs from the checked run")


def import_program():
    """The program's modules, imported from the checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orthoreg.cli
    import orthoreg.economy
    import orthoreg.fitting
    import orthoreg.regression
    import orthoreg.report

    return argparse.Namespace(
        cli=orthoreg.cli,
        economy=orthoreg.economy,
        fitting=orthoreg.fitting,
        regression=orthoreg.regression,
        report=orthoreg.report,
    )


# -- ways to run one op ------------------------------------------------------

CLI_ENTRY = "import sys; from orthoreg.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_subprocess(workload, op, env):
    import subprocess

    workload.prepare(op)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *op.argv],
        cwd=workload.workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    elapsed = time.perf_counter() - start
    return elapsed, workload.collect(op, proc.returncode, proc.stdout)


def cli_inprocess(workload, op, modules):
    """``orthoreg.cli.main(argv)`` in this process, stdout sent to a buffer."""
    workload.prepare(op)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workload.workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = modules.cli.main(list(op.argv))
            elapsed = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return elapsed, workload.collect(op, code, out.getvalue().encode("utf-8"))


def lib_call(op, modules):
    start = time.perf_counter()
    result = op.call(modules)
    return time.perf_counter() - start, result


# -- loops -----------------------------------------------------------------------


def run_cli(workload, seconds: float, run_op, tally: Tally) -> None:
    while True:
        for index, op in enumerate(workload.ops):
            elapsed, result = run_op(workload, op)
            tally.timed(index, elapsed)
            tally.attempted += 1
            tally.cli_result(index, op, result)
        if tally.wall >= seconds:
            return


def _lib_once(op, index, modules, tally, traced=False):
    tally.attempted += 1
    try:
        elapsed, result = lib_call(op, modules)
    except Exception as exc:  # the program raised on an op that must succeed
        tally.fail(op.name, f"{type(exc).__name__}: {exc}")
        return
    tally.timed(index, elapsed, traced)
    tally.seen.setdefault(index, Counter())[workloads.fingerprint(result)] += 1


def run_lib(workload, seconds: float, modules, tally: Tally) -> None:
    while True:
        for index, op in enumerate(workload.ops):
            _lib_once(op, index, modules, tally)
        if tally.wall >= seconds:
            return


def run_traced(workload, passes: int, modules, tracer, tally: Tally, run_op=None) -> None:
    """``passes`` passes, each op untraced and traced, alternating which goes first."""
    flip = False
    for _ in range(passes):
        for index, op in enumerate(workload.ops):
            for traced in ((False, True) if flip else (True, False)):
                if traced:
                    tracer.op_id += 1
                    tracer.install()
                try:
                    if run_op is None:
                        _lib_once(op, index, modules, tally, traced)
                    else:
                        elapsed, result = run_op(workload, op)
                        tally.timed(index, elapsed, traced)
                        tally.attempted += 1
                        tally.cli_result(index, op, result)
                finally:
                    if traced:
                        tracer.uninstall()
            flip = not flip


def warm_up(workload, modules) -> None:
    """One untimed pass; an op that raises here is counted when the loop repeats it."""
    for op in workload.ops:
        try:
            op.call(modules)
        except Exception:
            pass


def build_lib(name: str, seed: int):
    return workloads.build_lib_small(seed) if name == "lib-small" else workloads.build_lib_large(seed)


def worker_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="library-workload worker")
    parser.add_argument("--workload", required=True, choices=("lib-small", "lib-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = import_program()
    workload = build_lib(args.workload, args.seed)
    warm_up(workload, modules)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdin.readline()  # the parent times the kernel before it says go
    tally = Tally(speed=Speed())
    run_lib(workload, args.seconds, modules, tally)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.lib_verify(workload.ops, modules)
    print(json.dumps({
        "times": tally.times, "points_per_s": tally.points_per_s(workload.ops),
        "attempted": tally.attempted,
        "failed": tally.failed, "digits": tally.digits, "messages": tally.messages,
        "peak_rss_mb": peak_kib / 1024.0, "sizes": workload.sizes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(worker_main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
