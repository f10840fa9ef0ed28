"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plane_cns --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory, in this one process, on one thread
(``NODAL_THREADS`` cleared, BLAS pools pinned to one thread before numpy
loads).  Calls repeat, each on freshly built measures and its own seed, until
``--seconds`` have passed; every call's output is checked.

With ``--trace 0`` the last line reports the end-to-end metrics: draws per
second and set-up time of fresh processes, both medians rescaled to a fixed
machine speed (see ``REFERENCE_KERNEL_S``), peak resident memory and the
share of calls that passed their checks.  With ``--trace 1`` each call runs
untraced and traced on the same seed, and the last line reports per-layer
metrics, each the median over the traced calls of its value for one
workload call.  Earlier lines record the
environment and the digest of the first call's payload.

Exits 2, printing no result, when the program's source is not in the
checkout, and 1 when the layer trace no longer matches the program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"draws_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# Set-up cost as a user pays it: a fresh interpreter importing the program
# and building the workload's measures.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
w.build(w.sizes[sys.argv[4]])
print(time.perf_counter() - t0)
"""
# The same kind of work with nothing of the program in it: a fresh
# interpreter importing a fixed set of standard-library modules.  Timed right
# after each set-up process, it gauges how fast the machine starts and
# imports at that moment.
_IMPORT_REFERENCE_CODE = """\
import time
t0 = time.perf_counter()
import argparse, asyncio, concurrent.futures, csv, ctypes, dataclasses
import decimal, difflib, email.mime.multipart, fractions, http.client
import inspect, logging.handlers, multiprocessing.pool, pickletools, pydoc
import sqlite3, statistics, tarfile, typing, unittest, urllib.request
import xml.dom.minidom, zipfile
print(time.perf_counter() - t0)
"""


class ProgramMissing(RuntimeError):
    pass


def pin_environment():
    """Single-threaded run; must happen before numpy is first imported."""
    os.environ.pop("NODAL_THREADS", None)
    os.environ.update(PINNED_ENV)


def load_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    package = SRC / "nodalfields" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no nodalfields source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nodalfields
    if Path(nodalfields.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"nodalfields imported from {nodalfields.__file__}, "
                             f"not from {package}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "NODAL_THREADS": os.environ.get("NODAL_THREADS"),
        **{key: os.environ.get(key) for key in PINNED_ENV},
    }


def _fresh_process_seconds(*args: str) -> float:
    done = subprocess.run([sys.executable, "-c", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(name: str, size: str) -> tuple:
    """Import-plus-measure-construction time of one fresh process, and the
    time of the import reference just after it."""
    setup = _fresh_process_seconds(_SETUP_CODE, str(HERE), str(SRC), name, size)
    return setup, _fresh_process_seconds(_IMPORT_REFERENCE_CODE)


# On a shared 2-vCPU virtual machine the speed of every process drifted by
# up to 1.7x within forty minutes, and contention comes in spells of a few
# seconds that slow a call by up to half.  Each timed piece of the program is
# therefore paired with program-independent work timed next to it: every
# call with the median of KERNEL_RUNS runs of ``calibration_seconds`` just
# before it and as many just after it, every set-up process with the import
# reference run just after it.  The run reports the median over the pairs of
# program time over reference time, in seconds of a machine on which the
# references take the REFERENCE_* times below, about their times in the
# quietest spells seen on an Intel Xeon vCPU.  A program change moves the
# program's times and not the references', so it shows in full.
KERNEL_RUNS = 3
REFERENCE_KERNEL_S = 0.015
REFERENCE_IMPORT_S = 0.085


def calibration_seconds() -> float:
    """Time one run of the kernel: interpreter, vector and BLAS work mixed
    as in the workloads."""
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    x = np.linspace(0.0, 50.0, 200_000)
    acc += float(np.cos(x) @ np.sin(x))
    a = np.outer(np.cos(x[:300]), np.sin(x[:300]))
    acc += float((a @ a).sum())
    return time.perf_counter() - start


def call_seed(seed: int, k: int) -> int:
    return seed * 10_000 + k


class Run:
    """Calls of one workload, with their checks."""

    def __init__(self, name: str, size: str):
        import checks
        import workloads
        self.checks = checks
        self.workload = workloads.WORKLOADS[name]
        self.params = self.workload.sizes[size]
        self.validator = checks.load_validator(SRC)
        self.attempted = 0
        self.failed = 0
        self.digests = []

    def call(self, seed: int):
        """Time one call; returns (seconds, digest), digest None on failure."""
        w = self.workload
        self.attempted += 1
        try:
            inputs = w.build(self.params)
            start = time.perf_counter()
            payload = w.call(inputs, self.params, seed)
            elapsed = time.perf_counter() - start
            found = self.checks.problems(self.validator, w, payload,
                                         self.params, seed)
        except Exception:  # a failed call is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        if found:
            print(f"call seed {seed} failed its checks: {found}", file=sys.stderr)
            self.failed += 1
            return elapsed, None
        return elapsed, self.checks.digest(payload)

    def warm_up(self, seed: int):
        """One untimed call at the smallest size, so lazy imports and other
        once-per-process costs land outside the timed calls.  Measures are
        still built afresh for every timed call."""
        w = self.workload
        params = w.sizes["smallest"]
        try:
            w.call(w.build(params), params, seed)
        except Exception:  # the timed calls will count the failure
            traceback.print_exc(file=sys.stderr)

    def traced_call(self, seed: int, tracer):
        with tracer.installed():
            elapsed, digest = self.call(seed)
        if digest is not None:  # a failed call may stop before some sites
            tracer.require(self.workload.sites)
        return elapsed, digest


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", setup_repeats: int = SETUP_REPEATS):
    """Run the workload for `seconds`; returns (result line, info)."""
    import layers

    run = Run(name, size)
    draws = run.workload.draws(run.params)
    correct = True
    calls, per_call, setups = [], [], []      # calls: (seconds, kernel seconds)
    setups_due = 0 if trace else setup_repeats
    run.warm_up(seed)
    # Set-up processes are spread evenly over the run, so that one spell of
    # contention cannot slow them all; their time is not part of the run.
    start, paused, k = time.perf_counter(), 0.0, 0
    while True:
        measured = time.perf_counter() - start - paused
        if (len(setups) < setups_due
                and measured >= len(setups) * seconds / setups_due):
            began = time.perf_counter()
            setups.append(setup_seconds(name, size))
            paused += time.perf_counter() - began
        s = call_seed(seed, k)
        if trace:
            tracer = layers.Tracer()
            # alternate which side of a pair runs first, so one-off costs
            # such as lazy imports do not bias the overhead ratio
            if k % 2:
                traced_s, traced_digest = run.traced_call(s, tracer)
                plain_s, plain_digest = run.call(s)
            else:
                plain_s, plain_digest = run.call(s)
                traced_s, traced_digest = run.traced_call(s, tracer)
            if traced_digest != plain_digest:
                print(f"call seed {s}: traced digest {traced_digest} differs "
                      f"from untraced {plain_digest}", file=sys.stderr)
                correct = False
            if traced_s is not None and plain_s is not None:
                row = tracer.metrics(traced_s)
                row["trace.overhead_ratio"] = traced_s / plain_s
                per_call.append(row)
        else:
            before = [calibration_seconds() for _ in range(KERNEL_RUNS)]
            plain_s, plain_digest = run.call(s)
            after = [calibration_seconds() for _ in range(KERNEL_RUNS)]
            if plain_digest is not None:
                calls.append((plain_s, statistics.median(before + after)))
        run.digests.append(plain_digest)
        k += 1
        if time.perf_counter() - start - paused >= seconds:
            break
    while len(setups) < setups_due:
        setups.append(setup_seconds(name, size))

    info = {"workload": name, "size": size, "seed": seed, "trace": int(trace),
            "params": run.params, "calls": k,
            "failed_ratio": run.failed / run.attempted,
            "result_digest": run.digests[0], "environment": environment()}
    if trace:
        units = layers.METRICS
        values = {m: statistics.median(row[m] for row in per_call) if per_call
                  else 0.0 for m in units}
    else:
        units = E2E_UNITS
        call_ratio = (statistics.median(c / ref for c, ref in calls)
                      if calls else math.inf)
        setup_ratio = statistics.median(sp / ref for sp, ref in setups)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"draws_per_s": draws / (call_ratio * REFERENCE_KERNEL_S),
                  "setup_s": setup_ratio * REFERENCE_IMPORT_S,
                  "peak_rss_mb": peak_kb / 1024.0,
                  "ok_ratio": (run.attempted - run.failed) / run.attempted}
        info.update(
            raw_draws_per_s=(draws / statistics.median(c for c, _ in calls)
                             if calls else 0.0),
            raw_setup_s=statistics.median(sp for sp, _ in setups))
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    pin_environment()
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, info = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except layers.TraceBroken as exc:
        print(f"error: broken layer trace: {exc}", file=sys.stderr)
        return 1
    print("info " + json.dumps(info, sort_keys=True))
    print(f"failed_ratio {info['failed_ratio']:.6g} ratio")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
