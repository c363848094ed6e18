"""Measured repetitions of one workload, in a process of their own.

run.py starts this in a fresh interpreter so that peak memory belongs to
the workload. It repeats the workload until the time is used, checks
every repetition with the correctness gate, and prints one JSON line
with the raw samples, the gate result and the environment.

With --trace 1 the repetitions alternate between untraced and traced,
so the tracing overhead can be read off the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

MIN_REPS = 3
MIN_REPS_TRACED = 4  # two untraced, two traced
# Stop starting repetitions after this many times --seconds, however few
# have run, so that one slow repetition cannot run past the time limit.
HARD_STOP = 3.0


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its reaped
    children (the pool joins its workers before sweep.run returns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _serial_bodies(workload, seed: int, workdir: str, steps) -> dict:
    """CSV bodies of a serial run of the same grid, keyed by the output
    path of the matching call in `steps`."""
    serial = wl.plan(workload, seed, _fresh_dir(os.path.join(workdir,
                                                             "serial")),
                     threads=1)
    outcomes = wl.run_steps(serial)
    bodies = {}
    for mine, theirs in zip(steps, serial):
        if outcomes.get(theirs.out):
            bodies[mine.out] = gate.read_table(theirs.out)[2]
        else:
            bodies[mine.out] = ""
    return bodies


def measure(workload, seed: int, seconds: float, traced: bool,
            workdir: str) -> dict:
    checker = gate.Gate(workload.name)
    gate.install_steady_trace_check()
    wl.run_steps(wl.warmup_plan(workload,
                                _fresh_dir(os.path.join(workdir, "warmup"))))
    steps = wl.plan(workload, seed, _fresh_dir(os.path.join(workdir, "out")))
    expected = (_serial_bodies(workload, seed, workdir, steps)
                if workload.threads > 1 else None)
    tracer = spans.Tracer(_fresh_dir(os.path.join(workdir, "spans")))

    wall, cpu, traced_wall, layers = [], [], [], []
    attempted = failed = 0
    worker_spans_seen = False
    min_reps = MIN_REPS_TRACED if traced else MIN_REPS
    start = perf_counter()
    while True:
        trace_this = traced and len(wall) > len(traced_wall)
        if trace_this:
            tracer.reset()
            tracer.install()
        cpu0, t0 = _cpu_seconds(), perf_counter()
        outcomes = wl.run_steps(steps)
        t1, cpu1 = perf_counter(), _cpu_seconds()
        if trace_this:
            tracer.uninstall()
            worker_spans = tracer.take_worker_spans()
            worker_spans_seen |= bool(worker_spans)
            traced_wall.append(t1 - t0)
            layers.append(spans.layer_metrics(tracer.spans, worker_spans,
                                              t1 - t0))
        else:
            wall.append(t1 - t0)
            cpu.append(cpu1 - cpu0)
        rep_attempted, rep_failed = checker.check_rep(steps, outcomes,
                                                      expected)
        attempted += rep_attempted
        failed += rep_failed
        reps = len(wall) + len(traced_wall)
        elapsed = perf_counter() - start
        if reps >= min_reps and elapsed * (reps + 1) / reps > seconds:
            break
        if elapsed > HARD_STOP * seconds and reps >= (2 if traced else 1):
            break

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        # Largest child only (getrusage keeps the maximum, not the sum).
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "traced_wall_s": traced_wall,
        "layers": layers,
        "worker_spans": worker_spans_seen if workload.threads > 1 else None,
        "attempted": attempted,
        "failed": failed,
        "problems": checker.problems,
        "measured_s": perf_counter() - start,
        "environment": environment(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    result = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
