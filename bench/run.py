"""ddmsim benchmark: drives the `ddmsim` CLI on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/. The seed picks the grid values; the workload is repeated for about
S seconds in a fresh process (bench/inner.py) and every repetition is
checked by the correctness gate (bench/gate.py).

--trace 0 reports the end-to-end metrics: wall_s and cpu_s as means over
the run's repetitions, setup_s as the median of several starts, and
peak_rss_mb. --trace 1 alternates traced and untraced repetitions and
reports the per-layer metrics. The last line of standard output is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it are a readable report and a JSON line with the raw
samples and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Half the starts run before the measurement and half after it, so the
# median spans the run, as wall_s does, not only its first seconds.
SETUP_STARTS = 8
# Time kept back from the measurement for the starts after it.
SETUP_RESERVE_S = 15.0
# A run must end within 180 s; leave room for start-up and reporting.
DEADLINE_S = 170.0
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "from ddmsim.cli import build_parser; build_parser(); "
    "print(time.monotonic())"
)



def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def measure_setup(starts: int) -> list:
    """Seconds from starting a fresh interpreter to a built CLI parser."""
    samples = []
    for _ in range(starts):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"CLI set-up failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_inner(args, workdir: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "inner.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Own process group, so a timeout also stops the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measurement did not finish in {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"measurement exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (label, value); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def end_to_end(inner: dict, setup: list) -> dict:
    # Means, not medians: the host drifts by up to 2x, in bursts of
    # seconds and in stretches of minutes. A median follows whichever
    # state held for most of the run; the mean, which is the run's total
    # time per repetition, moves in proportion to how long each held.
    return {
        "wall_s": statistics.mean(inner["wall_s"]),
        "cpu_s": statistics.mean(inner["cpu_s"]),
        "peak_rss_mb": inner["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def per_layer(inner: dict) -> tuple:
    """Median over traced repetitions of each layer metric, and the
    metrics the workload never reached."""
    layers = inner["layers"]
    values, absent = {}, []
    for name in layers[0]:
        seen = [rep[name] for rep in layers if rep[name] is not None]
        if seen:
            values[name] = statistics.median(seen)
        else:
            values[name] = 0.0
            absent.append(name)
    values["bench.trace_overhead_s"] = (
        statistics.mean(inner["traced_wall_s"])
        - statistics.mean(inner["wall_s"]))
    return values, absent


def report(args, inner: dict, setup: list, metrics: dict, units: dict,
           absent: list):
    ratio = inner["failed"] / inner["attempted"]
    print(f"ddmsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {len(inner['wall_s'])} untraced and "
          f"{len(inner['traced_wall_s'])} traced repetitions in "
          f"{inner['measured_s']:.1f} s")
    samples = {"wall_s": inner["wall_s"], "cpu_s": inner["cpu_s"],
               "setup_s": setup}
    for name, value in metrics.items():
        line = f"  {name:36s} {value:14.6g} {units[name]}"
        if samples.get(name):
            label, tail_value = tail(samples[name])
            how = ("median" if name == "setup_s" else
                   f"mean; median {statistics.median(samples[name]):.6g}")
            line += (f"  ({how}; {label} {tail_value:.6g}; "
                     f"n={len(samples[name])})")
        print(line)
    print(f"  {'failed_point_ratio':36s} {ratio:14.6g} 1  "
          f"({inner['failed']} of {inner['attempted']} points)")
    if absent:
        print(f"  not reached by this workload (reported as 0): "
              f"{', '.join(absent)}")
    if args.trace and inner["worker_spans"] is False:
        print("  no spans from pool workers: layer numbers are parent-side")
    for problem in inner["problems"]:
        print(f"  gate: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "ddmsim", "cli.py")):
        print(f"bench: no ddmsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", run_name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        half = 0 if args.trace else SETUP_STARTS // 2
        setup = measure_setup(half)
        remaining = DEADLINE_S - (time.monotonic() - started)
        inner = run_inner(args, workdir,
                          remaining - (SETUP_RESERVE_S if half else 0.0))
        setup += measure_setup(half)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, absent = per_layer(inner)
    else:
        metrics, absent = end_to_end(inner, setup), []
    units = metric_units()
    report(args, inner, setup, metrics, units, absent)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s": setup, **inner}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": inner["failed"] == 0,
        "attempted": inner["attempted"],
        "failed": inner["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
