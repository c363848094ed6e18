"""Run the benchmark over many seeds and summarise its spread.

    python3 bench/collect.py --runs 10 [--first-seed 1] [--trace 0]
        [--workloads a,b] [--out bench/baseline/NAME.json]

For every workload, runs the command of BENCHMARK.json once per seed,
with the run length it sets, and prints each end-to-end metric's median
and quartile spread ((q3 - q1) / median, as statistics.quantiles gives
the quartiles) next to its bound. With --out, writes every run's result
line and raw per-repetition samples, for use as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}"
                           f"\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    result["samples"] = {k: detail[k] for k in
                         ("wall_s", "cpu_s", "setup_s", "traced_wall_s",
                          "layers")}
    result["seed"] = seed
    result["environment"] = detail["environment"]
    return result


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="write all results to this JSON file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    collected = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(spec, name, seed, args.trace))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in
                runs[-1]["metrics"].items()), flush=True)
        collected[name] = runs
        if args.trace:
            continue
        for metric, bound in bounds.items():
            median, rel = spread([r["metrics"][metric]["value"]
                                  for r in runs])
            flag = "ok" if rel < bound / 3 else (
                "within bound" if rel <= bound else "TOO WIDE")
            print(f"  {name:16s} {metric:12s} median {median:10.5g}  "
                  f"spread {rel:7.2%}  bound {bound:.0%}  {flag}")
        failed = sum(r["failed"] for r in runs)
        print(f"  {name:16s} correct in {sum(r['correct'] for r in runs)} "
              f"of {len(runs)} runs; {failed} failed points")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": spec["run_seconds"],
                       "trace": args.trace, "workloads": collected}, fh,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
