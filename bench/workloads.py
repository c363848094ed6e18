"""Workload definitions: which `ddmsim` CLI calls one repetition makes.

Each workload draws its grid from fixed candidate values with a seeded
generator, so a seed always gives the same inputs and every seed gives
nearly the same amount of work. `reference.py` evaluates every candidate
once, which is what lets the correctness gate check any seed's output
against a stored table.
"""

from __future__ import annotations

import math
import os
import random
import traceback
from dataclasses import dataclass, field

# Sweep settings the dynamics workload fixes.
T_FINAL = 8.0
N_SAMPLES = 161
# Tolerance of the N <= 4 dynamics slice, so that it can be held to the
# oracle at the acceptance tolerance (criterion 1 integrates at 1e-11 too).
ORACLE_SLICE_TOL = 1e-11
ORACLE_MAX_N = 4


@dataclass
class Call:
    """One `ddmsim.cli.main` invocation and the file it writes.

    kind names the output format the gate checks ("phase", "trace",
    "fit-omega", "screening", "mu", "fit-alpha"); key names the table in
    the reference (a fit shares the key of the table it reads); points is
    how many grid points the call's output accounts for.
    """

    argv: list
    out: str
    kind: str
    key: str
    points: int


@dataclass
class Relabel:
    """Copy a CSV, renaming header columns (see DENSE_GRID for why)."""

    src: str
    dst: str
    renames: dict


@dataclass
class Workload:
    name: str
    why: str
    bypasses: str
    threads: int = 1
    bands: dict = field(default_factory=dict)
    # A combined workload runs the steps of each part, in order, in every
    # repetition; it has no bands or reference table of its own.
    parts: tuple = ()


def _pick(rng: random.Random, bands) -> list:
    return [rng.choice(band) for band in bands]


def _num(value: float) -> str:
    return f"{value:.10g}"


def _grid(values) -> str:
    return ",".join(_num(v) for v in values)


def _geomspace(lo: float, hi: float, count: int) -> list:
    step = math.log(hi / lo) / (count - 1)
    return [float(f"{lo * math.exp(k * step):.6g}") for k in range(count)]


STEADY_GRID = Workload(
    name="steady-grid",
    why="serial phase diagram over N = 3..140, beta on both sides of 1; "
        "dominated by ladder.steady_state (sparse LU, ~N^3)",
    bypasses="evolve, the worker pool, meanfield, geometry and the fits",
    bands={
        "n_atoms": ((3, 4), (10, 11), (31, 32), (62, 63), (98, 99),
                    (138, 139, 140)),
        "beta": ((0.5, 0.55, 0.6), (1.1, 1.15, 1.2), (2.5, 2.75, 3.0)),
    },
)

PARALLEL_STEADY = Workload(
    name="parallel-steady",
    why="a steady-grid-shaped phase diagram (N <= 60) at --threads 2, "
        "through the worker-pool path of sweep.run",
    bypasses="evolve, meanfield, geometry, the fits and the serial path "
             "of sweep.run",
    threads=2,
    bands={
        "n_atoms": ((3, 4), (10, 11), (20, 21), (30, 31), (40, 41),
                    (50, 51), (59, 60)),
        "beta": ((0.5, 0.55, 0.6), (0.9, 0.95), (1.1, 1.15, 1.2),
                 (2.5, 2.75, 3.0)),
    },
)

DYNAMICS_FIT = Workload(
    name="dynamics-fit",
    why="serial dynamics traces at N = 3..24, below and above beta = 1, "
        "each fitted by fit-omega-eff; dominated by ladder.evolve",
    bypasses="the steady-state solve, the worker pool, meanfield and "
             "geometry",
    bands={
        # The first band is the slice held to the 2^N oracle. The cost of
        # a trace grows like N^3.5 and with the drive, so the bands that
        # carry the work are narrow enough to keep it steady across seeds.
        "n_atoms": ((3, 4), (10,), (17,), (24,)),
        "beta": ((0.5, 0.505, 0.51), (1.5, 1.51, 1.52)),
    },
)

# fit-alpha reads only the n_atoms and gamma_sr columns, so the screening
# table (x against N at one beta) and the mu table (mu against ell_ax at
# one ell_rad) are copied under those column names before the read-back.
# Below threshold x ~ 1/N, and mu ~ 1/ell_ax for a long pencil, so both
# fits have a physical exponent near -1.
DENSE_GRID = Workload(
    name="dense-grid",
    why="serial screening (30k points) and mu (3k points) grids written "
        "to CSV and read back by fit-alpha; cheap points, so meanfield, "
        "geometry, sweep dispatch and CSV I/O do the work",
    bypasses="ladder (no steady solve, no evolve) and the worker pool",
    bands={
        "screening_n": _geomspace(10.0, 1.0e4, 1500),
        "screening_beta": [round(0.2 + 0.07 * k, 4) for k in range(11)]
                          + [round(1.1 + 0.19 * k, 4) for k in range(11)],
        "picked_beta": 20,
        "mu_ell_ax": _geomspace(2.0, 50.0, 250),
        "mu_ell_rad": _geomspace(0.2, 5.0, 14),
        "picked_ell_rad": 12,
    },
)

# dynamics-fit and dense-grid share one repetition so that the benchmark
# runs two workloads, not three, and each run can be longer. Runs on a
# shared 2-vCPU host drift by 1.4-1.8x for minutes at a time; the
# longer a run, the more of that drift its mean averages out.
DYNAMICS_DENSE = Workload(
    name="dynamics-dense",
    why="dynamics-fit then dense-grid in each repetition: ladder.evolve, "
        "observables and both fits, then meanfield, geometry, sweep "
        "dispatch and CSV I/O; no steady solve",
    bypasses="the steady-state solve and the worker pool",
    parts=(DYNAMICS_FIT, DENSE_GRID),
)

WORKLOADS = {w.name: w for w in (STEADY_GRID, DYNAMICS_DENSE, DYNAMICS_FIT,
                                 DENSE_GRID, PARALLEL_STEADY)}


def phase_call(n_values, betas, workdir: str, threads: int,
               tag: str = "phase") -> Call:
    out = os.path.join(workdir, f"{tag}.csv")
    argv = ["phase-diagram", "--n-atoms", _grid(n_values), "--beta",
            _grid(betas), "--threads", str(threads), "--out", out]
    return Call(argv, out, "phase", "", len(n_values) * len(betas))


def trace_calls(n: int, beta: float, workdir: str) -> list:
    """A dynamics trace at one (N, beta) followed by its damped-Rabi fit."""
    rabi = _num(0.5 * beta * n)
    stem = os.path.join(workdir, f"dyn-{n}-{rabi}")
    argv = ["dynamics", "--n-atoms", str(n), "--rabi", rabi,
            "--t-final", _num(T_FINAL), "--n-samples", str(N_SAMPLES),
            "--out", stem + ".csv"]
    if n <= ORACLE_MAX_N:
        argv += ["--tol", _num(ORACLE_SLICE_TOL)]
    key = f"{n},{rabi}"
    return [
        Call(argv, stem + ".csv", "trace", key, 1),
        Call(["fit-omega-eff", "--input", stem + ".csv", "--out",
              stem + ".json"], stem + ".json", "fit-omega", key, 0),
    ]


def screening_steps(beta: float, n_values, workdir: str) -> list:
    stem = os.path.join(workdir, f"scr-{_num(beta)}")
    argv = ["screening", "--n-atoms", _grid(n_values), "--beta", _num(beta),
            "--out", stem + ".csv"]
    return [
        Call(argv, stem + ".csv", "screening", _num(beta), len(n_values)),
        Relabel(stem + ".csv", stem + "-fit.csv", {"x": "gamma_sr"}),
        Call(["fit-alpha", "--input", stem + "-fit.csv", "--out",
              stem + ".json"], stem + ".json", "fit-alpha", _num(beta), 0),
    ]


def mu_steps(ell_rad: float, ell_ax, workdir: str) -> list:
    stem = os.path.join(workdir, f"mu-{_num(ell_rad)}")
    argv = ["mu", "--ell-ax", _grid(ell_ax), "--ell-rad", _num(ell_rad),
            "--out", stem + ".csv"]
    key = "mu:" + _num(ell_rad)
    return [
        Call(argv, stem + ".csv", "mu", key, len(ell_ax)),
        Relabel(stem + ".csv", stem + "-fit.csv",
                {"ell_ax": "n_atoms", "mu": "gamma_sr"}),
        Call(["fit-alpha", "--input", stem + "-fit.csv", "--out",
              stem + ".json"], stem + ".json", "fit-alpha", key, 0),
    ]


def plan(workload: Workload, seed: int, workdir: str,
         threads: int | None = None) -> list:
    """The steps of one repetition of the workload for this seed.

    threads overrides the workload's worker count (for the serial run
    that parallel output is compared with).
    """
    if workload.parts:
        return [s for part in workload.parts
                for s in plan(part, seed, workdir, threads)]
    rng = random.Random(f"{workload.name}:{seed}")
    bands = workload.bands
    if workload in (STEADY_GRID, PARALLEL_STEADY):
        return [phase_call(_pick(rng, bands["n_atoms"]),
                           _pick(rng, bands["beta"]), workdir,
                           workload.threads if threads is None else threads)]
    if workload is DYNAMICS_FIT:
        n_values = _pick(rng, bands["n_atoms"])
        betas = _pick(rng, bands["beta"])
        return [c for n in n_values for b in betas
                for c in trace_calls(n, b, workdir)]
    if workload is DENSE_GRID:
        betas = sorted(rng.sample(bands["screening_beta"],
                                  bands["picked_beta"]))
        radii = sorted(rng.sample(bands["mu_ell_rad"],
                                  bands["picked_ell_rad"]))
        steps = [s for b in betas
                 for s in screening_steps(b, bands["screening_n"], workdir)]
        steps += [s for r in radii
                  for s in mu_steps(r, bands["mu_ell_ax"], workdir)]
        return steps
    raise ValueError(f"unknown workload {workload.name!r}")


def warmup_plan(workload: Workload, workdir: str) -> list:
    """Small calls through every subcommand and layer the workload uses,
    so lazy imports and first-call costs land before timing starts."""
    if workload.parts:
        return [s for part in workload.parts
                for s in warmup_plan(part, workdir)]
    if workload in (STEADY_GRID, PARALLEL_STEADY):
        return [phase_call([3, 10], [0.5, 2.0], workdir, workload.threads,
                           tag="warmup")]
    if workload is DYNAMICS_FIT:
        return trace_calls(5, 1.5, workdir)
    return (screening_steps(0.5, [10.0, 20.0, 40.0, 80.0], workdir)
            + mu_steps(0.5, [2.0, 4.0, 8.0, 16.0], workdir))


def relabel(step: Relabel):
    with open(step.src) as fh:
        meta = fh.readline()
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    header = [step.renames.get(col, col) for col in header]
    with open(step.dst, "w") as fh:
        fh.write(meta + ",".join(header) + "\n" + body)


def run_steps(steps) -> dict:
    """Run the steps in order; returns {output path: call returned 0}.

    `ddmsim.cli.main` is looked up on every call, so a tracer installed
    on the module is used.
    """
    import ddmsim.cli

    outcomes = {}
    for step in steps:
        if isinstance(step, Relabel):
            if outcomes.get(step.src):
                relabel(step)
            continue
        try:
            outcomes[step.out] = ddmsim.cli.main(step.argv) == 0
        except Exception:  # e.g. a fit error the CLI does not map
            traceback.print_exc()
            outcomes[step.out] = False
    return outcomes
