"""Correctness gate: every output of every repetition is checked.

A grid point fails when its row has an error status, breaks a physical
check, differs from the reference table beyond the pinned tolerance, or
(for N <= 4) differs from the brute-force 2^N oracle. A fit that fails or
disagrees with its reference fails every point of the table it read.
"""

from __future__ import annotations

import gzip
import json
import math
import os

import numpy as np

import ddmsim.sweep
from ddmsim import ModelParams, g2_zero, observables
from ddmsim.oracle import FullState, full_evolve, project_to_ladder

import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# Pinned tolerances, as |value - reference| <= tol * max(1, max |column|).
TABLE_TOL = {"phase": 1e-9, "screening": 1e-9, "mu": 1e-8, "trace": 1e-6}
# Fits: |value - reference| <= tol * |reference| + 1e-12.
FIT_TOL = {"fit-omega": 1e-4, "fit-alpha": 1e-6}
STEADY_RESIDUAL_MAX = 1e-10   # Liouvillian residual of a steady row
STEADY_TRACE_TOL = 1e-10      # |tr rho - 1| of a steady state
TRACE_DRIFT_MAX = 1e-10       # |tr rho(t) - 1| along a dynamics trace
SCREENING_RESIDUAL_MAX = 1e-12
ORACLE_TOL = 1e-8             # acceptance criterion 1
ORACLE_RELAX_T = 80.0         # oracle run time to reach the steady state
ORACLE_COLUMNS = ("s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr")
RESIDUAL_MAX = {"phase": STEADY_RESIDUAL_MAX, "trace": TRACE_DRIFT_MAX,
                "screening": SCREENING_RESIDUAL_MAX, "mu": 0.0}


def reference_path(workload_name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload_name}.json.gz")


def load_reference(workload_name: str) -> dict:
    """Reference tables and fits; a combined workload merges its parts'."""
    parts = workloads.WORKLOADS[workload_name].parts
    merged = {"tables": {}, "fits": {}}
    for name in [p.name for p in parts] or [workload_name]:
        with gzip.open(reference_path(name), "rt") as fh:
            doc = json.load(fh)
        merged["tables"].update(doc["tables"])
        merged["fits"].update(doc["fits"])
    return merged


def install_steady_trace_check():
    """Make `sweep.steady_state` raise on a state whose trace is off.

    The rows do not carry the trace, so this is checked where the state
    is made. The sweep records the exception as an error row, which the
    gate counts as a failed point. Costs one trace per solve.
    """
    solve = ddmsim.sweep.steady_state

    def checked_steady_state(*args, **kwargs):
        state = solve(*args, **kwargs)
        drift = abs(state.trace() - 1.0)
        if not drift <= STEADY_TRACE_TOL:
            raise ValueError(f"steady-state trace is off by {drift:.3e}")
        return state

    ddmsim.sweep.steady_state = checked_steady_state


def read_table(path: str):
    """(columns, rows as lists of cells, body text) of a ddmsim CSV."""
    with open(path) as fh:
        fh.readline()  # metadata line
        body = fh.read()
    lines = body.splitlines()
    columns = lines[0].split(",")
    return columns, [line.split(",") for line in lines[1:]], body


def row_key(n_atoms: str, beta: str) -> str:
    return f"{n_atoms},{beta}"


def _float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _close(value: float, ref: float, tol: float, scale: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= tol * max(1.0, scale)


def _oracle_steady(n: int, rabi: float) -> dict:
    params = ModelParams(n_atoms=n, rabi=rabi)
    _, states = full_evolve(FullState.ground(n), params, ORACLE_RELAX_T,
                            tol=1e-11, n_samples=2)
    ladder, _ = project_to_ladder(states[-1])
    obs = observables(ladder)
    return {"s_z": obs.s_z, "n_e": obs.n_e, "re_dipole": obs.dipole.real,
            "im_dipole": obs.dipole.imag, "gamma_sr": obs.gamma_sr,
            "g2": g2_zero(ladder)}


def _oracle_trace(n: int, rabi: float) -> dict:
    params = ModelParams(n_atoms=n, rabi=rabi)
    _, states = full_evolve(FullState.ground(n), params, workloads.T_FINAL,
                            tol=1e-11, n_samples=workloads.N_SAMPLES)
    obs = [observables(project_to_ladder(s)[0]) for s in states]
    return {"s_z": [o.s_z for o in obs], "n_e": [o.n_e for o in obs],
            "re_dipole": [o.dipole.real for o in obs],
            "im_dipole": [o.dipole.imag for o in obs],
            "gamma_sr": [o.gamma_sr for o in obs]}


class Gate:
    """Checks the outputs of repetitions against the reference table."""

    def __init__(self, workload_name: str):
        self.reference = load_reference(workload_name)
        self._oracle = {}
        self.problems = []

    def _problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)

    def _oracle_values(self, kind: str, n: int, rabi: float) -> dict:
        key = (kind, n, rabi)
        if key not in self._oracle:
            solve = _oracle_steady if kind == "phase" else _oracle_trace
            self._oracle[key] = solve(n, rabi)
        return self._oracle[key]

    def check_rep(self, steps, outcomes, expected_bodies=None):
        """(points attempted, points failed) of one repetition.

        outcomes maps each call's output path to whether the call
        returned 0. expected_bodies maps output paths to the CSV body a
        serial run produced, which parallel output must match byte for
        byte.
        """
        calls = [s for s in steps if isinstance(s, workloads.Call)]
        failed = {}  # table key -> set of failed row indices
        sizes = {}
        for call in calls:
            if call.points:
                sizes[call.key] = call.points
                failed[call.key] = (
                    self._check_table(call, expected_bodies)
                    if outcomes.get(call.out) else set(range(call.points)))
                if not outcomes.get(call.out):
                    self._problem(f"{call.argv[0]} {call.key}: call failed")
        for call in calls:
            if not call.points:
                ok = outcomes.get(call.out) and self._check_fit(call)
                if not ok:
                    failed[call.key] = set(range(sizes[call.key]))
        attempted = sum(sizes.values())
        return attempted, sum(len(bad) for bad in failed.values())

    def _check_table(self, call, expected_bodies) -> set:
        """Indices of the failed points of one output table."""
        columns, rows, body = read_table(call.out)
        expected_rows = (workloads.N_SAMPLES if call.kind == "trace"
                         else call.points)
        if len(rows) != expected_rows:
            self._problem(f"{call.out}: {len(rows)} rows, expected "
                          f"{expected_rows}")
            return set(range(call.points))
        col = {name: i for i, name in enumerate(columns)}
        bad_rows = set()
        if expected_bodies is not None:
            expected = expected_bodies[call.out].splitlines()[1:]
            got = body.splitlines()[1:]
            bad_rows = ({i for i, (a, b) in enumerate(zip(got, expected))
                         if a != b} if len(got) == len(expected)
                        else set(range(len(got))))
            if bad_rows:
                self._problem(f"{call.out}: differs from the serial run")
        if call.kind == "phase":
            groups = {row_key(r[col["n_atoms"]], r[col["beta"]]): [i]
                      for i, r in enumerate(rows)}
        else:
            groups = {call.key: list(range(len(rows)))}
        for key, indices in groups.items():
            ref = self.reference["tables"].get(key)
            if ref is None:
                self._problem(f"{call.out}: no reference for {key}")
            if ref is None or not self._table_ok(
                    call, key, col, [rows[i] for i in indices], ref):
                bad_rows.update(indices)
        if call.kind == "trace":
            return {0} if bad_rows else set()
        return bad_rows

    def _table_ok(self, call, key, col, rows, ref) -> bool:
        """Status, residual, physical bounds, reference and oracle."""
        kind = call.kind
        ok = True
        for row in rows:
            if row[col["status"]] != "ok":
                self._problem(f"{call.out} {key}: {row[col['status']]}")
                return False
            residual = _float(row[col["residual"]])
            if not residual <= RESIDUAL_MAX[kind]:
                self._problem(f"{call.out} {key}: residual {residual:.3e}")
                ok = False
        tol = TABLE_TOL[kind]
        for name, ref_values in ref.items():
            values = [_float(r[col[name]]) for r in rows]
            if len(values) != len(ref_values):
                return False
            finite = [abs(v) for v in ref_values if not math.isnan(v)]
            scale = max(finite) if finite else 1.0
            for v, r in zip(values, ref_values):
                if not _close(v, r, tol, scale):
                    self._problem(f"{call.out} {key} {name}: {v!r} vs "
                                  f"reference {r!r}")
                    ok = False
                    break
        if kind == "screening" and not all(
                0.0 <= _float(r[col["x"]]) <= float(key) for r in rows):
            self._problem(f"{call.out}: x outside [0, beta]")
            ok = False
        if kind == "mu" and not all(
                0.0 < _float(r[col["mu"]]) <= 1.0 for r in rows):
            self._problem(f"{call.out}: mu outside (0, 1]")
            ok = False
        if kind in ("phase", "trace"):
            n = int(rows[0][col["n_atoms"]])
            if n <= workloads.ORACLE_MAX_N:
                ok &= self._oracle_ok(call, key, col, rows, n)
        return ok

    def _oracle_ok(self, call, key, col, rows, n) -> bool:
        rabi = float(rows[0][col["rabi"]])
        oracle = self._oracle_values(call.kind, n, rabi)
        names = ORACLE_COLUMNS + (("g2",) if call.kind == "phase" else ())
        for name in names:
            want = np.atleast_1d(oracle[name])
            got = np.array([_float(r[col[name]]) for r in rows])
            worst = float(np.max(np.abs(got - want)))
            if not worst < ORACLE_TOL:
                self._problem(f"{call.out} {key} {name}: {worst:.2e} from "
                              f"the oracle")
                return False
        return True

    def _check_fit(self, call) -> bool:
        with open(call.out) as fh:
            fit = json.load(fh)
        ref = self.reference["fits"].get(call.key)
        if ref is None:
            self._problem(f"{call.out}: no reference fit for {call.key}")
            return False
        tol = FIT_TOL[call.kind]
        for name, want in ref.items():
            got = fit.get(name)
            if not (isinstance(got, float) and math.isfinite(got)
                    and abs(got - want) <= tol * abs(want) + 1e-12):
                self._problem(f"{call.out} {name}: {got!r} vs reference "
                              f"{want!r}")
                return False
        return True
