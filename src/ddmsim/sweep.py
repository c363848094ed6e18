"""Declarative parameter sweeps with machine-readable CSV output.

A sweep is described by a JSON document (schema version 1) selecting one
mode and the parameter grids to scan. Results are tabulated
row-by-point with per-row convergence diagnostics, and written as CSV
with a '#'-prefixed JSON metadata header so the tables are archivable
and trivially plottable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

from ddmsim import __version__
from ddmsim.params import ModelParams
from ddmsim.ladder import (
    DickeLadderState,
    UndefinedCorrelationError,
    evolve,
    g2_zero,
    liouvillian_rhs,  # unused here; traced under this name by bench/spans.py
    observables,
    steady_state,
)
from ddmsim.meanfield import solve_x, _screening_residual
from ddmsim.geometry import CloudGeometry, cooperativity_mu

SCHEMA_VERSION = 1
DEFAULT_TOL = 1e-8
T_FINAL, N_SAMPLES = 10.0, 201  # dynamics settings when not given


class ConfigError(ValueError):
    """Invalid sweep specification."""


class AllPointsFailedError(RuntimeError):
    """Every point of the sweep failed to solve."""


def _real(value) -> float:
    """value as a float; nan if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


@dataclass
class SweepSpec:
    """One sweep: a mode, its parameter grids, and output selection."""

    mode: str
    grids: dict
    outputs: list = field(default_factory=list)
    output_path: str | None = None
    tol: float = DEFAULT_TOL
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        mode = SWEEP_MODES.get(self.mode) if isinstance(self.mode, str) else None
        if mode is None:
            raise ConfigError(
                f"unknown mode {self.mode!r}; expected one of {sorted(SWEEP_MODES)}")
        shapes = (self.grids, dict), (self.settings, dict), (self.outputs, list)
        if not all(isinstance(value, kind) for value, kind in shapes):
            raise ConfigError("grids and settings must be objects, outputs a list")
        for name in mode.grids:
            grid = self.grids.get(name)
            if not isinstance(grid, (list, tuple)) or len(grid) == 0:
                raise ConfigError(f"mode {self.mode!r} needs a non-empty list {name!r}")
        extra = set(self.grids) - set(mode.grids)
        if extra:
            raise ConfigError(f"unknown grids for mode {self.mode!r}: {sorted(extra)}")
        bad = set(self.outputs) - set(mode.columns)
        if bad:
            raise ConfigError(f"unknown observables {sorted(bad)} for mode "
                              f"{self.mode!r}; known: {sorted(mode.columns)}")
        # tol is a top-level key, never a setting; it counts as set when
        # it differs from the default, which the hash always carries.
        unread = set(self.settings) - (set(mode.settings) - {"tol"})
        if self.tol != DEFAULT_TOL and "tol" not in mode.settings:
            unread.add("tol")
        if unread:
            raise ConfigError(f"mode {self.mode!r} does not read {sorted(unread)}")
        t_final = self.settings.get("t_final", T_FINAL)
        for name, value in ("tol", self.tol), ("t_final", t_final):
            if not 0 < _real(value) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        n_samples = self.settings.get("n_samples", N_SAMPLES)
        if not (_real(n_samples).is_integer() and _real(n_samples) >= 2):
            raise ConfigError(f"n_samples must be whole and >= 2, got {n_samples!r}")
        for n in self.grids["n_atoms"] if mode.whole_n else ():
            if not _real(n).is_integer():
                raise ConfigError(f"mode {self.mode!r} needs whole atom numbers, "
                                  f"got n_atoms = {n!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        unknown = set(doc) - {"schema_version", *cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            mode=doc.get("mode"),
            grids=doc.get("grids", {}),
            outputs=doc.get("outputs", []),
            output_path=doc.get("output_path"),
            tol=_real(doc.get("tol", DEFAULT_TOL)),
            settings=doc.get("settings", {}),
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "grids": self.grids,
            "outputs": self.outputs,
            "output_path": self.output_path,
            "tol": self.tol,
            "settings": self.settings,
        }

    def canonical_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class SweepResult:
    """Tabular sweep output: metadata header plus one row per point."""

    metadata: dict
    columns: list
    rows: list


def _dynamics_rows(point, tol, settings):
    n, rabi = int(point["n_atoms"]), float(point["rabi"])
    t_final = float(settings.get("t_final", T_FINAL))
    n_samples = int(_real(settings.get("n_samples", N_SAMPLES)))
    params = ModelParams(n_atoms=n, rabi=rabi)
    times, states = evolve(
        DickeLadderState.ground(n), params, t_final, tol=tol, n_samples=n_samples
    )
    rows = []
    for t, state in zip(times, states):
        obs = observables(state)
        rows.append({
            "n_atoms": n, "rabi": rabi, "t": float(t),
            "n_e": obs.n_e, "s_z": obs.s_z,
            "re_dipole": obs.dipole.real, "im_dipole": obs.dipole.imag,
            "gamma_sr": obs.gamma_sr,
            "residual": abs(state.trace() - 1.0), "status": "ok",
        })
    return rows


def _steady_rows(point, *_):
    n, rabi = int(point["n_atoms"]), float(point["rabi"])
    params = ModelParams(n_atoms=n, rabi=rabi)
    state = steady_state(params)
    obs = observables(state)
    try:
        g2 = g2_zero(state)
    except UndefinedCorrelationError:
        g2 = float("nan")
    return [{
        "n_atoms": n, "rabi": rabi, "beta": params.beta,
        "s_z": obs.s_z, "n_e": obs.n_e,
        "re_dipole": obs.dipole.real, "im_dipole": obs.dipole.imag,
        "gamma_sr": obs.gamma_sr, "g2": g2,
        "residual": state.residual, "status": "ok",
    }]


def _phase_rows(point, *_):
    n, beta = int(point["n_atoms"]), float(point["beta"])
    (row,) = _steady_rows({"n_atoms": n, "rabi": 0.5 * beta * n})
    row["beta"] = beta
    return [row]


def _finite(row):
    """The row itself; a ValueError if any of its numbers is not finite."""
    bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {', '.join(bad)}")
    return [row]


def _screening_rows(point, *_):
    n, beta = float(point["n_atoms"]), float(point["beta"])
    sol = solve_x(beta, n)
    asym = math.sqrt(beta**2 - 1.0) if beta >= 1.0 else 0.0
    return _finite({
        "n_atoms": n, "beta": beta, "x": sol.x, "x_asymptote": asym,
        "residual": abs(_screening_residual(n * sol.x, beta, n)), "status": "ok",
    })


def _mu_rows(point, *_):
    ax, rad = float(point["ell_ax"]), float(point["ell_rad"])
    mu = cooperativity_mu(CloudGeometry(ell_ax=ax, ell_rad=rad))
    return _finite({
        "ell_ax": ax, "ell_rad": rad, "mu": mu,
        "small_angle_estimate": 1.0 / (2.0 * math.pi * ax),
        "residual": 0.0, "status": "ok",
    })


@dataclass(frozen=True)
class SweepMode:
    """One sweep mode, as the spec, the sweep and the CLI all see it.

    `rows(point, tol, settings)` returns the point's rows. Row builders
    reach the layers through this module's globals at call time, so a
    wrapper installed on `ddmsim.sweep.<name>` sees every call.
    """

    command: str  # CLI subcommand
    grids: tuple  # grid names, in column order
    columns: tuple  # observable columns, in column order
    whole_n: bool  # N sizes the ladder (N + 1 levels); screening's N is real
    settings: tuple  # "tol" and the `settings` keys the mode reads
    rows: object  # row builder


_STEADY_COLUMNS = ("s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr", "g2")

SWEEP_MODES = {
    "dynamics": SweepMode(
        "dynamics", ("n_atoms", "rabi"),
        ("t", "n_e", "s_z", "re_dipole", "im_dipole", "gamma_sr"),
        True, ("tol", "t_final", "n_samples"), _dynamics_rows),
    "steady_state": SweepMode("steady", ("n_atoms", "rabi"),
                              ("beta",) + _STEADY_COLUMNS, True, (), _steady_rows),
    "phase_diagram": SweepMode("phase-diagram", ("n_atoms", "beta"),
                               ("rabi",) + _STEADY_COLUMNS, True, (), _phase_rows),
    "screening_curve": SweepMode("screening", ("n_atoms", "beta"),
                                 ("x", "x_asymptote"), False, (), _screening_rows),
    "cooperativity": SweepMode("mu", ("ell_ax", "ell_rad"),
                               ("mu", "small_angle_estimate"), False, (), _mu_rows),
}


def _eval_point(task):
    mode, point, tol, settings = task
    try:
        return SWEEP_MODES[mode].rows(point, tol, settings)
    except Exception as exc:  # per-point failures are recorded, not fatal
        row = {k: float(v) for k, v in point.items()}
        row["residual"] = float("nan")
        row["status"] = f"error: {exc}"
        return [row]


def run(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Execute the sweep; deterministic given the spec.

    Points are independent; with threads > 1 they are evaluated by a
    pool of at most min(threads, cpu count, points) workers, with output
    order fixed by the grid regardless of completion order. Per-point
    solver failures are recorded in the status column; only an
    all-points failure raises.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    mode = SWEEP_MODES[spec.mode]
    grids = [spec.grids[name] for name in mode.grids]
    points = [dict(zip(mode.grids, combo)) for combo in product(*grids)]
    tasks = [(spec.mode, point, spec.tol, spec.settings) for point in points]

    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_eval_point, tasks))
    else:
        chunks = [_eval_point(task) for task in tasks]

    rows = [row for chunk in chunks for row in chunk]
    if rows and all(str(r.get("status", "")).startswith("error") for r in rows):
        raise AllPointsFailedError(
            f"all {len(points)} sweep points failed; first: {rows[0]['status']}"
        )

    observable_cols = [c for c in mode.columns if not spec.outputs or c in spec.outputs]
    columns = list(mode.grids) + observable_cols + ["residual", "status"]

    timestamp = int(os.environ.get("SOURCE_DATE_EPOCH", int(time.time())))
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "spec_hash": spec.canonical_hash(),
        "code_version": __version__,
        "timestamp": timestamp,
        "mode": spec.mode,
        "n_points": len(points),
    }
    return SweepResult(metadata=metadata, columns=columns, rows=rows)


def format_csv(result: SweepResult) -> str:
    """CSV text: '#'-prefixed JSON metadata line, header, data rows.

    Cells that hold a comma, quote or newline (error text in `status`)
    are quoted; every other cell is written as is.
    """
    buf = io.StringIO()
    buf.write("# " + json.dumps(result.metadata, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        cells = []
        for col in result.columns:
            val = row.get(col, "")
            if isinstance(val, float):
                cells.append(f"{val:.12g}")
            else:
                cells.append(str(val))
        writer.writerow(cells)
    return buf.getvalue()


def write_csv(result: SweepResult, path: str):
    with open(path, "w") as fh:
        fh.write(format_csv(result))
