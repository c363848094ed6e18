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

import numpy as np

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

MODES = {
    "dynamics": ("n_atoms", "rabi"),
    "steady_state": ("n_atoms", "rabi"),
    "phase_diagram": ("n_atoms", "beta"),
    "screening_curve": ("n_atoms", "beta"),
    "cooperativity": ("ell_ax", "ell_rad"),
}

_OBSERVABLE_COLUMNS = {
    "dynamics": ("t", "n_e", "s_z", "re_dipole", "im_dipole", "gamma_sr"),
    "steady_state": (
        "beta", "s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr", "g2",
    ),
    "phase_diagram": (
        "rabi", "s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr", "g2",
    ),
    "screening_curve": ("x", "x_asymptote"),
    "cooperativity": ("mu", "small_angle_estimate"),
}

_DIAG_COLUMNS = ("residual", "status")

# Modes that solve on the ladder, whose dimension N + 1 needs a whole N;
# screening_curve takes N as a real (effective) atom number.
_LADDER_MODES = ("dynamics", "steady_state", "phase_diagram")


class ConfigError(ValueError):
    """Invalid sweep specification."""


class AllPointsFailedError(RuntimeError):
    """Every point of the sweep failed to solve."""


def _is_integral(value) -> bool:
    try:
        return float(value).is_integer()
    except (TypeError, ValueError):
        return False


@dataclass
class SweepSpec:
    """One sweep: a mode, its parameter grids, and output selection."""

    mode: str
    grids: dict
    outputs: list = field(default_factory=list)
    output_path: str | None = None
    tol: float = 1e-8
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(
                f"unknown mode {self.mode!r}; expected one of {sorted(MODES)}"
            )
        required = MODES[self.mode]
        for name in required:
            grid = self.grids.get(name)
            if grid is None or len(grid) == 0:
                raise ConfigError(f"mode {self.mode!r} needs a non-empty grid {name!r}")
        extra = set(self.grids) - set(required)
        if extra:
            raise ConfigError(f"unknown grids for mode {self.mode!r}: {sorted(extra)}")
        known = set(_OBSERVABLE_COLUMNS[self.mode])
        bad = set(self.outputs) - known
        if bad:
            raise ConfigError(
                f"unknown observables {sorted(bad)} for mode {self.mode!r}; "
                f"known: {sorted(known)}"
            )
        if self.tol <= 0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if self.mode in _LADDER_MODES:
            for n in self.grids["n_atoms"]:
                if not _is_integral(n):
                    raise ConfigError(
                        f"mode {self.mode!r} needs whole atom numbers, got "
                        f"n_atoms = {n!r}"
                    )

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        unknown = set(doc) - {
            "schema_version", "mode", "grids", "outputs", "output_path",
            "tol", "settings",
        }
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "mode" not in doc:
            raise ConfigError("config must set 'mode'")
        return cls(
            mode=doc["mode"],
            grids=dict(doc.get("grids", {})),
            outputs=list(doc.get("outputs", [])),
            output_path=doc.get("output_path"),
            tol=float(doc.get("tol", 1e-8)),
            settings=dict(doc.get("settings", {})),
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
    t_final = float(settings.get("t_final", 10.0))
    n_samples = int(settings.get("n_samples", 201))
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


def _steady_row(n, rabi):
    params = ModelParams(n_atoms=int(n), rabi=float(rabi))
    state = steady_state(params)
    obs = observables(state)
    try:
        g2 = g2_zero(state)
    except UndefinedCorrelationError:
        g2 = float("nan")
    return {
        "n_atoms": int(n), "rabi": float(rabi), "beta": params.beta,
        "s_z": obs.s_z, "n_e": obs.n_e,
        "re_dipole": obs.dipole.real, "im_dipole": obs.dipole.imag,
        "gamma_sr": obs.gamma_sr, "g2": g2,
        "residual": state.residual, "status": "ok",
    }


def _finite(row):
    """The row itself; a ValueError if any of its numbers is not finite."""
    bad = [
        k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)
    ]
    if bad:
        raise ValueError(f"non-finite {', '.join(bad)}")
    return row


def _eval_point(task):
    mode, point, tol, settings = task
    try:
        if mode == "dynamics":
            return _dynamics_rows(point, tol, settings)
        if mode == "steady_state":
            return [_steady_row(point["n_atoms"], point["rabi"])]
        if mode == "phase_diagram":
            n, beta = int(point["n_atoms"]), float(point["beta"])
            rabi = 0.5 * beta * n
            row = _steady_row(n, rabi)
            row["beta"] = beta
            return [row]
        if mode == "screening_curve":
            n, beta = float(point["n_atoms"]), float(point["beta"])
            sol = solve_x(beta, n)
            asym = float(np.sqrt(beta**2 - 1.0)) if beta >= 1.0 else 0.0
            return [_finite({
                "n_atoms": n, "beta": beta, "x": sol.x, "x_asymptote": asym,
                "residual": abs(_screening_residual(n * sol.x, beta, n)),
                "status": "ok",
            })]
        if mode == "cooperativity":
            ax, rad = float(point["ell_ax"]), float(point["ell_rad"])
            geom = CloudGeometry(ell_ax=ax, ell_rad=rad)
            mu = cooperativity_mu(geom)
            return [_finite({
                "ell_ax": ax, "ell_rad": rad, "mu": mu,
                "small_angle_estimate": 1.0 / (2.0 * np.pi * ax),
                "residual": 0.0, "status": "ok",
            })]
        raise ConfigError(f"unknown mode {mode!r}")
    except (ConfigError, KeyboardInterrupt):
        raise
    except Exception as exc:  # per-point failures are recorded, not fatal
        row = {k: float(v) for k, v in point.items()}
        row["residual"] = float("nan")
        row["status"] = f"error: {exc}"
        return [row]


def run(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Execute the sweep; deterministic given the spec.

    Points are independent; with threads > 1 they are evaluated by a
    worker pool, with output order fixed by the grid regardless of
    completion order. Per-point solver failures are recorded in the
    status column; only an all-points failure raises.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    grid_names = MODES[spec.mode]
    grids = [list(spec.grids[name]) for name in grid_names]
    points = [dict(zip(grid_names, combo)) for combo in product(*grids)]
    tasks = [(spec.mode, point, spec.tol, spec.settings) for point in points]

    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_eval_point, tasks))
    else:
        chunks = [_eval_point(task) for task in tasks]

    rows = [row for chunk in chunks for row in chunk]
    if rows and all(str(r.get("status", "")).startswith("error") for r in rows):
        raise AllPointsFailedError(
            f"all {len(points)} sweep points failed; first: {rows[0]['status']}"
        )

    observable_cols = list(_OBSERVABLE_COLUMNS[spec.mode])
    if spec.outputs:
        observable_cols = [c for c in observable_cols if c in spec.outputs]
    columns = list(grid_names) + observable_cols + list(_DIAG_COLUMNS)

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
