"""Declarative parameter sweeps with machine-readable CSV output.

A sweep is described by a JSON document (schema version 1) selecting one
mode and the parameter grids to scan. Results are tabulated
row-by-point with per-row convergence diagnostics, and written as CSV
with a '#'-prefixed JSON metadata header so the tables are archivable
and trivially plottable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, product, repeat

import numpy as np

from ddmsim import __version__
from ddmsim.blas import pin_blas_threads
from ddmsim.params import ModelParams
# liouvillian_rhs, steady_state and g2_zero are unused here; they are
# traced under these names by bench/spans.py and bench/gate.py.
from ddmsim.ladder import (
    DickeLadderState,
    evolve,
    g2_zero,
    liouvillian_rhs,
    observables,
    steady_columns,
    steady_state,
)
from ddmsim.meanfield import _elementwise, _screening_residual, solve_x
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

    mode: str | None = None
    grids: dict = field(default_factory=dict)
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
            if bool in set(map(type, grid)):
                raise ConfigError(f"grid {name!r} must hold numbers, got {grid!r}")
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
        n_samples = self.settings.get("n_samples", N_SAMPLES)
        # JSON true/false would pass as 1/0 (bool is an int in Python).
        scalars = ("tol", self.tol), ("t_final", t_final), ("n_samples", n_samples)
        for name, value in scalars:
            if isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name, value in ("tol", self.tol), ("t_final", t_final):
            if not 0 < _real(value) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if not (_real(n_samples).is_integer() and _real(n_samples) >= 2):
            raise ConfigError(f"n_samples must be whole and >= 2, got {n_samples!r}")
        for n in self.grids["n_atoms"] if mode.whole_n else ():
            if not _real(n).is_integer():
                raise ConfigError(f"mode {self.mode!r} needs whole atom numbers, "
                                  f"got n_atoms = {n!r}")
        self.tol = _real(self.tol)

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
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__ if k in doc})

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                **{k: getattr(self, k) for k in self.__dataclass_fields__}}

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
    times, trajectory = evolve(
        DickeLadderState.ground(n), params, t_final, tol=tol, n_samples=n_samples
    )
    obs = observables(trajectory)  # one call for every sample
    columns = zip(times.tolist(), obs.n_e.tolist(), obs.s_z.tolist(),
                  obs.dipole.real.tolist(), obs.dipole.imag.tolist(),
                  obs.gamma_sr.tolist(), np.abs(trajectory.traces - 1.0).tolist())
    return [{
        "n_atoms": n, "rabi": rabi, "t": t,
        "n_e": n_e, "s_z": s_z, "re_dipole": re, "im_dipole": im,
        "gamma_sr": gamma_sr, "residual": residual, "status": "ok",
    } for t, n_e, s_z, re, im, gamma_sr, residual in columns]


# Slots, N + 1 a point, that one `steady_columns` call may take: points
# are merged into one flat pass while they fit. That bounds the flat
# arrays at large N too, where fresh multi-megabyte temporaries would
# cost more in page faults than their arithmetic.
_STEADY_SLOTS = 1 << 15


def _steady_rows(chunk, *_, drive="rabi"):
    """The rows of a chunk of (n_atoms, drive) points, drive being rabi or,
    in the phase diagram, beta (rabi = beta N/2). Points are checked
    through ModelParams one by one, grouped into runs of equal N and
    solved by `steady_columns`, one call per `_slices` slice; a point
    failing either is an error row with the text it raised when solved on
    its own."""
    names, rows, runs = ("n_atoms", drive), [], {}
    for k, point in enumerate(chunk):
        try:
            n, value = int(point[0]), float(point[1])
            rabi = 0.5 * value * n if drive == "beta" else value
            params = ModelParams(n_atoms=n, rabi=rabi)
        except Exception as exc:
            rows.append(_error_row(dict(zip(names, point)), exc))
            continue
        runs.setdefault(params.n_atoms, []).append((k, params))
        rows.append(None)
    for members in _slices(runs.values()):
        index, group = zip(*members)
        try:
            columns, faults = steady_columns(group)
        except Exception as exc:  # an N too large for its O(N) tables
            columns, faults = {}, dict.fromkeys(range(len(group)), exc)
        cells = zip(*(column.tolist() for column in columns.values()))
        for k, params, values in zip(index, group, cells):
            beta = float(chunk[k][1]) if drive == "beta" else params.beta
            rows[k] = {"n_atoms": params.n_atoms, "rabi": params.rabi, "beta": beta,
                       **dict(zip(columns, values)), "status": "ok"}
        for j, error in faults.items():
            rows[index[j]] = _error_row(dict(zip(names, chunk[index[j]])), error)
    return rows


def _slices(runs):
    """The runs (lists of (index, params) of one N) cut and merged, in
    order, into slices of at most _STEADY_SLOTS slots, N + 1 a point; a
    point larger than that is a slice alone."""
    merged, slots = [], 0
    for run in runs:
        size = run[0][1].n_atoms + 1
        for member in run:
            if merged and slots + size > _STEADY_SLOTS:
                yield merged
                merged, slots = [], 0
            merged.append(member)
            slots += size
    if merged:
        yield merged


def _finite(row):
    """The row itself; a ValueError if any of its numbers is not finite."""
    bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {', '.join(bad)}")
    return [row]


def _error_row(point, error):
    """The row of a point that failed: its grid values as floats, a nan
    residual and the status `error: <error>`."""
    return {**{k: float(v) for k, v in point.items()},
            "residual": math.nan, "status": f"error: {error}"}


_SCREENING_FLOATS = ("n_atoms", "beta", "x", "x_asymptote", "residual")


def _screening_rows(chunk, *_):
    """The rows of a chunk of (n_atoms, beta) points, solved as arrays.

    A point that `solve_x` cannot solve, or whose row holds a non-finite
    number, becomes an error row with the text the point raised when
    points were solved one by one.
    """
    flat = np.fromiter(map(float, chain.from_iterable(chunk)), float)
    n, beta = flat.reshape(-1, 2).T
    sol = solve_x(beta, n)
    failed = np.zeros(n.size, dtype=bool)
    failed[list(sol.faults)] = True
    with np.errstate(invalid="ignore", over="ignore"):
        # math.pow raises where beta^2 overflows, which only a failed
        # point reaches.
        b = np.where(failed, np.nan, beta)
        asym = np.where(b >= 1.0, np.sqrt(_elementwise(math.pow, b, 2.0) - 1.0), 0.0)
        residual = np.abs(_screening_residual(n * sol.x, beta, n))
    values = np.stack([n, beta, sol.x, asym, residual])
    errors = dict(sol.faults)
    for k in np.flatnonzero(~failed & ~np.isfinite(values).all(axis=0)):
        bad = [name for name, v in zip(_SCREENING_FLOATS, values[:, k])
               if not math.isfinite(v)]
        errors[int(k)] = f"non-finite {', '.join(bad)}"
    rows = [{"n_atoms": n_k, "beta": beta_k, "x": x_k, "x_asymptote": asym_k,
             "residual": residual_k, "status": "ok"}
            for n_k, beta_k, x_k, asym_k, residual_k in values.T.tolist()]
    for k, text in errors.items():
        rows[k] = _error_row({"n_atoms": n[k], "beta": beta[k]}, text)
    return rows


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

    `rows(point, tol, settings)` returns the rows of one point, given as
    a dict of grid values; an exception it raises becomes the point's
    error row. A batched mode's `rows(chunk, tol, settings)` takes a
    list of grid tuples instead and returns their rows, error rows
    included. Row builders reach the layers through this module's
    globals at call time, so a wrapper installed on
    `ddmsim.sweep.<name>` sees every call.
    """

    command: str  # CLI subcommand
    grids: tuple  # grid names, in column order
    columns: tuple  # observable columns, in column order
    whole_n: bool  # N sizes the ladder (N + 1 levels); screening's N is real
    settings: tuple  # "tol" and the `settings` keys the mode reads
    rows: object  # row builder
    batched: bool = False  # rows takes a chunk of points


_STEADY_COLUMNS = ("s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr", "g2")

SWEEP_MODES = {
    "dynamics": SweepMode(
        "dynamics", ("n_atoms", "rabi"),
        ("t", "n_e", "s_z", "re_dipole", "im_dipole", "gamma_sr"),
        True, ("tol", "t_final", "n_samples"), _dynamics_rows),
    "steady_state": SweepMode("steady", ("n_atoms", "rabi"),
                              ("beta",) + _STEADY_COLUMNS, True, (), _steady_rows,
                              batched=True),
    "phase_diagram": SweepMode("phase-diagram", ("n_atoms", "beta"),
                               ("rabi",) + _STEADY_COLUMNS, True, (),
                               partial(_steady_rows, drive="beta"), batched=True),
    "screening_curve": SweepMode("screening", ("n_atoms", "beta"),
                                 ("x", "x_asymptote"), False, (), _screening_rows,
                                 batched=True),
    "cooperativity": SweepMode("mu", ("ell_ax", "ell_rad"),
                               ("mu", "small_angle_estimate"), False, (), _mu_rows),
}


def _eval_point(task):
    mode, point, tol, settings = task
    try:
        return SWEEP_MODES[mode].rows(point, tol, settings)
    except Exception as exc:  # per-point failures are recorded, not fatal
        return [_error_row(point, exc)]


def _eval_chunk(task):
    """The rows of a chunk of grid tuples, in grid order."""
    name, chunk, tol, settings = task
    mode = SWEEP_MODES[name]
    if mode.batched:
        return mode.rows(chunk, tol, settings)
    return [row for combo in chunk for row in
            _eval_point((name, dict(zip(mode.grids, combo)), tol, settings))]


def run(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Execute the sweep; deterministic given the spec.

    Points are independent; with threads > 1 they are evaluated by a
    pool of at most min(threads, CPUs this process may run on, points)
    workers, with output order fixed by the grid regardless of
    completion order. Every process does its BLAS on one thread
    (`pin_blas_threads`), so the pool is the only parallelism. A batched
    mode solves its points in one chunk per worker (one chunk when
    serial); any other mode sends each point on its own. Per-point
    solver failures are recorded in the status column; only an
    all-points failure raises.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    pin_blas_threads()
    mode = SWEEP_MODES[spec.mode]
    points = list(product(*(spec.grids[name] for name in mode.grids)))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    workers = min(threads, cpus or 1, len(points))
    size = -(-len(points) // workers) if mode.batched else 1
    tasks = [(spec.mode, points[k:k + size], spec.tol, spec.settings)
             for k in range(0, len(points), size)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_eval_chunk, tasks))
    else:
        chunks = [_eval_chunk(task) for task in tasks]

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


def _text_cell(value) -> str:
    """str(value), quoted as csv quotes it if it holds a comma, quote or
    newline."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_template(cells):
    """The %-format of one column and the cells it formats: a column of
    Python floats is written as .12g, a column of strings that need no
    quoting as is, and any other column cell by cell: a float as .12g,
    anything else through `_text_cell`."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return "%.12g", cells
    if kinds == {str} and not any(c in "".join(cells) for c in ',"\n'):
        return "%s", cells
    return "%s", [format(v, ".12g") if isinstance(v, float) else _text_cell(v)
                  for v in cells]


def format_csv(result: SweepResult) -> str:
    """CSV text: '#'-prefixed JSON metadata line, header, data rows.

    A float cell is written as .12g and any other as str(); a cell that
    holds a comma, quote or newline (error text in `status`) is quoted
    as the csv module quotes it. The body is one %-template, the row
    template repeated once per row, applied to every cell at once.
    """
    rows = result.rows
    formats, columns = zip(*(
        _column_template(list(map(dict.get, rows, repeat(name), repeat(""))))
        for name in result.columns))
    template = (",".join(formats) + "\n") * len(rows)
    return ("# " + json.dumps(result.metadata, sort_keys=True) + "\n"
            + ",".join(map(_text_cell, result.columns)) + "\n"
            + template % tuple(chain.from_iterable(zip(*columns))))


def write_csv(result: SweepResult, path: str):
    with open(path, "w") as fh:
        fh.write(format_csv(result))
