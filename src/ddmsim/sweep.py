"""Declarative parameter sweeps with machine-readable CSV output.

A sweep is described by a JSON document (schema version 1) selecting one
mode and the parameter grids to scan. Results are tabulated, column by
column, with per-row convergence diagnostics, and written as CSV
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
from itertools import chain, product

import numpy as np

from ddmsim import __version__
from ddmsim.blas import pin_blas_threads
from ddmsim.params import ModelParams, _is_real
# liouvillian_rhs, steady_state, g2_zero and cooperativity_mu are unused
# here; they are traced under these names by bench/spans.py and
# bench/gate.py.
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
from ddmsim.geometry import CloudGeometry, cooperativity_column, cooperativity_mu

SCHEMA_VERSION = 1
DEFAULT_TOL = 1e-8
T_FINAL, N_SAMPLES = 10.0, 201  # dynamics settings when not given


class ConfigError(ValueError):
    """Invalid sweep specification."""


class AllPointsFailedError(RuntimeError):
    """Every point of the sweep failed to solve."""


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
            if not all(map(_is_real, grid)):
                raise ConfigError(f"grid {name!r} must hold numbers, got {grid!r}")
            if not _fits_float(grid):
                raise ConfigError(f"grid {name!r} holds a number beyond the float range")
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
        # A string is no number, nor is JSON true/false (to Python a bool
        # is an int).
        scalars = ("tol", self.tol), ("t_final", t_final), ("n_samples", n_samples)
        for name, value in scalars:
            if not _is_real(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not _fits_float([value]):
                raise ConfigError(f"{name} is beyond the float range")
        for name, value in ("tol", self.tol), ("t_final", t_final):
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if not (float(n_samples).is_integer() and n_samples >= 2):
            raise ConfigError(f"n_samples must be whole and >= 2, got {n_samples!r}")
        for n in self.grids["n_atoms"] if mode.whole_n else ():
            if not float(n).is_integer():
                raise ConfigError(f"mode {self.mode!r} needs whole atom numbers, "
                                  f"got n_atoms = {n!r}")
        self.tol = float(self.tol)

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


def _fits_float(values) -> bool:
    """Whether float() holds every value: an int of more than 308 digits
    overflows it."""
    try:
        list(map(float, values))
    except OverflowError:
        return False
    return True


@dataclass
class SweepResult:
    """Tabular sweep output: metadata header plus the table of every
    point's rows, one list of cells per column (see `_concat`).

    `columns` are the columns written, in order; the table holds every
    column of the mode.
    """

    metadata: dict
    columns: list
    table: dict

    @property
    def rows(self) -> list:
        """The table as one dict per row, without the cells it lacks."""
        return _rows(self.table)


def _rows(table) -> list:
    names = list(table)
    return [{name: cell for name, cell in zip(names, cells) if cell != ""}
            for cells in zip(*table.values())]


def _concat(tables, names) -> dict:
    """The tables one after another, as one table of the named columns.

    A table is a dict of column name to list of cells, every list the
    same length; "" is the cell of a column a row lacks, in a table that
    lacks that column too.
    """
    out = {name: [] for name in names}
    for table in tables:
        size = len(table["status"])
        for name, cells in out.items():
            cells += table[name] if name in table else [""] * size
    return out


def _put(table, k, row):
    """Write the one-row table `row` over row k of `table`, "" in the
    columns that `row` lacks."""
    for name, cells in table.items():
        cells[k] = row[name][0] if name in row else ""


def _fill(table, index, columns):
    """Write each of the columns, a list of cells per name, into rows
    `index` of the table."""
    for name, values in columns.items():
        cells = table[name]
        for k, value in zip(index, values):
            cells[k] = value


def _dynamics_rows(point, tol, settings):
    n, rabi = int(point["n_atoms"]), float(point["rabi"])
    t_final = float(settings.get("t_final", T_FINAL))
    n_samples = int(settings.get("n_samples", N_SAMPLES))
    params = ModelParams(n_atoms=n, rabi=rabi)
    times, trajectory = evolve(
        DickeLadderState.ground(n), params, t_final, tol=tol, n_samples=n_samples
    )
    obs = observables(trajectory)  # one call for every sample
    size = times.size
    return {"n_atoms": [n] * size, "rabi": [rabi] * size, "t": times.tolist(),
            "n_e": obs.n_e.tolist(), "s_z": obs.s_z.tolist(),
            "re_dipole": obs.dipole.real.tolist(), "im_dipole": obs.dipole.imag.tolist(),
            "gamma_sr": obs.gamma_sr.tolist(),
            "residual": np.abs(trajectory.traces - 1.0).tolist(), "status": ["ok"] * size}


# Slots, N + 1 a point, that one `steady_columns` call may take: points
# are merged into one flat pass while they fit. That bounds the flat
# arrays at large N too, where fresh multi-megabyte temporaries would
# cost more in page faults than their arithmetic.
_STEADY_SLOTS = 1 << 15


def _steady_rows(chunk, *_, drive="rabi"):
    """The table of a chunk of (n_atoms, drive) points, drive being rabi
    or, in the phase diagram, beta (rabi = beta N/2). Points are checked
    through ModelParams one by one, grouped into runs of equal N and
    solved by `steady_columns`, one call per `_slices` slice; a point
    failing either is an error row with the text it raised when solved on
    its own."""
    names = ("n_atoms", drive)
    table = {name: [""] * len(chunk) for name in _STEADY_TABLE}
    runs = {}
    for k, point in enumerate(chunk):
        try:
            n, value = int(point[0]), float(point[1])
            rabi = 0.5 * value * n if drive == "beta" else value
            params = ModelParams(n_atoms=n, rabi=rabi)
        except Exception as exc:
            _put(table, k, _error_row(dict(zip(names, point)), exc))
            continue
        runs.setdefault(params.n_atoms, []).append((k, params))
    for members in _slices(runs.values()):
        index, group = zip(*members)
        try:
            columns, faults = steady_columns(group)
        except Exception as exc:  # an N too large for its O(N) tables
            columns, faults = {}, dict.fromkeys(range(len(group)), exc)
        betas = ([float(chunk[k][1]) for k in index] if drive == "beta"
                 else [params.beta for params in group])
        _fill(table, index, {
            "n_atoms": [params.n_atoms for params in group],
            "rabi": [params.rabi for params in group], "beta": betas,
            **{name: column.tolist() for name, column in columns.items()},
            "status": ["ok"] * len(group)})
        for j, error in faults.items():
            _put(table, index[j], _error_row(dict(zip(names, chunk[index[j]])), error))
    return table


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


def _error_row(point, error):
    """The one-row table of a point that failed: its grid values as
    floats, a nan residual and the status `error: <error>`."""
    return {**{k: [float(v)] for k, v in point.items()},
            "residual": [math.nan], "status": [f"error: {error}"]}


_SCREENING_FLOATS = ("n_atoms", "beta", "x", "x_asymptote", "residual")


def _screening_rows(chunk, *_):
    """The table of a chunk of (n_atoms, beta) points, solved as arrays.

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
    table = dict(zip(_SCREENING_FLOATS, values.tolist()))
    table["status"] = ["ok"] * n.size
    for k, text in errors.items():
        _put(table, k, _error_row({"n_atoms": n[k], "beta": beta[k]}, text))
    return table


# Clouds that one `cooperativity_column` call may take: its interval
# tables hold 200 slots a cloud, so this bounds them at any grid size.
# Beyond about 10^3 clouds a call the time per cloud no longer falls.
_MU_POINTS = 1 << 10


def _mu_rows(chunk, *_):
    """The table of a chunk of (ell_ax, ell_rad) points. Points are
    checked through CloudGeometry one by one and integrated by
    `cooperativity_column`, one call per _MU_POINTS valid points; a point
    failing either, or whose row holds a non-finite number, is an error
    row with the text it raised when integrated on its own."""
    names = ("ell_ax", "ell_rad")
    table = {name: [""] * len(chunk) for name in (*names, "mu", "small_angle_estimate",
                                                   "residual", "status")}
    valid = []
    for k, point in enumerate(chunk):
        try:
            valid.append((k, CloudGeometry(ell_ax=float(point[0]),
                                           ell_rad=float(point[1]))))
        except (TypeError, ValueError) as exc:
            _put(table, k, _error_row(dict(zip(names, point)), exc))
    for start in range(0, len(valid), _MU_POINTS):
        index, geoms = zip(*valid[start:start + _MU_POINTS])
        mu, faults = cooperativity_column(geoms)
        ell_ax = [geom.ell_ax for geom in geoms]
        with np.errstate(over="ignore", divide="ignore"):
            small = 1.0 / (2.0 * math.pi * np.array(ell_ax))
        # The sizes are finite once checked, so only these two can fail.
        for j in np.flatnonzero(~(np.isfinite(mu) & np.isfinite(small))).tolist():
            if j not in faults:
                bad = [name for name, v in (("mu", mu[j]), ("small_angle_estimate", small[j]))
                       if not math.isfinite(v)]
                faults[j] = f"non-finite {', '.join(bad)}"
        _fill(table, index, {
            "ell_ax": ell_ax, "ell_rad": [geom.ell_rad for geom in geoms],
            "mu": mu.tolist(), "small_angle_estimate": small.tolist(),
            "residual": [0.0] * len(geoms), "status": ["ok"] * len(geoms)})
        for j, error in faults.items():
            _put(table, index[j], _error_row(dict(zip(names, chunk[index[j]])), error))
    return table


@dataclass(frozen=True)
class SweepMode:
    """One sweep mode, as the spec, the sweep and the CLI all see it.

    `rows(point, tol, settings)` returns the table (see `_concat`) of
    one point, given as a dict of grid values; an exception it raises
    becomes the point's error row. A batched mode's `rows(chunk, tol,
    settings)` takes a list of grid tuples instead and returns their
    table, error rows included. Row builders reach the layers through
    this module's globals at call time, so a wrapper installed on
    `ddmsim.sweep.<name>` sees every call.
    """

    command: str  # CLI subcommand
    grids: tuple  # grid names, in column order
    columns: tuple  # observable columns, in column order
    whole_n: bool  # N sizes the ladder (N + 1 levels); screening's N is real
    settings: tuple  # "tol" and the `settings` keys the mode reads
    rows: object  # row builder
    batched: bool = False  # rows takes a chunk of points

    @property
    def table_columns(self) -> tuple:
        """Every column of the mode's tables, in order."""
        return tuple(dict.fromkeys(self.grids + self.columns + ("residual", "status")))


_STEADY_COLUMNS = ("s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr", "g2")
_STEADY_TABLE = ("n_atoms", "rabi", "beta", *_STEADY_COLUMNS, "residual", "status")

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
                               ("mu", "small_angle_estimate"), False, (), _mu_rows,
                               batched=True),
}


def _eval_point(task):
    mode, point, tol, settings = task
    try:
        return SWEEP_MODES[mode].rows(point, tol, settings)
    except Exception as exc:  # per-point failures are recorded, not fatal
        return _error_row(point, exc)


def _eval_chunk(task):
    """The table of a chunk of grid tuples, in grid order."""
    name, chunk, tol, settings = task
    mode = SWEEP_MODES[name]
    if mode.batched:
        return mode.rows(chunk, tol, settings)
    return _concat([_eval_point((name, dict(zip(mode.grids, combo)), tol, settings))
                    for combo in chunk], mode.table_columns)


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

    table = _concat(chunks, mode.table_columns)
    status = table["status"]
    if status and all(text.startswith("error") for text in status):
        raise AllPointsFailedError(
            f"all {len(points)} sweep points failed; first: {status[0]}"
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
    return SweepResult(metadata=metadata, columns=columns, table=table)


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
    template repeated once per row, applied to every cell at once, read
    column by column from the table.
    """
    formats, columns = zip(*(_column_template(result.table[name])
                             for name in result.columns))
    template = (",".join(formats) + "\n") * len(columns[0])
    return ("# " + json.dumps(result.metadata, sort_keys=True) + "\n"
            + ",".join(map(_text_cell, result.columns)) + "\n"
            + template % tuple(chain.from_iterable(zip(*columns))))


def write_csv(result: SweepResult, path: str):
    with open(path, "w") as fh:
        fh.write(format_csv(result))
