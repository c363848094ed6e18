"""Command-line front end for simulations, sweeps, and fits.

Subcommands map onto the sweep modes (dynamics, steady, phase-diagram,
screening, mu) plus two fitting commands operating on CSV tables
(fit-omega-eff, fit-alpha). Sweeps are configured by a JSON file
(--config) whose fields can be overridden by flags; tables are written
as CSV with a '#'-prefixed JSON metadata header.

Exit codes: 0 success, 1 configuration error, 2 solver failure on every
point or a fit that fails (no convergence, or a trace too flat to
constrain it), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache

import numpy as np

from ddmsim import __version__
from ddmsim.analysis import (
    FitConvergenceError,
    TimeTrace,
    UnderdeterminedFitError,
    fit_omega_eff,
    fit_power_law,
)
from ddmsim.blas import pin_blas_threads
from ddmsim.sweep import (
    DEFAULT_TOL,
    SWEEP_MODES,
    AllPointsFailedError,
    ConfigError,
    SweepSpec,
    _real,
    format_csv,
    run,
    write_csv,
)

DEFAULT_GAMMA_MHZ = 2.0 * np.pi * 6.0  # rubidium D2 linewidth, angular MHz


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 1), not argparse's exit 2.

    Options are matched whole: a prefix such as --thread is an unknown
    option, not --threads. Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str):
    try:
        return list(map(float, filter(str.strip, text.split(","))))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {exc}")


def _add_sweep_parser(sub, name: str, mode):
    """A subcommand with the flags of the grids and settings the mode reads."""
    p = sub.add_parser(mode.command, help=f"run a {name} sweep")
    p.set_defaults(run=_run_sweep_command, mode=name)
    p.add_argument("--config", help="JSON sweep configuration file")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--outputs", help="comma-separated observable columns")
    for grid in mode.grids:
        p.add_argument("--" + grid.replace("_", "-"), type=_float_list,
                       help=f"comma-separated {grid} grid")
    if "tol" in mode.settings:
        p.add_argument("--tol", type=float,
                       help=f"bound on the trace drift of each dynamics trace "
                            f"(default {DEFAULT_TOL:g})")
    if "t_final" in mode.settings:
        span = p.add_mutually_exclusive_group()
        span.add_argument("--t-final", type=float, help="pulse duration in 1/gamma")
        span.add_argument("--t-final-ns", type=float, help="pulse duration in ns")
        p.add_argument("--gamma-mhz", type=float, default=DEFAULT_GAMMA_MHZ,
                       help="angular MHz decay rate for --t-final-ns (default 2*pi*6)")
    if "n_samples" in mode.settings:
        p.add_argument("--n-samples", type=int, help="samples per dynamics trace")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (a build takes about 2 ms)."""
    parser = _Parser(prog="ddmsim",
                     description="Driven Dicke model simulations and sweeps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, mode in SWEEP_MODES.items():
        _add_sweep_parser(sub, name, mode)

    p = sub.add_parser("fit-omega-eff", help="fit a damped-Rabi model to a trace")
    p.set_defaults(run=_run_fit_omega_eff)
    p.add_argument("--input", required=True, help="CSV with t and n_e columns")
    p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("fit-alpha", help="power-law exponent of gamma_sr vs N")
    p.set_defaults(run=_run_fit_alpha)
    p.add_argument("--input", required=True,
                   help="CSV with n_atoms and gamma_sr columns")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return doc


def _run_sweep_command(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    doc.setdefault("mode", args.mode)
    if doc["mode"] != args.mode:
        raise ConfigError(f"config mode {doc['mode']!r} does not match "
                          f"subcommand mode {args.mode!r}")
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if "t_final_ns" in flags:
        flags["t_final"] = flags["t_final_ns"] * 1e-3 * flags["gamma_mhz"]
    if "tol" in flags:  # a top-level key, not a setting
        doc["tol"] = flags.pop("tol")
    mode = SWEEP_MODES[args.mode]
    for key, names in (("grids", mode.grids), ("settings", mode.settings)):
        section = doc.setdefault(key, {})
        if isinstance(section, dict):  # SweepSpec rejects any other type
            section.update((k, flags[k]) for k in names if k in flags)
    if args.outputs:
        doc["outputs"] = [c.strip() for c in args.outputs.split(",") if c.strip()]
    if args.out is not None:
        doc["output_path"] = args.out
    spec = SweepSpec.from_dict(doc)
    result = run(spec, threads=args.threads)
    if spec.output_path:
        write_csv(result, spec.output_path)
    else:
        sys.stdout.write(format_csv(result))
    return 0


def _read_table(path: str, names) -> dict:
    """The named columns that a ddmsim CSV (or any headed CSV) has, as
    float arrays.

    Lines that start with '#' and rows of blank cells are skipped. Only
    the named columns are converted: a cell that is not a number reads
    as nan, which `_column` reports by its data row, and a row shorter
    than the header adds nothing to the columns it lacks. A named column
    that the header holds twice is a ConfigError.
    """
    with open(path, newline="") as fh:
        lines = (ln for ln in fh if not ln.startswith("#"))
        rows = [row for row in csv.reader(lines) if any(map(str.strip, row))]
    if len(rows) < 2:
        raise ConfigError(f"{path}: no data rows")
    header = [c.strip() for c in rows[0]]
    table = {}
    for name in names:
        count = header.count(name)
        if count > 1:
            raise ConfigError(f"{path}: column {name} appears {count} times in the header")
        if count:
            k = header.index(name)
            table[name] = np.array([_real(row[k]) for row in rows[1:] if k < len(row)],
                                   dtype=float)
    return table


def _column(table: dict, name: str, path: str) -> np.ndarray:
    """A column of the table; a ConfigError if it is missing or a cell
    is not a finite number."""
    if name not in table:
        raise ConfigError(f"{path}: no {name} column")
    bad = np.flatnonzero(~np.isfinite(table[name]))
    if bad.size:
        raise ConfigError(f"{path}: column {name} has a non-numeric or "
                          f"non-finite cell in data row {bad[0] + 1}")
    return table[name]


def _write_json(out: dict, path: str | None) -> int:
    """Write a fit result as indented JSON to path, or to stdout."""
    text = json.dumps(out, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_fit_omega_eff(args) -> int:
    table = _read_table(args.input, ("t", "time", "times", "n_e"))
    t_col = next((c for c in ("t", "time", "times") if c in table), "t")
    trace = TimeTrace(times=_column(table, t_col, args.input),
                      values=_column(table, "n_e", args.input))
    fit = fit_omega_eff(trace)
    out = {
        "omega_eff": fit.omega_eff,
        "decay": fit.decay,
        "residual_rms": fit.residual_rms,
        "omega_eff_stderr": float(np.sqrt(fit.covariance[0, 0])),
        "decay_stderr": float(np.sqrt(fit.covariance[1, 1])),
    }
    return _write_json(out, args.out)


def _run_fit_alpha(args) -> int:
    table = _read_table(args.input, ("n_atoms", "gamma_sr"))
    alpha, prefactor, stderr = fit_power_law(_column(table, "n_atoms", args.input),
                                             _column(table, "gamma_sr", args.input))
    out = {"alpha": alpha, "prefactor": prefactor, "alpha_stderr": stderr}
    return _write_json(out, args.out)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        pin_blas_threads()
        return args.run(args)
    except (FitConvergenceError, UnderdeterminedFitError) as exc:
        print(f"ddmsim: fit failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"ddmsim: config error: {exc}", file=sys.stderr)
        return 1
    except AllPointsFailedError as exc:
        print(f"ddmsim: solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ddmsim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
