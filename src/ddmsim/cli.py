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

import numpy as np

from ddmsim import __version__
from ddmsim.analysis import (
    FitConvergenceError,
    TimeTrace,
    UnderdeterminedFitError,
    fit_omega_eff,
    fit_power_law,
)
from ddmsim.sweep import (
    AllPointsFailedError,
    ConfigError,
    SweepSpec,
    format_csv,
    run,
    write_csv,
)

DEFAULT_GAMMA_MHZ = 2.0 * np.pi * 6.0  # rubidium D2 linewidth, angular MHz

_SUBCOMMAND_MODES = {
    "dynamics": "dynamics",
    "steady": "steady_state",
    "phase-diagram": "phase_diagram",
    "screening": "screening_curve",
    "mu": "cooperativity",
}


def _float_list(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {exc}")


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON sweep configuration file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--threads", type=int, default=1, help="worker processes")
    parser.add_argument("--tol", type=float, help="solver tolerance override")
    parser.add_argument(
        "--gamma-mhz", type=float, default=DEFAULT_GAMMA_MHZ,
        help="decay rate in angular MHz, used to convert *_ns settings "
             "(default 2*pi*6)",
    )


def _add_grid_flags(parser):
    parser.add_argument("--n-atoms", type=_float_list, help="comma-separated N grid")
    parser.add_argument("--rabi", type=_float_list, help="comma-separated Rabi grid")
    parser.add_argument("--beta", type=_float_list, help="comma-separated beta grid")
    parser.add_argument("--ell-ax", type=_float_list, help="axial sizes (wavelengths)")
    parser.add_argument("--ell-rad", type=_float_list, help="radial sizes (wavelengths)")
    parser.add_argument("--t-final", type=float, help="pulse duration in 1/gamma")
    parser.add_argument("--t-final-ns", type=float, help="pulse duration in ns")
    parser.add_argument("--n-samples", type=int, help="samples per dynamics trace")
    parser.add_argument("--outputs", help="comma-separated observable columns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmsim",
        description="Driven Dicke model simulations and sweeps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, mode in _SUBCOMMAND_MODES.items():
        p = sub.add_parser(name, help=f"run a {mode} sweep")
        _add_common_flags(p)
        _add_grid_flags(p)

    p = sub.add_parser("fit-omega-eff", help="fit a damped-Rabi model to a trace")
    _add_common_flags(p)
    p.add_argument("--input", required=True, help="CSV with t and n_e columns")

    p = sub.add_parser("fit-alpha", help="power-law exponent of gamma_sr vs N")
    _add_common_flags(p)
    p.add_argument("--input", required=True,
                   help="CSV with n_atoms and gamma_sr columns")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def _spec_from_args(args, mode: str) -> SweepSpec:
    doc = _load_config(args.config) if args.config else {"mode": mode, "grids": {}}
    doc.setdefault("mode", mode)
    if doc["mode"] != mode:
        raise ConfigError(
            f"config mode {doc['mode']!r} does not match subcommand mode {mode!r}"
        )
    doc.setdefault("grids", {})
    doc.setdefault("settings", {})
    for grid in ("n_atoms", "rabi", "beta", "ell_ax", "ell_rad"):
        value = getattr(args, grid)
        if value is not None:
            doc["grids"][grid] = value
    if args.tol is not None:
        doc["tol"] = args.tol
    if args.t_final is not None:
        doc["settings"]["t_final"] = args.t_final
    if args.t_final_ns is not None:
        doc["settings"]["t_final"] = args.t_final_ns * 1e-3 * args.gamma_mhz
    if args.n_samples is not None:
        doc["settings"]["n_samples"] = args.n_samples
    if args.outputs:
        doc["outputs"] = [c.strip() for c in args.outputs.split(",") if c.strip()]
    if args.out is not None:
        doc["output_path"] = args.out
    return SweepSpec.from_dict(doc)


def _read_table(path: str) -> dict:
    """Read a ddmsim CSV (or any headed CSV); returns column arrays."""
    with open(path, newline="") as fh:
        lines = (ln for ln in fh if not ln.startswith("#"))
        rows = [row for row in csv.reader(lines) if any(map(str.strip, row))]
    if len(rows) < 2:
        raise ConfigError(f"{path}: no data rows")
    header = [c.strip() for c in rows[0]]
    cols = {name: [] for name in header}
    for row in rows[1:]:
        for name, cell in zip(header, row):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(np.nan)
    return {name: np.asarray(vals) for name, vals in cols.items()}


def _run_sweep_command(args, mode: str) -> int:
    spec = _spec_from_args(args, mode)
    result = run(spec, threads=args.threads)
    if spec.output_path:
        write_csv(result, spec.output_path)
    else:
        sys.stdout.write(format_csv(result))
    return 0


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
    table = _read_table(args.input)
    for t_col in ("t", "time", "times"):
        if t_col in table:
            break
    else:
        raise ConfigError(f"{args.input}: no time column (t)")
    if "n_e" not in table:
        raise ConfigError(f"{args.input}: no n_e column")
    trace = TimeTrace(times=table[t_col], values=table["n_e"])
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
    table = _read_table(args.input)
    if "n_atoms" not in table or "gamma_sr" not in table:
        raise ConfigError(f"{args.input}: need n_atoms and gamma_sr columns")
    alpha, prefactor, stderr = fit_power_law(table["n_atoms"], table["gamma_sr"])
    out = {"alpha": alpha, "prefactor": prefactor, "alpha_stderr": stderr}
    return _write_json(out, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _SUBCOMMAND_MODES:
            return _run_sweep_command(args, _SUBCOMMAND_MODES[args.command])
        if args.command == "fit-omega-eff":
            return _run_fit_omega_eff(args)
        if args.command == "fit-alpha":
            return _run_fit_alpha(args)
        raise ConfigError(f"unknown command {args.command!r}")
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
