"""Driven Dicke model simulations.

Collective-spin Lindblad dynamics on the permutation-symmetric ladder,
the semi-classical (mean-field) limit with its screening equation, the
free-space cooperativity geometry, and fitting utilities for extracting
effective Rabi frequencies and power-law exponents.

All rates are in units of the single-atom decay rate (gamma = 1), all
times in units of 1/gamma, and all lengths in units of the transition
wavelength.
"""

from ddmsim.params import ModelParams
from ddmsim.ladder import (
    DickeLadderState,
    ObservableSet,
    liouvillian_rhs,
    evolve,
    steady_state,
    observables,
    g2_zero,
)
from ddmsim.meanfield import (
    MeanFieldState,
    ScreeningSolution,
    mf_rhs,
    mf_steady,
    mf_evolve,
    omega_eff,
    critical_drive,
    solve_x,
)
from ddmsim.geometry import (
    CloudGeometry,
    dipole_pattern,
    structure_factor,
    coherent_power,
    cooperativity_mu,
)
from ddmsim.analysis import (
    TimeTrace,
    FitResult,
    obe_excited_population,
    fit_omega_eff,
    fit_power_law,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "DickeLadderState",
    "ObservableSet",
    "liouvillian_rhs",
    "evolve",
    "steady_state",
    "observables",
    "g2_zero",
    "MeanFieldState",
    "ScreeningSolution",
    "mf_rhs",
    "mf_steady",
    "mf_evolve",
    "omega_eff",
    "critical_drive",
    "solve_x",
    "CloudGeometry",
    "dipole_pattern",
    "structure_factor",
    "coherent_power",
    "cooperativity_mu",
    "TimeTrace",
    "FitResult",
    "obe_excited_population",
    "fit_omega_eff",
    "fit_power_law",
]
