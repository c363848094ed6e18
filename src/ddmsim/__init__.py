"""Driven Dicke model simulations.

Collective-spin Lindblad dynamics on the permutation-symmetric ladder,
the semi-classical (mean-field) limit with its screening equation, the
free-space cooperativity geometry, and fitting utilities for extracting
effective Rabi frequencies and power-law exponents.

All rates are in units of the single-atom decay rate (gamma = 1), all
times in units of 1/gamma, and all lengths in units of the transition
wavelength.

The package namespace holds only the version and the three names below;
everything else is imported from its submodule (ddmsim.ladder,
ddmsim.meanfield, ddmsim.geometry, ddmsim.analysis, ddmsim.sweep).
"""

from ddmsim.params import ModelParams
from ddmsim.ladder import g2_zero, observables

__version__ = "0.1.0"

__all__ = ["ModelParams", "g2_zero", "observables"]
