"""Model parameters for the driven collective spin."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the driven-dissipative collective spin.

    All rates are expressed in units of the single-atom decay rate
    ``gamma`` (kept as an explicit field but fixed to 1 by convention).
    ``n_atoms`` is the atom number N, or the effective atom number when
    modeling an extended cloud through its diffraction mode.
    ``detuning`` is read by the 2^N oracle (`ddmsim.oracle`) only; the
    ladder solvers take resonant drive and reject a non-zero value.
    """

    n_atoms: int
    rabi: float
    detuning: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if type(self.n_atoms) is not int:
            object.__setattr__(self, "n_atoms", _atom_number(self.n_atoms))
        for name in ("rabi", "detuning", "gamma"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")

    def require_resonant(self) -> None:
        """Raise ValueError unless the drive is resonant (detuning 0)."""
        if self.detuning != 0.0:
            raise ValueError("the ladder solvers take resonant drive only, "
                             f"got detuning = {self.detuning!r}")

    @property
    def beta(self) -> float:
        """Drive-to-collective-dissipation ratio 2*rabi/(N*gamma)."""
        return 2.0 * self.rabi / (self.n_atoms * self.gamma)


def _atom_number(value) -> int:
    """value as an int (a numpy integer's index arithmetic could wrap
    around); a ValueError unless it is an integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"n_atoms must be an integer, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """A real number (int, float or numpy scalar), not a bool: to Python
    a bool is an int, and True would pass as a drive of 1.0."""
    return type(value) is float or type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Real))
