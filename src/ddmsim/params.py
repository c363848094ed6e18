"""Model parameters for the driven collective spin."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the resonantly driven, collectively decaying spin.

    Every rate is in units of the single-atom decay rate gamma, and every
    time in units of 1/gamma: a decay rate gamma' only rescales time,
    L(rabi, gamma') = gamma' L(rabi/gamma', 1), so it is no parameter.
    ``n_atoms`` is the atom number N, or the effective atom number when
    modeling an extended cloud through its diffraction mode; ``rabi`` is
    the drive. A detuned drive is the 2^N oracle's alone
    (`ddmsim.oracle`).
    """

    n_atoms: int
    rabi: float

    def __post_init__(self):
        if type(self.n_atoms) is not int:
            object.__setattr__(self, "n_atoms", _atom_number(self.n_atoms))
        if not _is_real(self.rabi):
            raise ValueError(f"rabi must be a real number, got {self.rabi!r}")
        if not math.isfinite(self.rabi):
            raise ValueError(f"rabi must be finite, got {self.rabi!r}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")

    @property
    def beta(self) -> float:
        """Drive-to-collective-dissipation ratio 2*rabi/N."""
        return 2.0 * self.rabi / self.n_atoms


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
