"""Semi-classical limit of the driven collective spin.

For N >> 1 the expectation values factorize and the dynamics reduces to
two coupled equations for the collective dipole <S-> and the
magnetization <S_z>, conserving the spin length N/2. This module gives
their steady state, which has two branches separated by beta = 2*rabi/(N*gamma) = 1: a magnetized
branch with a phase-locked dipole -i*rabi/gamma, and a saturated branch
with <S_z> = 0. The screening equation for the effective drive x =
2*omega_eff/(N*gamma) turns this crossover into a sharp critical point
as N -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BELOW_THRESHOLD = "below_threshold"
ABOVE_THRESHOLD = "above_threshold"


@dataclass
class MeanFieldState:
    """Collective dipole and magnetization of the semi-classical spin.

    n_atoms is real-valued so the effective atom number of an extended
    cloud can be used directly.
    """

    dipole: complex
    sz: float
    n_atoms: float

    def __post_init__(self):
        if self.n_atoms <= 0:
            raise ValueError(f"n_atoms must be > 0, got {self.n_atoms}")


@dataclass
class ScreeningSolution:
    """Root of the self-consistent screening equation."""

    beta: float
    x: float
    branch: str

    def __post_init__(self):
        if not 0.0 <= self.x <= self.beta + 1e-12:
            raise ValueError(f"x = {self.x} outside [0, beta = {self.beta}]")


def mf_steady(beta: float, n_atoms: float) -> MeanFieldState:
    """Steady-state branches of the semi-classical equations.

    beta < 1: phase-locked dipole -i*beta*N/2 (= -i*rabi/gamma) with
    sz = -(N/2)sqrt(1 - beta^2), continuing from the ground state.
    beta >= 1: sz = 0 and dipole -i*N/(2*beta).
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    half_n = n_atoms / 2.0
    if beta < 1.0:
        return MeanFieldState(
            dipole=-1j * beta * half_n,
            sz=-half_n * np.sqrt(1.0 - beta**2),
            n_atoms=n_atoms,
        )
    return MeanFieldState(dipole=-1j * n_atoms / (2.0 * beta), sz=0.0, n_atoms=n_atoms)


def _screening_residual(u: float, beta: float, n_atoms: float) -> float:
    # u = N*x; residual of beta^2 = x^2 + (u^2/2)/(1 + u^2/2)
    half_u2 = 0.5 * u * u
    return (u / n_atoms) ** 2 + half_u2 / (1.0 + half_u2) - beta * beta


def solve_x(beta: float, n_atoms: float) -> ScreeningSolution:
    """Solve the screening equation for x = 2*omega_eff/(N*gamma).

    With w = x^2 the equation is the quadratic
    (N^2/2) w^2 + (1 + N^2 (1 - beta^2)/2) w - beta^2 = 0, whose
    non-negative root is unique. Divided by N^2 it reads
    w^2/2 + B w - beta^2/N^2 = 0 with B = 1/N^2 + (1 - beta^2)/2, and
    the root is taken in its cancellation-free form: for B >= 0 (below
    threshold, and up to beta^2 = 1 + 2/N^2) through u^2 = N^2 w = 2 beta^2/(B + sqrt(B^2 +
    2 beta^2/N^2)), for B < 0 as w = sqrt(B^2 + 2 beta^2/N^2) - B. No
    term grows like a power of N, so nothing overflows at large N.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not (math.isfinite(n_atoms) and n_atoms >= 1):
        raise ValueError(f"n_atoms must be finite and >= 1, got {n_atoms}")
    inv_n = 1.0 / n_atoms
    b = inv_n * inv_n + 0.5 * (1.0 - beta) * (1.0 + beta)
    root = math.hypot(b, math.sqrt(2.0) * beta * inv_n)
    if b >= 0.0:
        x = math.sqrt(2.0 * beta * beta / (b + root)) * inv_n
    else:
        x = math.sqrt(root - b)
    branch = BELOW_THRESHOLD if beta < 1.0 else ABOVE_THRESHOLD
    return ScreeningSolution(beta=beta, x=x, branch=branch)
