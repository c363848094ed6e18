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
from dataclasses import dataclass, field

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
    """Root of the self-consistent screening equation.

    At one point beta and x are floats and branch a string; for arrays
    of points they are arrays of one shape, and `faults` maps the flat
    index of each point that has no root to the reason (`solve_x`).
    """

    beta: float | np.ndarray
    x: float | np.ndarray
    branch: str | np.ndarray
    faults: dict = field(default_factory=dict)


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


def _elementwise(fn, *args):
    """fn of the math module applied element by element.

    numpy's hypot and power round differently from math.hypot and from
    Python's float ** (the C library's pow) in the last bit, on about
    0.5% and 0.1% of random inputs; through this, an array of points
    gets the bits that each point gets on its own.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    flat = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
    out = np.fromiter(map(fn, *flat), float, math.prod(shape))
    return out.reshape(shape)[()]  # a numpy float for 0-d input


def _screening_residual(u, beta, n_atoms):
    # u = N*x; residual of beta^2 = x^2 + (u^2/2)/(1 + u^2/2). Floats or
    # arrays; (u/N)^2 is taken as Python's float ** takes it.
    half_u2 = 0.5 * u * u
    x_sq = _elementwise(math.pow, u / n_atoms, 2.0)
    return x_sq + half_u2 / (1.0 + half_u2) - beta * beta


# The faults of a screening point, in the order they are checked.
_SCREENING_FAULTS = (
    "beta must be finite and > 0, got {beta}",
    "n_atoms must be finite and >= 1, got {n_atoms}",
    "x = {x} outside [0, beta = {beta}]",
)


def solve_x(beta, n_atoms) -> ScreeningSolution:
    """Solve the screening equation for x = 2*omega_eff/(N*gamma).

    With w = x^2 the equation is the quadratic
    (N^2/2) w^2 + (1 + N^2 (1 - beta^2)/2) w - beta^2 = 0, whose
    non-negative root is unique. Divided by N^2 it reads
    w^2/2 + B w - beta^2/N^2 = 0 with B = 1/N^2 + (1 - beta^2)/2, and
    the root is taken in its cancellation-free form: for B >= 0 (below
    threshold, and up to beta^2 = 1 + 2/N^2) through u^2 = N^2 w = 2 beta^2/(B + sqrt(B^2 +
    2 beta^2/N^2)), for B < 0 as w = sqrt(B^2 + 2 beta^2/N^2) - B. No
    term grows like a power of N, so nothing overflows at large N.

    beta and n_atoms are floats, or arrays of one shape that are solved
    in one pass. A point has no root if beta is not finite and > 0, if
    n_atoms is not finite and >= 1, or if its root overflows out of
    [0, beta]: at one point that raises a ValueError; in an array the
    point gets x = nan and its reason in `faults`.
    """
    scalar = np.ndim(beta) == 0 and np.ndim(n_atoms) == 0
    beta, n = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                  np.asarray(n_atoms, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_n = 1.0 / n
        b = inv_n * inv_n + 0.5 * (1.0 - beta) * (1.0 + beta)
        root = _elementwise(math.hypot, b, math.sqrt(2.0) * beta * inv_n)
        x = np.where(b >= 0.0, np.sqrt(2.0 * beta * beta / (b + root)) * inv_n,
                     np.sqrt(root - b))
        fault = np.select(
            [~(np.isfinite(beta) & (beta > 0)), ~(np.isfinite(n) & (n >= 1)),
             ~((0.0 <= x) & (x <= beta + 1e-12))],
            [1, 2, 3], 0)
    faults = {
        int(k): _SCREENING_FAULTS[fault.flat[k] - 1].format(
            beta=float(beta.flat[k]), n_atoms=float(n.flat[k]), x=float(x.flat[k]))
        for k in np.flatnonzero(fault)
    }
    x[fault != 0] = np.nan
    branch = np.where(beta < 1.0, BELOW_THRESHOLD, ABOVE_THRESHOLD)
    if not scalar:
        return ScreeningSolution(beta=beta, x=x, branch=branch, faults=faults)
    if faults:
        raise ValueError(faults[0])
    return ScreeningSolution(beta=float(beta), x=float(x), branch=str(branch))
