"""Brute-force full-Hilbert-space reference simulator.

Evolves the complete 2^N tensor-product density matrix under the same
collective drive and collective decay, with the spin operators built as
explicit Kronecker sums and no symmetry shortcuts. Used in tests to
verify the symmetric-ladder reduction; capped at N = 4 (dimension 16)
so correctness stays obvious.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from scipy.integrate import solve_ivp

from ddmsim.params import ModelParams
from ddmsim.ladder import DickeLadderState

MAX_ATOMS = 4


class NonConvergenceError(RuntimeError):
    """Integrator failed; carries the last successfully reached time."""

    def __init__(self, message, last_time):
        super().__init__(message)
        self.last_time = last_time


# Basis convention: qubit state 1 = excited, 0 = ground; basis vector
# index b has atom i excited iff bit i of b is set (atom 0 = least
# significant bit). sigma_minus maps |1> -> |0>.
_SM_1 = np.array([[0.0, 1.0], [0.0, 0.0]])
_SZ_1 = np.array([[-0.5, 0.0], [0.0, 0.5]])


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Single-site operator as a full 2^n tensor product."""
    out = np.array([[1.0]])
    for i in range(n):
        out = np.kron(op if i == site else np.eye(2), out)
    return out


@lru_cache(maxsize=8)
def _collective_ops(n: int):
    sm = sum(_embed(_SM_1, i, n) for i in range(n))
    sz = sum(_embed(_SZ_1, i, n) for i in range(n))
    return sm, sm.conj().T, sz


@dataclass
class FullState:
    """Density matrix on the full 2^N tensor-product space."""

    n_atoms: int
    rho_full: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_atoms <= MAX_ATOMS:
            raise ValueError(
                f"full-space simulator supports 1 <= N <= {MAX_ATOMS}, "
                f"got {self.n_atoms}"
            )
        dim = 2**self.n_atoms
        self.rho_full = np.asarray(self.rho_full, dtype=complex)
        if self.rho_full.shape != (dim, dim):
            raise ValueError(
                f"rho_full shape {self.rho_full.shape} incompatible with "
                f"N = {self.n_atoms}"
            )

    @classmethod
    def ground(cls, n_atoms: int) -> "FullState":
        dim = 2**n_atoms
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(n_atoms, rho)

    def check(self, tol: float = 1e-10):
        if abs(np.trace(self.rho_full).real - 1.0) > tol:
            raise ValueError("trace deviates from 1")
        if np.max(np.abs(self.rho_full - self.rho_full.conj().T)) > tol:
            raise ValueError("not Hermitian")
        if np.linalg.eigvalsh(0.5 * (self.rho_full + self.rho_full.conj().T))[0] < -tol:
            raise ValueError("not positive semidefinite")


def full_lindblad_rhs(state: FullState, params: ModelParams) -> np.ndarray:
    """drho/dt with collective drive and collective jump operator."""
    if params.n_atoms != state.n_atoms:
        raise ValueError(
            f"state has N = {state.n_atoms} but params have N = {params.n_atoms}"
        )
    sm, sp, sz = _collective_ops(state.n_atoms)
    rho = state.rho_full
    ham = 0.5 * params.rabi * (sp + sm) - 0.5 * params.detuning * sz
    spsm = sp @ sm
    out = -1j * (ham @ rho - rho @ ham)
    out += 0.5 * params.gamma * (
        2.0 * sm @ rho @ sp - spsm @ rho - rho @ spsm
    )
    return out


def full_evolve(
    state0: FullState,
    params: ModelParams,
    t_final: float,
    tol: float = 1e-10,
    n_samples: int | None = None,
):
    """Integrate the full-space master equation; returns (times, states)."""
    n = state0.n_atoms
    dim = 2**n

    def rhs_flat(_t, y):
        return full_lindblad_rhs(FullState(n, y.reshape(dim, dim)), params).ravel()

    t_eval = np.linspace(0.0, t_final, n_samples) if n_samples else None
    sol = solve_ivp(
        rhs_flat,
        (0.0, t_final),
        state0.rho_full.ravel().astype(complex),
        method="RK45",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=t_eval,
    )
    if not sol.success:
        raise NonConvergenceError(
            f"full-space integration failed at t = {sol.t[-1]:.6g}: {sol.message}",
            last_time=float(sol.t[-1]),
        )
    states = [FullState(n, sol.y[:, k].reshape(dim, dim)) for k in range(len(sol.t))]
    return sol.t, states


@lru_cache(maxsize=8)
def _symmetric_basis(n: int) -> np.ndarray:
    """Columns are the symmetric states with k = 0..N excitations,
    i.e. |S = N/2, m = k - N/2> in the tensor-product basis."""
    basis = np.zeros((2**n, n + 1))
    for b in range(2**n):
        k = bin(b).count("1")
        basis[b, k] = 1.0 / np.sqrt(comb(n, k))
    return basis


def project_to_ladder(state: FullState):
    """Project onto the maximal-spin ladder.

    Returns (DickeLadderState, leakage) where leakage is the population
    outside the symmetric sector. Collective operators never couple the
    sectors, so symmetric initial data keeps leakage at zero.
    """
    basis = _symmetric_basis(state.n_atoms)
    rho_ladder = basis.T @ state.rho_full @ basis
    leakage = 1.0 - float(np.real(np.trace(rho_ladder)))
    return DickeLadderState(state.n_atoms, rho_ladder), leakage
