"""Permutation-symmetric collective-spin dynamics.

The density matrix of N driven two-level atoms that couple identically to
the field stays inside the maximal-spin ladder |S = N/2, m>, m = -S..S.
This module evolves rho_{m,m'} under the driven-dissipative master
equation, computes exact steady states, and extracts the collective
observables (magnetization, dipole, emission rate, intensity
correlations).

Storage convention: rho is a dense (N+1) x (N+1) complex array, index
i = m + S running from 0 (all atoms in the ground state) to N (all
excited).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from ddmsim.params import ModelParams


class NonConvergenceError(RuntimeError):
    """Integrator failed; carries the last successfully reached time."""

    def __init__(self, message, last_time):
        super().__init__(message)
        self.last_time = last_time


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space has dimension > 1."""


class UndefinedCorrelationError(ValueError):
    """g2(0) requested for a state with vanishing emission rate."""


def _coupling_array(n_atoms: int) -> np.ndarray:
    """A[i] = A_{m = i - S} for i = 0..N; A[N] = A_S = 0."""
    s = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - s
    return np.sqrt(np.maximum(s * (s + 1) - m * (m + 1), 0.0))


@dataclass
class DickeLadderState:
    """Density matrix on the symmetric ladder of n_atoms spins."""

    n_atoms: int
    rho: np.ndarray = field(default=None)
    # max |L rho| under the parameters it was solved for; set by
    # steady_state, None for any other state.
    residual: float | None = None

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        dim = self.n_atoms + 1
        if self.rho is None:
            self.rho = np.zeros((dim, dim), dtype=complex)
        else:
            self.rho = np.asarray(self.rho, dtype=complex)
            if self.rho.shape != (dim, dim):
                raise ValueError(
                    f"rho shape {self.rho.shape} incompatible with N = {self.n_atoms}"
                )

    @classmethod
    def ground(cls, n_atoms: int) -> "DickeLadderState":
        """All atoms in |g>, i.e. the projector on |S, -S>."""
        state = cls(n_atoms)
        state.rho[0, 0] = 1.0
        return state

    @classmethod
    def uniform_diagonal(cls, n_atoms: int) -> "DickeLadderState":
        """Fully saturated ladder: rho_{m,m} = 1/(N+1)."""
        state = cls(n_atoms)
        np.fill_diagonal(state.rho, 1.0 / (n_atoms + 1))
        return state

    @property
    def spin(self) -> float:
        return self.n_atoms / 2.0

    def m_values(self) -> np.ndarray:
        return np.arange(self.n_atoms + 1) - self.spin

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.rho + self.rho.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def check(self, trace_tol=1e-10, herm_tol=1e-12, psd_tol=1e-8):
        """Raise if the state violates its physical invariants."""
        if abs(self.trace() - 1.0) > trace_tol:
            raise ValueError(f"trace deviates from 1 by {self.trace() - 1.0:.3e}")
        if self.hermiticity_defect() > herm_tol:
            raise ValueError(
                f"hermiticity defect {self.hermiticity_defect():.3e} > {herm_tol:.1e}"
            )
        if self.min_eigenvalue() < -psd_tol:
            raise ValueError(f"negative eigenvalue {self.min_eigenvalue():.3e}")


@dataclass
class ObservableSet:
    """Collective observables extracted from a ladder state.

    s_z is the normalized magnetization <S_z>/S in [-1, 1] (ground state
    -> -1), n_e the excited-state fraction, dipole the complex <S->,
    gamma_sr the collective emission rate gamma*<S+ S->, and
    g2_numerator the fourth-order moment <S+ S+ S- S->.
    """

    s_z: float
    n_e: float
    dipole: complex
    gamma_sr: float
    g2_numerator: float


def liouvillian_rhs(state: DickeLadderState, params: ModelParams) -> np.ndarray:
    """Time derivative of the ladder density matrix.

    The master equation of `_superoperator` as an O(N^2) stencil, with
    no (N+1)^2-dimensional operator: drive couples rho_{m,m'} to its
    four nearest neighbours through the ladder coefficients; collective
    decay feeds each element from rho_{m+1,m'+1} and drains it at rate
    (A_{m-1}^2 + A_{m'-1}^2)/2.
    """
    if params.n_atoms != state.n_atoms:
        raise ValueError(
            f"state has N = {state.n_atoms} but params have N = {params.n_atoms}"
        )
    rho = state.rho
    a = _coupling_array(state.n_atoms)
    am1 = np.concatenate(([0.0], a[:-1]))  # am1[i] = A_{m-1}

    drive = np.zeros_like(rho)
    drive[1:, :] += am1[1:, None] * rho[:-1, :]  # A_{m-1} rho_{m-1,m'}
    drive[:-1, :] += a[:-1, None] * rho[1:, :]  # A_m rho_{m+1,m'}
    drive[:, 1:] -= am1[None, 1:] * rho[:, :-1]  # A_{m'-1} rho_{m,m'-1}
    drive[:, :-1] -= a[None, :-1] * rho[:, 1:]  # A_{m'} rho_{m,m'+1}

    decay = -(am1[:, None] ** 2 + am1[None, :] ** 2) * rho
    decay[:-1, :-1] += 2.0 * (a[:-1, None] * a[None, :-1]) * rho[1:, 1:]

    out = -0.5j * params.rabi * drive + 0.5 * params.gamma * decay
    if params.detuning != 0.0:
        # Rotating-frame extension beyond the resonant ladder equations:
        # H contains -(detuning/2) S_z, contributing
        # +i(detuning/2)(m - m') rho_{m,m'}.
        idx = np.arange(rho.shape[0])
        out += 0.5j * params.detuning * (idx[:, None] - idx[None, :]) * rho
    return out


def evolve(
    state0: DickeLadderState,
    params: ModelParams,
    t_final: float,
    tol: float = 1e-8,
    n_samples: int | None = None,
):
    """Integrate the master equation from state0 up to t_final.

    Returns (times, states) with strictly increasing times ending at
    t_final. With n_samples the output is sampled on a uniform grid
    (including t = 0), otherwise at the solver's own steps. No trace
    renormalization is applied: trace drift is a diagnostic.

    Each right-hand side is one product with the sparse (CSR)
    Liouvillian L of `_superoperator`, built once per call, on vec(rho),
    the column-major (order="F") stacking of rho. L carries the
    detuning, so detuned drive takes the same path.
    """
    if t_final <= 0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    n = state0.n_atoms
    if params.n_atoms != n:
        raise ValueError(
            f"state has N = {n} but params have N = {params.n_atoms}"
        )
    liou = _superoperator(params)
    dim = n + 1

    def rhs_flat(_t, y):
        return liou @ y

    t_eval = None
    if n_samples is not None:
        t_eval = np.linspace(0.0, t_final, n_samples)
    sol = solve_ivp(
        rhs_flat,
        (0.0, t_final),
        state0.rho.ravel(order="F").astype(complex),
        method="RK45",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise NonConvergenceError(
            f"integration failed at t = {sol.t[-1]:.6g}: {sol.message}",
            last_time=float(sol.t[-1]),
        )
    times = sol.t
    states = [
        DickeLadderState(n, sol.y[:, k].reshape(dim, dim, order="F"))
        for k in range(len(times))
    ]
    return times, states


def _superoperator(params: ModelParams) -> sparse.csr_matrix:
    """Sparse Liouvillian acting on vec(rho) (column-major stacking)."""
    n = params.n_atoms
    a = _coupling_array(n)
    dim = n + 1
    sm = sparse.diags(a[:-1], 1, format="csr")  # <i-1|S-|i> = A[i-1]
    sp_op = sm.T.tocsr()
    m_diag = np.arange(dim) - n / 2.0
    ham = 0.5 * params.rabi * (sp_op + sm) - 0.5 * params.detuning * sparse.diags(m_diag)
    ident = sparse.identity(dim, format="csr")
    spsm = (sp_op @ sm).tocsr()
    liou = -1j * (sparse.kron(ident, ham) - sparse.kron(ham.T, ident))
    liou = liou + 0.5 * params.gamma * (
        2.0 * sparse.kron(sp_op.T, sm)
        - sparse.kron(ident, spsm)
        - sparse.kron(spsm.T, ident)
    )
    return liou.tocsr()


def _solve_with_trace_row(liou, dim, row):
    """Solve L v = 0 with the given row replaced by the trace condition."""
    d2 = dim * dim
    mat = liou.tolil(copy=True)
    trace_cols = np.arange(dim) * dim + np.arange(dim)
    mat[row, :] = 0.0
    for c in trace_cols:
        mat[row, c] = 1.0
    b = np.zeros(d2, dtype=complex)
    b[row] = 1.0
    return spla.spsolve(mat.tocsc(), b)


def _resonant_steady_rho(params: ModelParams) -> np.ndarray:
    """Closed-form resonant steady state rho ~ Y^+ Y, Y = (1 - S+/g)^-1.

    g = i*rabi/gamma (Puri & Lawande, Phys. Lett. A 72, 200 (1979);
    Carmichael, J. Phys. B 13, 3551 (1980)). With c_i = prod_{k<i} A_k / g^i,
    Y[i, j] = c_i / c_j for i >= j, so the populations obey
    d_l = 1 + (A_l/|g|)^2 d_{l+1} from d_N = 1, and each coherence above
    the diagonal follows from the one below it,
    rho[j, l] = conj(A_j/g) rho[j+1, l]. Built in O(N^2) with no inverse
    or matrix product; the populations are rescaled as they grow, so
    nothing overflows at weak drive and large N.
    """
    n = params.n_atoms
    a = _coupling_array(n)[:-1]
    g = 1j * params.rabi / params.gamma
    ratio = (a / abs(g)) ** 2
    pops = np.empty(n + 1)
    pops[n] = one = 1.0
    for l in range(n - 1, -1, -1):
        pops[l] = one + ratio[l] * pops[l + 1]
        if pops[l] > 1e150:
            # Rescale the tail and the constant term together.
            scale = pops[l]
            pops[l:] /= scale
            one /= scale
    pops /= pops.sum()

    rho = np.diag(pops.astype(complex))
    step = np.conj(a / g)
    for j in range(n - 1, -1, -1):
        rho[j, j + 1:] = step[j] * rho[j + 1, j + 1:]
    return rho + np.triu(rho, 1).conj().T


def _residual(state: DickeLadderState, params: ModelParams) -> float:
    """max |L rho|: how far the state is from stationary."""
    return float(np.max(np.abs(liouvillian_rhs(state, params))))


def steady_state(params: ModelParams, resid_tol: float = 1e-10) -> DickeLadderState:
    """Exact steady state of the master equation.

    Resonant drive (detuning == 0) takes the closed form of
    `_resonant_steady_rho`, O(N^2) in time and memory, tested up to
    N = 2000 at beta = 0.01..100; a Liouvillian residual above resid_tol
    (or a non-finite one) raises a RuntimeError. Detuned drive has no
    such closed form: it solves the
    trace-constrained linear system for the null vector of the
    Liouvillian, a sparse LU of an (N+1)^2-dimensional system, tested up
    to N = 100. Solving with two different trace-row placements detects
    a degenerate (dimension > 1) null space, which would make the steady
    state ambiguous. The returned state carries the residual max |L rho|
    of that check in its `residual` field.
    """
    n = params.n_atoms
    dim = n + 1
    if params.rabi == 0.0:
        # The undriven ground state is dark: L rho = 0 exactly.
        state = DickeLadderState.ground(n)
        state.residual = 0.0
        return state
    if params.detuning == 0.0:
        state = DickeLadderState(n, _resonant_steady_rho(params))
        state.residual = _residual(state, params)
        if not state.residual <= resid_tol:
            raise RuntimeError(
                f"closed-form steady-state residual {state.residual:.3e} "
                f"exceeds {resid_tol:.1e}"
            )
        return state

    liou = _superoperator(params)
    v0 = _solve_with_trace_row(liou, dim, row=0)
    v1 = _solve_with_trace_row(liou, dim, row=dim * dim - 1)
    if np.max(np.abs(v0 - v1)) > 1e-8:
        raise DegenerateSteadyStateError(
            "steady state depends on the trace-row placement: "
            "the Liouvillian null space has dimension > 1"
        )

    rho = v0.reshape(dim, dim, order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))
    state = DickeLadderState(n, rho)

    resid = _residual(state, params)
    if resid > resid_tol:
        # Ill-conditioned solve; fall back to long-time integration.
        t_relax = 50.0 / (params.beta * params.gamma * n) + 20.0 / params.gamma
        _, states = evolve(
            DickeLadderState.ground(n), params, t_relax, tol=1e-12
        )
        state = states[-1]
        rho = 0.5 * (state.rho + state.rho.conj().T)
        rho /= np.real(np.trace(rho))
        state = DickeLadderState(n, rho)
        resid = _residual(state, params)
        if resid > resid_tol:
            raise NonConvergenceError(
                f"steady-state residual {resid:.3e} exceeds {resid_tol:.1e}",
                last_time=t_relax,
            )
    state.residual = resid
    return state


def observables(state: DickeLadderState) -> ObservableSet:
    """Collective observables from the ladder density matrix.

    All four moments are diagonal or first-off-diagonal sums weighted by
    the ladder coefficients.
    """
    n = state.n_atoms
    s = state.spin
    a = _coupling_array(n)
    am1 = np.concatenate(([0.0], a[:-1]))
    am2 = np.concatenate(([0.0, 0.0], a[:-2]))
    pops = np.real(np.diag(state.rho))
    m = state.m_values()

    s_z = float(np.sum(m * pops) / s)
    n_e = 0.5 * (s_z + 1.0)
    # <S-> = sum_m A_{m-1} rho_{m,m-1}
    dipole = complex(np.sum(am1[1:] * np.diag(state.rho, -1)))
    spsm = float(np.sum(am1**2 * pops))
    g2_num = float(np.sum(am1**2 * am2**2 * pops))
    return ObservableSet(
        s_z=s_z,
        n_e=n_e,
        dipole=dipole,
        gamma_sr=spsm,  # gamma = 1: rate in units of gamma
        g2_numerator=g2_num,
    )


def g2_zero(state: DickeLadderState) -> float:
    """Equal-time intensity correlation <S+S+S-S-> / <S+S->^2."""
    obs = observables(state)
    if obs.gamma_sr < 1e-14:
        raise UndefinedCorrelationError(
            f"<S+S-> = {obs.gamma_sr:.3e} too small to define g2(0)"
        )
    return obs.g2_numerator / obs.gamma_sr**2
