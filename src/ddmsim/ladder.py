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
from typing import TYPE_CHECKING

import numpy as np

from ddmsim.params import ModelParams

# scipy is imported inside the functions that call it, so that importing
# this module (and the CLI, and every subcommand that never solves or
# propagates a ladder state) loads numpy only.
if TYPE_CHECKING:
    import scipy.sparse as sparse


def __getattr__(name):
    # `ddmsim.ladder.solve_ivp` is unused here; bench/spans.py traces
    # scipy's integrator under this name until its span is retargeted
    # (ROADMAP item 1). Resolved on first access, so that importing this
    # module does not load scipy.integrate.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NonConvergenceError(RuntimeError):
    """Integrator failed; carries the last successfully reached time."""

    def __init__(self, message, last_time):
        super().__init__(message)
        self.last_time = last_time


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

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))


@dataclass
class ObservableSet:
    """Collective observables extracted from a ladder state.

    s_z is the normalized magnetization <S_z>/S in [-1, 1] (ground state
    -> -1), n_e the excited-state fraction, dipole the complex <S->,
    gamma_sr = <S+ S->, the collective emission rate in units of gamma,
    and g2_numerator the fourth-order moment <S+ S+ S- S->.
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
    n_samples: int = 2,
):
    """Propagate the master equation from state0 up to t_final.

    Returns (times, states) on the uniform grid of n_samples times from 0
    to t_final (the default 2 gives t = 0 and t_final). Sample k is
    exp(L t_k) vec(rho0), exact to round-off; no ODE integrator and no
    trace renormalization are involved. tol bounds the trace drift:
    a sample whose trace differs from tr rho0 by more than tol raises a
    RuntimeError.

    Resonant drive with a state0 that the gauge rho_{mm'} ->
    i^{m-m'} rho_{mm'} makes real and symmetric (the ground state, every
    resonant steady state) propagates on that real symmetric sector of
    the gauged L, (N+1)(N+2)/2 reals. Any other input (detuned drive, a
    state0 outside the sector) propagates vec(rho), the column-major
    stacking of rho, with the full complex L of `_superoperator`. Up to
    _DENSE_MAX_ROWS rows of the operator, one dense step propagator is
    formed and applied n_samples - 1 times (`_propagate_dense`); above
    it, scipy's `expm_multiply` takes the whole grid (`_propagate_sparse`).
    """
    if not 0 < t_final < np.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if n_samples < 2 or n_samples != int(n_samples):
        raise ValueError(f"n_samples must be whole and >= 2, got {n_samples}")
    n = state0.n_atoms
    if params.n_atoms != n:
        raise ValueError(
            f"state has N = {n} but params have N = {params.n_atoms}"
        )
    dim, n_samples = n + 1, int(n_samples)
    phase = _gauge(dim)
    gauged = state0.rho * phase
    sector = (params.detuning == 0.0 and not gauged.imag.any()
              and np.array_equal(gauged, gauged.T))
    if sector:
        rows, cols = np.triu_indices(dim)
        op = _sector_operator(_gauged_superoperator(params), dim)
        u0 = gauged.real[rows, cols]
    else:
        op, u0 = _superoperator(params), state0.rho.ravel(order="F")
    if op.shape[0] <= _DENSE_MAX_ROWS:
        u = _propagate_dense(op, u0, t_final, n_samples)
    else:
        u = _propagate_sparse(op, u0, t_final, n_samples)
    if sector:
        rho = np.empty((n_samples, dim, dim), dtype=complex)
        rho[:, rows, cols] = u * phase[rows, cols].conj()
        rho[:, cols, rows] = u * phase[cols, rows].conj()
    else:
        rho = u.reshape(n_samples, dim, dim).transpose(0, 2, 1)
    states = [DickeLadderState(n, r) for r in rho]
    tr0 = state0.trace()
    drift = max(abs(state.trace() - tr0) for state in states)
    if not drift <= tol:
        raise RuntimeError(f"trace drift {drift:.3e} exceeds tol = {tol:.1e}")
    return np.linspace(0.0, t_final, n_samples), states


# Largest operator that `evolve` exponentiates densely (N = 47 on the
# symmetric sector). On 2 cores the wall times of the two branches cross
# between N = 48 and 56 (1225 and 1653 rows); the dense products also
# take about twice their wall time in CPU there, on BLAS threads.
_DENSE_MAX_ROWS = 1200
# Taylor degree for ||A dt||_1 <= 1/2 after scaling: the truncated tail
# is below 2^-53 relative.
_TAYLOR_THETA, _TAYLOR_DEGREE = 0.5, 14


def _propagate_dense(op, u0, t_final, n_samples):
    """exp(op t_k) u0 on t_k = k t_final/(n_samples - 1), one row per t_k.

    P = exp(op dt) is formed once by scaling and squaring the Taylor
    polynomial (Horner form) in three dense buffers, then applied
    n_samples - 1 times.
    """
    dt = t_final / (n_samples - 1)
    norm = abs(op).sum(axis=0).max() * dt
    squarings = int(np.ceil(np.log2(max(norm / _TAYLOR_THETA, 1.0))))
    x = op.toarray()
    x *= dt / 2.0**squarings
    p, tmp = x / _TAYLOR_DEGREE, np.empty_like(x)
    p.flat[:: x.shape[0] + 1] += 1.0
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        np.matmul(x, p, out=tmp)
        tmp /= k
        tmp.flat[:: x.shape[0] + 1] += 1.0
        p, tmp = tmp, p
    for _ in range(squarings):
        np.matmul(p, p, out=tmp)
        p, tmp = tmp, p
    u = np.empty((n_samples, u0.size), dtype=np.result_type(p, u0))
    u[0] = u0
    for k in range(1, n_samples):
        np.matmul(p, u[k - 1], out=u[k])
    return u


def _propagate_sparse(op, u0, t_final, n_samples):
    """The samples of `_propagate_dense`, by scipy's expm_multiply on the
    sparse op (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011))."""
    from scipy.sparse.linalg import expm_multiply

    return expm_multiply(op, u0, start=0.0, stop=t_final,
                         num=n_samples, endpoint=True)


def _gauge(dim: int) -> np.ndarray:
    """Phases i^{m-m'} of the resonant gauge, a dim x dim matrix."""
    idx = np.arange(dim)
    return np.array([1, 1j, -1, -1j])[(idx[:, None] - idx[None, :]) % 4]


def _gauged_superoperator(params: ModelParams) -> sparse.csr_matrix:
    """`_superoperator` under rho_{mm'} -> i^{m-m'} rho_{mm'}.

    Every drive entry picks up a factor +-i and every other entry a
    factor 1, so at zero detuning the result is exactly real.
    """
    liou = _superoperator(params).tocoo()
    phase = _gauge(params.n_atoms + 1).ravel(order="F")
    liou.data *= phase[liou.row] * phase[liou.col].conj()
    return liou.tocsr()


def _sector_operator(gauged: sparse.csr_matrix, dim: int) -> sparse.csr_matrix:
    """The real part of a gauged L on real symmetric rho.

    A real, Hermiticity-preserving L maps real symmetric matrices to
    real symmetric matrices; the sector's coordinates are the upper
    triangle (np.triu_indices order) of rho.
    """
    import scipy.sparse as sparse

    rows, cols = np.triu_indices(dim)
    upper, lower = rows + cols * dim, cols + rows * dim
    k = np.arange(rows.size)
    off = rows != cols
    embed = sparse.csr_matrix(
        (np.ones(rows.size + np.count_nonzero(off)),
         (np.concatenate([upper, lower[off]]), np.concatenate([k, k[off]]))),
        shape=(dim * dim, rows.size),
    )
    return (gauged.real[upper] @ embed).tocsr()


def _superoperator(params: ModelParams) -> sparse.csr_matrix:
    """Sparse Liouvillian acting on vec(rho) (column-major stacking)."""
    import scipy.sparse as sparse

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


def _solve_with_trace_row(liou, dim):
    """Solve L v = 0 with the first row replaced by the trace condition."""
    from scipy.sparse.linalg import spsolve

    mat = liou.tolil(copy=True)
    mat[0, :] = 0.0
    for c in np.arange(dim) * (dim + 1):
        mat[0, c] = 1.0
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    return spsolve(mat.tocsc(), b)


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
    N = 2000 at beta = 0.01..100. Detuned drive has no such closed form:
    it solves the trace-constrained linear system for the null vector of
    the Liouvillian, one sparse LU of an (N+1)^2-dimensional system.
    Either way a Liouvillian residual max |L rho| above resid_tol (or a
    non-finite one) raises a RuntimeError; the returned state carries
    that residual in its `residual` field.
    """
    n = params.n_atoms
    if params.rabi == 0.0:
        # The undriven ground state is dark: L rho = 0 exactly.
        state = DickeLadderState.ground(n)
        state.residual = 0.0
        return state
    if params.detuning == 0.0:
        rho = _resonant_steady_rho(params)
    else:
        dim = n + 1
        v = _solve_with_trace_row(_superoperator(params), dim)
        rho = v.reshape(dim, dim, order="F")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.real(np.trace(rho))
    state = DickeLadderState(n, rho)
    state.residual = _residual(state, params)
    if not state.residual <= resid_tol:
        raise RuntimeError(
            f"steady-state residual {state.residual:.3e} exceeds {resid_tol:.1e}"
        )
    return state


def observables(state: DickeLadderState) -> ObservableSet:
    """Collective observables from the ladder density matrix.

    All four moments are diagonal or first-off-diagonal sums weighted by
    the ladder coefficients.
    """
    n = state.n_atoms
    s = n / 2.0
    a = _coupling_array(n)
    am1 = np.concatenate(([0.0], a[:-1]))
    am2 = np.concatenate(([0.0, 0.0], a[:-2]))
    pops = np.real(np.diag(state.rho))
    m = np.arange(n + 1) - s

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
