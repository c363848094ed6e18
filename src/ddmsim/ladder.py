"""Permutation-symmetric collective-spin dynamics.

The density matrix of N driven two-level atoms that couple identically to
the field stays inside the maximal-spin ladder |S = N/2, m>, m = -S..S.
This module evolves rho_{m,m'} under the master equation of resonant
drive and collective decay, in units of the single-atom decay rate,
computes exact steady states, and extracts the collective observables
(magnetization, dipole, emission rate, intensity correlations). A
detuned drive is the 2^N oracle's alone (`ddmsim.oracle`).

Storage convention: rho is a dense (N+1) x (N+1) complex array, index
i = m + S running from 0 (all atoms in the ground state) to N (all
excited).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from ddmsim.params import ModelParams, _atom_number

# scipy is imported inside the functions that call it, so that importing
# this module (and the CLI, and every subcommand that never propagates a
# ladder state beyond N = 47) loads numpy only.


def __getattr__(name):
    # `ddmsim.ladder.solve_ivp` is unused here; bench/spans.py traces
    # scipy's integrator under this name until its span is retargeted
    # (ROADMAP item 1). Resolved on first access, so that importing this
    # module does not load scipy.integrate.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UndefinedCorrelationError(ValueError):
    """g2(0) requested for a state with vanishing emission rate."""


# i^k at k mod 4.
_PHASES = np.array([1, 1j, -1, -1j])


class _Ladder(NamedTuple):
    """The read-only O(N) tables of one ladder size (`_ladder`).

    a[i] = A_{m = i - S} for i = 0..N, with a[N] = A_S = 0.
    drain[i] = -A_{m-1}^2/2, the decay out of level m, with +0.0 first.
    The rows of weights, m, A_{m-1}^2 and
    A_{m-1}^2 A_{m-2}^2, weigh the populations in <S_z>, <S+S-> and
    <S+S+S-S->. gauge and gauge_inverse are the (N+1) x (N+1) phase
    views of `_gauge`.
    """

    a: np.ndarray
    drain: np.ndarray
    weights: np.ndarray
    gauge: np.ndarray
    gauge_inverse: np.ndarray


@lru_cache(maxsize=256)
def _ladder(n_atoms: int) -> _Ladder:
    """The tables of the ladder of n_atoms spins, cached per N: every
    steady state, stencil and observable set at that N reads the same
    arrays instead of rebuilding them. Nothing (N+1)^2-sized is held;
    the phase views rest on 2N + 1 phases each."""
    s = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - s
    a = np.sqrt(np.maximum(s * (s + 1) - m * (m + 1), 0.0))
    # am2[i] = A_{m-2}, am1[i] = A_{m-1}: slices of one padded array.
    padded = np.concatenate(([0.0, 0.0], a[:-1]))
    am2, am1 = padded[:-1], padded[1:]
    am1_sq = am1**2
    drain = -0.5 * am1_sq
    drain[0] = 0.0
    weights = np.stack((m, am1_sq, am1_sq * am2**2))
    for array in (a, drain, weights):
        array.flags.writeable = False
    return _Ladder(a, drain, weights,
                   _phase_view(n_atoms + 1, inverse=False),
                   _phase_view(n_atoms + 1, inverse=True))


def _phase_view(dim: int, inverse: bool) -> np.ndarray:
    """The dim x dim Toeplitz matrix of phases i^{m-m'} (their conjugates
    if inverse), phase[j, l] = w[dim - 1 - j + l]: a read-only view of
    the 2 dim - 1 phases w with a negative row stride."""
    phases = _PHASES[(dim - 1 - np.arange(2 * dim - 1)) % 4]
    if inverse:
        phases = phases.conj()
    phases.flags.writeable = False
    step = phases.itemsize
    return np.ndarray((dim, dim), phases.dtype, phases, offset=(dim - 1) * step,
                      strides=(-step, step))


@dataclass
class DickeLadderState:
    """Density matrix on the symmetric ladder of n_atoms spins."""

    n_atoms: int
    rho: np.ndarray = field(default=None)
    # max |L rho| under the parameters it was solved for; set by
    # steady_state, None for any other state.
    residual: float | None = None

    def __post_init__(self):
        self.n_atoms = _atom_number(self.n_atoms)
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


@dataclass(eq=False)
class LadderTrajectory(Sequence):
    """The samples of one `evolve` call, held as one stack.

    rho[k] is the density matrix at the k-th sample time and traces[k]
    its trace. Indexing gives a sample as a DickeLadderState that views
    rho[k]; `observables` takes the whole stack in one call.
    """

    n_atoms: int
    rho: np.ndarray  # (n_samples, N + 1, N + 1)
    traces: np.ndarray  # (n_samples,)

    def __len__(self) -> int:
        return len(self.rho)

    def __getitem__(self, index: int) -> DickeLadderState:
        return DickeLadderState(self.n_atoms, self.rho[index])


@dataclass
class ObservableSet:
    """Collective observables extracted from a ladder state.

    s_z is the normalized magnetization <S_z>/S in [-1, 1] (ground state
    -> -1), n_e the excited-state fraction, dipole the complex <S->,
    gamma_sr = <S+ S->, the collective emission rate in units of gamma,
    and g2_numerator the fourth-order moment <S+ S+ S- S->. Of a
    `LadderTrajectory`, each field is an array over its samples.
    """

    s_z: float
    n_e: float
    dipole: complex
    gamma_sr: float
    g2_numerator: float


def liouvillian_rhs(state: DickeLadderState, params: ModelParams) -> np.ndarray:
    """Time derivative of the ladder density matrix, any complex rho.

    An O(N^2) stencil, with no (N+1)^2-dimensional operator, applied in
    the gauge rho_{mm'} -> i^{m-m'} rho_{mm'}, where its coefficients are
    real (`_gauged_rhs`): gauge, stencil, un-gauge.
    """
    _require_ladder(state, params)
    dim = state.n_atoms + 1
    out = _gauged_rhs(state.rho * _gauge(dim), params)
    out *= _gauge(dim, inverse=True)
    return out


def _require_ladder(state: DickeLadderState, params: ModelParams) -> None:
    """Raise ValueError unless params are of the state's N."""
    if params.n_atoms != state.n_atoms:
        raise ValueError(
            f"state has N = {state.n_atoms} but params have N = {params.n_atoms}"
        )


def _rates(params, tables=None):
    """The ladder coefficients of the master equation, at i = m + S:
    drive[i] = (rabi/2) A_m, the drive between m and m + 1 (drive[N] = 0),
    and drain[i] = -A_{m-1}^2/2, the decay out of level m (`_Ladder`).

    tables defaults to the `_ladder` of params. A `_Chunk` passes itself
    as both: its rabi is given slot by slot.
    """
    if tables is None:
        tables = _ladder(params.n_atoms)
    return 0.5 * params.rabi * tables.a, tables.drain


def _gauged_rhs(x: np.ndarray, params: ModelParams, symmetric: bool = False) -> np.ndarray:
    """The resonant master equation on a gauged x_{m,m'} = i^{m-m'} rho_{m,m'}.

    Every coefficient is real. Drive couples x_{m,m'} to its four
    nearest neighbours, (rabi/2)(A_{m-1} x_{m-1,m'} - A_m x_{m+1,m'}
    + A_{m'-1} x_{m,m'-1} - A_{m'} x_{m,m'+1}); collective decay feeds
    each element from x_{m+1,m'+1} at rate A_m A_{m'} and drains it at
    (A_{m-1}^2 + A_{m'-1}^2)/2. x may be real or complex.

    The stencil is a row half and its mirror: L x = H(x) + H(x^T)^T,
    where H holds the terms along m and half of the feed. For a
    symmetric x (symmetric=True; every resonant steady state is one in
    the gauge) the mirror is H(x)^T, so H is applied once. Every product
    goes through one scratch array, which then takes the sum.
    """
    a = _ladder(params.n_atoms).a[:-1]  # A_m, m = -S..S-1
    drive, drain = _rates(params)
    drive, drain = drive[:-1, None], drain[:, None]
    half_a = (0.5 * a)[:, None]

    def row_half(y, tmp):
        h = drain * y
        feed = tmp[:-1, :-1]
        np.multiply(y[1:, 1:], a, out=feed)
        feed *= half_a
        h[:-1, :-1] += feed
        h[1:] += np.multiply(drive, y[:-1], out=tmp[1:])
        h[:-1] -= np.multiply(drive, y[1:], out=tmp[:-1])
        return h

    tmp = np.empty(x.shape, np.result_type(x, a))
    half = row_half(x, tmp)
    mirror = half if symmetric else row_half(x.T, tmp)
    return np.add(half, mirror.T, out=tmp)


def evolve(
    state0: DickeLadderState,
    params: ModelParams,
    t_final: float,
    tol: float = 1e-8,
    n_samples: int = 2,
):
    """Propagate the master equation from state0 up to t_final.

    Returns (times, states) on the uniform grid of n_samples times from 0
    to t_final (the default 2 gives t = 0 and t_final); states is a
    `LadderTrajectory`, a sequence of DickeLadderState. Sample k is
    exp(L t_k) vec(rho0), exact to round-off; no ODE integrator and no
    trace renormalization are involved. tol bounds the trace drift:
    a sample whose trace differs from tr rho0 by more than tol raises a
    RuntimeError.

    state0 must be real and symmetric under the gauge rho_{mm'} ->
    i^{m-m'} rho_{mm'} (the ground state and every resonant steady state
    are), or a ValueError is raised: L keeps that sector, and it
    propagates there as (N+1)(N+2)/2 reals with the real operator of
    `_sector_operator`. Up to _DENSE_MAX_ROWS rows that operator is a
    dense array, whose step propagator is formed once and applied
    n_samples - 1 times (`_propagate_dense`); above it, scipy's
    `expm_multiply` takes the sparse operator over the whole grid
    (`_propagate_sparse`).
    """
    _require_ladder(state0, params)
    if not 0 < t_final < np.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not 2 <= n_samples < np.inf or n_samples != int(n_samples):
        raise ValueError(f"n_samples must be whole and >= 2, got {n_samples}")
    n = state0.n_atoms
    dim, n_samples = n + 1, int(n_samples)
    phase = _gauge(dim)
    gauged = state0.rho * phase
    if gauged.imag.any() or not np.array_equal(gauged, gauged.T):
        raise ValueError("state0 must be real and symmetric under the gauge "
                         "rho_{mm'} -> i^{m-m'} rho_{mm'}")
    rows, cols = np.triu_indices(dim)
    op = _sector_operator(params)
    propagate = _propagate_dense if isinstance(op, np.ndarray) else _propagate_sparse
    u = propagate(op, gauged.real[rows, cols], t_final, n_samples)
    rho = np.empty((n_samples, dim, dim), dtype=complex)
    rho[:, rows, cols] = u * phase[rows, cols].conj()
    rho[:, cols, rows] = u * phase[cols, rows].conj()
    trajectory = LadderTrajectory(n, rho, np.trace(rho, axis1=1, axis2=2).real)
    drift = np.abs(trajectory.traces - state0.trace()).max()
    if not drift <= tol:
        raise RuntimeError(f"trace drift {drift:.3e} exceeds tol = {tol:.1e}")
    return np.linspace(0.0, t_final, n_samples), trajectory


# Largest sector operator built as a dense array, which `evolve` then
# exponentiates densely (N = 47). On one BLAS thread (2-core host; t = 8,
# 161 samples, beta 1.5) a trace takes 0.88-0.96 s dense and 1.0 s sparse
# at N = 47, and the two branches cross between N = 50 and 53 (1326 and
# 1485 rows). Dense wins N = 48-49 by about 0.15 s a trace, too little to
# move the switch and the outputs of those traces with it.
_DENSE_MAX_ROWS = 1200


def _sector_operator(params: ModelParams):
    """The gauged L on the real symmetric sector, from the ladder
    coefficients.

    A coordinate is an upper-triangle element x_{j,l}, j <= l, in
    np.triu_indices order. With the coefficients of `_rates`,
    (L x)_{j,l} takes x_{j,l} itself, x_{j+1,l+1} (decay feed) and the
    drive neighbours x_{j-1,l}, x_{j+1,l}, x_{j,l-1}, x_{j,l+1}; a
    neighbour below the diagonal is its mirror above it, which on the
    diagonal adds two equal terms. The (row, col, value) triplets are
    summed into a dense array up to _DENSE_MAX_ROWS rows and into a
    scipy sparse array above that.
    """
    n = params.n_atoms
    a = _ladder(n).a  # a[N] = A_S = 0
    drive, drain = _rates(params)
    j, l = np.triu_indices(n + 1)
    size = j.size
    coord = np.empty((n + 1, n + 1), dtype=np.intp)
    coord[j, l] = coord[l, j] = np.arange(size)
    # Row t of coeff: the coefficient of x_{j+dj[t], l+dl[t]} in
    # (L x)_{j,l}. A neighbour off the ladder has coefficient 0 (drive[-1]
    # wraps to A_S = 0), so it drops out with the other zeros before its
    # index is looked up.
    dj = np.array([0, 1, -1, 1, 0, 0])
    dl = np.array([0, 1, 0, 0, -1, 1])
    coeff = np.array([
        drain[j] + drain[l],  # decay drain
        a[l] * a[j],  # decay feed
        drive[j - 1], -drive[j], drive[l - 1], -drive[l],
    ])
    term, rows = np.nonzero(coeff)
    cols = coord[j[rows] + dj[term], l[rows] + dl[term]]
    vals = coeff[term, rows]
    if size <= _DENSE_MAX_ROWS:
        return np.bincount(rows * size + cols, weights=vals,
                           minlength=size * size).reshape(size, size)
    import scipy.sparse as sparse

    return sparse.csr_array((vals, (rows, cols)), shape=(size, size))


# Taylor degree for ||A dt||_1 <= 1/2 after scaling: the truncated tail
# is below 2^-53 relative.
_TAYLOR_THETA, _TAYLOR_DEGREE = 0.5, 14
# 1/k! for k = 0.._TAYLOR_DEGREE.
_TAYLOR_COEFFS = [1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1)]


def _taylor_polynomial(x: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{14} x^k/k! for a square x, by Paterson & Stockmeyer
    (SIAM J. Comput. 2, 60 (1973)) in y = x^2, formed once: the
    polynomial is B_0 + y (B_1 + ... y (B_5 + y B_6)), where
    B_i = 1/(2i)! + x/(2i + 1)! and B_6 = 1/12! + x/13! + y/14!. Seven
    matrix products instead of Horner's 13, in as many dense buffers as
    Horner's form: x and three more. (Horner in x^3 or x^4 takes six
    products, but holds one or two more buffers at once.)"""
    c = _TAYLOR_COEFFS
    diag = slice(None, None, x.shape[0] + 1)
    x2 = x @ x
    p, tmp = np.multiply(x, c[13]), np.multiply(x2, c[14])
    p += tmp
    p.flat[diag] += c[12]
    for i in (10, 8, 6, 4, 2, 0):
        np.matmul(x2, p, out=tmp)
        tmp += np.multiply(x, c[i + 1], out=p)
        tmp.flat[diag] += c[i]
        p, tmp = tmp, p
    return p


def _propagate_dense(op, u0, t_final, n_samples):
    """exp(op t_k) u0 on t_k = k t_final/(n_samples - 1), one row per t_k.

    P = exp(op dt) is formed once by scaling and squaring the degree-14
    Taylor polynomial (`_taylor_polynomial`), then applied n_samples - 1
    times: 7 matrix products for the polynomial and one per squaring.
    op is scaled in place to op dt/2^s, which saves the polynomial a
    buffer; `evolve` hands over the operator it built for the call.
    """
    dt = t_final / (n_samples - 1)
    norm = abs(op).sum(axis=0).max() * dt
    squarings = int(np.ceil(np.log2(max(norm / _TAYLOR_THETA, 1.0))))
    op *= dt / 2.0**squarings
    p = _taylor_polynomial(op)
    tmp = np.empty_like(p)
    u = np.empty((n_samples, u0.size), dtype=np.result_type(p, u0))
    u[0] = u0
    # A drive too strong for the float range overflows here, silently:
    # `evolve` reports the non-finite trace it leaves. A non-finite
    # diagonal stays so under squaring, so the squarings stop there.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            np.matmul(p, p, out=tmp)
            p, tmp = tmp, p
            if not np.isfinite(np.trace(p)):
                break
        for k in range(1, n_samples):
            np.matmul(p, u[k - 1], out=u[k])
    return u


def _propagate_sparse(op, u0, t_final, n_samples):
    """The samples of `_propagate_dense`, by scipy's expm_multiply on a
    sparse op (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    Its norm estimate draws from numpy's global RNG, which is seeded for
    the call and then restored, so every run takes the same steps."""
    from scipy.sparse.linalg import expm_multiply

    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(op, u0, start=0.0, stop=t_final,
                             num=n_samples, endpoint=True)
    finally:
        np.random.set_state(rng_state)


def _gauge(dim: int, inverse: bool = False) -> np.ndarray:
    """Phases i^{m-m'} of the resonant gauge, a dim x dim matrix.

    inverse=True gives their conjugates i^{m'-m}, which undo the gauge.
    The matrix is a read-only view of 2 dim - 1 phases (`_phase_view`),
    cached with the other tables of its N: no dim x dim array is built.
    """
    tables = _ladder(dim - 1)
    return tables.gauge_inverse if inverse else tables.gauge


class _Chunk(NamedTuple):
    """Steady points laid end to end in flat arrays (`_chunk`).

    Point k takes the N_k + 1 consecutive slots first[k]..last[k], one
    per level l = 0..N_k. Points of equal N that follow each other form a
    run, and runs lists (N + 1, points) for each. a, drain and weights
    hold each point's `_Ladder` tables in its slots, so A_N = 0 in every
    last slot. rabi is each point's, slot by slot.
    """

    runs: list
    sizes: np.ndarray
    first: np.ndarray
    last: np.ndarray
    a: np.ndarray
    drain: np.ndarray
    weights: np.ndarray
    rabi: np.ndarray


def _chunk(group: Sequence[ModelParams]) -> _Chunk:
    """The flat layout of group, in its order, from the cached tables."""
    sizes = [p.n_atoms + 1 for p in group]
    runs = [(size, len(list(points))) for size, points in groupby(sizes)]
    tables = [t for size, count in runs for t in [_ladder(size - 1)] * count]
    flat = [np.concatenate([getattr(t, name) for t in tables], -1)
            for name in ("a", "drain", "weights")]
    sizes = np.array(sizes)
    last = np.cumsum(sizes) - 1
    rabi = np.repeat([p.rabi for p in group], sizes)
    return _Chunk(runs, sizes, last - (sizes - 1), last, *flat, rabi)


def _next(x: np.ndarray, chunk: _Chunk) -> np.ndarray:
    """x_{l+1} in slot l, and an exact 0 in each point's last slot, so
    that no value (a nan included) reaches the point before it."""
    shifted = np.empty_like(x)
    shifted[:-1] = x[1:]
    shifted[chunk.last] = 0.0
    return shifted


def _point_sums(x: np.ndarray, chunk: _Chunk, end: int | None = None) -> np.ndarray:
    """sum_l x[..., l] over the slots of each point (its first N only, if
    end = -1). Each run is summed by np.add.reduce over its (points, N + 1)
    view, so every sum rounds as it would in a batch of its N alone."""
    sums, start = [], 0
    for size, count in chunk.runs:
        stop = start + size * count
        rows = x[..., start:stop].reshape(*x.shape[:-1], count, size)
        sums.append(np.add.reduce(rows[..., :end], -1))
        start = stop
    return np.concatenate(sums, -1)


def _steady_populations(chunk: _Chunk, r) -> np.ndarray:
    """The populations p of `_resonant_steady_rho` in the slots of chunk,
    the drive r being given slot by slot (or once for all): p_l ~ d_l =
    1 + (A_l/r)^2 d_{l+1} from d_N = 1, point by point in Python floats,
    and each point normalised by `_point_sums`.

    Whenever the last d passes 1e150, the constant term and the entries
    of d from the first one that is not yet 0 are divided by it, so
    nothing overflows at weak drive and large N. Older entries underflow
    to 0 within a few such steps and are never divided again, which keeps
    a point O(N) at any drive; dividing them too would give the same
    bits. A ratio (A_l/r)^2 beyond the float range is inf, and the
    rescale's inf/inf nan, both silently: the point ends as nan, which
    the caller's residual check reports.
    """
    d, stop = array("d"), 0
    append = d.append
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (chunk.a / r) ** 2
        # Every point's slots from l = N down, read as Python floats; d
        # is kept as C doubles, all points in one array, each from d_N.
        flipped = memoryview(ratios[::-1].copy())
        for size in chunk.sizes[::-1].tolist():
            start, stop = stop + 1, stop + size  # from l = N - 1
            live, one, last = len(d), 1.0, 1.0
            append(last)
            for q in flipped[start:stop]:
                last = one + q * last
                append(last)
                if last > 1e150:
                    tail = np.frombuffer(d, offset=live * d.itemsize)
                    tail /= last
                    del tail  # d cannot grow while a numpy array views it
                    one /= last
                    last = d[-1]
                    while d[live] == 0.0:
                        live += 1
    pops = np.frombuffer(d)[::-1].copy()
    pops /= np.repeat(_point_sums(pops, chunk), chunk.sizes)
    return pops


def _closed_form(chunk: _Chunk) -> tuple[np.ndarray, np.ndarray]:
    """(pops, steps) of the closed form in the slots of chunk: the
    populations p (`_steady_populations`) and A_l/r, with 0 in each
    last slot, from which R[l, l'] = p_l' prod_{k=l}^{l'-1} A_k/r
    above the diagonal (`_resonant_steady_rho`).

    The undriven ground state is dark: p = (1, 0, ...), and 1/r = 0
    clears R off the diagonal. A subnormal r makes 1/r inf, a faulted
    point, and A_N/r nan, which the exact 0 of each last slot replaces.
    A_l/r is taken as A_l * (1/r), which is how numpy rounds the
    complex A_l/g, so the un-gauged R has the values of the complex
    closed form to the bit.
    """
    dark = chunk.rabi == 0.0
    r = np.where(dark, np.inf, chunk.rabi)
    pops = _steady_populations(chunk, r)
    pops[dark] = 0.0
    pops[chunk.first[dark[chunk.first]]] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        steps = chunk.a * (1.0 / r)
    steps[chunk.last] = 0.0
    return pops, steps


def _resonant_steady_rho(params: ModelParams) -> np.ndarray:
    """Closed-form resonant steady state rho ~ Y^+ Y, Y = (1 - S+/g)^-1,
    in the gauge: the real symmetric R_{m,m'} = i^{m-m'} rho_{m,m'}.

    g = i*rabi (Puri & Lawande, Phys. Lett. A 72, 200 (1979);
    Carmichael, J. Phys. B 13, 3551 (1980)). With r = rabi and the
    populations p and steps A_l/r of `_closed_form`, the gauged state is
    real, positive and semiseparable: above the diagonal
    R[j, l] = p_l prod_{k=j}^{l-1} A_k/r, the product taken from
    k = l - 1 down. It is one reverse cumulative product down the
    columns of ones below the diagonal, p_l on it and A_j/r above it,
    then mirrored.
    """
    pops, steps = _closed_form(_chunk([params]))
    dim = params.n_atoms + 1
    below = np.tri(dim, k=-1, dtype=bool)
    gauged = np.where(below, 1.0, steps[:, None])
    gauged.flat[::dim + 1] = pops
    np.multiply.accumulate(gauged[::-1], 0, out=gauged[::-1])
    np.copyto(gauged, gauged.T, where=below)
    return gauged


# A steady residual, or an O(N) row's |sum p - 1|, above this fails.
_RESID_TOL = 1e-10


def steady_state(params: ModelParams) -> DickeLadderState:
    """Exact steady state of the master equation.

    The closed form of `_resonant_steady_rho`, built and checked in the
    real gauge: its residual is `_gauged_rhs` of the real R, the stencil
    that `liouvillian_rhs` applies. O(N^2) in time and memory, tested up
    to N = 2000 at beta = 0.01..100. A Liouvillian residual max |L rho|
    above _RESID_TOL (or a non-finite one) raises a RuntimeError; the
    returned state carries that residual in its `residual` field. The
    undriven state (rabi = 0) is the dark ground state, residual 0.

    At most three (N+1)^2 float arrays are held at once (R and the
    stencil's two, then R and the complex rho), and the returned state
    holds only rho: 64 MB at N = 2000, of a 96 MB peak. No CLI row calls
    this; `steady_columns` makes them.
    """
    gauged = _resonant_steady_rho(params)
    rhs = _gauged_rhs(gauged, params, symmetric=True)
    # max |rhs|, as abs() of the larger of max and -min: that is >= 0
    # except for -0.0, which abs() turns into 0.0.
    residual = abs(max(float(np.maximum.reduce(rhs, None)),
                       -float(np.minimum.reduce(rhs, None))))
    del rhs  # so that rho and R are then the only (N+1)^2 arrays
    if not residual <= _RESID_TOL:
        raise RuntimeError(f"steady-state residual {residual:.3e} exceeds {_RESID_TOL:.1e}")
    rho = gauged.astype(complex)
    rho *= _gauge(params.n_atoms + 1, inverse=True)
    return DickeLadderState(params.n_atoms, rho, residual=residual)


def _weighted_sums(weights: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """sum_m w_k[m] p_m for each row w_k of weights: one row of sums per
    weight, over the rows of a stack of populations p."""
    if pops.ndim > 1:
        weights = weights[:, None, :]
    return np.add.reduce(weights * pops, -1)


def observables(state) -> ObservableSet:
    """Collective observables from the ladder density matrix.

    All four moments are diagonal or first-off-diagonal sums weighted by
    the ladder coefficients, reduced over the last two axes of
    `state.rho`: a DickeLadderState gives scalars, and a
    `LadderTrajectory` gives one array per observable, sample by sample,
    in one call.
    """
    n = state.n_atoms
    tables = _ladder(n)
    pops = state.rho.diagonal(0, -2, -1).real
    m_sum, spsm, g2_num = _weighted_sums(tables.weights, pops)
    s_z = m_sum / (n / 2.0)
    # <S-> = sum_m A_{m-1} rho_{m,m-1}
    dipole = np.add.reduce(tables.a[:-1] * state.rho.diagonal(-1, -2, -1), -1)
    if state.rho.ndim == 2:
        s_z, dipole = float(s_z), complex(dipole)
        spsm, g2_num = float(spsm), float(g2_num)
    return ObservableSet(
        s_z=s_z,
        n_e=0.5 * (s_z + 1.0),
        dipole=dipole,
        gamma_sr=spsm,  # a rate in units of gamma
        g2_numerator=g2_num,
    )


_G2_MIN_RATE = 1e-14  # <S+S-> below which g2(0) is undefined


def g2_zero(state: DickeLadderState) -> float:
    """Equal-time intensity correlation <S+S+S-S-> / <S+S->^2."""
    obs = observables(state)
    if obs.gamma_sr < _G2_MIN_RATE:
        raise UndefinedCorrelationError(
            f"<S+S-> = {obs.gamma_sr:.3e} too small to define g2(0)"
        )
    return obs.g2_numerator / (obs.gamma_sr * obs.gamma_sr)


def steady_columns(group: Sequence[ModelParams]):
    """(columns, faults) of the steady states of params of any N,
    in O(N) each and in one flat array pass over the group (`_chunk`).

    Every observable reads only p and R[l, l+1] = p_{l+1} A_l/r of the
    closed form (`_resonant_steady_rho`), and every step is the one a
    batch of one N takes, in the same order, so each value has the bits of
    `steady_state`'s: the products slot by slot, and the sums over each
    run's (points, N + 1) view as `observables` and `g2_zero` sum them
    (`_point_sums`). A point whose N differs from its neighbours' merely
    starts a new run. columns maps s_z, n_e, re_dipole, im_dipole,
    gamma_sr, g2 (nan where undefined) and residual (`_band_residual`) to
    arrays over the group; faults maps the index of each state whose
    |sum p - 1| exceeds _RESID_TOL, or whose residual exceeds the larger
    of _RESID_TOL and 128 eps max(S(S+1), rabi S) max p, to why. The
    band's terms are as large as S(S+1) max p and rabi S max p, so their
    round-off alone passes _RESID_TOL from about N = 10^5, or sooner at
    strong drive; a point whose residual is not finite keeps the bound
    _RESID_TOL.
    """
    chunk = _chunk(group)
    pops, steps = _closed_form(chunk)
    m_sum, spsm, g2_num = _point_sums(chunk.weights * pops, chunk)
    s_z = m_sum / ((chunk.sizes - 1) / 2.0)
    # <S-> = sum_l A_l rho_{l+1,l}, rho_{l+1,l} = -i R[l, l+1], summed as
    # the complex numbers that `observables` sums, over l = 0..N-1.
    terms = np.zeros(pops.size, complex)
    np.subtract(0.0, chunk.a * (_next(pops, chunk) * steps), out=terms.imag)
    dipole = _point_sums(terms, chunk, end=-1)
    g2 = np.divide(g2_num, spsm * spsm, out=np.full_like(spsm, np.nan),
                   where=spsm >= _G2_MIN_RATE)
    residual = _band_residual(chunk, pops, steps)
    drift = np.abs(_point_sums(pops, chunk) - 1.0)
    spin = (chunk.sizes - 1) / 2.0
    bound = np.fmax(_RESID_TOL, 128 * np.finfo(float).eps * spin
                    * np.maximum(spin + 1.0, chunk.rabi[chunk.first])
                    * np.maximum.reduceat(pops, chunk.first))
    bound[~np.isfinite(residual)] = _RESID_TOL
    faults = {k: f"steady-state residual {res:.3e} exceeds {tol:.1e}" if not res <= tol
              else f"steady-state trace is off by {off:.3e}"
              for k, (res, tol, off) in enumerate(zip(residual.tolist(), bound.tolist(),
                                                      drift.tolist()))
              if not (res <= tol and off <= _RESID_TOL)}
    return {"s_z": s_z, "n_e": 0.5 * (s_z + 1.0), "re_dipole": dipole.real,
            "im_dipole": dipole.imag, "gamma_sr": spsm, "g2": g2,
            "residual": residual}, faults


def _band_residual(chunk: _Chunk, pops: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """max |L R| over the diagonal and the first off-diagonal, for each
    point of chunk, its R given by p (pops) and A_l/r (steps, 0 in each
    last slot) in its slots: the stencil of `_gauged_rhs` there, which
    reads diagonals 0-2 of R. Slot l holds the terms of entries (l, l)
    and (l, l+1). A neighbour past a point's end is an exact 0, and so is
    every term that its last slot passes on to the next point's first, so
    a point adds only zeros beyond the terms of a batch of its N alone.
    Overflow and nan are silent, as in `_closed_form`: a subnormal or
    near-maximal drive ends as a non-finite residual, its point's fault."""
    drive, drain = _rates(chunk, chunk)
    p_next = _next(pops, chunk)
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = p_next * steps  # R[l, l+1]
        d1_next = _next(d1, chunk)
        d2 = d1_next * steps  # R[l, l+2]
        diag = 2.0 * drain * pops
        diag += chunk.a ** 2 * p_next
        flow = 2.0 * drive * d1
        diag -= flow
        diag[1:] += flow[:-1]
        off = (drain + _next(drain, chunk)) * d1
        off += (chunk.a * _next(chunk.a, chunk)) * d1_next
        off += drive * (pops - p_next)
        off -= _next(drive, chunk) * d2
        off[1:] += (drive * d2)[:-1]
    return np.maximum.reduceat(np.maximum(np.abs(diag), np.abs(off)), chunk.first)
