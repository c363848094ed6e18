import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve

import ddmsim.ladder
from ddmsim.ladder import (
    _DENSE_MAX_ROWS,
    DickeLadderState,
    LadderTrajectory,
    UndefinedCorrelationError,
    _ladder,
    _gauge,
    _gauged_rhs,
    _propagate_dense,
    _propagate_sparse,
    _sector_operator,
    evolve,
    g2_zero,
    liouvillian_rhs,
    observables,
    steady_columns,
    steady_state,
)
from ddmsim.analysis import obe_excited_population
from ddmsim.oracle import FullState, full_evolve, project_to_ladder
from ddmsim.params import ModelParams


def uniform_diagonal(n_atoms):
    """Fully saturated ladder: rho_{m,m} = 1/(N+1)."""
    return DickeLadderState(n_atoms, np.eye(n_atoms + 1) / (n_atoms + 1))


def hermiticity_defect(state):
    return float(np.max(np.abs(state.rho - state.rho.conj().T)))


def check_state(state, trace_tol, herm_tol, psd_tol):
    """Assert the physical invariants: unit trace, Hermitian, PSD."""
    assert abs(state.trace() - 1.0) <= trace_tol
    assert hermiticity_defect(state) <= herm_tol
    herm = 0.5 * (state.rho + state.rho.conj().T)
    assert np.linalg.eigvalsh(herm)[0] >= -psd_tol


def random_density_matrix(n, seed):
    rng = np.random.default_rng(seed)
    dim = n + 1
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DickeLadderState(n, rho / np.trace(rho))


# References: the Kronecker-product Liouvillian and its trace-row LU,
# which `evolve` and the detuned steady state used before the ladder
# solvers went resonant-only and `_sector_operator` was built from the
# ladder coefficients. They keep a decay rate gamma and a detuning of
# their own, which the ladder measures its rates in and leaves to the
# 2^N oracle: L(rabi, gamma) = gamma L(rabi/gamma, 1).

def superoperator(params, gamma=1.0, detuning=0.0):
    """Sparse complex Liouvillian on vec(rho) (column-major stacking),
    with collective decay at rate gamma and detuned drive:
    H = (rabi/2)(S+ + S-) - (detuning/2) S_z."""
    n = params.n_atoms
    a = _ladder(n).a
    dim = n + 1
    sm = sparse.diags(a[:-1], 1, format="csr")  # <i-1|S-|i> = A[i-1]
    sp_op = sm.T.tocsr()
    m_diag = np.arange(dim) - n / 2.0
    ham = 0.5 * params.rabi * (sp_op + sm) - 0.5 * detuning * sparse.diags(m_diag)
    ident = sparse.identity(dim, format="csr")
    spsm = (sp_op @ sm).tocsr()
    liou = -1j * (sparse.kron(ident, ham) - sparse.kron(ham.T, ident))
    liou = liou + 0.5 * gamma * (
        2.0 * sparse.kron(sp_op.T, sm)
        - sparse.kron(ident, spsm)
        - sparse.kron(spsm.T, ident)
    )
    return liou.tocsr()


def gauged_superoperator(params, gamma=1.0):
    """`superoperator` under rho_{mm'} -> i^{m-m'} rho_{mm'}: every drive
    entry picks up a factor +-i and every other entry a factor 1."""
    liou = superoperator(params, gamma).tocoo()
    phase = _gauge(params.n_atoms + 1).ravel(order="F")
    liou.data *= phase[liou.row] * phase[liou.col].conj()
    return liou.tocsr()


def sector_reference(params, gamma=1.0):
    """The real part of the gauged L on real symmetric rho, as a dense
    array: rows are the upper triangle of rho (np.triu_indices order),
    and each lower-triangle column is folded onto its mirror."""
    dim = params.n_atoms + 1
    rows, cols = np.triu_indices(dim)
    upper, lower = rows + cols * dim, cols + rows * dim
    k = np.arange(rows.size)
    off = rows != cols
    embed = sparse.csr_matrix(
        (np.ones(rows.size + np.count_nonzero(off)),
         (np.concatenate([upper, lower[off]]), np.concatenate([k, k[off]]))),
        shape=(dim * dim, rows.size),
    )
    return (gauged_superoperator(params, gamma).real[upper] @ embed).toarray()


def lu_steady_rho(params, detuning=0.0):
    """The steady state as the null vector of `superoperator`, by one
    sparse LU with the first row replaced by the trace condition."""
    dim = params.n_atoms + 1
    mat = superoperator(params, detuning=detuning).tolil()
    mat[0, :] = 0.0
    for c in np.arange(dim) * (dim + 1):
        mat[0, c] = 1.0
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    rho = spsolve(mat.tocsc(), b).reshape(dim, dim, order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.real(np.trace(rho))


def real_split_liouvillian_rhs(state, params):
    """`liouvillian_rhs` as it was before it applied the stencil to the
    complex gauged rho: the real stencil on its real and imaginary parts
    in turn, recombined by hand."""
    phase = _gauge(state.n_atoms + 1)
    c, d = phase.real, phase.imag  # i^{m-m'} = c + i d
    re, im = state.rho.real, state.rho.imag
    tmp = np.empty(re.shape)
    x_re = np.multiply(re, c)
    x_re -= np.multiply(im, d, out=tmp)
    x_im = np.multiply(re, d)
    x_im += np.multiply(im, c, out=tmp)
    y_re, y_im = _gauged_rhs(x_re, params), _gauged_rhs(x_im, params)
    out = np.empty(re.shape, dtype=complex)  # times i^{m'-m} = c - i d
    np.multiply(y_re, c, out=out.real)
    out.real += np.multiply(y_im, d, out=tmp)
    np.multiply(y_im, c, out=out.imag)
    out.imag -= np.multiply(y_re, d, out=tmp)
    return out


class TestCouplingCoeff:
    # A[i] = A_m = sqrt(S(S+1) - m(m+1)) at m = i - S, S = N/2.
    def test_top_of_ladder(self):
        assert _ladder(2).a[2] == 0.0

    def test_middle(self):
        assert _ladder(2).a[1] == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_bottom(self):
        # A_{-S} = sqrt(2S)
        assert _ladder(10).a[0] == pytest.approx(np.sqrt(10), abs=1e-15)

    def test_array_matches_scalar(self):
        n = 7
        a = _ladder(n).a
        s = n / 2
        for i in range(n + 1):
            m = i - s
            scalar = math.sqrt(max(s * (s + 1) - m * (m + 1), 0.0))
            assert a[i] == pytest.approx(scalar, abs=1e-15)


class TestDickeLadderState:
    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_atom(self, n):
        with pytest.raises(ValueError, match="n_atoms must be >= 1"):
            DickeLadderState(n)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (4,)])
    def test_rejects_rho_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="incompatible with N = 3"):
            DickeLadderState(3, np.zeros(shape))

    @pytest.mark.parametrize("n_atoms", [True, False, np.True_, 2.5, 3.0, "3", None])
    def test_rejects_atom_number_that_is_not_an_integer(self, n_atoms):
        # True used to build an N = 1 state, and 2.5 to raise a TypeError.
        with pytest.raises(ValueError, match="n_atoms must be an integer") as got:
            DickeLadderState(n_atoms)
        with pytest.raises(ValueError) as want:
            ModelParams(n_atoms=n_atoms, rabi=1.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n_atoms", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_atom_number_is_an_int(self, n_atoms):
        for state in (DickeLadderState(n_atoms), DickeLadderState.ground(n_atoms)):
            assert type(state.n_atoms) is int and state.n_atoms == 3
            assert state.rho.shape == (4, 4)


class TestRates:
    def test_both_encodings_read_one_rate_table(self, monkeypatch):
        calls = []
        rates = ddmsim.ladder._rates

        def counted(params):
            calls.append(params.n_atoms)
            return rates(params)

        monkeypatch.setattr(ddmsim.ladder, "_rates", counted)
        params = ModelParams(n_atoms=4, rabi=1.5)
        _gauged_rhs(np.eye(5), params)
        _sector_operator(params)
        assert calls == [4, 4]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_values(self, n):
        params = ModelParams(n_atoms=n, rabi=1.5)
        a = _ladder(n).a
        drive, drain = ddmsim.ladder._rates(params)
        np.testing.assert_allclose(drive, 0.75 * a, rtol=1e-15)
        np.testing.assert_allclose(drain[1:], -0.5 * a[:-1] ** 2, rtol=1e-15)
        assert drain[0] == 0.0 and drive[-1] == 0.0


class TestLiouvillianRhs:
    def test_dark_state_fixed_point(self):
        state = DickeLadderState.ground(6)
        rhs = liouvillian_rhs(state, ModelParams(n_atoms=6, rabi=0.0))
        assert np.max(np.abs(rhs)) == 0.0

    def test_ground_not_fixed_under_drive(self):
        state = DickeLadderState.ground(6)
        rhs = liouvillian_rhs(state, ModelParams(n_atoms=6, rabi=1.0))
        assert np.max(np.abs(rhs)) > 0.0

    def test_single_atom_matches_obe(self):
        # Independently coded 2-level optical Bloch rhs.
        state = random_density_matrix(1, seed=3)
        rho = state.rho
        omega = 1.7
        rhs = liouvillian_rhs(state, ModelParams(n_atoms=1, rabi=omega))
        ee, eg = rho[1, 1], rho[1, 0]
        ge, gg = rho[0, 1], rho[0, 0]
        d_ee = -0.5j * omega * (ge - eg) - ee
        d_eg = -0.5j * omega * (gg - ee) - 0.5 * eg
        assert rhs[1, 1] == pytest.approx(d_ee, abs=1e-14)
        assert rhs[1, 0] == pytest.approx(d_eg, abs=1e-14)
        assert rhs[0, 1] == pytest.approx(np.conj(d_eg), abs=1e-14)
        assert rhs[0, 0] == pytest.approx(-d_ee, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_preserving(self, seed):
        state = random_density_matrix(4, seed)
        rhs = liouvillian_rhs(state, ModelParams(n_atoms=4, rabi=2.0))
        assert abs(np.trace(rhs)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hermiticity_preserving(self, seed):
        state = random_density_matrix(5, seed)
        rhs = liouvillian_rhs(state, ModelParams(n_atoms=5, rabi=3.0))
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        state = DickeLadderState.ground(3)
        with pytest.raises(ValueError, match="state has N = 3 but params have N = 4"):
            liouvillian_rhs(state, ModelParams(n_atoms=4, rabi=1.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 24, 47, 60, 140, 300, 600])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_bit_equal_to_real_split(self, n, gamma):
        # The drive 0.7 N in units of a decay rate gamma.
        rng = np.random.default_rng(n)
        dim = n + 1
        state = DickeLadderState(
            n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        params = ModelParams(n_atoms=n, rabi=0.7 * n / gamma)
        got = liouvillian_rhs(state, params)
        assert got.dtype == np.complex128
        assert got.tobytes() == real_split_liouvillian_rhs(state, params).tobytes()

    def test_one_stencil_call(self, monkeypatch):
        calls = []
        stencil = ddmsim.ladder._gauged_rhs

        def counted(x, params, symmetric=False):
            calls.append(x.dtype)
            return stencil(x, params, symmetric)

        monkeypatch.setattr(ddmsim.ladder, "_gauged_rhs", counted)
        liouvillian_rhs(random_density_matrix(5, seed=0), ModelParams(n_atoms=5, rabi=2.0))
        assert calls == [np.complex128]

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 60])
    @pytest.mark.parametrize("rabi_per_atom", [0.0, 0.7])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_stencil_matches_superoperator(self, n, rabi_per_atom, gamma):
        # The stencil against the Kronecker-product reference, undriven
        # (decay terms only) and driven, on any complex rho; at a decay
        # rate gamma, as gamma times the stencil at the drive rabi/gamma.
        rng = np.random.default_rng(n)
        dim = n + 1
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        params = ModelParams(n_atoms=n, rabi=rabi_per_atom * n)
        scaled = ModelParams(n_atoms=n, rabi=rabi_per_atom * n / gamma)
        stencil = gamma * liouvillian_rhs(DickeLadderState(n, rho), scaled)
        sparse_l = (superoperator(params, gamma) @ rho.ravel(order="F")).reshape(
            dim, dim, order="F"
        )
        scale = np.max(np.abs(stencil))
        assert np.max(np.abs(stencil - sparse_l)) <= 1e-13 * scale


class TestEvolve:
    def test_undriven_ground_constant(self):
        t, states = evolve(
            DickeLadderState.ground(8), ModelParams(n_atoms=8, rabi=0.0), 5.0
        )
        assert t[-1] == 5.0
        assert np.all(np.diff(t) > 0)
        assert np.max(np.abs(states[-1].rho - states[0].rho)) < 1e-10

    def test_single_atom_matches_closed_form(self):
        omega = 5.0
        t, states = evolve(
            DickeLadderState.ground(1),
            ModelParams(n_atoms=1, rabi=omega),
            10.0,
            tol=1e-10,
            n_samples=101,
        )
        n_e = np.array([observables(s).n_e for s in states])
        ref = obe_excited_population(omega, 1.0, t)
        assert np.max(np.abs(n_e - ref)) < 1e-6

    def test_single_atom_matches_closed_form_to_round_off(self):
        omega = 5.0
        t, states = evolve(
            DickeLadderState.ground(1), ModelParams(n_atoms=1, rabi=omega),
            10.0, n_samples=101,
        )
        n_e = np.array([observables(s).n_e for s in states])
        ref = obe_excited_population(omega, 1.0, t)
        assert np.max(np.abs(n_e - ref)) <= 1e-10

    def test_default_samples_are_the_end_points(self):
        t, states = evolve(
            DickeLadderState.ground(3), ModelParams(n_atoms=3, rabi=2.0), 2.5
        )
        assert list(t) == [0.0, 2.5] and len(states) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="state has N = 3 but params have N = 4"):
            evolve(DickeLadderState.ground(3), ModelParams(n_atoms=4, rabi=1.0), 1.0)

    def test_collective_overdamping(self):
        # More atoms at the same drive: fewer and weaker oscillations.
        def count_maxima(n):
            t, states = evolve(
                DickeLadderState.ground(n),
                ModelParams(n_atoms=n, rabi=4.5),
                8.0,
                tol=1e-9,
                n_samples=401,
            )
            v = np.array([observables(s).n_e for s in states])
            return int(np.sum((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])))

        assert count_maxima(10) < count_maxima(1)

    @pytest.mark.parametrize("n,rabi", [(4, 2.0), (10, 8.0), (20, 20.0)])
    def test_invariants_along_trajectory(self, n, rabi):
        t, states = evolve(
            DickeLadderState.ground(n),
            ModelParams(n_atoms=n, rabi=rabi),
            5.0,
            tol=1e-9,
            n_samples=21,
        )
        for state in states:
            check_state(state, trace_tol=1e-7, herm_tol=1e-8, psd_tol=1e-7)

    def test_detuned_matches_full_space_oracle(self):
        # The ladder is resonant; the 2^N oracle keeps a detuning: its
        # trace against exp(L t) of the reference superoperator from the
        # ground state.
        for n in (2, 3):
            for rabi in (0.7, 2.0):
                for detuning in (-0.9, 0.9):
                    params = ModelParams(n_atoms=n, rabi=rabi)
                    liou = superoperator(params, detuning=detuning).toarray()
                    rho0 = DickeLadderState.ground(n).rho.ravel(order="F")
                    t, full = full_evolve(FullState.ground(n), params, 5.0, tol=1e-11,
                                          n_samples=26, detuning=detuning)
                    label = (n, rabi, detuning)
                    for t_k, full_state in zip(t, full, strict=True):
                        rho = (expm(liou * t_k) @ rho0).reshape(n + 1, n + 1, order="F")
                        obs = observables(DickeLadderState(n, rho))
                        ref = observables(project_to_ladder(full_state)[0])
                        assert abs(obs.s_z - ref.s_z) <= 1e-8, label
                        assert abs(obs.dipole - ref.dipole) <= 1e-8, label
                        assert abs(obs.gamma_sr - ref.gamma_sr) <= 1e-8, label

    def test_bad_arguments(self):
        state = DickeLadderState.ground(2)
        params = ModelParams(n_atoms=2, rabi=1.0)
        with pytest.raises(ValueError):
            evolve(state, params, -1.0)
        with pytest.raises(ValueError):
            evolve(state, params, 1.0, tol=0.0)

    @pytest.mark.parametrize("t_final, tol", [
        (np.nan, 1e-8), (np.inf, 1e-8), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_rejects_non_finite_span_or_tol(self, t_final, tol):
        state = DickeLadderState.ground(2)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            evolve(state, ModelParams(n_atoms=2, rabi=1.0), t_final, tol=tol)


def rk45_reference(state0, params, t_final, n_samples):
    """The trace by RK45 on the full complex L at rtol 1e-12."""
    liou = superoperator(params)
    t = np.linspace(0.0, t_final, n_samples)
    sol = solve_ivp(lambda _t, y: liou @ y, (0.0, t_final),
                    state0.rho.ravel(order="F"), t_eval=t, rtol=1e-12,
                    atol=1e-14)
    assert sol.success
    dim = state0.n_atoms + 1
    return [DickeLadderState(state0.n_atoms, y.reshape(dim, dim, order="F"))
            for y in sol.y.T]


def max_observable_gap(states, ref_states):
    """Largest difference in the observables a dynamics row reports."""
    gap = 0.0
    for state, ref in zip(states, ref_states, strict=True):
        a, b = observables(state), observables(ref)
        gap = max(gap, abs(a.s_z - b.s_z), abs(a.n_e - b.n_e),
                  abs(a.dipole - b.dipole), abs(a.gamma_sr - b.gamma_sr))
    return gap


def sector_size(n):
    return (n + 1) * (n + 2) // 2


def largest_dense_n():
    """N = 47: the largest sector that `evolve` propagates densely."""
    return max(k for k in range(100) if sector_size(k) <= _DENSE_MAX_ROWS)


class TestPropagator:
    """`evolve` against an RK45 reference, and the pieces it is built from:
    the real gauge, the symmetric sector, and the two propagators."""

    @pytest.mark.parametrize("n", [1, 4, 10, 24])
    @pytest.mark.parametrize("beta", [0.5, 1.5, 3.0])
    def test_matches_rk45_reference(self, n, beta):
        params = ModelParams(n_atoms=n, rabi=0.5 * beta * n)
        state0 = DickeLadderState.ground(n)
        _, states = evolve(state0, params, 3.0, n_samples=31)
        assert max_observable_gap(states, rk45_reference(state0, params, 3.0, 31)) <= 1e-8

    def test_an_overflowed_propagator_is_squared_no_further(self, monkeypatch):
        # At rabi = 1e200 the step propagator takes over 600 squarings and
        # is inf/nan from about the 64th on. A non-finite diagonal stays
        # so, so the squarings stop there, and the trace check of `evolve`
        # fails the point with the text it had.
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        params = ModelParams(n_atoms=24, rabi=1e200)
        with pytest.raises(RuntimeError) as info:
            evolve(DickeLadderState.ground(24), params, 10.0, n_samples=11)
        assert str(info.value) == "trace drift nan exceeds tol = 1.0e-08"
        norm = abs(_sector_operator(params)).sum(axis=0).max()
        assert np.log2(norm / 0.5) > 600
        # Six in the polynomial (`x @ x` is not np.matmul), ten steps.
        assert 0 < len(calls) - 6 - 10 < 100

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_gauged_resonant_liouvillian_is_real(self, n, gamma):
        params = ModelParams(n_atoms=n, rabi=0.9 * n)
        assert not gauged_superoperator(params, gamma).data.imag.any()

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_symmetric_sector_is_invariant(self, n, gamma):
        # At a decay rate gamma the sector operator is gamma times the
        # ladder's at the drive rabi/gamma.
        gauged = gauged_superoperator(ModelParams(n_atoms=n, rabi=0.9 * n), gamma)
        dim = n + 1
        rng = np.random.default_rng(n)
        x = rng.normal(size=(dim, dim))
        x += x.T
        y = (gauged.real @ x.ravel(order="F")).reshape(dim, dim, order="F")
        scale = np.max(np.abs(y))
        assert np.max(np.abs(y - y.T)) <= 1e-14 * scale
        rows, cols = np.triu_indices(dim)
        sector = gamma * _sector_operator(ModelParams(n_atoms=n, rabi=0.9 * n / gamma))
        assert sector.shape == (sector_size(n),) * 2
        assert np.max(np.abs(sector @ x[rows, cols] - y[rows, cols])) <= 1e-14 * scale

    def test_ground_and_steady_states_lie_in_sector(self):
        for state in (DickeLadderState.ground(6),
                      steady_state(ModelParams(n_atoms=6, rabi=2.0)),
                      steady_state(ModelParams(n_atoms=9, rabi=8.0))):
            gauged = state.rho * ddmsim.ladder._gauge(state.n_atoms + 1)
            assert not gauged.imag.any()
            assert np.array_equal(gauged, gauged.T)

    def test_branches_agree_at_the_switch_size(self):
        n = largest_dense_n()
        assert sector_size(n + 1) > _DENSE_MAX_ROWS
        sector = _sector_operator(ModelParams(n_atoms=n, rabi=0.75 * n))
        u0 = np.zeros(sector.shape[0])
        u0[0] = 1.0  # the ground state
        by_expm_multiply = _propagate_sparse(sparse.csr_array(sector), u0, 8.0, 161)
        dense = _propagate_dense(sector, u0, 8.0, 161)  # scales sector in place
        assert dense.shape == by_expm_multiply.shape == (161, sector_size(n))
        assert np.max(np.abs(dense - by_expm_multiply)) <= 1e-10

    def test_sparse_branch_is_deterministic(self):
        # expm_multiply's norm estimate draws from numpy's global RNG; at
        # this size its step choice differs between these two seeds unless
        # the RNG is seeded for the call. The caller's RNG state survives.
        n = largest_dense_n() + 1
        params = ModelParams(n_atoms=n, rabi=0.25 * n)
        samples, restored = [], []
        for seed in (0, 1):
            np.random.seed(seed)
            before = np.random.get_state()
            _, states = evolve(DickeLadderState.ground(n), params, 2.0)
            after = np.random.get_state()
            samples.append(states.rho.tobytes())
            restored.append(np.array_equal(before[1], after[1])
                            and before[2:] == after[2:])
        assert samples[0] == samples[1]
        assert restored == [True, True]

    def test_trace_drift_at_largest_dense_size(self):
        n = largest_dense_n()
        _, states = evolve(DickeLadderState.ground(n),
                           ModelParams(n_atoms=n, rabi=0.25 * n), 8.0,
                           tol=1e-10, n_samples=161)
        assert max(abs(s.trace() - 1.0) for s in states) <= 1e-10

    def test_branch_follows_operator_size(self, monkeypatch):
        calls = []

        def recording(name):
            fn = getattr(ddmsim.ladder, name)

            def wrapped(op, *args):
                calls.append((name, op.shape[0]))
                return fn(op, *args)
            return wrapped

        for name in ("_propagate_dense", "_propagate_sparse"):
            monkeypatch.setattr(ddmsim.ladder, name, recording(name))
        monkeypatch.setattr(ddmsim.ladder, "_DENSE_MAX_ROWS", 12)
        for n in (2, 3, 4, 5):
            evolve(DickeLadderState.ground(n), ModelParams(n_atoms=n, rabi=1.0), 1.0)
        assert calls == [("_propagate_dense", 6), ("_propagate_dense", 10),
                         ("_propagate_sparse", 15), ("_propagate_sparse", 21)]

    def test_calls_no_ode_integrator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("evolve called solve_ivp")

        monkeypatch.setattr(ddmsim.ladder, "solve_ivp", forbidden)
        evolve(DickeLadderState.ground(3), ModelParams(n_atoms=3, rabi=2.0), 1.0,
               n_samples=5)

    def test_trace_drift_above_tol_raises(self, monkeypatch):
        step = ddmsim.ladder._propagate_dense
        monkeypatch.setattr(ddmsim.ladder, "_propagate_dense",
                            lambda *args: 1.01 * step(*args))
        with pytest.raises(RuntimeError, match="trace drift"):
            evolve(DickeLadderState.ground(3), ModelParams(n_atoms=3, rabi=2.0), 1.0)

    @pytest.mark.parametrize("n_samples", [0, 1, 2.5, math.inf, math.nan])
    def test_rejects_bad_sample_count(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be whole and >= 2"):
            evolve(DickeLadderState.ground(2), ModelParams(n_atoms=2, rabi=1.0),
                   1.0, n_samples=n_samples)


class TestSectorOperator:
    """`_sector_operator`, built from the ladder coefficients, against the
    Kronecker-product reference and against the stencil."""

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 47])
    @pytest.mark.parametrize("gamma, rel_tol", [(1.0, 0.0), (2.5, 1e-14)])
    @pytest.mark.parametrize("rabi_per_atom", [0.0, 0.9])
    def test_matches_superoperator_reference(self, n, gamma, rel_tol, rabi_per_atom):
        # At a decay rate gamma, gamma times the operator at rabi/gamma.
        op = gamma * _sector_operator(ModelParams(n_atoms=n, rabi=rabi_per_atom * n / gamma))
        ref = sector_reference(ModelParams(n_atoms=n, rabi=rabi_per_atom * n), gamma)
        assert isinstance(op, np.ndarray) and op.dtype == np.float64
        assert op.shape == ref.shape == (sector_size(n),) * 2
        assert np.max(np.abs(op - ref)) <= rel_tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 47])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_matches_stencil_on_symmetric_x(self, n, gamma):
        params = ModelParams(n_atoms=n, rabi=0.9 * n / gamma)
        dim = n + 1
        x = np.random.default_rng(n).normal(size=(dim, dim))
        x += x.T
        rows, cols = np.triu_indices(dim)
        y = _gauged_rhs(x, params, symmetric=True)[rows, cols]
        got = _sector_operator(params) @ x[rows, cols]
        assert np.max(np.abs(got - y)) <= 1e-14 * np.max(np.abs(y))

    def test_dense_and_sparse_forms_at_the_switch_size(self, monkeypatch):
        n = largest_dense_n()
        params = ModelParams(n_atoms=n, rabi=0.75 * n)
        dense = _sector_operator(params)
        assert isinstance(dense, np.ndarray)
        monkeypatch.setattr(ddmsim.ladder, "_DENSE_MAX_ROWS", sector_size(n) - 1)
        summed = _sector_operator(params)
        assert sparse.issparse(summed)
        assert np.array_equal(summed.toarray(), dense)
        monkeypatch.undo()
        above = _sector_operator(ModelParams(n_atoms=n + 1, rabi=0.75 * n))
        assert sparse.issparse(above) and above.shape == (sector_size(n + 1),) * 2
        assert np.array_equal(above.toarray(),
                              sector_reference(ModelParams(n_atoms=n + 1, rabi=0.75 * n)))


class TestResonantOnly:
    """`evolve` takes the real symmetric sector of the gauge, which
    resonant drive keeps; any other state is a ValueError."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_state_outside_sector(self, n):
        # A generic rho is complex under the gauge.
        state0 = random_density_matrix(n, seed=n)
        assert (state0.rho * _gauge(n + 1)).imag.any()
        with pytest.raises(ValueError, match="real and symmetric"):
            evolve(state0, ModelParams(n_atoms=n, rabi=1.7), 5.0)

    def test_rejects_real_gauged_state_that_is_not_symmetric(self):
        # Real under the gauge, but x[0, 1] != x[1, 0]: not a density
        # matrix, and off the sector.
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = 0.25j
        assert not (rho * _gauge(2)).imag.any()
        with pytest.raises(ValueError, match="real and symmetric"):
            evolve(DickeLadderState(1, rho), ModelParams(n_atoms=1, rabi=1.0), 1.0)


def row_recurrence_steady_rho(params):
    """The resonant closed form rho ~ Y^+ Y as a complex row recurrence,
    the construction `steady_state` used before the real-gauge cumulative
    product, kept as the reference: populations from the top, then each
    coherence from the one below it, rho[j, l] = conj(A_j/g) rho[j+1, l]."""
    n = params.n_atoms
    a = _ladder(n).a[:-1]
    g = 1j * params.rabi
    ratio = (a / abs(g)) ** 2
    pops = np.empty(n + 1)
    pops[n] = one = 1.0
    for l in range(n - 1, -1, -1):
        pops[l] = one + ratio[l] * pops[l + 1]
        if pops[l] > 1e150:
            scale = pops[l]
            pops[l:] /= scale
            one /= scale
    pops /= pops.sum()

    rho = np.diag(pops.astype(complex))
    step = np.conj(a / g)
    for j in range(n - 1, -1, -1):
        rho[j, j + 1:] = step[j] * rho[j + 1, j + 1:]
    return rho + np.triu(rho, 1).conj().T


class TestRealGaugeSteadyState:
    """The resonant steady state built in the real gauge: one reverse
    cumulative product for the closed form, and the real stencil for its
    residual."""

    BETAS = (0.01, 0.3, 0.5, 0.95, 1.05, 1.1, 2.75, 100.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 31, 62, 98, 140, 500, 2000])
    def test_matches_row_recurrence(self, n):
        # Equal in value everywhere, and bit for bit on the diagonal and
        # the first subdiagonal, which are all that `observables` reads.
        # (Zero real or imaginary parts above the diagonal may carry the
        # other sign: -0.0 for 0.0.) N = 2000 at beta = 0.01 rescales the
        # populations 49 times.
        for params in [ModelParams(n_atoms=n, rabi=0.5 * beta * n) for beta in self.BETAS]:
            rho = steady_state(params).rho
            ref = row_recurrence_steady_rho(params)
            assert np.array_equal(rho, ref), params
            for k in (0, -1):
                assert rho.diagonal(k).tobytes() == ref.diagonal(k).tobytes(), params

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_gauged_stencil_is_the_gauged_superoperator(self, n, gamma):
        # The real stencil on any real x, against the real part of the
        # gauged sparse L (its imaginary part is exactly zero); at a decay
        # rate gamma, as gamma times the stencil at the drive rabi/gamma.
        params = ModelParams(n_atoms=n, rabi=0.9 * n)
        dim = n + 1
        x = np.random.default_rng(n).normal(size=(dim, dim))
        ref = (gauged_superoperator(params, gamma).real @ x.ravel(order="F")).reshape(
            dim, dim, order="F")
        stencil = gamma * _gauged_rhs(x, ModelParams(n_atoms=n, rabi=0.9 * n / gamma))
        assert not np.iscomplexobj(stencil)
        assert np.max(np.abs(stencil - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    def test_symmetric_input_takes_one_row_half(self, n):
        params = ModelParams(n_atoms=n, rabi=0.9 * n)
        dim = n + 1
        x = np.random.default_rng(n).normal(size=(dim, dim))
        x += x.T
        assert np.array_equal(_gauged_rhs(x, params, symmetric=True),
                              _gauged_rhs(x, params))

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_gauge_is_the_phase_table(self, dim):
        idx = np.arange(dim)
        table = np.array([1, 1j, -1, -1j])[(idx[:, None] - idx[None, :]) % 4]
        assert _gauge(dim).tobytes() == table.tobytes()
        assert _gauge(dim, inverse=True).tobytes() == table.conj().tobytes()
        assert not _gauge(dim).flags.writeable


class TestModelParams:
    @pytest.mark.parametrize("field", ["rabi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_drive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(n_atoms=4, **{"rabi": 1.0, field: value})

    @pytest.mark.parametrize("n_atoms", [2.5, 3.0, True, False, np.True_, "3", None])
    def test_rejects_atom_number_that_is_not_an_integer(self, n_atoms):
        # 2.5 and 3.0 used to be accepted and fail later in steady_state
        # (slice indices must be integers); True solved N = 1.
        with pytest.raises(ValueError, match="n_atoms must be an integer"):
            ModelParams(n_atoms=n_atoms, rabi=1.0)

    @pytest.mark.parametrize("field", ["rabi"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "1.0", None, 1j])
    def test_rejects_drive_that_is_not_a_real_number(self, field, value):
        # rabi=True used to become a drive of 1.0.
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            ModelParams(n_atoms=4, **{"rabi": 1.0, field: value})

    @pytest.mark.parametrize("n_atoms", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_atom_number_is_accepted(self, n_atoms):
        params = ModelParams(n_atoms=n_atoms, rabi=np.float64(1.5))
        assert type(params.n_atoms) is int and params.n_atoms == 3
        ref = steady_state(ModelParams(n_atoms=3, rabi=1.5))
        assert steady_state(params).rho.tobytes() == ref.rho.tobytes()

    def test_int_drive_is_accepted(self):
        assert ModelParams(n_atoms=4, rabi=2).beta == 1.0

    def test_holds_only_n_atoms_and_rabi(self):
        # A decay rate is the unit of every rate, and a detuning the
        # oracle's keyword: neither is a field.
        assert list(ModelParams.__dataclass_fields__) == ["n_atoms", "rabi"]


class TestSteadyState:
    def test_undriven_is_ground(self):
        state = steady_state(ModelParams(n_atoms=9, rabi=0.0))
        expected = DickeLadderState.ground(9)
        assert np.max(np.abs(state.rho - expected.rho)) == 0.0

    def test_saturated_populations_uniform(self):
        state = steady_state(ModelParams(n_atoms=10, rabi=50.0))
        pops = np.real(np.diag(state.rho))
        assert np.max(np.abs(pops - 1.0 / 11.0)) / (1.0 / 11.0) < 0.02

    def test_saturated_emission_rate(self):
        state = steady_state(ModelParams(n_atoms=10, rabi=50.0))
        gamma_sr = observables(state).gamma_sr
        assert abs(gamma_sr - 20.0) / 20.0 < 0.02

    @pytest.mark.parametrize("n,rabi", [(4, 1.0), (10, 3.0), (16, 12.0)])
    def test_residual_and_invariants(self, n, rabi):
        params = ModelParams(n_atoms=n, rabi=rabi)
        state = steady_state(params)
        assert np.max(np.abs(liouvillian_rhs(state, params))) < 1e-10
        check_state(state, trace_tol=1e-10, herm_tol=1e-12, psd_tol=1e-8)

    def test_resonant_closed_form_matches_sparse_lu(self):
        # The sparse trace-row solve that resonant drive used before the
        # closed form, kept as the reference.
        cases = [
            ModelParams(n_atoms=n, rabi=0.5 * beta * n)
            for n in (1, 2, 5, 16, 40, 100)
            for beta in (0.05, 0.5, 0.95, 1.05, 3.0, 100.0)
        ]
        cases.append(ModelParams(n_atoms=16, rabi=2.8))
        for params in cases:
            state = steady_state(params)
            assert np.max(np.abs(state.rho - lu_steady_rho(params))) <= 1e-12, params
            assert np.max(np.abs(liouvillian_rhs(state, params))) <= 1e-10, params

    def test_resonant_closed_form_extreme_range(self):
        # Weak drive at large N spans hundreds of decades between the
        # bottom and top populations; strong drive is near saturation.
        for n in (1000, 2000):
            for beta in (0.01, 0.3, 100.0):
                params = ModelParams(n_atoms=n, rabi=0.5 * beta * n)
                state = steady_state(params)
                label = (n, beta)
                assert np.all(np.isfinite(state.rho)), label
                assert abs(state.trace() - 1.0) <= 1e-10, label
                assert hermiticity_defect(state) == 0.0, label
                assert np.max(np.abs(liouvillian_rhs(state, params))) <= 1e-10, label
                obs = observables(state)
                if beta <= 0.3:
                    # Below threshold the dipole locks to <S-> = -i*rabi.
                    assert abs(obs.dipole.imag / params.rabi + 1.0) <= 1e-6, label
                else:
                    saturated = n * (n + 2) / 6.0
                    assert abs(obs.gamma_sr / saturated - 1.0) <= 0.02, label

    def test_resonant_residual_check_raises(self, monkeypatch):
        monkeypatch.setattr(ddmsim.ladder, "_RESID_TOL", 1e-300)
        with pytest.raises(RuntimeError, match=r"residual \S+ exceeds 1\.0e-300"):
            steady_state(ModelParams(n_atoms=40, rabi=30.0))

    def test_detuned_matches_full_space_oracle(self):
        # The ladder is resonant; the 2^N oracle keeps a detuning:
        # relaxed from the ground state, against the trace-row LU of the
        # reference superoperator.
        for n in (2, 3):
            for rabi in (0.7, 2.0):
                for detuning in (-0.9, 0.9):
                    params = ModelParams(n_atoms=n, rabi=rabi)
                    state = DickeLadderState(n, lu_steady_rho(params, detuning))
                    _, full = full_evolve(FullState.ground(n), params, 80.0, tol=1e-11,
                                          n_samples=2, detuning=detuning)
                    ref = observables(project_to_ladder(full[-1])[0])
                    obs = observables(state)
                    label = (n, rabi, detuning)
                    assert abs(obs.s_z - ref.s_z) <= 1e-8, label
                    assert abs(obs.gamma_sr - ref.gamma_sr) <= 1e-8, label
                    assert abs(obs.dipole - ref.dipole) <= 1e-8, label
                    residual = (superoperator(params, detuning=detuning)
                                @ state.rho.ravel(order="F"))
                    assert np.max(np.abs(residual)) <= 1e-10, label

    def test_fixed_point_of_evolve(self):
        params = ModelParams(n_atoms=8, rabi=3.0)
        ss = steady_state(params)
        _, states = evolve(ss, params, 5.0, tol=1e-11)
        o0, o1 = observables(ss), observables(states[-1])
        assert abs(o0.s_z - o1.s_z) < 1e-8
        assert abs(o0.gamma_sr - o1.gamma_sr) < 1e-8
        assert abs(o0.dipole - o1.dipole) < 1e-8
        assert abs(o0.g2_numerator - o1.g2_numerator) < 1e-8


class TestObservables:
    def test_ground_state(self):
        obs = observables(DickeLadderState.ground(12))
        assert obs.s_z == pytest.approx(-1.0, abs=1e-15)
        assert obs.n_e == pytest.approx(0.0, abs=1e-15)
        assert obs.dipole == 0.0
        assert obs.gamma_sr == 0.0

    def test_uniform_diagonal(self):
        obs = observables(uniform_diagonal(10))
        assert obs.gamma_sr == pytest.approx(20.0, abs=1e-12)

    def test_single_excitation_enhancement(self):
        n = 10
        state = DickeLadderState(n)
        state.rho[1, 1] = 1.0  # |S, -S+1>
        obs = observables(state)
        assert obs.gamma_sr == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_matrix_product_oracle(self, seed):
        # Dense spin matrices built from the ladder action.
        n = 6
        state = random_density_matrix(n, seed)
        dim = n + 1
        s = n / 2
        sm = np.zeros((dim, dim))
        for i in range(1, dim):
            m = i - s
            sm[i - 1, i] = np.sqrt(s * (s + 1) - m * (m - 1))
        sp = sm.T
        sz = np.diag(np.arange(dim) - s)
        obs = observables(state)
        assert obs.s_z == pytest.approx(np.trace(sz @ state.rho).real / s, abs=1e-12)
        assert obs.dipole == pytest.approx(np.trace(sm @ state.rho), abs=1e-12)
        assert obs.gamma_sr == pytest.approx(
            np.trace(sp @ sm @ state.rho).real, abs=1e-12
        )
        assert obs.g2_numerator == pytest.approx(
            np.trace(sp @ sp @ sm @ sm @ state.rho).real, abs=1e-12
        )


class TestG2:
    def test_single_excitation_zero(self):
        n = 8
        state = DickeLadderState(n)
        state.rho[1, 1] = 1.0
        assert g2_zero(state) == 0.0

    def test_uniform_diagonal_frozen_value(self):
        # Matrix-product oracle: <S+S+S-S-> = 468, <S+S-> = 20 at N = 10.
        state = uniform_diagonal(10)
        assert g2_zero(state) == pytest.approx(468.0 / 400.0, abs=1e-12)

    def test_strong_drive_approaches_uniform_limit(self):
        target = g2_zero(uniform_diagonal(10))
        gaps = [
            abs(g2_zero(steady_state(ModelParams(n_atoms=10, rabi=w))) - target)
            for w in (20.0, 50.0, 100.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_undefined_for_ground_state(self):
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(DickeLadderState.ground(5))


# --- one steady point at the cost of its arithmetic --------------------------
#
# References: the steady-state path as it was before the per-N tables:
# rates and weights rebuilt per call, the closed form as one reverse
# cumulative product down each column with a mask of ones below the
# diagonal, the stencil with one scratch array, and |.|.max() for the
# residual. The closed form and the stencil are built this way again, on
# the cached tables and the flat (pops, steps) of the O(N) rows; every
# product keeps its operands and their order, so each must match these
# to the bit.

def reference_coupling(n):
    s = n / 2.0
    m = np.arange(n + 1) - s
    return np.sqrt(np.maximum(s * (s + 1) - m * (m + 1), 0.0))


def reference_rates(params):
    a = reference_coupling(params.n_atoms)
    return (0.5 * params.rabi * a,
            np.concatenate(([0.0], -0.5 * a[:-1] ** 2)))


def reference_gauged_rhs(x, params, symmetric=False):
    a = reference_coupling(params.n_atoms)[:-1]
    drive, drain = reference_rates(params)
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


def reference_phases(dim, inverse=False):
    idx = np.arange(dim)
    table = np.array([1, 1j, -1, -1j])[(idx[:, None] - idx[None, :]) % 4]
    return table.conj() if inverse else table


def reference_populations(params):
    """The diagonal of the closed form: the recurrence that rescales the
    whole of d whenever its last entry passes 1e150."""
    a = reference_coupling(params.n_atoms)[:-1]
    r = params.rabi
    d, one = [1.0], 1.0
    for q in ((a / r) ** 2)[::-1].tolist():
        d.append(one + q * d[-1])
        if d[-1] > 1e150:
            scale = d[-1]
            d = [v / scale for v in d]
            one /= scale
    pops = np.array(d[::-1])
    pops /= pops.sum()
    return pops


def reference_resonant_steady_rho(params):
    n = params.n_atoms
    a = reference_coupling(n)[:-1]
    r = params.rabi
    pops = reference_populations(params)
    idx = np.arange(n + 1)
    below = np.greater.outer(idx, idx)
    steps = np.where(below, 1.0, np.append(a * (1.0 / r), 1.0)[:, None])
    steps.flat[:: n + 2] = pops
    upper = np.cumprod(steps[::-1], axis=0, out=steps[::-1])[::-1]
    np.copyto(upper, upper.T, where=below)
    return upper


def reference_steady_state(params):
    """(rho, residual, gauged R, stencil of R)."""
    gauged = reference_resonant_steady_rho(params)
    rhs = reference_gauged_rhs(gauged, params, symmetric=True)
    residual = float(np.abs(rhs).max())
    rho = gauged.astype(complex)
    rho *= reference_phases(params.n_atoms + 1, inverse=True)
    return rho, residual, gauged, rhs


def reference_liouvillian_rhs(state, params):
    dim = state.n_atoms + 1
    out = reference_gauged_rhs(state.rho * reference_phases(dim), params)
    out *= reference_phases(dim, inverse=True)
    return out


def reference_emission_sums(state):
    padded = np.concatenate(([0.0, 0.0], reference_coupling(state.n_atoms)[:-1]))
    am2, am1 = padded[:-1], padded[1:]
    am1_sq = am1**2
    pops = state.rho.diagonal(0, -2, -1).real
    return (am1_sq * pops).sum(-1), (am1_sq * am2**2 * pops).sum(-1)


def reference_observables_of(state):
    """s_z, n_e, dipole, <S+S->, <S+S+S-S-> as arrays (or numpy scalars)."""
    n = state.n_atoms
    am1 = reference_coupling(n)[:-1]
    pops = state.rho.diagonal(0, -2, -1).real
    m = np.arange(n + 1) - n / 2.0
    s_z = (m * pops).sum(-1) / (n / 2.0)
    dipole = (am1 * state.rho.diagonal(-1, -2, -1)).sum(-1)
    spsm, g2_num = reference_emission_sums(state)
    return s_z, 0.5 * (s_z + 1.0), dipole, spsm, g2_num


PINNED_N = [*range(1, 61), 98, 140, 600, 2000]
PINNED_BETAS = (0.01, 0.5, 1.0, 1.1, 2.75, 100.0)


def pinned_params(n):
    return [ModelParams(n_atoms=n, rabi=0.5 * beta * n) for beta in PINNED_BETAS]


def population_rescales(params):
    """Whether the closed form's population recurrence passes 1e150,
    where it rescales."""
    a = reference_coupling(params.n_atoms)[:-1]
    r = params.rabi
    d = 1.0
    for q in ((a / r) ** 2)[::-1].tolist():
        d = 1.0 + q * d
        if d > 1e150:
            return True
    return False


class TestSteadyPointBitForBit:
    """The steady point built from the per-N tables and `_closed_form`,
    against the per-call construction, byte for byte."""

    @pytest.mark.parametrize("n", PINNED_N)
    def test_steady_state_matches_reference(self, n):
        for params in pinned_params(n):
            rho, residual, gauged, rhs = reference_steady_state(params)
            assert ddmsim.ladder._resonant_steady_rho(params).tobytes() == gauged.tobytes()
            assert _gauged_rhs(gauged, params, symmetric=True).tobytes() == rhs.tobytes()
            state = steady_state(params)
            assert state.rho.tobytes() == rho.tobytes(), params
            assert state.residual == residual, params
            obs = observables(state)
            s_z, n_e, dipole, spsm, g2_num = map(complex, reference_observables_of(state))
            assert (obs.s_z, obs.n_e, obs.gamma_sr, obs.g2_numerator) == (
                s_z.real, n_e.real, spsm.real, g2_num.real)
            assert obs.dipole == dipole
            if spsm.real >= 1e-14:
                assert g2_zero(state) == g2_num.real / (spsm.real * spsm.real)

    def test_weak_drive_at_large_n_takes_the_rescale(self):
        # N = 2000 at beta = 0.01 is in PINNED_N; this keeps it honest.
        assert population_rescales(ModelParams(n_atoms=2000, rabi=10.0))
        assert not population_rescales(ModelParams(n_atoms=140, rabi=77.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 47, 60, 98, 140, 300, 600])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_liouvillian_rhs_matches_reference(self, n, gamma):
        # The drive 0.7 N in units of a decay rate gamma.
        params = ModelParams(n_atoms=n, rabi=0.7 * n / gamma)
        rng = np.random.default_rng(n)
        rho = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        # Signed zeros and exact zeros, where a sign could flip.
        rho[::3, ::2] = 0.0
        rho[1::4, ::3] = complex(-0.0, -0.0)
        rho[:, -1] = complex(-0.0, 0.0)
        state = DickeLadderState(n, rho)
        got = liouvillian_rhs(state, params)
        assert got.tobytes() == reference_liouvillian_rhs(state, params).tobytes()
        real = rho.real.copy()
        assert (_gauged_rhs(real, params).tobytes()
                == reference_gauged_rhs(real, params).tobytes())

    @pytest.mark.parametrize("n, rabi", [(1, 0.7), (2, 4.5), (7, 1.0), (24, 18.0),
                                         (47, 30.0), (52, 13.0), (140, 80.0)])
    def test_trajectory_observables_match_reference(self, n, rabi):
        rng = np.random.default_rng(n)
        rho = rng.random(size=(9, n + 1, n + 1)) + 1j * rng.normal(size=(9, n + 1, n + 1))
        traj = LadderTrajectory(n, rho, np.trace(rho, axis1=1, axis2=2).real)
        obs = observables(traj)
        got = (obs.s_z, obs.n_e, obs.dipole, obs.gamma_sr, obs.g2_numerator)
        for mine, ref in zip(got, reference_observables_of(traj)):
            assert mine.tobytes() == ref.tobytes()
        if n <= 52:
            _, traj = evolve(DickeLadderState.ground(n), ModelParams(n_atoms=n, rabi=rabi),
                             2.0, n_samples=11)
            obs = observables(traj)
            got = (obs.s_z, obs.n_e, obs.dipole, obs.gamma_sr, obs.g2_numerator)
            for mine, ref in zip(got, reference_observables_of(traj)):
                assert mine.tobytes() == ref.tobytes()

    def test_state_holds_only_rho(self):
        n = 140
        state = steady_state(ModelParams(n_atoms=n, rabi=0.5 * 1.1 * n))
        assert owned_nbytes([state.rho]) == 16 * (n + 1) ** 2
        assert state.rho.flags.c_contiguous

    def test_dark_and_subnormal_drive(self):
        # The dark point and a drive whose 1/r is huge (1e-300) or inf
        # (1e-310) take the closed form's shared path, as the rows do.
        state = steady_state(ModelParams(n_atoms=10, rabi=0.0))
        assert np.array_equal(state.rho, DickeLadderState.ground(10).rho)
        assert state.residual == 0.0
        for rabi in (1e-300, 1e-310):
            with pytest.raises(RuntimeError) as error:
                steady_state(ModelParams(n_atoms=10, rabi=rabi))
            assert str(error.value) == "steady-state residual nan exceeds 1.0e-10"


def owned_nbytes(arrays):
    """Bytes of the distinct buffers that the arrays rest on."""
    owners = {}
    for array in arrays:
        while array.base is not None:
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


class TestLadderTables:
    def test_one_entry_at_n_2000_is_small(self):
        tables = _ladder(2000)
        arrays = [getattr(tables, name) for name in tables._fields]
        assert owned_nbytes(arrays) < 256 * 1024
        # Nothing (N+1)^2-sized: the phase views rest on 2N + 1 phases.
        assert all(a.base is None or a.base.size < 2001**2 for a in arrays)

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_tables_are_read_only(self, n):
        tables = _ladder(n)
        for name in tables._fields:
            assert not getattr(tables, name).flags.writeable, name

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    def test_values(self, n):
        tables = _ladder(n)
        a = reference_coupling(n)
        assert tables.a.tobytes() == a.tobytes()
        drive, drain = reference_rates(ModelParams(n_atoms=n, rabi=1.3))
        got_drive, got_drain = ddmsim.ladder._rates(ModelParams(n_atoms=n, rabi=1.3))
        assert got_drive.tobytes() == drive.tobytes()
        assert got_drain.tobytes() == drain.tobytes()  # +0.0 first
        assert tables.gauge.tobytes() == reference_phases(n + 1).tobytes()
        assert (tables.gauge_inverse.tobytes()
                == reference_phases(n + 1, inverse=True).tobytes())


def horner_taylor_polynomial(x):
    """sum_{k<=14} x^k/k! in Horner's form (13 matrix products), as
    `_propagate_dense` formed it before Paterson-Stockmeyer."""
    p, tmp = x / 14, np.empty_like(x)
    p.flat[:: x.shape[0] + 1] += 1.0
    for k in range(13, 0, -1):
        np.matmul(x, p, out=tmp)
        tmp /= k
        tmp.flat[:: x.shape[0] + 1] += 1.0
        p, tmp = tmp, p
    return p


class CountedMatmul(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedMatmul.products += 1
        inputs = [np.asarray(v) if isinstance(v, CountedMatmul) else v for v in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(v) for v in kwargs["out"])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(CountedMatmul) if isinstance(result, np.ndarray) else result


class TestTaylorPolynomial:
    @pytest.mark.parametrize("n", range(1, 48))
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_matches_horner_before_squaring(self, n, gamma):
        # x as `_propagate_dense` scales it for a 161-sample trace to t = 8,
        # the operator taken at a decay rate gamma.
        op = gamma * _sector_operator(ModelParams(n_atoms=n, rabi=0.75 * n))
        dt = 8.0 / 160
        norm = abs(op).sum(axis=0).max() * dt
        squarings = int(np.ceil(np.log2(max(norm / 0.5, 1.0))))
        x = op * (dt / 2.0**squarings)
        assert abs(x).sum(axis=0).max() <= 0.5
        ref = horner_taylor_polynomial(x)
        got = ddmsim.ladder._taylor_polynomial(x)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_seven_matrix_products(self):
        x = np.random.default_rng(0).normal(size=(9, 9)) / 20
        CountedMatmul.products = 0
        got = ddmsim.ladder._taylor_polynomial(x.view(CountedMatmul))
        assert CountedMatmul.products == 7
        assert np.max(np.abs(np.asarray(got) - expm(x))) <= 1e-15

    def test_holds_as_many_buffers_as_horner(self):
        x = np.random.default_rng(1).normal(size=(200, 200)) / 400
        for polynomial in (horner_taylor_polynomial, ddmsim.ladder._taylor_polynomial):
            tracemalloc.start()
            polynomial(x)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 3 * x.nbytes + 65536, polynomial.__name__

    def test_trace_matches_horner_propagator(self, monkeypatch):
        n = 24
        params = ModelParams(n_atoms=n, rabi=0.75 * n)
        _, fast = evolve(DickeLadderState.ground(n), params, 8.0, n_samples=161)
        monkeypatch.setattr(ddmsim.ladder, "_taylor_polynomial", horner_taylor_polynomial)
        _, horner = evolve(DickeLadderState.ground(n), params, 8.0, n_samples=161)
        assert np.max(np.abs(fast.rho - horner.rho)) <= 1e-13


def band_of(rhs):
    """max |rhs| over the diagonal and the first off-diagonal."""
    return max(np.abs(np.diagonal(rhs)).max(), np.abs(np.diagonal(rhs, 1)).max())


def column_inputs(params):
    """The chunk of params alone, and p and A_l/r (0 in the last slot) in
    its slots, as `steady_columns` forms them."""
    chunk = ddmsim.ladder._chunk([params])
    return chunk, *ddmsim.ladder._closed_form(chunk)


def bits(value):
    return np.float64(value).tobytes()


# The observable columns of `steady_columns`, in row order.
COLUMN_NAMES = ("s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr", "g2")


def point_columns(cols, k):
    """The cells of point k of steady_columns' columns, as bytes."""
    return [bits(cols[name][k]) for name in COLUMN_NAMES + ("residual",)]


class TestSteadyColumns:
    """The O(N) steady observables against the full closed-form state."""

    @pytest.mark.parametrize("n", PINNED_N)
    def test_match_steady_state_bit_for_bit(self, n):
        group = pinned_params(n)
        cols, faults = steady_columns(group)
        assert faults == {}
        eps = np.finfo(float).eps
        for k, params in enumerate(group):
            state = steady_state(params)
            obs = observables(state)
            assert [bits(cols[name][k]) for name in COLUMN_NAMES] == [
                bits(v) for v in (obs.s_z, obs.n_e, obs.dipole.real, obs.dipole.imag,
                                  obs.gamma_sr, g2_zero(state))], params
            # The band check against the full stencil: both are round-off
            # of terms no larger than about S(S+1) max p.
            gauged = ddmsim.ladder._resonant_steady_rho(params)
            rhs = _gauged_rhs(gauged.copy(), params, symmetric=True)
            scale = 0.25 * n * (n + 2) * gauged.diagonal().max()
            assert abs(cols["residual"][k] - band_of(rhs)) <= 128 * eps * scale, params
            assert cols["residual"][k] <= 1e-10 and state.residual <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 9, 140])
    def test_dark_ground_state(self, n):
        params = ModelParams(n_atoms=n, rabi=0.0)
        cols, faults = steady_columns([params, ModelParams(n_atoms=n, rabi=1.0)])
        obs = observables(steady_state(params))
        assert [bits(cols[name][0]) for name in COLUMN_NAMES[:-1] + ("residual",)] == [
            bits(v) for v in (obs.s_z, obs.n_e, obs.dipole.real, obs.dipole.imag,
                              obs.gamma_sr, 0.0)]
        assert (cols["s_z"][0], cols["n_e"][0]) == (-1.0, 0.0)
        assert math.isnan(cols["g2"][0]) and faults == {}

    def test_weak_drive_at_n_2000_takes_the_rescale(self):
        params = ModelParams(n_atoms=2000, rabi=10.0)  # beta = 0.01
        assert population_rescales(params)
        cols, faults = steady_columns([params])
        state = steady_state(params)
        assert faults == {} and cols["residual"][0] <= 1e-10
        assert bits(cols["s_z"][0]) == bits(observables(state).s_z)
        assert bits(cols["g2"][0]) == bits(g2_zero(state))

    def test_populations_do_not_depend_on_their_batch(self):
        populations, chunk_of = ddmsim.ladder._steady_populations, ddmsim.ladder._chunk
        one_n = [(300, 0.5), (300, 1.5), (300, 150.0), (300, 1e-3), (300, 3e4)]
        # Unsorted and repeated N: runs of one point and of several.
        mixed = [(300, 0.5), (7, 1e-3), (300, 1.5), (2000, 10.0), (2000, 1e4), (1, 2.0),
                 (7, 1e-3), (7, 60.0), (300, 150.0), (1, 0.3)]
        gauged = ddmsim.ladder._resonant_steady_rho(ModelParams(n_atoms=300, rabi=1.5))
        for points in (one_n, mixed):
            group = [ModelParams(n_atoms=n, rabi=rabi) for n, rabi in points]
            chunk = chunk_of(group)
            pops = populations(chunk, chunk.rabi)
            for k, params in enumerate(group):
                mine = pops[chunk.first[k]:chunk.last[k] + 1]
                alone = populations(chunk_of([params]), params.rabi)
                assert mine.tobytes() == alone.tobytes(), params
                assert mine.tobytes() == reference_populations(params).tobytes(), params
            k = points.index((300, 1.5))
            assert (gauged.diagonal().tobytes()
                    == pops[chunk.first[k]:chunk.last[k] + 1].tobytes())

    @pytest.mark.parametrize("n", [2000, 10_000])
    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.5])
    def test_rescaled_populations_match_the_reference(self, n, beta):
        # The tail-only rescale against the recurrence that rescales all
        # of d: the same bits.
        params = ModelParams(n_atoms=n, rabi=0.5 * beta * n)
        assert population_rescales(params)
        chunk = ddmsim.ladder._chunk([params])
        got = ddmsim.ladder._steady_populations(chunk, params.rabi)
        assert got.tobytes() == reference_populations(params).tobytes()

    def test_a_mixed_group_matches_each_point_alone(self):
        # Unsorted and repeated N, the dark state and a nan point (beta
        # 1e-300): every cell and fault of a point is the one it has alone.
        points = [(31, 0.5), (3, 1e-300), (140, 0.0), (3, 2.0), (31, 2.75), (1, 0.5),
                  (2000, 0.01), (3, 1e-300), (140, 1.1), (1, 1e-300)]
        group = [ModelParams(n_atoms=n, rabi=0.5 * beta * n) for n, beta in points]
        cols, faults = steady_columns(group)
        assert sorted(faults) == [1, 7, 9]
        for k, params in enumerate(group):
            alone, alone_faults = steady_columns([params])
            assert point_columns(cols, k) == point_columns(alone, 0), params
            assert faults.get(k) == alone_faults.get(0)
        assert faults[1] == "steady-state residual nan exceeds 1.0e-10"

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 333])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_band_residual_is_the_stencil_on_its_band(self, monkeypatch, n, scale):
        # Away from the steady state L R is of order one, so the band
        # check must agree with the full stencil to round-off.
        populations = ddmsim.ladder._steady_populations
        rng = np.random.default_rng(n)

        def shaken(chunk, r):
            return populations(chunk, r) * (1.0 + 1e-3 * rng.random(chunk.a.size))

        monkeypatch.setattr(ddmsim.ladder, "_steady_populations", shaken)
        for beta in (0.3, 1.0, 2.75):  # times scale
            params = ModelParams(n_atoms=n, rabi=0.5 * beta * n * scale)
            gauged = ddmsim.ladder._resonant_steady_rho(params)
            want = band_of(_gauged_rhs(gauged.copy(), params, symmetric=True))
            chunk, _, steps = column_inputs(params)
            got = ddmsim.ladder._band_residual(chunk, gauged.diagonal(), steps)
            assert got[0] == pytest.approx(want, rel=1e-12)
            assert want > 1e-6

    @pytest.mark.parametrize("n, beta", [(1, 0.5), (2, 2.0), (10, 0.01), (10, 1.0),
                                         (47, 0.3), (140, 2.75), (600, 1.1), (2000, 0.01),
                                         (2000, 100.0)])
    @pytest.mark.parametrize("where", ["p", "step"])
    def test_mutation_fails_the_band_check(self, n, beta, where):
        # One p_l or one A_l/r off by 1e-8 relative: the check must see it.
        params = ModelParams(n_atoms=n, rabi=0.5 * beta * n)
        chunk, pops, steps = column_inputs(params)
        assert ddmsim.ladder._band_residual(chunk, pops, steps)[0] <= 1e-10
        a = _ladder(n).a[:-1]
        if where == "p":
            pops[np.argmax(pops)] *= 1.0 + 1e-8
        else:
            steps[np.argmax(a**2 * pops[1:])] *= 1.0 + 1e-8
        assert ddmsim.ladder._band_residual(chunk, pops, steps)[0] > 1e-10

    def test_faults_name_the_failed_check(self, monkeypatch):
        populations = ddmsim.ladder._steady_populations
        group = [ModelParams(n_atoms=40, rabi=r) for r in (5.0, 20.0, 60.0)]

        def broken(chunk, r):
            pops = populations(chunk, r)
            pops[3] *= 1.0 + 1e-6  # the first state's band check fails
            pops[chunk.first[2]:] *= 1.0 + 1e-9  # the third's trace is off, not its band
            return pops

        monkeypatch.setattr(ddmsim.ladder, "_steady_populations", broken)
        _, faults = steady_columns(group)
        assert sorted(faults) == [0, 2]
        assert re.fullmatch(r"steady-state residual \S+ exceeds 1\.0e-10", faults[0])
        assert re.fullmatch(r"steady-state trace is off by 1\.000e-09", faults[2])
