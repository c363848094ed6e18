import math

import numpy as np
import pytest

from ddmsim import (
    DickeLadderState,
    ModelParams,
    evolve,
    g2_zero,
    liouvillian_rhs,
    observables,
    steady_state,
)
from ddmsim.ladder import (
    UndefinedCorrelationError,
    _coupling_array,
    _solve_with_trace_row,
    _superoperator,
)
from ddmsim.analysis import obe_excited_population
from ddmsim.oracle import FullState, full_evolve, project_to_ladder


def random_density_matrix(n, seed):
    rng = np.random.default_rng(seed)
    dim = n + 1
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DickeLadderState(n, rho / np.trace(rho))


class TestCouplingCoeff:
    # A[i] = A_m = sqrt(S(S+1) - m(m+1)) at m = i - S, S = N/2.
    def test_top_of_ladder(self):
        assert _coupling_array(2)[2] == 0.0

    def test_middle(self):
        assert _coupling_array(2)[1] == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_bottom(self):
        # A_{-S} = sqrt(2S)
        assert _coupling_array(10)[0] == pytest.approx(np.sqrt(10), abs=1e-15)

    def test_array_matches_scalar(self):
        n = 7
        a = _coupling_array(n)
        s = n / 2
        for i in range(n + 1):
            m = i - s
            scalar = math.sqrt(max(s * (s + 1) - m * (m + 1), 0.0))
            assert a[i] == pytest.approx(scalar, abs=1e-15)


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
        rhs = liouvillian_rhs(state, ModelParams(n_atoms=5, rabi=3.0, detuning=0.7))
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        state = DickeLadderState.ground(3)
        with pytest.raises(ValueError):
            liouvillian_rhs(state, ModelParams(n_atoms=4, rabi=1.0))

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 60])
    @pytest.mark.parametrize("detuning", [0.0, 0.7])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_stencil_matches_superoperator(self, n, detuning, gamma):
        # evolve propagates with the sparse L; the residual checks use the
        # stencil. Both must be the same master equation, on any rho.
        rng = np.random.default_rng(n)
        dim = n + 1
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        params = ModelParams(n_atoms=n, rabi=0.9 * n, detuning=detuning, gamma=gamma)
        stencil = liouvillian_rhs(DickeLadderState(n, rho), params)
        sparse_l = (_superoperator(params) @ rho.ravel(order="F")).reshape(
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
            state.check(trace_tol=1e-7, herm_tol=1e-8, psd_tol=1e-7)

    def test_detuned_matches_full_space_oracle(self):
        for n in (2, 3):
            for rabi in (0.7, 2.0):
                for detuning in (-0.9, 0.9):
                    params = ModelParams(n_atoms=n, rabi=rabi, detuning=detuning)
                    t, states = evolve(
                        DickeLadderState.ground(n), params, 5.0, tol=1e-11,
                        n_samples=26,
                    )
                    t_ref, full = full_evolve(
                        FullState.ground(n), params, 5.0, tol=1e-11, n_samples=26
                    )
                    assert np.array_equal(t, t_ref)
                    label = (n, rabi, detuning)
                    for state, full_state in zip(states, full):
                        obs = observables(state)
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
        state.check(trace_tol=1e-10, herm_tol=1e-12, psd_tol=1e-8)

    def test_resonant_closed_form_matches_sparse_lu(self):
        # The sparse trace-row solve that resonant drive used before the
        # closed form, kept as the reference.
        def lu_state(params):
            dim = params.n_atoms + 1
            v = _solve_with_trace_row(_superoperator(params), dim, row=0)
            rho = v.reshape(dim, dim, order="F")
            rho = 0.5 * (rho + rho.conj().T)
            return rho / np.real(np.trace(rho))

        cases = [
            ModelParams(n_atoms=n, rabi=0.5 * beta * n)
            for n in (1, 2, 5, 16, 40, 100)
            for beta in (0.05, 0.5, 0.95, 1.05, 3.0, 100.0)
        ]
        cases.append(ModelParams(n_atoms=16, rabi=7.0, gamma=2.5))
        for params in cases:
            state = steady_state(params)
            assert np.max(np.abs(state.rho - lu_state(params))) <= 1e-12, params
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
                assert state.hermiticity_defect() == 0.0, label
                assert np.max(np.abs(liouvillian_rhs(state, params))) <= 1e-10, label
                obs = observables(state)
                if beta <= 0.3:
                    # Below threshold the dipole locks to <S-> = -i*rabi.
                    assert abs(obs.dipole.imag / params.rabi + 1.0) <= 1e-6, label
                else:
                    saturated = n * (n + 2) / 6.0
                    assert abs(obs.gamma_sr / saturated - 1.0) <= 0.02, label

    def test_resonant_residual_check_raises(self):
        with pytest.raises(RuntimeError, match="residual"):
            steady_state(ModelParams(n_atoms=40, rabi=30.0), resid_tol=1e-300)

    def test_detuned_matches_full_space_oracle(self):
        # Detuned drive has no closed form and takes the sparse solve;
        # the 2^N oracle relaxed from the ground state checks it.
        for n in (2, 3):
            for rabi in (0.7, 2.0):
                for detuning in (-0.9, 0.9):
                    params = ModelParams(n_atoms=n, rabi=rabi, detuning=detuning)
                    state = steady_state(params)
                    _, full = full_evolve(
                        FullState.ground(n), params, 80.0, tol=1e-11, n_samples=2
                    )
                    ref = observables(project_to_ladder(full[-1])[0])
                    obs = observables(state)
                    label = (n, rabi, detuning)
                    assert abs(obs.s_z - ref.s_z) <= 1e-8, label
                    assert abs(obs.gamma_sr - ref.gamma_sr) <= 1e-8, label
                    assert abs(obs.dipole - ref.dipole) <= 1e-8, label
                    assert np.max(np.abs(liouvillian_rhs(state, params))) <= 1e-10, label

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
        obs = observables(DickeLadderState.uniform_diagonal(10))
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
        state = DickeLadderState.uniform_diagonal(10)
        assert g2_zero(state) == pytest.approx(468.0 / 400.0, abs=1e-12)

    def test_strong_drive_approaches_uniform_limit(self):
        target = g2_zero(DickeLadderState.uniform_diagonal(10))
        gaps = [
            abs(g2_zero(steady_state(ModelParams(n_atoms=10, rabi=w))) - target)
            for w in (20.0, 50.0, 100.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_undefined_for_ground_state(self):
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(DickeLadderState.ground(5))
