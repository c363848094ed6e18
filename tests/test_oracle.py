from types import SimpleNamespace

import numpy as np
import pytest

import ddmsim.oracle
from ddmsim.ladder import DickeLadderState, evolve, liouvillian_rhs, observables
from ddmsim.oracle import (
    FullState,
    NonConvergenceError,
    full_evolve,
    full_lindblad_rhs,
    project_to_ladder,
)
from ddmsim.params import ModelParams


def n2_singlet():
    """(|eg> - |ge>)/sqrt(2) as a density matrix (bits: atom0 = LSB)."""
    vec = np.zeros(4, dtype=complex)
    vec[0b01] = 1.0 / np.sqrt(2)
    vec[0b10] = -1.0 / np.sqrt(2)
    return FullState(2, np.outer(vec, vec.conj()))


def random_qubit_rho(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestFullRhs:
    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            FullState.ground(5)

    def test_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\) incompatible with N = 2"):
            FullState(2, np.eye(2))

    def test_rejects_params_of_another_n(self):
        with pytest.raises(ValueError, match="state has N = 2 but params have N = 3"):
            full_lindblad_rhs(FullState.ground(2), ModelParams(n_atoms=3, rabi=1.0))

    def test_check_accepts_a_density_matrix(self):
        FullState(1, random_qubit_rho(2)).check()
        n2_singlet().check()

    @pytest.mark.parametrize("rho, reason", [
        (np.diag([1.0, 1.0]), "trace deviates from 1"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([1.5, -0.5]), "not positive semidefinite"),
    ])
    def test_check_rejects(self, rho, reason):
        with pytest.raises(ValueError, match=reason):
            FullState(1, rho).check()

    def test_single_atom_matches_ladder(self):
        rho = random_qubit_rho(0)
        params = ModelParams(n_atoms=1, rabi=2.3)
        # Single-atom bases coincide: index 0 = ground in both.
        full = full_lindblad_rhs(FullState(1, rho), params)
        ladder = liouvillian_rhs(DickeLadderState(1, rho), params)
        assert np.max(np.abs(full - ladder)) < 1e-13

    @pytest.mark.parametrize("detuning", [-0.9, 0.4])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_single_atom_detuning_matches_bloch_equations(self, detuning, gamma):
        # The ladder solvers are resonant-only; the oracle's detuning
        # term, H = (rabi/2) sigma_x - (detuning/2) S_z, against the
        # optical Bloch equations written out. At a decay rate gamma the
        # oracle is gamma times itself at rabi/gamma and detuning/gamma.
        rho = random_qubit_rho(1)
        omega = 2.3
        params = ModelParams(n_atoms=1, rabi=omega / gamma)
        rhs = gamma * full_lindblad_rhs(FullState(1, rho), params, detuning / gamma)
        ee, eg = rho[1, 1], rho[1, 0]
        ge, gg = rho[0, 1], rho[0, 0]
        d_ee = -0.5j * omega * (ge - eg) - gamma * ee
        d_eg = -0.5j * omega * (gg - ee) + 0.5j * detuning * eg - 0.5 * gamma * eg
        assert rhs[1, 1] == pytest.approx(d_ee, abs=1e-14)
        assert rhs[1, 0] == pytest.approx(d_eg, abs=1e-14)
        assert rhs[0, 1] == pytest.approx(np.conj(d_eg), abs=1e-14)
        assert rhs[0, 0] == pytest.approx(-d_ee, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_and_hermiticity_preserving(self, n):
        rng = np.random.default_rng(n)
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        rhs = full_lindblad_rhs(FullState(n, rho), ModelParams(n_atoms=n, rabi=3.0))
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_singlet_is_dark(self):
        rhs = full_lindblad_rhs(n2_singlet(), ModelParams(n_atoms=2, rabi=0.0))
        assert np.max(np.abs(rhs)) < 1e-13


class TestFullEvolve:
    def test_failed_integration_raises_with_its_last_time(self, monkeypatch):
        def failing(fun, t_span, y0, **kwargs):
            return SimpleNamespace(success=False, t=np.array([0.0, 0.25]),
                                   message="Required step size is too small.")

        monkeypatch.setattr(ddmsim.oracle, "solve_ivp", failing)
        with pytest.raises(NonConvergenceError) as info:
            full_evolve(FullState.ground(2), ModelParams(n_atoms=2, rabi=1.0), 1.0)
        assert str(info.value) == ("full-space integration failed at t = 0.25: "
                                   "Required step size is too small.")
        assert info.value.last_time == 0.25


class TestProjection:
    def test_ground_product_state(self):
        ladder, leakage = project_to_ladder(FullState.ground(3))
        assert leakage == pytest.approx(0.0, abs=1e-14)
        assert ladder.rho[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert np.sum(np.abs(ladder.rho)) == pytest.approx(1.0, abs=1e-13)

    def test_singlet_fully_outside_ladder(self):
        ladder, leakage = project_to_ladder(n2_singlet())
        assert leakage == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(ladder.rho)) < 1e-14

    def test_symmetric_sector_invariant(self):
        params = ModelParams(n_atoms=4, rabi=3.0)
        _, states = full_evolve(FullState.ground(4), params, 5.0, tol=1e-11)
        for state in states:
            _, leakage = project_to_ladder(state)
            assert abs(leakage) < 1e-10


class TestCrossModuleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rabi", [0.5, 2.0, 8.0])
    def test_observables_match_ladder(self, n, rabi):
        params = ModelParams(n_atoms=n, rabi=rabi)
        t, ladder_states = evolve(
            DickeLadderState.ground(n), params, 5.0, tol=1e-11, n_samples=26
        )
        _, full_states = full_evolve(
            FullState.ground(n), params, 5.0, tol=1e-11, n_samples=26
        )
        for lad, full in zip(ladder_states, full_states):
            proj, leakage = project_to_ladder(full)
            assert abs(leakage) < 1e-10
            o1, o2 = observables(lad), observables(proj)
            assert abs(o1.s_z - o2.s_z) < 1e-8
            assert abs(o1.dipole - o2.dipole) < 1e-8
            assert abs(o1.gamma_sr - o2.gamma_sr) < 1e-8
            assert abs(o1.g2_numerator - o2.g2_numerator) < 1e-8

    def test_density_matrices_match(self):
        params = ModelParams(n_atoms=3, rabi=2.0)
        _, ladder_states = evolve(
            DickeLadderState.ground(3), params, 5.0, tol=1e-11, n_samples=11
        )
        _, full_states = full_evolve(
            FullState.ground(3), params, 5.0, tol=1e-11, n_samples=11
        )
        for lad, full in zip(ladder_states, full_states):
            proj, _ = project_to_ladder(full)
            assert np.max(np.abs(proj.rho - lad.rho)) < 1e-8
