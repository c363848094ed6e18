import decimal
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ddmsim.ladder import DickeLadderState, evolve, observables
from ddmsim.meanfield import (
    MeanFieldState,
    _screening_residual,
    mf_steady,
    solve_x,
)
from ddmsim.params import ModelParams


def mf_ground(n_atoms):
    return MeanFieldState(dipole=0.0, sz=-n_atoms / 2.0, n_atoms=n_atoms)


def spin_length_sq(state):
    return abs(state.dipole) ** 2 + state.sz**2


def mf_rhs(state, params):
    """(d<S->/dt, d<S_z>/dt) of the spin-conserving semi-classical model.

    Valid for resonant drive with <S_x> = 0, where the dipole is purely
    imaginary and i*rabi*<S-> is real.
    """
    omega = params.rabi
    n = state.n_atoms
    d_dipole = (1j * omega + state.dipole) * state.sz
    d_sz = np.real(1j * omega * state.dipole) - (n**2 / 4.0 - state.sz**2)
    return d_dipole, float(d_sz)


def mf_evolve(state0, params, t_final, tol=1e-10, n_samples=None):
    """Integrate the semi-classical equations from state0 to t_final;
    the semi-classical reference for the ladder dynamics.

    Returns (times, states). The spin length is conserved by the
    equations, so a trajectory started on the Bloch sphere stays on it
    to within the integration tolerance.
    """
    n = state0.n_atoms

    def rhs(_t, y):
        state = MeanFieldState(dipole=y[0] + 1j * y[1], sz=y[2], n_atoms=n)
        d_dipole, d_sz = mf_rhs(state, params)
        return [d_dipole.real, d_dipole.imag, d_sz]

    y0 = [state0.dipole.real, state0.dipole.imag, state0.sz]
    t_eval = np.linspace(0.0, t_final, n_samples) if n_samples else None
    sol = solve_ivp(
        rhs, (0.0, t_final), y0, method="RK45", rtol=tol, atol=tol * 1e-2, t_eval=t_eval
    )
    assert sol.success, sol.message
    states = [
        MeanFieldState(dipole=sol.y[0, k] + 1j * sol.y[1, k], sz=sol.y[2, k], n_atoms=n)
        for k in range(len(sol.t))
    ]
    return sol.t, states


def bisect_x(beta, n, iters=200):
    """Independent bisection oracle for the screening equation."""
    lo, hi = 0.0, beta
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = mid**2 + (n**2 * mid**2 / 2) / (1 + n**2 * mid**2 / 2) - beta**2
        if val > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestMfRhs:
    def test_locked_dipole_stationary(self):
        params = ModelParams(n_atoms=10, rabi=3.0)
        state = MeanFieldState(dipole=-3.0j, sz=-2.7, n_atoms=10)
        d_dipole, _ = mf_rhs(state, params)
        assert abs(d_dipole) == 0.0

    def test_saturated_branch_fixed_point(self):
        # sz = 0, dipole = -iN/(2 beta)
        n, beta = 10.0, 2.0
        params = ModelParams(n_atoms=10, rabi=0.5 * beta * n)
        state = MeanFieldState(dipole=-1j * n / (2 * beta), sz=0.0, n_atoms=n)
        d_dipole, d_sz = mf_rhs(state, params)
        assert abs(d_dipole) == 0.0
        assert d_sz == pytest.approx(0.0, abs=1e-12)

    def test_undriven_ground_fixed_point(self):
        params = ModelParams(n_atoms=10, rabi=0.0)
        state = mf_ground(10)
        d_dipole, d_sz = mf_rhs(state, params)
        assert abs(d_dipole) == 0.0
        assert d_sz == 0.0


class TestMfSteady:
    def test_critical_point(self):
        state = mf_steady(1.0, 14.0)
        assert abs(state.dipole) == pytest.approx(7.0, abs=1e-12)
        assert state.sz == 0.0

    def test_magnetized_branch(self):
        state = mf_steady(0.6, 10.0)
        assert state.sz == pytest.approx(-4.0, abs=1e-12)
        assert abs(state.dipole) == pytest.approx(3.0, abs=1e-12)
        assert state.dipole.real == 0.0
        assert state.dipole.imag < 0

    def test_saturated_branch(self):
        state = mf_steady(2.0, 10.0)
        assert state.dipole == pytest.approx(-2.5j, abs=1e-12)
        assert state.sz == 0.0

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.0, 1.5, 4.0])
    def test_zeroes_rhs(self, beta):
        n = 12.0
        state = mf_steady(beta, n)
        params = ModelParams(n_atoms=12, rabi=0.5 * beta * n)
        d_dipole, d_sz = mf_rhs(state, params)
        assert abs(d_dipole) < 1e-13
        assert abs(d_sz) < 1e-12

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.8, 0.99])
    def test_bloch_angle(self, beta):
        state = mf_steady(beta, 20.0)
        tan_theta = abs(state.dipole) / abs(state.sz)
        assert tan_theta == pytest.approx(beta / np.sqrt(1 - beta**2), rel=1e-12)

    def test_spin_length_on_sphere(self):
        for beta in (0.4, 1.0, 3.0):
            state = mf_steady(beta, 8.0)
            assert spin_length_sq(state) <= 16.0 + 1e-9

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_rejects_nonpositive_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be > 0"):
            mf_steady(beta, 8.0)

    @pytest.mark.parametrize("n_atoms", [0.0, -3.0])
    def test_state_rejects_nonpositive_n(self, n_atoms):
        with pytest.raises(ValueError, match="n_atoms must be > 0"):
            MeanFieldState(dipole=0.0, sz=0.0, n_atoms=n_atoms)


class TestOmegaEff:
    # The effective drive inside the cloud is omega - i*gamma*<S->.
    def test_perfect_screening(self):
        # Below threshold the locked dipole -i*rabi/gamma cancels the drive.
        n, beta = 10.0, 0.6
        rabi = 0.5 * beta * n
        assert rabi - 1j * mf_steady(beta, n).dipole == pytest.approx(0.0, abs=1e-15)

    def test_consistent_with_screening_solver(self):
        # The fixed-point dipole gives |w_eff|/w_c = beta - 1/beta while
        # the screening root is x = sqrt(beta^2 - 1); the two closures
        # only coincide deep in the saturated regime, where both recover
        # the bare drive.
        n, beta = 1e6, 20.0
        rabi = 0.5 * beta * n
        w_eff = abs(rabi - 1j * mf_steady(beta, n).dipole)
        x_drive = 0.5 * n * solve_x(beta, n).x
        assert w_eff <= x_drive <= rabi
        assert w_eff == pytest.approx(rabi, rel=5e-3)
        assert x_drive == pytest.approx(rabi, rel=5e-3)


class TestCriticalDrive:
    # The critical drive rabi_c = N*gamma/2 is where ModelParams.beta = 1.
    def test_values(self):
        assert ModelParams(n_atoms=10, rabi=5.0).beta == 1.0
        assert ModelParams(n_atoms=7, rabi=3.5).beta == 1.0

    def test_round_trip_beta_one(self):
        # phase_diagram drives at rabi = beta*N/2 and reports beta.
        for n in (1, 9, 140):
            assert ModelParams(n_atoms=n, rabi=0.5 * 1.0 * n).beta == 1.0

    def test_rejects_nonpositive(self):
        for bad in ({"n_atoms": 0, "rabi": 1.0}, {"n_atoms": 4, "rabi": -1.0}):
            with pytest.raises(ValueError):
                ModelParams(**bad)


class TestSolveX:
    def test_against_bisection_oracle(self):
        sol = solve_x(2.0, 20)
        assert sol.x == pytest.approx(1.732530800077735, abs=1e-10)
        assert sol.x == pytest.approx(bisect_x(2.0, 20), abs=1e-10)

    def test_small_x_scaling(self):
        beta, n = 0.5, 1000.0
        sol = solve_x(beta, n)
        approx = np.sqrt(2) / n * beta / np.sqrt(1 - beta**2)
        assert sol.x == pytest.approx(approx, rel=1e-2)
        assert abs(_screening_residual(n * sol.x, beta, n)) < 1e-10

    def test_large_n_limit(self):
        sol = solve_x(1.5, 1e6)
        assert abs(sol.x - np.sqrt(1.25)) < 1e-5

    def test_residual_grid(self):
        for beta in np.linspace(0.05, 5.0, 50):
            for n in (5, 20, 100, 1e6):
                sol = solve_x(beta, n)
                assert abs(_screening_residual(n * sol.x, beta, n)) < 1e-12

    def test_monotone_in_beta(self):
        betas = np.linspace(0.05, 5.0, 50)
        xs = [solve_x(b, 50).x for b in betas]
        assert np.all(np.diff(xs) > 0)

    def test_one_over_n_scaling_below_threshold(self):
        x3 = solve_x(0.5, 1e3).x
        x4 = solve_x(0.5, 1e4).x
        assert x3 / x4 == pytest.approx(10.0, rel=0.01)


class TestMfEvolve:
    def test_undriven_ground_constant(self):
        params = ModelParams(n_atoms=10, rabi=0.0)
        _, states = mf_evolve(mf_ground(10.0), params, 5.0)
        assert abs(states[-1].dipole) < 1e-12
        assert states[-1].sz == pytest.approx(-5.0, abs=1e-10)

    def test_relaxes_to_steady_state(self):
        n, beta = 50.0, 0.5
        params = ModelParams(n_atoms=50, rabi=0.5 * beta * n)
        t_relax = 20.0 / (n * beta) + 10.0
        _, states = mf_evolve(mf_ground(n), params, t_relax, tol=1e-12)
        target = mf_steady(beta, n)
        assert abs(states[-1].dipole - target.dipole) < 1e-6
        assert abs(states[-1].sz - target.sz) < 1e-6

    def test_spin_length_conserved(self):
        n = 30.0
        params = ModelParams(n_atoms=30, rabi=10.0)
        _, states = mf_evolve(mf_ground(n), params, 5.0, tol=1e-11)
        lengths = [spin_length_sq(s) for s in states]
        assert np.max(np.abs(np.array(lengths) - (n / 2) ** 2)) < 1e-6

    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_tracks_quantum_oscillation_count(self, beta):
        # Above threshold the mean field oscillates with the same number
        # of population maxima as the ladder solver. (Below threshold it
        # is overdamped while the quantum trace keeps a single maximum,
        # so no comparison is made there.)
        n = 10
        params = ModelParams(n_atoms=n, rabi=0.5 * beta * n)
        t, states = mf_evolve(
            mf_ground(float(n)), params, 8.0, tol=1e-10, n_samples=801
        )
        ne_mf = np.array([s.sz / n + 0.5 for s in states])
        tq, qstates = evolve(
            DickeLadderState.ground(n), params, 8.0, tol=1e-9, n_samples=801
        )
        ne_q = np.array([observables(s).n_e for s in qstates])

        def n_maxima(v):
            return int(np.sum((v[1:-1] > v[:-2] + 1e-9) & (v[1:-1] > v[2:] + 1e-9)))

        assert n_maxima(ne_mf) == n_maxima(ne_q)


# The dense-grid bands: N log-spaced over 10..1e4, beta below and above 1.
DENSE_N = np.geomspace(10.0, 1.0e4, 1500)
DENSE_BETA = [0.2 + 0.07 * k for k in range(11)] + [1.1 + 0.19 * k for k in range(11)]
EXTREME_N = (1.0, 1.5, 2.0, 10.0, 1e3, 1e6, 1e9, 1e12)
EXTREME_BETA = (
    1e-12, 1e-6, 0.1, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 10.0, 1e3
)


def decimal_x(beta, n):
    """Root of (N^2/2) w^2 + (1 + N^2 (1 - beta^2)/2) w - beta^2 = 0,
    x = sqrt(w), in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        beta, n = decimal.Decimal(beta), decimal.Decimal(n)
        a = n * n / 2
        b = 1 + n * n * (1 - beta * beta) / 2
        w = 2 * beta * beta / (b + (b * b + 4 * a * beta * beta).sqrt())
        return float(w.sqrt())


class TestSolveXClosedForm:
    def test_matches_bisection_on_dense_grid_bands(self):
        for beta in DENSE_BETA:
            for n in DENSE_N[::15]:
                x = solve_x(beta, n).x
                assert abs(x - bisect_x(beta, n)) <= 1e-12 * max(x, 1.0 / n)

    def test_residual_on_dense_grid_bands(self):
        for beta in DENSE_BETA:
            for n in DENSE_N:
                sol = solve_x(beta, n)
                assert abs(_screening_residual(n * sol.x, beta, n)) < 1e-12

    def test_matches_decimal_root_at_extremes(self):
        for beta in EXTREME_BETA:
            for n in EXTREME_N:
                want = decimal_x(beta, n)
                assert solve_x(beta, n).x == pytest.approx(want, rel=1e-14)

    def test_residual_at_extremes(self):
        # Relative to the size of the equation's terms (beta^2 at large beta).
        for beta in EXTREME_BETA:
            for n in EXTREME_N:
                sol = solve_x(beta, n)
                assert math.isfinite(sol.x)
                resid = abs(_screening_residual(n * sol.x, beta, n))
                assert resid <= 1e-12 * max(1.0, beta * beta)

    def test_monotone_across_branch_switch(self):
        for n in EXTREME_N:
            xs = [solve_x(beta, n).x for beta in EXTREME_BETA]
            assert all(math.isfinite(x) for x in xs)
            assert np.all(np.diff(xs) > 0)

    def test_limits(self):
        # beta -> 0: x -> sqrt(2) beta / N; beta >> 1: x -> sqrt(beta^2 - 1).
        assert solve_x(1e-12, 1e3).x == pytest.approx(
            math.sqrt(2.0) * 1e-12 / 1e3, rel=1e-12
        )
        assert solve_x(1e3, 1e6).x == pytest.approx(math.sqrt(1e6 - 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "beta, n",
        [(math.nan, 10.0), (math.inf, 10.0), (0.5, math.nan), (0.5, math.inf),
         (0.0, 10.0), (0.5, 0.5)],
    )
    def test_rejects_bad_input(self, beta, n):
        with pytest.raises(ValueError):
            solve_x(beta, n)
