import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ddmsim import (
    DickeLadderState,
    ModelParams,
    TimeTrace,
    evolve,
    fit_omega_eff,
    fit_power_law,
    obe_excited_population,
    observables,
)
from ddmsim.analysis import UnderdeterminedFitError


def obe_integrate(omega, gamma, times):
    """Numerically integrated two-level optical Bloch equations
    (resonant, ground start); reference for the closed form."""
    times = np.asarray(times, dtype=float)

    def rhs(_t, y):
        n_e, re_c, im_c = y
        return [
            -gamma * n_e + omega * im_c,
            -0.5 * gamma * re_c,
            -0.5 * gamma * im_c - 0.5 * omega * (2.0 * n_e - 1.0),
        ]

    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        [0.0, 0.0, 0.0],
        method="RK45",
        rtol=1e-12,
        atol=1e-14,
        t_eval=times,
    )
    return sol.y[0]


def dicke_population_trace(n, rabi, t_final=8.0, n_samples=161):
    t, states = evolve(
        DickeLadderState.ground(n),
        ModelParams(n_atoms=n, rabi=rabi),
        t_final,
        tol=1e-10,
        n_samples=n_samples,
    )
    return TimeTrace(times=t, values=np.array([observables(s).n_e for s in states]))


class TestObeClosedForm:
    def test_ground_start(self):
        assert obe_excited_population(3.0, 1.0, 0.0) == 0.0

    def test_undriven(self):
        t = np.linspace(0, 10, 11)
        assert np.all(obe_excited_population(0.0, 1.0, t) == 0.0)

    def test_saturation_limit(self):
        omega = 4.0
        val = obe_excited_population(omega, 1.0, 500.0)
        assert val == pytest.approx(omega**2 / (1 + 2 * omega**2), abs=1e-12)

    @pytest.mark.parametrize("omega", [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_matches_numeric_obe(self, omega):
        t = np.linspace(0.0, 20.0, 201)[1:]
        closed = obe_excited_population(omega, 1.0, t)
        numeric = obe_integrate(omega, 1.0, t)
        assert np.max(np.abs(closed - numeric)) < 1e-8

    def test_critically_damped_boundary(self):
        # omega = gamma/4 is the branch point of the Rabi frequency.
        t = np.linspace(0.0, 20.0, 101)[1:]
        closed = obe_excited_population(0.25, 1.0, t)
        numeric = obe_integrate(0.25, 1.0, t)
        assert np.max(np.abs(closed - numeric)) < 1e-8

    def test_in_unit_interval(self):
        t = np.linspace(0, 30, 301)
        for omega in (0.05, 1.0, 20.0):
            vals = obe_excited_population(omega, 1.0, t)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestFitOmegaEff:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_round_trip(self, omega):
        t = np.linspace(0.0, 10.0, 200)
        trace = TimeTrace(times=t, values=obe_excited_population(omega, 1.0, t))
        fit = fit_omega_eff(trace)
        assert fit.omega_eff == pytest.approx(omega, abs=1e-6)
        assert fit.decay == pytest.approx(1.0, abs=1e-6)
        assert fit.residual_rms < 1e-9
        cov = fit.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-15)

    def test_small_ensemble_behaves_like_single_atom(self):
        fit = fit_omega_eff(dicke_population_trace(2, 4.5))
        assert abs(fit.omega_eff - 4.5) / 4.5 < 0.1

    def test_screening_grows_with_atom_number(self):
        # Restricted to the regime where the trace keeps a visible
        # oscillation; for deeply overdamped traces (beta well below 1)
        # the two-parameter fit locks onto the fast collective rise and
        # the fitted frequency is no longer monotone.
        fitted = [
            fit_omega_eff(dicke_population_trace(n, 4.5)).omega_eff
            for n in (2, 6, 10)
        ]
        assert np.all(np.diff(fitted) < 0)

    def test_rejects_flat_trace(self):
        t = np.linspace(0, 5, 50)
        with pytest.raises(UnderdeterminedFitError):
            fit_omega_eff(TimeTrace(times=t, values=np.full_like(t, 0.3)))

    def test_rejects_short_traces(self):
        t = np.linspace(0, 5, 5)
        with pytest.raises(ValueError):
            fit_omega_eff(TimeTrace(times=t, values=np.linspace(0, 0.4, 5)))
        t = np.linspace(0, 0.5, 50)
        with pytest.raises(ValueError):
            fit_omega_eff(
                TimeTrace(times=t, values=obe_excited_population(3.0, 1.0, t))
            )

    def test_rejects_wrong_kind(self):
        t = np.linspace(0, 5, 50)
        trace = TimeTrace(times=t, values=np.linspace(0, 1, 50), kind="emission_rate")
        with pytest.raises(ValueError):
            fit_omega_eff(trace)


class TestTimeTrace:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            TimeTrace(times=[0.0, 1.0, 1.0], values=[0.0, 0.1, 0.2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeTrace(times=[0.0, 1.0], values=[0.0])


class TestFitPowerLaw:
    def test_exact_square_law(self):
        n = np.array([2.0, 4.0, 7.0, 11.0])
        alpha, prefactor, stderr = fit_power_law(n, 3.0 * n**2)
        assert alpha == pytest.approx(2.0, abs=1e-10)
        assert prefactor == pytest.approx(3.0, rel=1e-10)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_exact_arbitrary_exponent(self):
        n = np.linspace(2, 30, 12)
        alpha, prefactor, _ = fit_power_law(n, 0.7 * n**1.37)
        assert alpha == pytest.approx(1.37, abs=1e-10)
        assert prefactor == pytest.approx(0.7, rel=1e-10)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 4.0])

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -4.0, 9.0])
