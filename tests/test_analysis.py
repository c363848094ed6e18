from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import solve_ivp

from ddmsim.analysis import (
    FitConvergenceError,
    TimeTrace,
    _initial_rabi_guess,
    _obe_jacobian,
    UnderdeterminedFitError,
    fit_omega_eff,
    fit_power_law,
    obe_excited_population,
)
from ddmsim.ladder import DickeLadderState, evolve, observables
from ddmsim.params import ModelParams


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


class TestObeInputs:
    @pytest.mark.parametrize("omega, gamma, t, match", [
        (1.0, 0.0, 1.0, "gamma must be > 0"),
        (1.0, -1.0, 1.0, "gamma must be > 0"),
        (-0.5, 1.0, 1.0, "omega must be >= 0"),
        (1.0, 1.0, [0.0, -0.1], "t must be >= 0"),
    ])
    def test_rejected(self, omega, gamma, t, match):
        with pytest.raises(ValueError, match=match):
            obe_excited_population(omega, gamma, t)


# fit_omega_eff of the benchmark's traces (t = 8, 161 samples) as the
# parent's finite-difference trust-region fit found them: (N, beta,
# omega_eff, decay, residual_rms).
DENSE_FITS = [
    (3, 0.5, 0.6643620730879262, 2.366658670115013, 0.0007536067168278668),
    (3, 1.5, 1.7983697189906485, 1.359125521083873, 0.005355380394707175),
    (10, 0.5, 2.231831685783683, 7.980491622180007, 0.0003900180582830836),
    (10, 1.5, 5.1384241115997495, 2.0243331044435457, 0.010115493190274917),
    (17, 0.5, 3.812679477551617, 13.66815008842085, 0.0002788377185603667),
    (17, 1.5, 8.639136736049414, 2.4733485457353, 0.014975650250152659),
    (24, 0.5, 5.392523642647234, 19.349843408761792, 0.00022984892207585837),
    (24, 1.5, 12.291441740224462, 2.713277721284564, 0.019326785136457678),
]


def fake_least_squares(**fields):
    """A stand-in for scipy's least_squares that returns a fixed result."""
    def least_squares(fun, x0, **_kwargs):
        n_pts = len(fun(np.asarray(x0)))
        result = dict(success=True, message="", x=np.array([2.0, 1.0]), cost=0.5,
                      jac=np.ones((n_pts, 2)) * [[1.0, 2.0]])
        result.update(fields)
        return SimpleNamespace(**result)
    return least_squares


class TestFitOmegaEffGuessAndFaults:
    def test_guess_without_oscillation_inverts_saturation(self):
        # Overdamped (omega < gamma/4): no interior maximum but rounding
        # plateaus among the last samples, so the guess inverts
        # n_inf = omega^2/(2 omega^2 + 1) of those samples.
        t = np.linspace(0.0, 60.0, 300)
        trace = TimeTrace(times=t, values=obe_excited_population(0.2, 1.0, t))
        assert np.all(np.diff(trace.values) >= 0)
        assert _initial_rabi_guess(trace) == pytest.approx(0.2, rel=1e-6)

    def test_unconverged_least_squares_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "least_squares", fake_least_squares(
            success=False, message="max evaluations", x=np.array([3.0, 0.5])))
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(FitConvergenceError, match="max evaluations") as err:
            fit_omega_eff(TimeTrace(times=t, values=obe_excited_population(2.0, 1.0, t)))
        np.testing.assert_array_equal(err.value.best_params, [3.0, 0.5])

    def test_singular_covariance_is_infinite(self, monkeypatch):
        # Columns of the Jacobian in proportion: J^T J has no inverse.
        monkeypatch.setattr(scipy.optimize, "least_squares", fake_least_squares())
        t = np.linspace(0.0, 10.0, 50)
        fit = fit_omega_eff(TimeTrace(times=t, values=obe_excited_population(2.0, 1.0, t)))
        assert (fit.omega_eff, fit.decay) == (2.0, 1.0)
        assert fit.covariance.shape == (2, 2) and np.all(np.isinf(fit.covariance))


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

    @pytest.mark.parametrize("n, beta, omega_eff, decay, rms", DENSE_FITS)
    def test_benchmark_traces_keep_their_values(self, n, beta, omega_eff, decay, rms):
        t, traj = evolve(DickeLadderState.ground(n), ModelParams(n_atoms=n, rabi=0.5 * beta * n),
                         8.0, tol=1e-11 if n <= 4 else 1e-8, n_samples=161)
        fit = fit_omega_eff(TimeTrace(times=t, values=observables(traj).n_e))
        assert fit.omega_eff == pytest.approx(omega_eff, rel=1e-8, abs=0.0)
        assert fit.decay == pytest.approx(decay, rel=1e-8, abs=0.0)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-8, abs=0.0)

    def test_decay_at_zero_is_no_value_error(self, monkeypatch):
        # The fit runs on |decay| with no bound, so Levenberg-Marquardt
        # may step onto decay = 0, where obe_excited_population raises
        # the ValueError that the CLI reports as a config error.
        seen = []
        solve = scipy.optimize.least_squares

        def via_zero(fun, x0, jac, **kwargs):
            for p in ([x0[0], 0.0], [0.0, 0.0], [-x0[0], -1.0]):
                seen.append((fun(np.array(p)), jac(np.array(p))))
            return solve(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(scipy.optimize, "least_squares", via_zero)
        t = np.linspace(0.0, 10.0, 200)
        undamped = 0.5 * (1.0 - np.cos(3.0 * t))  # the model at decay 0
        fit = fit_omega_eff(TimeTrace(times=t, values=undamped))
        assert all(np.all(np.isfinite(f)) and np.all(np.isfinite(j)) for f, j in seen)
        assert fit.omega_eff == pytest.approx(3.0, rel=1e-9)
        assert fit.decay < 1e-9 and fit.residual_rms < 1e-9

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


class TestAnalyticJacobian:
    @pytest.mark.parametrize("omega, gamma", [
        (2.0, 1.0), (12.3, 2.7), (0.3, 1.0),  # above gamma/4
        (0.25, 1.0), (0.25 * (1 + 1e-9), 1.0), (1.975, 7.9),  # at it
        (0.2, 1.0), (0.1, 1.0), (5.4, 19.3),  # below it
    ])
    def test_matches_central_differences(self, omega, gamma):
        t = np.linspace(0.0, 8.0, 161)
        jac = _obe_jacobian(omega, gamma, t)
        for k, (p, h) in enumerate(((omega, 1e-5 * omega), (gamma, 1e-5 * gamma))):
            up, down = [omega, gamma], [omega, gamma]
            up[k], down[k] = p + h, p - h
            central = (obe_excited_population(*up, t)
                       - obe_excited_population(*down, t)) / (2.0 * h)
            assert np.all(np.isfinite(jac[:, k]))
            np.testing.assert_allclose(jac[:, k], central, rtol=1e-6,
                                       atol=1e-6 * np.abs(central).max())


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

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 4.0])

    def test_rejects_identical_n(self):
        with pytest.raises(ValueError, match="all n_values identical"):
            fit_power_law([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 4.0])

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -4.0, 9.0])

    @pytest.mark.parametrize("n, y", [
        ([2.0, 3.0, 4.0, 5.0], [8.0, 18.0, np.nan, 50.0]),
        ([2.0, 3.0, 4.0, 5.0], [8.0, 18.0, np.inf, 50.0]),
        ([2.0, np.nan, 4.0, 5.0], [8.0, 18.0, 32.0, 50.0]),
    ])
    def test_rejects_non_finite_values(self, n, y):
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(n, y)
