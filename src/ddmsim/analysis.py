"""Fitting utilities: damped-Rabi model traces and power-law exponents.

The excited-state population of a resonantly driven two-level atom has a
closed-form damped-Rabi solution; fitting it to collective-dynamics
traces extracts the effective Rabi frequency felt inside the cloud.
Log-log regression of the steady emission rate against the effective
atom number gives the superradiance exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class FitConvergenceError(RuntimeError):
    """Least-squares fit did not converge; carries the best iterate."""

    def __init__(self, message, best_params):
        super().__init__(message)
        self.best_params = best_params


class UnderdeterminedFitError(ValueError):
    """The trace carries too little structure to constrain the fit."""


@dataclass
class TimeTrace:
    """Sampled population trace, times in units of 1/gamma."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError(
                f"times and values lengths differ: {self.times.shape} vs "
                f"{self.values.shape}"
            )
        if self.times.size >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass
class FitResult:
    """Damped-Rabi fit output: effective Rabi frequency and decay rate
    in units of gamma, with the residual r.m.s. and the 2x2 parameter
    covariance estimated from the Jacobian."""

    omega_eff: float
    decay: float
    residual_rms: float
    covariance: np.ndarray


def obe_excited_population(omega: float, gamma: float, t):
    """Excited population of a resonantly driven two-level atom, started
    in the ground state.

    n_e(t) = n_inf [1 - e^{-3 gamma t/4}(cos(w t) + (3 gamma/(4 w)) sin(w t))]
    with w = sqrt(omega^2 - gamma^2/16) and saturation value
    n_inf = omega^2/(2 omega^2 + gamma^2). For omega < gamma/4, w is
    imaginary and the trigonometric terms become hyperbolic.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = _obe_model(omega, gamma, t)
    return out if out.ndim else float(out)


def _obe_model(omega: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """The damped-Rabi model at t, its arguments unchecked (`_obe_terms`)."""
    n_inf, _, envelope, cos_term, sinc_term = _obe_terms(omega, gamma, t)
    return n_inf * (1.0 - envelope * (cos_term + 0.75 * gamma * sinc_term))


def _obe_terms(omega: float, gamma: float, t: np.ndarray):
    """(n_inf, w^2, e^{-3 gamma t/4}, cos(w t), sin(w t)/w) of the
    damped-Rabi model, for omega, gamma >= 0 and t >= 0 unchecked. At
    omega = gamma = 0, where n_inf has no limit, it is taken as 0: the
    model is then 0 at every t, its limit there."""
    den = 2.0 * omega**2 + gamma**2
    n_inf = omega**2 / den if den else 0.0
    w_sq = omega**2 - gamma**2 / 16.0
    if abs(w_sq) < 1e-14 * gamma**2 or w_sq == 0.0:
        cos_term = np.ones_like(t)
        sinc_term = t  # sin(w t)/w -> t as w -> 0
    elif w_sq > 0:
        w = np.sqrt(w_sq)
        cos_term = np.cos(w * t)
        sinc_term = np.sin(w * t) / w
    else:
        w = np.sqrt(-w_sq)
        cos_term = np.cosh(w * t)
        sinc_term = np.sinh(w * t) / w
    return n_inf, w_sq, np.exp(-0.75 * gamma * t), cos_term, sinc_term


# d/dx of sin(sqrt x)/sqrt x = sum_k>=1 k (-x)^(k-1) (-1)/(2k+1)!, highest
# power first; at |x| < 0.1 the terms left out are below 1e-17 of it.
_SINC_SLOPE = [(-1.0) ** k * k / math.factorial(2 * k + 1) for k in range(7, 0, -1)]


def _obe_jacobian(omega: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """d n_e/d omega and d n_e/d gamma of `obe_excited_population` at t,
    as the columns of a (t.size, 2) array.

    The oscillating terms are differentiated in w^2 = omega^2 - gamma^2/16,
    in which cos(w t) and sin(w t)/w are entire: d cos/d w^2 = -t sinc/2
    and d sinc/d w^2 = (t cos - sinc)/(2 w^2), the latter summed as its
    series in x = w^2 t^2 where |x| < 0.1, so the columns stay finite and
    accurate at and around the critical point omega = gamma/4.
    """
    n_inf, w_sq, envelope, cos_term, sinc_term = _obe_terms(omega, gamma, t)
    x = w_sq * t * t
    near = np.abs(x) < 0.1
    with np.errstate(divide="ignore", invalid="ignore"):
        dsinc = np.where(near, t**3 * np.polyval(_SINC_SLOPE, x),
                         (t * cos_term - sinc_term) / (2.0 * w_sq))
    osc = cos_term + 0.75 * gamma * sinc_term
    dosc = 0.75 * gamma * dsinc - 0.5 * t * sinc_term  # d osc/d w^2
    den = 2.0 * omega**2 + gamma**2
    inv_sq = 1.0 / den**2 if den else 0.0
    rise = 1.0 - envelope * osc
    d_omega_sq = gamma**2 * inv_sq * rise - n_inf * envelope * dosc
    d_gamma = (-2.0 * gamma * omega**2 * inv_sq * rise + n_inf * envelope
               * (0.75 * t * osc - 0.75 * sinc_term + 0.125 * gamma * dosc))
    return np.stack([2.0 * omega * d_omega_sq, d_gamma], axis=1)


def _initial_rabi_guess(trace: TimeTrace) -> float:
    values = trace.values
    final = max(3, values.size // 10)
    # The final samples are read as the saturation below, so a maximum
    # among them is a rounding plateau, not the first Rabi peak.
    head = values[: values.size - final + 1]
    interior = np.flatnonzero((head[1:-1] > head[:-2]) & (head[1:-1] >= head[2:]))
    if interior.size:
        t_peak = trace.times[interior[0] + 1]
        if t_peak > 0:
            return np.pi / t_peak
    # No oscillation: invert the saturation value of the final samples.
    tail = float(np.mean(values[-final:]))
    tail = min(max(tail, 1e-6), 0.499999)
    return np.sqrt(tail / (1.0 - 2.0 * tail))


def fit_omega_eff(trace: TimeTrace) -> FitResult:
    """Fit the damped-Rabi model to a population trace.

    Free parameters are the effective Rabi frequency and the decay rate.
    The initial Rabi guess comes from the first local maximum of the
    trace before its final tenth (pi/t_peak); the decay starts at the
    single-atom value, the unit of every rate (gamma = 1).
    """
    if trace.times.size < 10:
        raise ValueError(f"need at least 10 samples, got {trace.times.size}")
    if trace.span < 1.0:
        raise ValueError(
            f"trace spans {trace.span:.3g}/gamma, need at least one decay time"
        )
    if float(np.max(trace.values) - np.min(trace.values)) < 1e-6:
        raise UnderdeterminedFitError(
            "trace is flat to 1e-6; the fit is underdetermined"
        )

    # Imported here so that subcommands that fit no trace never load it.
    from scipy.optimize import least_squares

    # The model depends on omega through omega^2 alone, and the fit runs
    # on the magnitudes |p| in place of bounds on them: MINPACK's
    # Levenberg-Marquardt with the analytic Jacobian.
    times, values = trace.times, trace.values

    def residuals(p):
        return _obe_model(abs(float(p[0])), abs(float(p[1])), times) - values

    def jacobian(p):
        return (_obe_jacobian(abs(float(p[0])), abs(float(p[1])), times)
                * np.copysign(1.0, p))

    x0 = [_initial_rabi_guess(trace), 1.0]
    res = least_squares(
        residuals,
        x0,
        jac=jacobian,
        method="lm",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=2000,
    )
    if not res.success:
        raise FitConvergenceError(
            f"damped-Rabi fit did not converge: {res.message}",
            best_params=np.abs(res.x),
        )
    n_pts = trace.times.size
    rms = float(np.sqrt(2.0 * res.cost / n_pts))
    jac = res.jac * np.copysign(1.0, res.x)  # in (omega, decay)
    jtj = jac.T @ jac
    dof = max(n_pts - 2, 1)
    try:
        cov = np.linalg.inv(jtj) * (2.0 * res.cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((2, 2), np.inf)
    return FitResult(
        omega_eff=abs(float(res.x[0])),
        decay=abs(float(res.x[1])),
        residual_rms=rms,
        covariance=cov,
    )


def fit_power_law(n_values, y_values):
    """Exponent and prefactor of y = c * n^alpha via log-log regression.

    Returns (alpha, prefactor, alpha_stderr), the standard error coming
    from the regression residuals. Non-finite or non-positive inputs
    raise a ValueError.
    """
    n_values = np.asarray(n_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    if n_values.size != y_values.size:
        raise ValueError("n_values and y_values lengths differ")
    if n_values.size < 3:
        raise ValueError(f"need at least 3 points, got {n_values.size}")
    for name, values in ("n_values", n_values), ("y_values", y_values):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"power-law fit requires finite {name}")
        if np.any(values <= 0):
            raise ValueError("power-law fit requires strictly positive inputs")
    x = np.log(n_values)
    y = np.log(y_values)
    x_mean = x.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise ValueError("all n_values identical")
    alpha = float(np.sum((x - x_mean) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - alpha * x_mean)
    resid = y - (alpha * x + intercept)
    dof = x.size - 2
    sigma_sq = float(np.sum(resid**2) / dof) if dof > 0 else 0.0
    stderr = float(np.sqrt(sigma_sq / sxx))
    return alpha, float(np.exp(intercept)), stderr
