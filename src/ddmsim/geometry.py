"""Cooperativity of an extended cloud coupled to its diffraction mode.

A pencil-shaped Gaussian cloud driven along its axis emits coherently
into a narrow forward lobe. The fraction mu of the single-dipole power
radiated into that lobe sets the effective atom number N*mu used by the
collective-spin model. Lengths are in units of the transition
wavelength (k = 2*pi).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# Integral over 4pi of the circularly polarized dipole pattern
# (1 + cos^2(phi) sin^2(theta))/2, theta measured from the drive axis.
SINGLE_DIPOLE_POWER = 8.0 * math.pi / 3.0
# Largest cloud size (in wavelengths) whose (k ell)^2 is a finite float.
MAX_SIZE = math.sqrt(sys.float_info.max) / TWO_PI

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21; Piessens et al. 1983):
# the Kronrod abscissae x_j > 0 of [-1, 1] and their weights, the centre's
# weight last. The odd j (0-based) are the 10-point Gauss abscissae, with
# the Gauss weights _WG.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208626301126, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GAUSS = np.arange(1, 10, 2)
# dqk21 adds the pairs of Gauss abscissae first, then the others.
_KRONROD_ORDER = np.concatenate([_GAUSS, _GAUSS - 1])
_EPS = sys.float_info.epsilon
# Intervals a point may be cut into (QUADPACK's `limit`).
_LIMIT = 200
# Relative error estimate that ends a cloud's bisection.
_REL_TOL = 1e-10
# Largest relative error estimate of a value that is returned.
_MAX_REL_ERR = 1e-8


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, achieved_tol):
        super().__init__(message)
        self.achieved_tol = achieved_tol


@dataclass
class CloudGeometry:
    """Gaussian cloud with r.m.s. sizes ell_ax along the drive axis and
    ell_rad transverse to it, in units of the wavelength."""

    ell_ax: float
    ell_rad: float

    def __post_init__(self):
        ax, rad = self.ell_ax, self.ell_rad
        if ax <= 0 or rad <= 0:
            bound = "> 0"
        elif not (math.isfinite(ax) and math.isfinite(rad)):
            bound = "finite"
        elif max(ax, rad) > MAX_SIZE:
            bound = (f"<= {MAX_SIZE:.6g} wavelengths, beyond which (k ell)^2 "
                     "overflows")
        else:
            return
        raise ValueError(f"cloud sizes must be {bound}, got ell_ax={ax}, ell_rad={rad}")


def _forward_lobe_integrand(u, rad_sq, ax_sq):
    # u = 1 - cos(theta); sin^2(theta) = 2u - u^2; rad_sq = (k ell_rad)^2,
    # ax_sq = (k ell_ax)^2. ax_sq u^2 overflows to inf, and the factor
    # to 0, far outside the lobe of a cloud near MAX_SIZE.
    sin_sq = u * (2.0 - u)
    return (1.0 + 0.5 * sin_sq) * np.exp(-rad_sq * sin_sq - ax_sq * u * u)


def _sum_rows(terms):
    """The column sums of a 2-d array, added row after row: each column's
    bits do not depend on how many columns there are."""
    return np.add.accumulate(terms, axis=0)[-1]


def _qk21(a, b, rad_sq, ax_sq):
    """(integral, error estimate) of the integrand over each interval
    [a, b], by dqk21 in its order of operations, arrays over the intervals.

    The integrand is positive, so the rule applied to |f| (dqk21's
    resabs) is the Kronrod sum itself.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth * _XGK[:, None]
    f = _forward_lobe_integrand(
        np.concatenate([centr - absc, centr[None], centr + absc]), rad_sq, ax_sq)
    left, fc, right = f[:10], f[10], f[11:]
    fsum = left + right
    resg = _sum_rows(_WG[:, None] * fsum[_GAUSS])
    resk = _sum_rows(np.concatenate([
        (_WGK[10] * fc)[None],
        _WGK[_KRONROD_ORDER, None] * fsum[_KRONROD_ORDER]]))
    reskh = resk * 0.5
    resasc = _sum_rows(np.concatenate([
        (_WGK[10] * np.abs(fc - reskh))[None],
        _WGK[:10, None] * (np.abs(left - reskh) + np.abs(right - reskh))]))
    dhlgth = np.abs(hlgth)
    resabs = resk * dhlgth
    resasc = resasc * dhlgth
    err = np.abs((resk - resg) * hlgth)
    scaled = np.flatnonzero((resasc != 0.0) & (err != 0.0))
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    floored = resabs > sys.float_info.min / (50.0 * _EPS)
    err[floored] = np.maximum(50.0 * _EPS * resabs[floored], err[floored])
    return resk * hlgth, err


def _integrate(ell_ax, ell_rad):
    """(integral, error estimate) over u in [0, 2] of each cloud's
    integrand, by QUADPACK's adaptive bisection, arrays over the clouds.

    Each cloud starts from the panels that its breakpoints cut (see
    `cooperativity_column`). Each round bisects the interval of largest
    error of every cloud not yet done; a cloud is done when its error sum
    is at most _REL_TOL times its integral, or at _LIMIT intervals. The
    running sums follow dqage, and the integral is the sum of a cloud's
    intervals in the order they were made, so no value depends on the
    other clouds in the call.
    """
    n = ell_ax.size
    rad_sq = np.square(TWO_PI * ell_rad)
    ax_sq = np.square(TWO_PI * ell_ax)
    # A radial (k ell_rad)^2 that underflows to 0 has no cone edge.
    rad_width = 10.0 / (2.0 * rad_sq)
    edges = np.stack([np.minimum(10.0 / (TWO_PI * ell_ax), rad_width),
                      2.0 - rad_width])
    inside = (0.0 < edges) & (edges < 2.0)
    # A breakpoint outside (0, 2) makes an empty panel at u = 2, whose
    # slot the next interval takes.
    edges[~inside] = 2.0
    edges.sort(axis=0)
    count = 1 + inside.sum(axis=0)
    # Slot j of a cloud is row j: only the rows in use are touched.
    lo, hi, area, err = np.zeros((4, _LIMIT, n))
    lo[1:3], hi[:2], hi[2] = edges, edges, 2.0
    area[:3], err[:3] = (a.reshape(3, n) for a in _qk21(
        lo[:3].ravel(), hi[:3].ravel(), np.tile(rad_sq, 3), np.tile(ax_sq, 3)))
    total, errsum = _sum_rows(area[:3]), _sum_rows(err[:3])
    live = np.flatnonzero(errsum > _REL_TOL * np.abs(total))
    while live.size:
        k = err[:count[live].max(), live].argmax(axis=0)
        a, b = lo[k, live], hi[k, live]
        mid = 0.5 * (a + b)
        halves, errors = _qk21(np.concatenate([a, mid]), np.concatenate([mid, b]),
                               np.tile(rad_sq[live], 2), np.tile(ax_sq[live], 2))
        m = live.size
        total[live] = total[live] + (halves[:m] + halves[m:]) - area[k, live]
        errsum[live] = errsum[live] + (errors[:m] + errors[m:]) - err[k, live]
        new = count[live]
        hi[k, live], area[k, live], err[k, live] = mid, halves[:m], errors[:m]
        lo[new, live], hi[new, live] = mid, b
        area[new, live], err[new, live] = halves[m:], errors[m:]
        count[live] += 1
        live = live[(errsum[live] > _REL_TOL * np.abs(total[live]))
                    & (count[live] < _LIMIT)]
    return _sum_rows(area[:count.max()]), errsum


def cooperativity_column(geoms) -> tuple:
    """(mu, faults) of clouds: `cooperativity_mu` of each as one array,
    computed in one array pass, and the QuadratureError of each index
    whose error estimate stayed above _MAX_REL_ERR of its value (its mu
    is then not a result).

    mu is the power radiated coherently into the diffraction mode (axial
    drive), pi * int_0^pi dtheta sin(theta) (1 + sin^2(theta)/2)
    * exp[-(k ell_rad sin(theta))^2] * exp[-(k ell_ax)^2 (cos(theta)-1)^2],
    over SINGLE_DIPOLE_POWER and capped at 1. It is integrated in
    u = 1 - cos(theta), both Gaussian envelopes in one exponential. The
    axial envelope confines the integrand to a forward lobe of width
    ~1/(k ell_ax); a wide cloud confines it further to widths
    ~1/(k ell_rad)^2 at both endpoints (forward and backward cones). The
    adaptive quadrature (QUADPACK's 21-point Gauss-Kronrod rule, bisected
    to _REL_TOL) starts from panels cut at those edges.
    """
    ell_ax = np.array([g.ell_ax for g in geoms], dtype=float)
    ell_rad = np.array([g.ell_rad for g in geoms], dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        val, err = _integrate(ell_ax, ell_rad)
    faults = {}
    for k in np.flatnonzero(err > _MAX_REL_ERR * np.abs(val)).tolist():
        achieved = float(err[k] / abs(val[k]))
        faults[k] = QuadratureError(
            f"coherent-power quadrature reached relative error {achieved:.3e}",
            achieved_tol=achieved)
    return np.minimum(math.pi * val / SINGLE_DIPOLE_POWER, 1.0), faults


def cooperativity_mu(geom: CloudGeometry) -> float:
    """Fraction of the single-dipole power emitted into the forward
    diffraction mode; the effective atom number is N*mu.

    Approaches 1 in the point-cloud limit and scales like
    lambda/(2*pi*ell_ax) for a long pencil.
    """
    (mu,), faults = cooperativity_column([geom])
    if faults:
        raise faults[0]
    return float(mu)
