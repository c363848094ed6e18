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

TWO_PI = 2.0 * math.pi
# Integral over 4pi of the circularly polarized dipole pattern
# (1 + cos^2(phi) sin^2(theta))/2, theta measured from the drive axis.
SINGLE_DIPOLE_POWER = 8.0 * math.pi / 3.0
# Largest cloud size (in wavelengths) whose (k ell)^2 is a finite float.
MAX_SIZE = math.sqrt(sys.float_info.max) / TWO_PI


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
        sizes = f"ell_ax={self.ell_ax}, ell_rad={self.ell_rad}"
        if self.ell_ax <= 0 or self.ell_rad <= 0:
            raise ValueError(f"cloud sizes must be > 0, got {sizes}")
        if not (math.isfinite(self.ell_ax) and math.isfinite(self.ell_rad)):
            raise ValueError(f"cloud sizes must be finite, got {sizes}")
        if max(self.ell_ax, self.ell_rad) > MAX_SIZE:
            raise ValueError(
                f"cloud sizes must be <= {MAX_SIZE:.6g} wavelengths, beyond "
                f"which (k ell)^2 overflows, got {sizes}"
            )


def _forward_lobe_integrand(u: float, rad_sq: float, ax_sq: float) -> float:
    # u = 1 - cos(theta); sin^2(theta) = 2u - u^2; rad_sq = (k ell_rad)^2,
    # ax_sq = (k ell_ax)^2.
    sin_sq = u * (2.0 - u)
    return (1.0 + 0.5 * sin_sq) * math.exp(-rad_sq * sin_sq - ax_sq * u * u)


def coherent_power(geom: CloudGeometry, rel_tol: float = 1e-10) -> float:
    """Power radiated coherently into the diffraction mode (axial drive).

    pi * int_0^pi dtheta sin(theta) (1 + sin^2(theta)/2)
       * exp[-(k ell_rad sin(theta))^2] * exp[-(k ell_ax)^2 (cos(theta)-1)^2].

    Integrated in u = 1 - cos(theta), with both Gaussian envelopes in
    one exponential. The axial envelope confines the integrand to a
    forward lobe of width ~1/(k ell_ax); a wide cloud confines it
    further to widths ~1/(k ell_rad)^2 at both endpoints (forward and
    backward cones). The adaptive quadrature is given those edges as
    breakpoints.
    """
    # Imported here so that subcommands that integrate nothing never load it.
    from scipy.integrate import quad

    rad_sq = (TWO_PI * geom.ell_rad) ** 2
    ax_sq = (TWO_PI * geom.ell_ax) ** 2
    ax_width = 10.0 / (TWO_PI * geom.ell_ax)
    # A radial (k ell_rad)^2 that underflows to 0 has no cone edge.
    rad_width = 10.0 / (2.0 * rad_sq) if rad_sq else math.inf
    front = min(ax_width, rad_width)
    breakpoints = sorted(
        b for b in (front, 2.0 - rad_width) if 0.0 < b < 2.0
    )
    val, err = quad(
        _forward_lobe_integrand,
        0.0,
        2.0,
        args=(rad_sq, ax_sq),
        points=breakpoints or None,
        epsabs=0.0,
        epsrel=rel_tol,
        limit=200,
    )
    result = math.pi * val
    if err > 1e-8 * abs(val):
        raise QuadratureError(
            f"coherent-power quadrature reached relative error {err / abs(val):.3e}",
            achieved_tol=err / abs(val),
        )
    return float(result)


def cooperativity_mu(geom: CloudGeometry) -> float:
    """Fraction of the single-dipole power emitted into the forward
    diffraction mode; the effective atom number is N*mu.

    Approaches 1 in the point-cloud limit and scales like
    lambda/(2*pi*ell_ax) for a long pencil.
    """
    mu = coherent_power(geom) / SINGLE_DIPOLE_POWER
    return float(min(mu, 1.0))
