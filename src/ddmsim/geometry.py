"""Cooperativity of an extended cloud coupled to its diffraction mode.

A pencil-shaped Gaussian cloud driven along its axis emits coherently
into a narrow forward lobe. The fraction mu of the single-dipole power
radiated into that lobe sets the effective atom number N*mu used by the
collective-spin model. Lengths are in units of the transition
wavelength (k = 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * np.pi
SINGLE_DIPOLE_POWER = 8.0 * np.pi / 3.0  # integral of the dipole pattern over 4pi


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
    drive_axis: tuple = (1.0, 0.0, 0.0)
    k: float = TWO_PI

    def __post_init__(self):
        if self.ell_ax <= 0 or self.ell_rad <= 0:
            raise ValueError(
                f"cloud sizes must be > 0, got ell_ax={self.ell_ax}, "
                f"ell_rad={self.ell_rad}"
            )
        if not (math.isfinite(self.ell_ax) and math.isfinite(self.ell_rad)):
            raise ValueError(
                f"cloud sizes must be finite, got ell_ax={self.ell_ax}, "
                f"ell_rad={self.ell_rad}"
            )
        axis = np.asarray(self.drive_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"drive_axis must be a unit vector, |axis| = {norm}")
        self.drive_axis = tuple(axis)


def dipole_pattern(theta: float, phi: float):
    """Radiated intensity pattern of a circularly polarized dipole.

    (1 + cos^2(phi) sin^2(theta))/2, with theta the polar angle from the
    quantization (drive) axis. Ranges over [1/2, 1]; integrates to
    8*pi/3 over the full solid angle.
    """
    return 0.5 * (1.0 + np.cos(phi) ** 2 * np.sin(theta) ** 2)


def structure_factor(q, geom: CloudGeometry) -> float:
    """Squared Fourier transform of the Gaussian density at wavevector q.

    q is the difference between the emission and drive wavevectors. For
    r.m.s. sizes ell along the axis and ell_rad transverse, the closed
    form is exp(-q_par^2 ell_ax^2 - q_perp^2 ell_rad^2).
    """
    q = np.asarray(q, dtype=float)
    axis = np.asarray(geom.drive_axis)
    q_par = float(q @ axis)
    q_perp_sq = float(q @ q) - q_par**2
    return float(
        np.exp(-(q_par**2) * geom.ell_ax**2 - q_perp_sq * geom.ell_rad**2)
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
    rad_sq = (geom.k * geom.ell_rad) ** 2
    ax_sq = (geom.k * geom.ell_ax) ** 2
    ax_width = 10.0 / (geom.k * geom.ell_ax)
    rad_width = 10.0 / (2.0 * rad_sq)
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
    result = np.pi * val
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
