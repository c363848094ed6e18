import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from ddmsim.geometry import (
    MAX_SIZE,
    SINGLE_DIPOLE_POWER,
    TWO_PI,
    CloudGeometry,
    _forward_lobe_integrand,
    coherent_power,
    cooperativity_mu,
)
from ddmsim.sweep import _eval_point


def envelope(u, geom):
    """Structure factor |F(q)|^2 = exp(-q_par^2 ell_ax^2 - q_perp^2 ell_rad^2)
    of the cloud for emission at u = 1 - cos(theta), q = k(n - x_hat),
    read off the coherent-power integrand by dividing out its angular
    factor."""
    rad_sq, ax_sq = (TWO_PI * geom.ell_rad) ** 2, (TWO_PI * geom.ell_ax) ** 2
    return _forward_lobe_integrand(u, rad_sq, ax_sq) / _forward_lobe_integrand(
        u, 0.0, 0.0
    )


class TestDipolePattern:
    # At zero cloud size the integrand is 1 + sin^2(theta)/2, twice the
    # phi-average of the pattern (1 + cos^2(phi) sin^2(theta))/2.
    def test_on_axis(self):
        for u in (0.0, 2.0):
            assert _forward_lobe_integrand(u, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_equatorial_maximum(self):
        assert _forward_lobe_integrand(1.0, 0.0, 0.0) == 1.5

    def test_range(self):
        rng = np.random.default_rng(0)
        for u in rng.uniform(0.0, 2.0, size=50):
            assert 1.0 <= _forward_lobe_integrand(u, 0.0, 0.0) <= 1.5

    def test_total_power(self):
        val, _ = dblquad(
            lambda theta, phi: 0.5
            * (1.0 + np.cos(phi) ** 2 * np.sin(theta) ** 2)
            * np.sin(theta),
            0.0,
            2 * np.pi,
            0.0,
            np.pi,
            epsabs=1e-10,
        )
        assert val == pytest.approx(SINGLE_DIPOLE_POWER, abs=1e-8)


class TestStructureFactor:
    def test_forward_scattering(self):
        geom = CloudGeometry(ell_ax=10.0, ell_rad=0.5)
        assert envelope(0.0, geom) == 1.0

    def test_axial_width(self):
        # q_par = -k u; e^-1 where k u ell_ax = 1 (radial factor divided out).
        geom = CloudGeometry(ell_ax=4.0, ell_rad=0.5)
        u = 1.0 / (TWO_PI * 4.0)
        radial = np.exp(-((TWO_PI * 0.5) ** 2) * u * (2.0 - u))
        assert envelope(u, geom) / radial == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_radial_width(self):
        # q_perp = k sin(theta); e^-1 where k sin(theta) ell_rad = 1.
        geom = CloudGeometry(ell_ax=4.0, ell_rad=0.5)
        u = 1.0 - np.sqrt(1.0 - 1.0 / (TWO_PI * 0.5) ** 2)
        axial = np.exp(-((TWO_PI * 4.0 * u) ** 2))
        assert envelope(u, geom) / axial == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_transverse_emission_negligible(self):
        # Emission perpendicular to the drive: u = 1.
        geom = CloudGeometry(ell_ax=22.5, ell_rad=0.5)
        assert envelope(1.0, geom) < 1e-300

    def test_bounded_by_one(self):
        geom = CloudGeometry(ell_ax=3.0, ell_rad=0.7)
        rng = np.random.default_rng(1)
        for u in rng.uniform(1e-6, 0.05, size=50):
            assert 0.0 < envelope(u, geom) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CloudGeometry(ell_ax=0.0, ell_rad=1.0)
        with pytest.raises(ValueError, match="overflows"):
            CloudGeometry(ell_ax=1.0, ell_rad=2.0 * MAX_SIZE)


class TestCoherentPower:
    def test_point_cloud_limit(self):
        geom = CloudGeometry(ell_ax=1e-6, ell_rad=1e-6)
        assert coherent_power(geom) == pytest.approx(SINGLE_DIPOLE_POWER, rel=1e-3)

    def test_quadrature_convergence(self):
        geom = CloudGeometry(ell_ax=22.5, ell_rad=0.5)
        coarse = coherent_power(geom, rel_tol=1e-8)
        fine = coherent_power(geom, rel_tol=1e-12)
        assert abs(coarse - fine) / fine < 1e-8

    def test_pencil_cloud_mu(self):
        geom = CloudGeometry(ell_ax=22.5, ell_rad=0.5)
        mu = cooperativity_mu(geom)
        assert 2.0e-3 <= mu <= 3.0e-3

    def test_doubling_axial_size_halves_mu(self):
        mu1 = cooperativity_mu(CloudGeometry(ell_ax=22.5, ell_rad=0.5))
        mu2 = cooperativity_mu(CloudGeometry(ell_ax=45.0, ell_rad=0.5))
        assert abs(mu1 / mu2 - 2.0) / 2.0 < 0.15


class TestCooperativityMu:
    def test_point_cloud_limit(self):
        mu = cooperativity_mu(CloudGeometry(ell_ax=1e-6, ell_rad=1e-6))
        assert abs(mu - 1.0) < 1e-3

    def test_small_angle_estimate_same_order(self):
        ell_ax = 22.5
        mu = cooperativity_mu(CloudGeometry(ell_ax=ell_ax, ell_rad=0.5))
        estimate = 1.0 / (TWO_PI * ell_ax)
        assert 0.2 <= estimate / mu <= 5.0

    def test_monotone_in_cloud_size(self):
        sizes = np.logspace(-1, 1.5, 5)
        grid = np.array(
            [
                [cooperativity_mu(CloudGeometry(ax, rad)) for rad in sizes]
                for ax in sizes
            ]
        )
        assert np.all(np.diff(grid, axis=0) <= 1e-12)  # growing ell_ax
        assert np.all(np.diff(grid, axis=1) <= 1e-12)  # growing ell_rad


def two_exp_coherent_power(ell_ax, ell_rad, rel_tol):
    """coherent_power with one np.exp per Gaussian envelope, as a reference
    for the single-exponential integrand."""
    k = TWO_PI

    def integrand(u):
        sin_sq = u * (2.0 - u)
        return (
            (1.0 + 0.5 * sin_sq)
            * np.exp(-((k * ell_rad) ** 2) * sin_sq)
            * np.exp(-((k * ell_ax) ** 2) * u * u)
        )

    rad_width = 10.0 / (2.0 * (k * ell_rad) ** 2)
    front = min(10.0 / (k * ell_ax), rad_width)
    points = sorted(b for b in (front, 2.0 - rad_width) if 0.0 < b < 2.0)
    val, _ = quad(
        integrand, 0.0, 2.0, points=points or None, epsabs=0.0,
        epsrel=rel_tol, limit=200,
    )
    return np.pi * val


class TestSingleExponentIntegrand:
    @pytest.mark.parametrize(
        "ell_ax, ell_rad",
        [
            (22.5, 0.5), (50.0, 0.2), (2.0, 0.3),  # pencil
            (0.5, 5.0), (0.2, 2.0), (1.0, 20.0),  # disk
            (1.0, 1.0), (1.1, 0.9), (3.0, 3.2),  # near-sphere
            (1e-6, 1e-6),  # point cloud
        ],
    )
    def test_mu_matches_two_exp_reference(self, ell_ax, ell_rad):
        ref = two_exp_coherent_power(ell_ax, ell_rad, rel_tol=1e-12)
        want = min(ref / SINGLE_DIPOLE_POWER, 1.0)
        mu = cooperativity_mu(CloudGeometry(ell_ax=ell_ax, ell_rad=ell_rad))
        assert mu == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_size(self, bad):
        with pytest.raises(ValueError):
            CloudGeometry(ell_ax=bad, ell_rad=0.5)
        with pytest.raises(ValueError):
            CloudGeometry(ell_ax=0.5, ell_rad=bad)


class TestHighPrecisionReference:
    # mu from 40-digit mpmath 1.3 (mp.quad of the u-integrand of
    # `coherent_power` over [0, 2], split at 1 and at 2^-j from both
    # ends, j = 0..59), rounded to 20 digits; it shares no breakpoint or
    # integrand code with ddmsim. The points are ones where the radial
    # breakpoint of `coherent_power` leaves the forward lobe whole; at
    # ell_rad = 20 it cuts the lobe's tail (ROADMAP item 6).
    @pytest.mark.parametrize(
        "ell_ax, ell_rad, want",
        [
            (10.0, 1.0, 0.0029632701650754866920),
            (2.0, 0.2, 0.024111602746450798847),
            (3.0, 3.05, 0.00051127106465850286332),
        ],
    )
    def test_mu_matches_mpmath(self, ell_ax, ell_rad, want):
        mu = cooperativity_mu(CloudGeometry(ell_ax=ell_ax, ell_rad=ell_rad))
        assert mu == pytest.approx(want, rel=1e-12, abs=0.0)


class TestExtremeSizes:
    @staticmethod
    def mu_row(ell_ax, ell_rad):
        (row,) = _eval_point(
            ("cooperativity", {"ell_ax": ell_ax, "ell_rad": ell_rad}, 1e-8, {})
        )
        return row

    def test_underflowing_radius_is_point_cloud_in_radius(self):
        # (k ell_rad)^2 underflows to 0 below ~1e-155; the radial factor
        # is then 1 to the last bit, as it already is at 1e-150.
        row = self.mu_row(1.0, 1e-320)
        assert row["status"] == "ok"
        assert row["mu"] == self.mu_row(1.0, 1e-150)["mu"]
        assert row["mu"] == pytest.approx(0.0573072565, rel=1e-9)

    def test_long_pencil_law_up_to_largest_size(self):
        # mu ~ 1/ell_ax for a long pencil holds up to the size limit.
        row = self.mu_row(MAX_SIZE, 0.5)
        assert row["status"] == "ok"
        want = self.mu_row(1e150, 0.5)["mu"] * 1e150 / MAX_SIZE
        assert row["mu"] == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("ell_ax, ell_rad", [(1e200, 0.5), (1.0, 1e154)])
    def test_overflowing_size_is_error_row(self, ell_ax, ell_rad):
        row = self.mu_row(ell_ax, ell_rad)
        assert row["status"].startswith("error: cloud sizes must be <= 2.13392e+153")
        assert f"ell_ax={ell_ax}, ell_rad={ell_rad}" in row["status"]
