import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from ddmsim import (
    CloudGeometry,
    coherent_power,
    cooperativity_mu,
    dipole_pattern,
    structure_factor,
)
from ddmsim.geometry import SINGLE_DIPOLE_POWER, TWO_PI


class TestDipolePattern:
    def test_on_axis(self):
        for phi in (0.0, 1.0, np.pi):
            assert dipole_pattern(0.0, phi) == pytest.approx(0.5, abs=1e-15)

    def test_equatorial_maximum(self):
        assert dipole_pattern(np.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for theta, phi in rng.uniform(0, np.pi, size=(50, 2)):
            assert 0.5 <= dipole_pattern(theta, phi) <= 1.0

    def test_total_power(self):
        val, _ = dblquad(
            lambda theta, phi: dipole_pattern(theta, phi) * np.sin(theta),
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
        assert structure_factor([0.0, 0.0, 0.0], geom) == 1.0

    def test_axial_width(self):
        geom = CloudGeometry(ell_ax=4.0, ell_rad=0.5)
        assert structure_factor([1.0 / 4.0, 0.0, 0.0], geom) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_radial_width(self):
        geom = CloudGeometry(ell_ax=4.0, ell_rad=0.5)
        assert structure_factor([0.0, 2.0, 0.0], geom) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_transverse_emission_negligible(self):
        # Emission perpendicular to the drive: q = k(yhat - xhat).
        geom = CloudGeometry(ell_ax=22.5, ell_rad=0.5)
        q = np.array([-geom.k, geom.k, 0.0])
        assert structure_factor(q, geom) < 1e-300

    def test_bounded_by_one(self):
        geom = CloudGeometry(ell_ax=3.0, ell_rad=0.7)
        rng = np.random.default_rng(1)
        for q in rng.normal(size=(50, 3)):
            val = structure_factor(q, geom)
            assert 0.0 < val <= 1.0
            if np.linalg.norm(q) > 1e-6:
                assert val < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CloudGeometry(ell_ax=0.0, ell_rad=1.0)
        with pytest.raises(ValueError):
            CloudGeometry(ell_ax=1.0, ell_rad=1.0, drive_axis=(1.0, 1.0, 0.0))


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
