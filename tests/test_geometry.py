import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

import ddmsim.geometry
import ddmsim.sweep
from ddmsim.geometry import (
    MAX_SIZE,
    SINGLE_DIPOLE_POWER,
    TWO_PI,
    CloudGeometry,
    QuadratureError,
    _forward_lobe_integrand,
    coherent_power,
    cooperativity_column,
    cooperativity_mu,
)
from ddmsim.sweep import SweepSpec, _concat, _eval_chunk, _rows, format_csv, run


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
    # ell_rad = 20 it cuts the lobe's tail (ROADMAP item 2), which the
    # strict xfail below pins until the closed form replaces the rule.
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

    @pytest.mark.xfail(strict=True, reason="the radial breakpoint of the rule cuts "
                       "the forward lobe's tail: mu is 4.6e-5 low (ROADMAP item 2)")
    def test_mu_where_the_breakpoint_cuts_the_lobe(self):
        # The same 40-digit mpmath integral, at (1, 20).
        mu = cooperativity_mu(CloudGeometry(ell_ax=1.0, ell_rad=20.0))
        assert mu == pytest.approx(1.1874327230464770e-05, rel=1e-10, abs=0.0)


@pytest.mark.filterwarnings("error")
class TestExtremeSizes:
    # Under warnings as errors: numpy must not warn on stderr, where the
    # axial exponent overflows to inf (at MAX_SIZE) or a width to inf.
    @staticmethod
    def mu_row(ell_ax, ell_rad):
        (row,) = _rows(_eval_chunk(("cooperativity", [(ell_ax, ell_rad)], 1e-8, {})))
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

    @pytest.mark.parametrize("ell_ax, status", [
        (math.nan, "cloud sizes must be finite, got ell_ax=nan, ell_rad=0.5"),
        (math.inf, "cloud sizes must be finite, got ell_ax=inf, ell_rad=0.5"),
        (-math.inf, "cloud sizes must be > 0, got ell_ax=-inf, ell_rad=0.5"),
        (-1.0, "cloud sizes must be > 0, got ell_ax=-1.0, ell_rad=0.5"),
        (0.0, "cloud sizes must be > 0, got ell_ax=0.0, ell_rad=0.5"),
        (1e200, "cloud sizes must be <= 2.13392e+153 wavelengths, beyond which "
                "(k ell)^2 overflows, got ell_ax=1e+200, ell_rad=0.5"),
        (1e-320, "non-finite small_angle_estimate"),
    ])
    def test_error_row_texts(self, ell_ax, status):
        row = self.mu_row(ell_ax, 0.5)
        assert row["status"] == "error: " + status
        assert math.isnan(row["residual"]) and "mu" not in row


def quad_coherent_power(ell_ax, ell_rad, rel_tol=1e-10):
    """coherent_power as scipy's quad (QUADPACK's qagp) integrated it: the
    single-exponential integrand in math-module arithmetic, the same
    breakpoints and the 200-interval limit."""
    rad_sq, ax_sq = (TWO_PI * ell_rad) ** 2, (TWO_PI * ell_ax) ** 2

    def integrand(u):
        sin_sq = u * (2.0 - u)
        return (1.0 + 0.5 * sin_sq) * math.exp(-rad_sq * sin_sq - ax_sq * u * u)

    rad_width = 10.0 / (2.0 * rad_sq) if rad_sq else math.inf
    front = min(10.0 / (TWO_PI * ell_ax), rad_width)
    points = sorted(b for b in (front, 2.0 - rad_width) if 0.0 < b < 2.0)
    val, _ = quad(integrand, 0.0, 2.0, points=points or None, epsabs=0.0,
                  epsrel=rel_tol, limit=200)
    return math.pi * val


def log_uniform_clouds(count):
    rng = np.random.default_rng(19)
    return list(zip(10.0 ** rng.uniform(-2.0, 2.5, count),
                    10.0 ** rng.uniform(-2.0, 1.5, count)))


# The benchmark's mu grid: 250 ell_ax values at each of 14 ell_rad.
BENCH_BANDS = [(ax, rad) for rad in np.geomspace(0.2, 5.0, 14)
               for ax in np.geomspace(2.0, 50.0, 250)]


class TestBatchedRule:
    """The batched 21-point Gauss-Kronrod rule against `quad`, which ran
    the same rule point by point before it."""

    @pytest.mark.parametrize("clouds", [log_uniform_clouds(600), BENCH_BANDS],
                             ids=["log-uniform", "bench-bands"])
    def test_matches_quad(self, clouds):
        mu, faults = cooperativity_column([CloudGeometry(*c) for c in clouds])
        want = [min(quad_coherent_power(*c) / SINGLE_DIPOLE_POWER, 1.0)
                for c in clouds]
        assert faults == {}
        np.testing.assert_allclose(mu, want, rtol=1e-8, atol=0.0)

    def test_rule_is_exact_for_degree_31(self):
        # 21 Kronrod points integrate polynomials up to degree 3 * 10 + 1.
        g = ddmsim.geometry
        nodes = np.concatenate([-g._XGK, [0.0], g._XGK])
        weights = np.concatenate([g._WGK[:10], g._WGK[10:], g._WGK[:10]])
        gauss, gauss_weights = np.polynomial.legendre.leggauss(10)
        assert np.allclose(np.sort(gauss[gauss > 0])[::-1], g._XGK[g._GAUSS],
                           rtol=0, atol=1e-15)
        assert np.allclose(gauss_weights[gauss > 0][::-1], g._WG, rtol=0, atol=1e-15)
        for degree in range(32):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            assert weights @ nodes**degree == pytest.approx(exact, abs=1e-14)

    def test_one_cloud_is_its_column_entry(self):
        # Bit for bit: many of these clouds take 8 or more intervals, whose
        # sum a pairwise reduction would round differently alone.
        geoms = [CloudGeometry(*c) for c in log_uniform_clouds(600)]
        mu, _ = cooperativity_column(geoms)
        assert [cooperativity_mu(g) for g in geoms] == mu.tolist()

    def test_cap_is_an_error_not_a_value(self, monkeypatch):
        # An integrand that no 200 intervals resolve: each round bisects
        # until the cap, and the estimate stays far above 1e-8.
        calls = []
        lobe = ddmsim.geometry._forward_lobe_integrand

        def rough(u, rad_sq, ax_sq):
            calls.append(u.shape[1])
            return lobe(u, rad_sq, ax_sq) * (1.0 + 0.5 * np.sin(1e8 * u))

        monkeypatch.setattr(ddmsim.geometry, "_forward_lobe_integrand", rough)
        geom = CloudGeometry(ell_ax=22.5, ell_rad=0.5)  # three panels
        with pytest.raises(QuadratureError) as info:
            coherent_power(geom)
        assert info.value.achieved_tol > 1e-8
        assert str(info.value) == ("coherent-power quadrature reached relative "
                                   f"error {info.value.achieved_tol:.3e}")
        # The three panels, then one bisection a round up to 200 intervals.
        assert calls == [3] + [2] * (ddmsim.geometry._LIMIT - 3)
        (row,) = _rows(_eval_chunk(("cooperativity", [(22.5, 0.5)], 1e-8, {})))
        assert row["status"] == f"error: {info.value}"
        assert math.isnan(row["residual"]) and "mu" not in row


def reference_mu_row(ell_ax, ell_rad):
    """The row of one point as the per-point `mu` rows built it, with
    quad's mu."""
    point = {"ell_ax": ell_ax, "ell_rad": ell_rad}
    try:
        geom = CloudGeometry(ell_ax=float(ell_ax), ell_rad=float(ell_rad))
        row = {"ell_ax": geom.ell_ax, "ell_rad": geom.ell_rad,
               "mu": min(quad_coherent_power(geom.ell_ax, geom.ell_rad)
                         / SINGLE_DIPOLE_POWER, 1.0),
               "small_angle_estimate": 1.0 / (2.0 * math.pi * geom.ell_ax),
               "residual": 0.0, "status": "ok"}
        bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite {', '.join(bad)}")
        return row
    except Exception as exc:
        (row,) = _rows(ddmsim.sweep._error_row(point, exc))
        return row


SIZES = st.one_of(st.floats(1e-3, 1e3), st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320, 1e-150, 1e150, MAX_SIZE, 1e200]))


class TestMuRows:
    """The batched `mu` rows against the per-point rows they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(SIZES, min_size=1, max_size=6), st.lists(SIZES, min_size=1, max_size=4))
    def test_rows_match_point_by_point(self, ell_ax, ell_rad):
        rows = _rows(ddmsim.sweep._mu_rows(list(itertools.product(ell_ax, ell_rad))))
        want = [reference_mu_row(ax, rad) for ax in ell_ax for rad in ell_rad]
        for got, ref in zip(rows, want, strict=True):
            assert got.keys() == ref.keys()
            assert got.pop("mu", 1.0) == pytest.approx(ref.pop("mu", 1.0), rel=1e-8)
            assert {k: np.float64(v).tobytes() if isinstance(v, float) else v
                    for k, v in got.items()} == {
                k: np.float64(v).tobytes() if isinstance(v, float) else v
                for k, v in ref.items()}

    def test_a_row_does_not_depend_on_its_batch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        ell_ax = [22.5, math.nan, 1e-320, 2.0, -1.0, 1e200, 0.01, MAX_SIZE, 2.0]
        ell_rad = [0.5, 1e-320, 20.0]
        spec = SweepSpec.from_dict({"mode": "cooperativity",
                                    "grids": {"ell_ax": ell_ax, "ell_rad": ell_rad}})
        result = run(spec)
        whole = format_csv(result)
        alone = [ddmsim.sweep._mu_rows([point])
                 for point in itertools.product(ell_ax, ell_rad)]
        table = _concat(alone, list(result.table))
        assert whole == format_csv(dataclasses.replace(result, table=table))
        assert whole == format_csv(run(spec, threads=2))
        assert sum(r["status"] == "ok" for r in result.rows) == 15

    def test_a_large_grid_is_its_small_chunks(self, monkeypatch):
        # 10^5 points: cut at _MU_POINTS, or at 97, the rows are the same,
        # and no call takes more than _MU_POINTS clouds.
        sizes = []
        column = ddmsim.sweep.cooperativity_column

        def counted(geoms):
            sizes.append(len(geoms))
            return column(geoms)

        monkeypatch.setattr(ddmsim.sweep, "cooperativity_column", counted)
        spec = SweepSpec.from_dict({"mode": "cooperativity", "grids": {
            "ell_ax": np.geomspace(1e-2, 10**2.5, 400).tolist(),
            "ell_rad": np.geomspace(1e-2, 10**1.5, 250).tolist()}})
        rows = run(spec).rows
        assert len(rows) == 10**5 and all(r["status"] == "ok" for r in rows)
        assert max(sizes) == ddmsim.sweep._MU_POINTS and sum(sizes) == 10**5
        monkeypatch.setattr(ddmsim.sweep, "_MU_POINTS", 97)
        assert run(spec).rows == rows
