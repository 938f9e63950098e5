import importlib
import inspect
import json
import math
import pickle
import pkgutil
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import axionkit
from axionkit import (
    AxionParams,
    EphemerisConstants,
    HaloParams,
    ModulationCoefficients,
    NoiseConfig,
    QubitParams,
    SiteGeometry,
)
from axionkit import geometry as geo
from axionkit import signals as sig
from axionkit.constants import OMEGA_ANNUAL, OMEGA_SIDEREAL, SIDEREAL_DAY_S, YEAR_S


def fit_dt(samples_per_day=16):
    return SIDEREAL_DAY_S / samples_per_day


def fit_grid(samples_per_day=16, days=366):
    return np.arange(0, days * samples_per_day) * fit_dt(samples_per_day)


def equatorial_to_horizontal(lst_rad, latitude_deg):
    """Oracle: rotation matrix from the equatorial frame to (east, north,
    up); rows are the horizontal basis vectors in equatorial coordinates.
    Shape (..., 3, 3) for array input."""
    lst = np.asarray(lst_rad, dtype=float)
    lam = math.radians(latitude_deg)
    sin_l, cos_l = math.sin(lam), math.cos(lam)
    r = np.empty(lst.shape + (3, 3))
    r[..., 0, 0] = -np.sin(lst)
    r[..., 0, 1] = np.cos(lst)
    r[..., 0, 2] = 0.0
    r[..., 1, 0] = -sin_l * np.cos(lst)
    r[..., 1, 1] = -sin_l * np.sin(lst)
    r[..., 1, 2] = cos_l
    r[..., 2, 0] = cos_l * np.cos(lst)
    r[..., 2, 1] = cos_l * np.sin(lst)
    r[..., 2, 2] = sin_l
    return r


def lab_wind(t, site, eph):
    """Oracle: wind direction in the horizontal frame, through one
    rotation matrix per sample, and wind speed in km/s."""
    t = np.asarray(t, dtype=float)
    v_eq = geo.wind_velocity_equatorial(t, site, eph)
    speed = np.linalg.norm(v_eq, axis=-1)
    lst = site.lst0_rad + eph.omega_sidereal * t
    rot = equatorial_to_horizontal(lst, site.latitude_deg)
    v_enu = np.einsum("...ij,...j->...i", rot, v_eq)
    return v_enu / speed[..., np.newaxis], speed


def projection(t, site, eph):
    """Oracle: cos(theta) between the wind direction and the sensor axis."""
    direction, _ = lab_wind(t, site, eph)
    return np.einsum("...i,...i->...", direction, geo.device_axis(site))


class TestRotationChain:
    @given(lst=st.floats(0, 2 * np.pi), lat=st.floats(-90.0, 90.0))
    @settings(max_examples=60, deadline=None)
    def test_orthonormal_unit_determinant(self, lst, lat):
        r = equatorial_to_horizontal(np.array([lst]), lat)[0]
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_scipy_rotation_oracle(self):
        # horizontal basis = rotate equatorial frame by LST about z, then
        # tilt by (90 deg - latitude) about the new east axis
        lst, lat = 1.234, 39.9042
        r_mine = equatorial_to_horizontal(np.array([lst]), lat)[0]
        r_oracle = (
            Rotation.from_euler("zx", [-(np.degrees(lst) + 90.0), np.degrees(lat) - 90.0], degrees=True)
        ).as_matrix()
        # r_oracle maps equatorial coords to a (x=east-ish...) frame; compare
        # action on the celestial pole and on the LST meridian instead.
        pole = np.array([0.0, 0.0, 1.0])
        enu_pole = r_mine @ pole
        assert enu_pole[0] == pytest.approx(0.0, abs=1e-12)  # pole due north
        assert enu_pole[1] == pytest.approx(np.cos(np.radians(lat)), abs=1e-12)
        assert enu_pole[2] == pytest.approx(np.sin(np.radians(lat)), abs=1e-12)
        meridian = np.array([np.cos(lst), np.sin(lst), 0.0])
        enu_m = r_mine @ meridian
        assert enu_m[0] == pytest.approx(0.0, abs=1e-12)
        assert enu_m[2] == pytest.approx(np.cos(np.radians(lat)), abs=1e-12)
        assert r_oracle.shape == (3, 3)  # oracle built; orientation checked above

    def test_pole_projection_constant(self, eph_no_orbit):
        pole = SiteGeometry(latitude_deg=90.0)
        t = np.linspace(0.0, 5 * 86400.0, 400)
        p = geo.beta_ratio(t, pole, eph_no_orbit, eph_no_orbit.v_sun)
        assert np.max(np.abs(p - np.sin(np.radians(30.0)))) < 1e-9

    def test_sidereal_periodicity_without_orbit(self, site, eph_no_orbit):
        d0, s0 = lab_wind(0.0, site, eph_no_orbit)
        d1, s1 = lab_wind(SIDEREAL_DAY_S, site, eph_no_orbit)
        assert np.max(np.abs(d0 - d1)) < 1e-9
        assert s0 == pytest.approx(s1, rel=1e-12)

    def test_unit_norm_direction(self, site, eph):
        t = np.linspace(0, YEAR_S, 1000)
        direction, _ = lab_wind(t, site, eph)
        assert np.max(np.abs(np.linalg.norm(direction, axis=-1) - 1.0)) < 1e-12

    def test_speed_envelope_against_vector_oracle(self, site, eph):
        """Brute-force 3-vector sum on a dense grid, with the orbital ring
        built from explicit rotation matrices."""
        t = np.linspace(0, YEAR_S, 5000)
        theta = eph.omega_annual * t + eph.orbital_phase
        tilt = Rotation.from_euler("x", eph.obliquity_deg, degrees=True).as_matrix()
        orbit_plane = np.stack([-np.sin(theta), np.cos(theta), np.zeros_like(theta)], axis=-1)
        u = eph.v_orbit * orbit_plane @ tilt.T
        w = eph.v_sun * geo.wind_unit_equatorial(site) - u
        oracle_speed = np.linalg.norm(w, axis=-1)
        _, speed = lab_wind(t, site, eph)
        assert np.max(np.abs(speed - oracle_speed)) < 1e-9
        # annual envelope approx v_sun +/- v_orbit cos(ecliptic latitude)
        eps = np.radians(eph.obliquity_deg)
        beta_w = np.arcsin(
            geo.wind_unit_equatorial(site) @ np.array([0, -np.sin(eps), np.cos(eps)])
        )
        half_span = eph.v_orbit * np.cos(beta_w)
        assert speed.max() == pytest.approx(eph.v_sun + half_span, rel=0.01)
        assert speed.min() == pytest.approx(eph.v_sun - half_span, rel=0.01)


angles = st.floats(0.0, 360.0)
sites = st.builds(
    SiteGeometry,
    latitude_deg=st.floats(-90.0, 90.0),
    wind_ra_deg=angles,
    wind_dec_deg=st.floats(-90.0, 90.0),
    elevation_deg=st.floats(-90.0, 90.0),
    azimuth_deg=angles,
    lst0_rad=st.floats(0.0, 2 * np.pi),
)


def long_double_beta(t, site, eph, v_ref):
    """Oracle: beta through one rotation matrix per sample, with the
    orbital ring built from explicit rotations, and the sidereal and
    orbital phases lst0 + Os t and Oa t + orbital_phase formed in long
    double from the times as given, so that each sine and cosine rounds
    once to double."""
    t = np.asarray(t, dtype=float).astype(np.longdouble)
    lst = site.lst0_rad + np.longdouble(eph.omega_sidereal) * t
    theta = np.longdouble(eph.omega_annual) * t + eph.orbital_phase
    tilt = Rotation.from_euler("x", eph.obliquity_deg, degrees=True).as_matrix()
    orbit_plane = np.stack([-np.sin(theta), np.cos(theta), np.zeros_like(theta)], axis=-1)
    u = eph.v_orbit * orbit_plane.astype(float) @ tilt.T
    v_eq = eph.v_sun * geo.wind_unit_equatorial(site) - u
    v_enu = np.einsum("...ij,...j->...i", equatorial_to_horizontal(lst, site.latitude_deg), v_eq)
    return v_enu @ geo.device_axis(site) / v_ref


def grid_phase_error(omega, t):
    """Largest error of a grid_phasor phase of beta_ratio at the times t
    against omega t_k exact, which bounds the fit's on the grid that t
    rounds too.  beta_ratio reads t0 = t[0] and dt = (t[-1] - t[0]) /
    (n - 1) and takes its phases at t0 + k dt, which the grid check
    keeps within tau = _GRID_ULPS eps M of t_k, for
    M = max(|t[0]|, |t[-1]|), give or take the check's own rounding of
    t0 + k dt, at most 2 eps M; the phasor table's step omega dt adds
    |omega dt| b eps over the b entries of a block (as
    modulation_model_bound), and the block exponentials and the complex
    multiply about 4 eps."""
    eps = np.finfo(float).eps
    t = np.asarray(t, dtype=float).reshape(-1)
    n = t.size
    big_m = max(abs(t[0]), abs(t[-1]))
    dt = abs(t[-1] - t[0]) / max(n - 1, 1)
    b = math.isqrt(min(n, geo._CHUNK) - 1) + 1
    return abs(omega) * ((geo._GRID_ULPS + 2.0) * eps * big_m + dt * b * eps) + 4.0 * eps


def beta_bound(t, eph, v_ref):
    """Largest |beta_ratio - long_double_beta| on the grid t.  beta moves
    by at most |v| / v_ref <= (v_sun + v_orbit) / v_ref per radian of the
    sidereal phase (the rotated wind's equatorial part) and by at most
    v_orbit / v_ref per radian of the orbital phase; each phase is off by
    grid_phase_error.  The kernel's and the oracle's sums of a few products
    round by 16 eps of the same scale."""
    scale = (eph.v_sun + eph.v_orbit) / v_ref
    return (
        scale * grid_phase_error(eph.omega_sidereal, t)
        + eph.v_orbit / v_ref * grid_phase_error(eph.omega_annual, t)
        + 16.0 * np.finfo(float).eps * scale
    )


class TestProjection:
    @given(
        site=sites,
        t0=st.floats(-10 * YEAR_S, 10 * YEAR_S),
        dt=st.floats(1e-3, 1e5),
        n=st.integers(1, 2 * geo._CHUNK + 50),
        v_orbit=st.floats(0.0, 60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_against_rotation_stack(self, site, t0, dt, n, v_orbit):
        eph = EphemerisConstants(v_orbit=v_orbit)
        t = t0 + dt * np.arange(n)
        beta = geo.beta_ratio(t, site, eph, 230.0)
        assert beta.shape == (n,)
        assert np.max(np.abs(beta - long_double_beta(t, site, eph, 230.0))) <= beta_bound(
            t, eph, 230.0
        )

    def test_chunks_and_shapes(self, site, eph):
        # a grid longer than one chunk, the same grid as a 2-D array, a scalar
        t = np.arange(geo._CHUNK + 123) * 10.0
        beta = geo.beta_ratio(t, site, eph, 230.0)
        assert np.max(np.abs(beta - long_double_beta(t, site, eph, 230.0))) <= beta_bound(
            t, eph, 230.0
        )
        np.testing.assert_array_equal(
            geo.beta_ratio(t[:-1].reshape(-1, 2), site, eph, 230.0), beta[:-1].reshape(-1, 2)
        )
        scalar = geo.beta_ratio(t[-1], site, eph, 230.0)
        assert np.ndim(scalar) == 0
        assert abs(scalar - beta[-1]) <= beta_bound(t, eph, 230.0)
        assert geo.beta_ratio(np.empty((0, 3)), site, eph, 230.0).shape == (0, 3)

    @pytest.mark.parametrize(
        "t",
        [
            np.arange(-2.5e7, -2.5e7 + 2e5, 60.0),
            np.linspace(1e6, 3e7, 10_001),
            sig.TimeSeries(123_456.7, 10.0, np.zeros(40_000), {"kind": "grid"}).times,
            10.0 * np.arange(3 * geo._CHUNK + 5),
            np.linspace(0.0, 5 * 86400.0, 400).reshape(20, 20),
        ],
        ids=["arange-t0", "linspace", "timeseries-times", "dt-arange", "2-d"],
    )
    def test_accepts_grids(self, site, eph, t):
        beta = geo.beta_ratio(t, site, eph, 230.0)
        assert beta.shape == t.shape
        assert np.max(np.abs(beta - long_double_beta(t, site, eph, 230.0))) <= beta_bound(
            t, eph, 230.0
        )
        if t.ndim == 1:
            fitted = geo.fit_modulation_coefficients(t[0], (t[-1] - t[0]) / (t.size - 1), beta)
            assert fitted.residual_rms < 1e-9

    @pytest.mark.parametrize(
        "index, value",
        [(7, 7.0 * 60.0 + 1e-6), (1, np.nan), (0, np.nan), (199, np.inf), (3, 10.0)],
        ids=["jittered", "nan", "nan-first", "inf-last", "reversed-pair"],
    )
    def test_off_grid_time_raises_naming_its_index(self, site, eph, index, value):
        t = 60.0 * np.arange(200)
        t[index] = value
        name = rf"t\[{index}\]"
        with pytest.raises(ValueError, match=name):
            geo.beta_ratio(t, site, eph, 230.0)

    def test_off_grid_index_is_in_the_array_shape(self, site, eph):
        grid = 60.0 * np.arange(20.0).reshape(4, 5)
        grid[3, 1] += 1.0
        with pytest.raises(ValueError, match=r"t\[3, 1\] = 961.0 is off the uniform grid"):
            geo.beta_ratio(grid, site, eph, 230.0)

    def test_perpendicular_axis_zero(self, eph_no_orbit):
        # equatorial site, polar wind, horizon-pointing axis toward east
        site = SiteGeometry(latitude_deg=0.0, wind_dec_deg=90.0,
                            elevation_deg=0.0, azimuth_deg=90.0)
        t = np.linspace(0, 2 * 86400, 300)
        beta = geo.beta_ratio(t, site, eph_no_orbit, eph_no_orbit.v_sun)
        assert np.max(np.abs(beta)) < 1e-12

    def test_pole_zenith_value(self, eph_no_orbit):
        site = SiteGeometry(latitude_deg=90.0, wind_dec_deg=30.0)
        assert geo.beta_ratio(1000.0, site, eph_no_orbit, eph_no_orbit.v_sun) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_time_average_matches_p0(self, site, eph):
        t = fit_grid()
        p0 = np.sin(np.radians(site.latitude_deg)) * np.sin(np.radians(site.wind_dec_deg))
        assert np.mean(projection(t, site, eph)) == pytest.approx(0.321, abs=0.003)
        assert np.mean(projection(t, site, eph)) == pytest.approx(p0, rel=0.01)

    def test_horizon_axis_pointing(self):
        north = geo.device_axis(SiteGeometry(elevation_deg=0.0, azimuth_deg=0.0))
        east = geo.device_axis(SiteGeometry(elevation_deg=0.0, azimuth_deg=90.0))
        np.testing.assert_allclose(north, [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(east, [1.0, 0.0, 0.0], atol=1e-12)


def modulation_model_oracle(t, coeffs):
    """The model as one expression with whole-array temporaries."""
    t = np.asarray(t, dtype=float)
    daily = np.cos(OMEGA_SIDEREAL * t - coeffs.phase_daily)
    annual = np.cos(OMEGA_ANNUAL * t - coeffs.phase_annual)
    return (
        coeffs.c0
        + coeffs.c_daily * daily
        + coeffs.c_annual * annual
        + coeffs.c_cross * daily * annual
    )


def modulation_model_bound(t0, dt, n, coeffs):
    """Largest |modulation_model - modulation_model_oracle| rounding allows.

    Each cosine of the oracle rounds its phase by up to |O| ulp(T) +
    ulp(|O| T + |phase|) at T = |t0| + dt (n - 1), and the model's
    phasors by no more, so two cosines differ by twice that, and the
    phasor table's step O dt adds |O| dt b eps.  The cross term carries
    both.  The sums round by a few eps of the coefficients' total.
    """
    eps = np.finfo(float).eps
    big_t = abs(t0) + dt * (n - 1)
    b = math.isqrt(min(n, geo._CHUNK) - 1) + 1

    def cosine(omega, phase):
        rounding = omega * np.spacing(big_t) + np.spacing(omega * big_t + abs(phase))
        return 2.0 * rounding + omega * dt * b * eps + 8.0 * eps

    daily = cosine(OMEGA_SIDEREAL, coeffs.phase_daily)
    annual = cosine(OMEGA_ANNUAL, coeffs.phase_annual)
    scale = abs(coeffs.c0) + abs(coeffs.c_daily) + abs(coeffs.c_annual) + abs(coeffs.c_cross)
    return (
        (abs(coeffs.c_daily) + abs(coeffs.c_cross)) * daily
        + (abs(coeffs.c_annual) + abs(coeffs.c_cross)) * annual
        + 8.0 * eps * scale
    )


class TestModulationModel:
    @pytest.mark.parametrize(
        "t0, dt, n",
        [
            (123_456.7, 10.0, 1),
            (0.0, 1.0, 3),
            (0.0, YEAR_S / 10_000, 10_001),
            (-1e5, 3600.0, 6_000),
            (0.0, 10.0, geo._CHUNK + 123),
            (-2.5e7, 10.0, 3 * geo._CHUNK + 5),
            (3e7, 600.0, 2 * geo._CHUNK),
        ],
        ids=["one", "three", "year", "negative-t0", "over-one-chunk", "chunks-negative-t0",
             "whole-chunks"],
    )
    def test_matches_the_expression(self, site, eph, t0, dt, n):
        coeffs = geo.modulation_coefficients(site, eph)
        got = geo.modulation_model(t0, dt, n, coeffs)
        expected = modulation_model_oracle(t0 + dt * np.arange(n), coeffs)
        assert got.shape == (n,) and got.dtype == np.float64
        assert np.max(np.abs(got - expected)) <= modulation_model_bound(t0, dt, n, coeffs)


def long_double_basis(t):
    """The fit's nine basis columns at the times t, with the phases Os t
    and Oa t formed in long double, so each sine and cosine rounds once
    to double."""
    t = np.asarray(t, dtype=float).astype(np.longdouble)
    daily, annual = np.longdouble(OMEGA_SIDEREAL) * t, np.longdouble(OMEGA_ANNUAL) * t
    cs, ss = np.cos(daily).astype(float), np.sin(daily).astype(float)
    ca, sa = np.cos(annual).astype(float), np.sin(annual).astype(float)
    return [np.ones(t.size), cs, ss, ca, sa, cs * ca, cs * sa, ss * ca, ss * sa]


def lstsq_fit_oracle(t, y):
    """The nine-term design's least-squares coefficients by np.linalg.lstsq,
    its rank by lstsq's rule, its singular values and the residual norm."""
    design = np.column_stack(long_double_basis(t))
    coef, _, rank, singular = np.linalg.lstsq(design, y, rcond=None)
    return coef, rank, singular, float(np.linalg.norm(y - design @ coef))


class TestModulationFit:
    def test_round_trip_identity(self):
        truth = ModulationCoefficients(
            c0=0.3, c_daily=0.62, c_annual=0.05, c_cross=0.08,
            phase_daily=1.1, phase_annual=2.4,
        )
        t = fit_grid()
        model = geo.modulation_model(0.0, fit_dt(), t.size, truth)
        fitted = geo.fit_modulation_coefficients(0.0, fit_dt(), model)
        assert fitted.c0 == pytest.approx(truth.c0, abs=1e-6)
        assert fitted.c_daily == pytest.approx(truth.c_daily, abs=1e-6)
        assert fitted.c_annual == pytest.approx(truth.c_annual, abs=1e-6)
        assert fitted.c_cross == pytest.approx(truth.c_cross, abs=1e-6)
        assert fitted.phase_daily == pytest.approx(truth.phase_daily, abs=1e-6)
        assert fitted.phase_annual == pytest.approx(truth.phase_annual, abs=1e-6)
        assert fitted.residual_rms < 1e-12

    def test_pole_geometry_has_no_daily_terms(self, eph_no_orbit):
        site = SiteGeometry(latitude_deg=90.0)
        t = fit_grid()
        fitted = geo.fit_modulation_coefficients(0.0, fit_dt(), projection(t, site, eph_no_orbit))
        assert abs(fitted.c_daily) < 1e-9
        assert abs(fitted.c_cross) < 1e-9

    def test_beta_ratio_is_exactly_harmonic(self, site, eph):
        # the unnormalized wind-vector projection contains only the union of
        # the DC, daily, annual and mixed lines, so the fit is exact
        t = fit_grid()
        y = geo.beta_ratio(t, site, eph, 230.0)
        fitted = geo.fit_modulation_coefficients(0.0, fit_dt(), y)
        # at the default lst0 and orbital phase, beta_ratio and the fit take
        # the same grid phasors, so y is a combination of the design's
        # columns to the kernel's rounding, a few eps of max |y| per term;
        # the residual y - design @ coef adds a rounding per term of the
        # nine-term product
        assert site.lst0_rad == eph.orbital_phase == 0.0
        assert fitted.residual_rms <= 16 * np.finfo(float).eps * np.max(np.abs(y))

    @given(site=sites, v_orbit=st.floats(0.0, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_beta_ratio_is_exactly_harmonic_at_every_site(self, site, v_orbit):
        # the fixed sensor axis keeps beta_ratio inside the nine-term basis
        eph = EphemerisConstants(v_orbit=v_orbit)
        t = fit_grid(samples_per_day=8)
        y = geo.beta_ratio(t, site, eph, 230.0)
        fitted = geo.fit_modulation_coefficients(0.0, fit_dt(8), y)
        assert fitted.residual_rms < 1e-12

    def test_default_geometry_against_lockin_oracle(self, site, eph):
        """Independent mean-based demodulation with successive tone
        subtraction (suppresses leakage across non-orthogonal bins)."""
        t = fit_grid()
        y = geo.beta_ratio(t, site, eph, 230.0)
        fitted = geo.fit_modulation_coefficients(0.0, fit_dt(), y)

        def demod(resid, om):
            return np.mean(resid * np.exp(-1j * om * t))

        def subtract(resid, z, om):
            return resid - 2.0 * np.real(z * np.exp(1j * om * t))

        c0 = np.mean(y)
        resid = y - c0
        z_d = demod(resid, eph.omega_sidereal)
        resid = subtract(resid, z_d, eph.omega_sidereal)
        z_a = demod(resid, eph.omega_annual)
        resid = subtract(resid, z_a, eph.omega_annual)
        z_p = demod(resid, eph.omega_sidereal + eph.omega_annual)
        z_m = demod(resid, eph.omega_sidereal - eph.omega_annual)
        psi_d = (-np.angle(z_d)) % (2 * np.pi)
        psi_a = (-np.angle(z_a)) % (2 * np.pi)
        c_cross = 2.0 * (
            np.real(z_p * np.exp(1j * (psi_d + psi_a)))
            + np.real(z_m * np.exp(1j * (psi_d - psi_a)))
        )
        assert fitted.c0 == pytest.approx(c0, rel=0.01)
        assert fitted.c_daily == pytest.approx(2 * abs(z_d), rel=0.01)
        assert fitted.c_annual == pytest.approx(2 * abs(z_a), rel=0.01)
        assert fitted.c_cross == pytest.approx(c_cross, rel=0.01)
        assert fitted.phase_daily == pytest.approx(psi_d, abs=0.01)
        assert fitted.phase_annual == pytest.approx(psi_a, abs=0.01)

    @given(
        n=st.integers(200, 2000),
        dt=st.floats(600.0, 7200.0),
        t0=st.floats(-1e8, 1e8),
        c0=st.floats(-1.0, 1.0),
        pure=st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2 * np.pi)),
                      min_size=2, max_size=2),
        mixed=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        sigma=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_lstsq(self, n, dt, t0, c0, pure, mixed, sigma, seed):
        t = t0 + dt * np.arange(n)
        columns = long_double_basis(t)
        (a_d, phi_d), (a_a, phi_a) = pure
        truth = [c0, a_d * math.cos(phi_d), a_d * math.sin(phi_d),
                 a_a * math.cos(phi_a), a_a * math.sin(phi_a), *mixed]
        y = np.random.default_rng(seed).normal(0.0, sigma, n)
        for c, column in zip(truth, columns):
            y += c * column
        coef, rank, singular, resid = lstsq_fit_oracle(t, y)
        if rank < 9:
            with pytest.raises(ValueError, match=f"rank {rank} < 9"):
                geo.fit_modulation_coefficients(t0, dt, y)
            return
        fitted = geo.fit_modulation_coefficients(t0, dt, y)
        # Both solvers are backward stable: each solves a problem within
        # gamma = 10 * 9 * u of its design and y, relative.  The fit's
        # design, from grid phasors, leaves the oracle's by at most e =
        # e_s + e_a + 3 eps an element (each phase by grid_phase_error,
        # and a mixed product carries both), so in norm by at most
        # sqrt(9 n) e <= 4.5 e |A|, since |A| >= |A|_F / 3 = 2 sqrt(n) / 3.
        # By the least-squares perturbation bound (Higham, Accuracy and
        # Stability, thm 20.1) a relative perturbation g lands within
        # g kappa (2 |x| + (kappa + 1) |r| / s_max) of the exact x, so the
        # two differ by at most that at g = 2 gamma + 4.5 e.
        u = np.finfo(float).eps / 2
        e = (grid_phase_error(OMEGA_SIDEREAL, t) + grid_phase_error(OMEGA_ANNUAL, t)
             + 6 * u)
        kappa = singular[0] / singular[-1]
        norm_x = np.linalg.norm(coef)
        delta = (2 * 90 * u + 4.5 * e) * kappa * (2 * norm_x + (kappa + 1) * resid / singular[0])
        rounding = 16 * u * (norm_x + np.max(np.abs(y)))
        assert fitted.c0 == pytest.approx(coef[0], abs=delta + rounding)
        # the pure tones as complex amplitudes c e^{i phase}, whose phases
        # then move by at most (pi/2) |dz| / |z|
        turns = []
        for (c, phase), (re, im) in (
            ((fitted.c_daily, fitted.phase_daily), coef[1:3]),
            ((fitted.c_annual, fitted.phase_annual), coef[3:5]),
        ):
            dz = abs(c * np.exp(1j * phase) - complex(re, im))
            assert dz <= np.sqrt(2) * delta + rounding
            turns.append(np.pi / 2 * (np.sqrt(2) * delta + rounding) / abs(complex(re, im)))
        # the cross coefficient as the fit forms it, from lstsq's coefficients
        phase_d, phase_a = math.atan2(coef[2], coef[1]), math.atan2(coef[4], coef[3])
        cos_d, sin_d = math.cos(phase_d), math.sin(phase_d)
        cos_a, sin_a = math.cos(phase_a), math.sin(phase_a)
        u = [cos_d * cos_a, cos_d * sin_a, sin_d * cos_a, sin_d * sin_a]
        oracle_cross = float(np.dot(coef[5:9], u))
        cross_bound = 2 * delta + np.linalg.norm(coef[5:]) * sum(turns) + rounding
        assert fitted.c_cross == pytest.approx(oracle_cross, abs=cross_bound)
        # |A dx| / sqrt(n) <= 2 |dx|: every row of the design has norm 2;
        # the designs' difference moves a row's product by e |x|_1 <= 3 e |x|
        assert fitted.residual_rms == pytest.approx(
            resid / np.sqrt(n), abs=2 * 3 * delta + 3 * e * norm_x + 9 * rounding
        )

    def test_degenerate_sampling_raises(self):
        # sampling at exactly the sidereal period aliases the daily columns
        with pytest.raises(ValueError, match="rank"):
            geo.fit_modulation_coefficients(0.0, SIDEREAL_DAY_S, np.ones(400))

    @given(scale=st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_annual_depth_scale_invariant(self, scale):
        site, eph = SiteGeometry(), EphemerisConstants()
        t = fit_grid(samples_per_day=8)
        y = geo.beta_ratio(t, site, eph, 230.0)
        base = geo.fit_modulation_coefficients(0.0, fit_dt(8), y).annual_depth
        scaled = geo.fit_modulation_coefficients(0.0, fit_dt(8), scale * y).annual_depth
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_envelope_depth_canonicalization(self):
        c = ModulationCoefficients(
            c0=0.3, c_daily=0.6, c_annual=0.03, c_cross=-0.09,
            phase_daily=0.0, phase_annual=1.0,
        )
        depth, phase = c.envelope_depth_and_phase
        assert depth == pytest.approx(0.15)
        assert phase == pytest.approx(1.0 + np.pi)

    def test_json_round_trip(self):
        # coefficients.json and the synthesis meta hold asdict(coeffs)
        c = ModulationCoefficients(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1e-3)
        assert ModulationCoefficients(**json.loads(json.dumps(asdict(c)))) == c


class TestDailySummaries:
    def test_constant_envelope_without_annual_terms(self):
        c = ModulationCoefficients(
            c0=0.3, c_daily=0.6, c_annual=0.0, c_cross=0.0,
            phase_daily=0.2, phase_annual=0.0,
        )
        for day in (0, 50, 200):
            lo, hi = geo.daily_envelope(day, c)
            assert lo == pytest.approx(0.3 - 0.6, abs=1e-14)
            assert hi == pytest.approx(0.3 + 0.6, abs=1e-14)

    def test_envelope_at_annual_maximum(self):
        c = ModulationCoefficients(
            c0=0.3, c_daily=0.6, c_annual=0.05, c_cross=0.08,
            phase_daily=0.0, phase_annual=0.0,
        )
        lo, hi = geo.daily_envelope(0.0, c)  # cos term = +1 at day 0
        assert hi == pytest.approx((0.3 + 0.05) + abs(0.6 + 0.08), abs=1e-12)
        assert lo == pytest.approx((0.3 + 0.05) - abs(0.6 + 0.08), abs=1e-12)

    def test_envelope_tracks_dense_series(self, site, eph):
        t = fit_grid()
        coeffs = geo.fit_modulation_coefficients(0.0, fit_dt(), geo.beta_ratio(t, site, eph, 230.0))
        t_day = np.arange(0.0, SIDEREAL_DAY_S, 30.0)
        for day in range(0, 366, 30):
            series = geo.beta_ratio(day * SIDEREAL_DAY_S + t_day, site, eph, 230.0)
            lo, hi = geo.daily_envelope(day + 0.5, coeffs)
            assert hi == pytest.approx(series.max(), abs=0.012)
            assert lo == pytest.approx(series.min(), abs=0.012)

    @given(mu=st.floats(-1.0, 1.0), k=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_daily_rms_matches_quadrature(self, mu, k):
        # RMS over one period of mu + k cos(x), computed by direct averaging
        x = (np.arange(20000) + 0.5) * (2 * np.pi / 20000)
        oracle = np.sqrt(np.mean((mu + k * np.cos(x)) ** 2))
        c = ModulationCoefficients(
            c0=mu, c_daily=k, c_annual=0.0, c_cross=0.0, phase_daily=0.0, phase_annual=0.0
        )
        rms = geo.daily_rms(12.0, c)
        assert rms == pytest.approx(oracle, abs=1e-7)
        assert rms == pytest.approx(np.sqrt(mu**2 + k**2 / 2), abs=1e-10)

    def test_daily_rms_limits(self):
        c_mu0 = ModulationCoefficients(0.0, 0.7, 0.0, 0.0, 0.0, 0.0)
        assert geo.daily_rms(3.0, c_mu0) == pytest.approx(0.7 / np.sqrt(2), abs=1e-12)
        c_k0 = ModulationCoefficients(-0.4, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert geo.daily_rms(3.0, c_k0) == pytest.approx(0.4, abs=1e-12)

    def test_daily_rms_tracks_dense_series(self, site, eph):
        t = fit_grid()
        coeffs = geo.fit_modulation_coefficients(0.0, fit_dt(), geo.beta_ratio(t, site, eph, 230.0))
        t_day = np.arange(0.0, SIDEREAL_DAY_S, 30.0)
        for day in range(0, 366, 45):
            series = geo.beta_ratio(day * SIDEREAL_DAY_S + t_day, site, eph, 230.0)
            oracle = np.sqrt(np.mean(series**2))
            assert geo.daily_rms(day + 0.5, coeffs) == pytest.approx(oracle, rel=0.01)


class TestGeometricGains:
    def test_reference_site_numbers(self):
        site = SiteGeometry(latitude_deg=39.9, wind_dec_deg=30.0)
        g = geo.geometric_gains(site)
        assert g.p0 == pytest.approx(0.321, rel=0.005)
        assert g.mean_square_projection == pytest.approx(0.324, rel=0.005)
        assert g.g_daily == pytest.approx(1.77, rel=0.005)
        assert g.g_three_axis == pytest.approx(1.76, rel=0.005)
        assert g.g_total == pytest.approx(5.40, rel=0.005)

    def test_pole_site(self):
        g = geo.geometric_gains(SiteGeometry(latitude_deg=90.0, wind_dec_deg=30.0))
        assert g.mean_square_projection == pytest.approx(np.sin(np.radians(30)) ** 2, abs=1e-12)
        assert g.g_daily == pytest.approx(1.0, abs=1e-12)

    def test_equatorial_degeneracy(self):
        site = SiteGeometry(latitude_deg=0.0, wind_dec_deg=0.0)
        with pytest.raises(geo.GainUnboundedError, match="latitude_deg .*wind_dec_deg"):
            geo.geometric_gains(site)

    def test_rms_projection_matches_dense_average(self, eph_no_orbit):
        # <P^2> formula against the mean square of the dense daily series
        site = SiteGeometry(latitude_deg=39.9, wind_dec_deg=30.0)
        t = np.arange(0.0, SIDEREAL_DAY_S, 10.0)
        p = projection(t, site, eph_no_orbit)
        gains = geo.geometric_gains(site)
        assert np.mean(p**2) == pytest.approx(gains.mean_square_projection, rel=1e-4)


class TestSiteValidation:
    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            SiteGeometry(latitude_deg=91.0)

    def test_angle_normalization(self):
        site = SiteGeometry(wind_ra_deg=450.0, azimuth_deg=-90.0, lst0_rad=7.0)
        assert site.wind_ra_deg == pytest.approx(90.0)
        assert site.azimuth_deg == pytest.approx(270.0)
        assert 0 <= site.lst0_rad < 2 * np.pi


def _ephemeris_callers():
    """Every public function of the package with an EphemerisConstants
    parameter, by "module.name"."""
    found = set()
    for info in pkgutil.iter_modules(axionkit.__path__):
        module = importlib.import_module(f"axionkit.{info.name}")
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else None
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(p.annotation is EphemerisConstants for p in params):
                found.add(f"{info.name}.{name}")
    return found


_GRID = np.linspace(0.0, YEAR_S, 37)
_EPHEMERIS_CALLS = {
    "geometry.wind_velocity_equatorial":
        lambda eph: geo.wind_velocity_equatorial(_GRID, SiteGeometry(), eph),
    "geometry.beta_ratio": lambda eph: geo.beta_ratio(_GRID, SiteGeometry(), eph, 230.0),
    "geometry.modulation_coefficients":
        lambda eph: geo.modulation_coefficients(SiteGeometry(), eph),
    "signals.synthesize_observable": lambda eph: sig.synthesize_observable(
        SiteGeometry(), eph, AxionParams(), HaloParams(), QubitParams(), NoiseConfig(seed=1),
        3 * SIDEREAL_DAY_S, 1800.0,
    ),
}
# triplet_statistic reads only the class rates; it keeps its eph because
# the benchmark's workloads pass it positionally
_EPHEMERIS_EXEMPT = {"spectral.triplet_statistic"}


def test_every_ephemeris_caller_is_listed():
    assert _ephemeris_callers() == set(_EPHEMERIS_CALLS) | _EPHEMERIS_EXEMPT


@pytest.mark.parametrize("field", ["v_sun", "v_orbit", "obliquity_deg", "orbital_phase"])
@pytest.mark.parametrize("name", sorted(_EPHEMERIS_CALLS))
def test_every_ephemeris_argument_is_read(name, field):
    # an ephemeris that no instance field of can move the output is not an input
    base = EphemerisConstants()
    moved = replace(base, **{field: getattr(base, field) + 1.0})
    call = _EPHEMERIS_CALLS[name]
    assert pickle.dumps(call(moved)) != pickle.dumps(call(base))
