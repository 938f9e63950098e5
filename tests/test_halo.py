import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from axionkit import AxionParams, HaloParams
from axionkit.constants import C_KM_S, uev_to_hz
from axionkit.halo import (
    coherence_time,
    coherence_time_at_frequency,
    effective_field,
    fractional_linewidth_second_moment,
    fractional_linewidth_v0,
    lineshape_support,
    mean_square_speed,
    shm_lineshape,
)


def msq_quadrature(v0, v_esc):
    """Independent oracle: <v^2> of v^2 exp(-v^2/v0^2) on [0, v_esc]."""
    num = integrate.quad(lambda v: v**4 * np.exp(-(v / v0) ** 2), 0, v_esc)[0]
    den = integrate.quad(lambda v: v**2 * np.exp(-(v / v0) ** 2), 0, v_esc)[0]
    return num / den

# frozen oracle outputs for the default halo (v0=220, v_esc=544 km/s)
MSQ_DEFAULT = 70762.275073  # km^2/s^2
LINEWIDTH_DEFAULT = 3.936682e-7


class TestMeanSquareSpeed:
    def test_matches_quadrature_oracle(self, halo):
        oracle = msq_quadrature(halo.v0, halo.v_esc)
        assert oracle == pytest.approx(MSQ_DEFAULT, rel=1e-9)
        assert mean_square_speed(halo) == pytest.approx(oracle, rel=1e-8)

    def test_untruncated_limit(self):
        h = HaloParams(v0=230.0, v_esc=2300.0)  # z = 10
        assert mean_square_speed(h) == pytest.approx(1.5 * 230.0**2, rel=1e-6)

    @given(z=st.floats(1.05, 12.0), v0=st.floats(50.0, 500.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_monotone_in_z(self, z, v0):
        h = HaloParams(v0=v0, v_esc=z * v0)
        value = mean_square_speed(h)
        larger = mean_square_speed(HaloParams(v0=v0, v_esc=(z + 0.1) * v0))
        if z < 5.0:  # beyond that the deficit drops below float resolution
            assert 0 < value < 1.5 * v0**2
            assert larger > value
        else:
            assert 0 < value <= 1.5 * v0**2
            assert larger >= value

    def test_rejects_degenerate_truncation(self):
        with pytest.raises(ValueError):
            HaloParams(v0=230.0, v_esc=100.0)


class TestLinewidthAndCoherence:
    def test_second_moment_linewidth_default(self, halo):
        width = fractional_linewidth_second_moment(halo)
        assert width == pytest.approx(msq_quadrature(220, 544) / (2 * C_KM_S**2), rel=1e-8)
        assert width == pytest.approx(LINEWIDTH_DEFAULT, rel=1e-5)

    def test_second_moment_linewidth_for_v0_230(self):
        width = fractional_linewidth_second_moment(HaloParams(v0=230.0, v_esc=544.0))
        assert width == pytest.approx(msq_quadrature(230, 544) / (2 * C_KM_S**2), rel=0.01)

    def test_v0_scale_linewidth(self, halo):
        assert fractional_linewidth_v0(halo) == pytest.approx(
            220.0**2 / (2 * C_KM_S**2), rel=1e-12
        )

    def test_coherence_time_1uev(self, halo):
        tau = coherence_time(AxionParams(mass_uev=1.0), halo)
        assert tau == pytest.approx(3.3e-3, rel=0.10)

    def test_coherence_time_10uev(self, halo):
        tau = coherence_time(AxionParams(mass_uev=10.0), halo)
        assert tau == pytest.approx(0.33e-3, rel=0.10)

    @given(mass=st.floats(0.01, 1000.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_mass_scaling(self, mass):
        halo = HaloParams()
        t1 = coherence_time(AxionParams(mass_uev=mass), halo)
        t2 = coherence_time(AxionParams(mass_uev=2 * mass), halo)
        assert t2 == pytest.approx(0.5 * t1, rel=1e-12)

    def test_coherence_linewidth_consistency(self, halo, axion):
        # tau * pi * dnu = 1 exactly
        dnu = uev_to_hz(axion.mass_uev) * fractional_linewidth_second_moment(halo)
        assert coherence_time(axion, halo) * np.pi * dnu == pytest.approx(1.0, rel=1e-14)

    def test_frequency_parameterization_agrees(self, halo, axion):
        assert coherence_time_at_frequency(
            uev_to_hz(axion.mass_uev), halo
        ) == pytest.approx(coherence_time(axion, halo), rel=1e-14)


class TestQualityFactor:
    def test_halved_v0_quadruples_q(self, halo):
        # same z, so <v^2> scales with v0^2 and Q = 2 c^2 / <v^2> quadruples
        h2 = HaloParams(v0=110.0, v_esc=272.0)
        assert mean_square_speed(h2) == pytest.approx(mean_square_speed(halo) / 4, rel=1e-12)


class TestLineshape:
    def test_zero_below_line_frequency(self, halo, axion):
        nu_a = uev_to_hz(axion.mass_uev)
        nu = np.linspace(nu_a - 500.0, nu_a - 1e-3, 200)
        assert np.all(shm_lineshape(nu, axion, halo) == 0.0)

    def test_support_interval(self, halo, axion):
        lo, hi = lineshape_support(axion, halo)
        nu = np.array([lo - 1.0, lo + 1e-3, hi - 1e-3, hi + 1.0])
        g = shm_lineshape(nu, axion, halo)
        assert g[0] == 0.0 and g[3] == 0.0
        assert g[1] > 0.0 and g[2] > 0.0

    def test_normalization_fine_grid(self, halo, axion):
        lo, hi = lineshape_support(axion, halo)
        nu = np.linspace(lo, hi, 200_001)  # resolves the FWHM by far over 50 points
        total = np.trapezoid(shm_lineshape(nu, axion, halo), nu)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_normalization_quadrature(self, halo, axion):
        lo, hi = lineshape_support(axion, halo)
        total, _ = integrate.quad(
            lambda nu: float(shm_lineshape(np.array([nu]), axion, halo)[0]),
            lo,
            hi,
            points=[lo, hi],
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def _fwhm(self, axion, halo):
        nu_a = uev_to_hz(axion.mass_uev)
        x0 = nu_a * fractional_linewidth_v0(halo)
        peak_x = x0 / 2.0

        def height(x):
            return float(shm_lineshape(np.array([nu_a + x]), axion, halo)[0])

        half = 0.5 * height(peak_x)
        left = optimize.brentq(lambda x: height(x) - half, 1e-9 * x0, peak_x)
        right = optimize.brentq(lambda x: height(x) - half, peak_x, 10 * x0)
        return right - left

    def test_fwhm_1uev(self, halo):
        fwhm = self._fwhm(AxionParams(mass_uev=1.0), halo)
        # analytic oracle: the half-max points of sqrt(u) e^-u lie 1.7954031 scale
        # units apart
        x0 = uev_to_hz(1.0) * fractional_linewidth_v0(halo)
        assert fwhm == pytest.approx(1.7954030489 * x0, rel=1e-6)

    def test_fwhm_scales_linearly_with_mass(self, halo):
        f1 = self._fwhm(AxionParams(mass_uev=1.0), halo)
        f5 = self._fwhm(AxionParams(mass_uev=5.0), halo)
        assert f5 == pytest.approx(5 * f1, rel=1e-6)

    def test_fwhm_for_v0_230(self):
        halo = HaloParams(v0=230.0, v_esc=544.0)
        fwhm = self._fwhm(AxionParams(mass_uev=1.0), halo)
        x0 = uev_to_hz(1.0) * fractional_linewidth_v0(halo)
        assert fwhm == pytest.approx(1.7954030489 * x0, rel=0.01)

    def test_rejects_bad_grids(self, halo, axion):
        with pytest.raises(ValueError):
            shm_lineshape(np.array([]), axion, halo)
        with pytest.raises(ValueError):
            shm_lineshape(np.array([3.0, 2.0, 1.0]), axion, halo)


class TestEffectiveField:
    def test_si_route_oracle(self, halo):
        """Independent unit chain entirely in SI (J, m) units."""
        hbar = 1.054571817e-34
        ev_j = 1.602176634e-19
        rho_si = halo.rho_dm * 1e9 * ev_j / 1e-6  # J/m^3
        hbarc = hbar * C_KM_S * 1e3  # J m
        g, v_frac = 1e-13, 1e-3
        delta_e = g * v_frac * np.sqrt(2 * rho_si * hbarc**3) / (510998.95 * ev_j)
        expected = delta_e / hbar / 1.76085963023e11
        axion = AxionParams(mass_uev=1.0, g_ae=g)
        value = effective_field(axion, halo, v_frac * C_KM_S)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value == pytest.approx(4.186144e-21, rel=1e-6)

    def test_zero_coupling(self, halo):
        assert effective_field(AxionParams(mass_uev=1.0, g_ae=0.0), halo, 230.0) == 0.0

    def test_linearity_in_coupling(self, halo):
        b1 = effective_field(AxionParams(mass_uev=1.0, g_ae=1e-13), halo, 230.0)
        b2 = effective_field(AxionParams(mass_uev=1.0, g_ae=2e-13), halo, 230.0)
        assert b2 == 2.0 * b1

    @given(
        g=st.floats(1e-16, 1e-10),
        v=st.floats(1.0, 500.0),
        k=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bilinear_and_sqrt_rho_scaling(self, g, v, k):
        halo = HaloParams()
        axion = AxionParams(mass_uev=1.0, g_ae=g)
        base = effective_field(axion, halo, v)
        assert effective_field(axion, halo, k * v) == pytest.approx(k * base, rel=1e-12)
        scaled_rho = HaloParams(rho_dm=k * halo.rho_dm)
        assert effective_field(axion, scaled_rho, v) == pytest.approx(
            np.sqrt(k) * base, rel=1e-12
        )

    def test_rejects_nonpositive_speed(self, halo, axion):
        with pytest.raises(ValueError):
            effective_field(axion, halo, 0.0)
