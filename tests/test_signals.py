import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft, integrate, signal as sps

from axionkit import AxionParams, NoiseConfig, QubitParams, TimeSeries, cli
from axionkit import geometry as geo
from axionkit import signals as sig
from axionkit.constants import (
    C_KM_S,
    EV_TO_RAD_S,
    GEV_CM3_TO_EV4,
    M_E_EV,
    SIDEREAL_DAY_S,
    YEAR_S,
    uev_to_hz,
    uev_to_rad_s,
)


def bessel_integral_oracle(n, beta):
    """Integral representation (1/pi) int_0^pi cos(n tau - beta sin tau) dtau."""
    val, _ = integrate.quad(lambda tau: np.cos(n * tau - beta * np.sin(tau)), 0, np.pi)
    return val / np.pi


class TestModulationIndex:
    def test_zero_projection(self, axion, halo):
        assert sig.modulation_index(axion, halo, 0.0, 230.0) == 0.0

    def test_linear_in_coupling(self, halo):
        b1 = sig.modulation_index(AxionParams(g_ae=1e-13), halo, 1.0, 230.0)
        b2 = sig.modulation_index(AxionParams(g_ae=3e-13), halo, 1.0, 230.0)
        assert b2 / b1 == pytest.approx(3.0, rel=1e-12)

    def test_dimensional_oracle(self, halo):
        # independent chain: frozen effective field (from the SI oracle in
        # test_halo) times CODATA gamma_e / 2 pi in Hz/T over the line
        # frequency in Hz
        beta = sig.modulation_index(
            AxionParams(mass_uev=1.0, g_ae=1e-13), halo, 1.0, 1e-3 * 299792.458
        )
        expected = 28.0249514e9 * 4.186144e-21 / 241798924.2
        assert beta == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("mass_uev, g_ae, v_km_s", [(1.0, 1e-13, 230.0), (7.5, 3e-12, 550.0)])
    def test_is_precession_rate_over_field_rate(self, halo, mass_uev, g_ae, v_km_s):
        # natural-unit chain with no gyromagnetic ratio in it: the
        # precession rate g_ae (v/c) sqrt(2 rho) / m_e, in eV, to rad/s,
        # over the field's angular frequency
        rho_ev4 = halo.rho_dm * GEV_CM3_TO_EV4
        precession_ev = g_ae * (v_km_s / C_KM_S) * math.sqrt(2.0 * rho_ev4) / M_E_EV
        expected = precession_ev * EV_TO_RAD_S / uev_to_rad_s(mass_uev)
        beta = sig.modulation_index(AxionParams(mass_uev=mass_uev, g_ae=g_ae), halo, 1.0, v_km_s)
        assert beta == pytest.approx(expected, rel=1e-13)


class TestSpinExpectation:
    @given(
        t=st.floats(0, 1e-3),
        beta=st.floats(-10.0, 10.0),
        phi0=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded(self, t, beta, phi0):
        axion = AxionParams(mass_uev=1.0)
        value = sig.spin_expectation(np.array([t]), 8.8e10, beta, axion, phi0)[0]
        assert -1.0 <= value <= 1.0

    def test_pure_carrier_without_modulation(self):
        axion = AxionParams(mass_uev=1.0)
        t = np.linspace(0, 1e-6, 50)
        np.testing.assert_allclose(
            sig.spin_expectation(t, 8.8e10, 0.0, axion, 0.4),
            np.cos(8.8e10 * t + 0.4),
            rtol=1e-12,
        )

    def _line_amplitudes(self, beta_loc, n_max):
        nu_a = 100.0  # Hz-scale stand-in line frequency for the short record
        axion = AxionParams(mass_uev=nu_a / uev_to_hz(1.0))
        f0, fs, span = 1000.0, 8192.0, 4.0
        t = np.arange(0, span, 1 / fs)
        y = sig.spin_expectation(t, 2 * np.pi * f0, beta_loc, axion)
        spec = np.abs(np.fft.rfft(y)) * 2.0 / t.size
        freqs = np.fft.rfftfreq(t.size, 1 / fs)
        return [
            spec[np.argmin(np.abs(freqs - (f0 + n * nu_a)))] for n in range(n_max + 1)
        ]

    def test_fft_matches_bessel_oracle(self):
        amps = self._line_amplitudes(0.5, 3)
        for n, amp in enumerate(amps):
            assert amp == pytest.approx(abs(bessel_integral_oracle(n, 0.5)), rel=0.01)

    def test_small_index_sideband_ratio(self):
        beta = 0.01
        amps = self._line_amplitudes(beta, 1)
        assert amps[1] / amps[0] == pytest.approx(beta / 2, rel=1e-3)


class TestBesselTable:
    def test_zero_argument(self):
        table = sig.bessel_sideband_table(0.0, 5)
        assert table[0] == 1.0
        assert np.all(table[1:] == 0.0)

    def test_beta_one_against_integral_oracle(self):
        table = sig.bessel_sideband_table(1.0, 6)
        assert table[0] == pytest.approx(0.7651976866, abs=1e-8)
        assert table[1] == pytest.approx(0.4400505857, abs=1e-8)
        for n in range(7):
            assert table[n] == pytest.approx(bessel_integral_oracle(n, 1.0), abs=1e-8)

    @given(beta=st.floats(-30.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_sum_rule(self, beta):
        n_max = int(abs(beta)) + 20
        table = sig.bessel_sideband_table(beta, n_max)
        total = table[0] ** 2 + 2.0 * np.sum(table[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_negative_argument_parity(self):
        plus = sig.bessel_sideband_table(2.5, 6)
        minus = sig.bessel_sideband_table(-2.5, 6)
        np.testing.assert_allclose(minus, plus * (-1.0) ** np.arange(7), rtol=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            sig.bessel_sideband_table(1.0, -1)

    # J_0..J_3 from mpmath.besselj with mp.dps = 40, rounded to float
    @pytest.mark.parametrize(
        "beta, expected",
        [
            (100.0, [0.019985850304223122, -0.07714535201411216,
                     -0.021528757344505364, 0.07628420172033194]),
            (1e3, [0.024786686152420176, 0.004728311907089524,
                   -0.024777229528605997, -0.0048274208252039475]),
            (1e4, [-0.0070961603533888015, 0.0036474507555295803,
                   0.0070968898435399075, -0.0036446119995921645]),
        ],
    )
    def test_large_argument_against_mpmath(self, beta, expected):
        np.testing.assert_allclose(sig.bessel_sideband_table(beta, 3), expected, rtol=0, atol=1e-14)

    def test_small_argument_against_mpmath(self):
        expected = [0.9999999999999974, 4.999999999999994e-08,
                    1.249999999999999e-15, 2.083333333333332e-23]
        np.testing.assert_allclose(sig.bessel_sideband_table(1e-7, 3), expected, rtol=1e-14)

    def test_denormal_argument(self):
        assert sig.bessel_sideband_table(5e-324, 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_argument(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            sig.bessel_sideband_table(beta, 3)


def pink_noise_oracle(rng, n, dt, amp_psd_1hz, exponent=1.0):
    """Frequency-domain 1/f shaping with whole-array temporaries, drawn at
    scipy's fast real length m >= n and truncated to n samples."""
    m = fft.next_fast_len(n, real=True)
    freqs = np.fft.rfftfreq(m, dt)
    target = np.zeros_like(freqs)
    target[1:] = amp_psd_1hz / freqs[1:] ** exponent
    scale = np.sqrt(target * m / (2.0 * dt))
    z = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
    z *= scale / np.sqrt(2.0)
    z[0] = 0.0
    if m % 2 == 0:
        z[-1] = z[-1].real * np.sqrt(2.0)
    return np.fft.irfft(z, m)[:n]


def telegraph_noise_oracle(rng, n, dt, amplitude, rate_hz):
    """Telegraph noise with the state as the parity of a cumulative sum."""
    p_flip = 0.5 * (1.0 - math.exp(-2.0 * rate_hz * dt))
    flips = rng.random(n) < p_flip
    flips[0] = False
    state = np.where(np.cumsum(flips) % 2 == 0, 1.0, -1.0)
    if rng.random() < 0.5:
        state = -state
    return amplitude * state


def readout_channel_oracle(rng, analog, n_spins, f0, f1, scale):
    """The binary readout as one expression per stage over the whole
    record, with one rng.binomial draw."""
    p = 0.5 * (1.0 + np.clip(scale * analog, -1.0, 1.0))
    p_obs = f1 * p + (1.0 - f0) * (1.0 - p)
    counts = rng.binomial(n_spins, p_obs)
    p_hat = (counts / n_spins - (1.0 - f0)) / (f0 + f1 - 1.0)
    return (2.0 * p_hat - 1.0) / scale


class TestInPlaceBits:
    @pytest.mark.parametrize("n", [2, 3, 256, 1001, 4096])
    @pytest.mark.parametrize("exponent", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_pink_noise(self, n, exponent):
        got = sig.pink_noise(np.random.default_rng(n), n, 7.5, 1e-3, exponent)
        expected = pink_noise_oracle(np.random.default_rng(n), n, 7.5, 1e-3, exponent)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [2, 3, 1000, 100_001])
    @pytest.mark.parametrize("rate_hz", [1e-4, 0.3, 50.0])
    def test_telegraph_noise(self, n, rate_hz):
        # seeds 0 to 3 take both signs of the initial state
        for seed in range(4):
            got = sig.telegraph_noise(np.random.default_rng(seed), n, 0.5, 1.7, rate_hz)
            expected = telegraph_noise_oracle(np.random.default_rng(seed), n, 0.5, 1.7, rate_hz)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "n_spins, f0, f1, scale",
        [
            (10, 0.95, 0.95, 0.25),
            (1, 1.0, 1.0, 1.0),
            # f0 = 1 and x <= -1/3 give p = 0, which draws no uniform
            (10, 1.0, 0.9, 3.0),
            # the last spin count read out by inversion, and the first not
            (60, 0.95, 0.9, 0.5),
            (61, 0.9, 0.95, 0.5),
            (400, 0.9, 0.93, 3.0),
        ],
    )
    def test_readout_channel(self, n_spins, f0, f1, scale):
        # one partial chunk, and two and a half chunks
        for n in (sig._READOUT_CHUNK // 3, 5 * sig._READOUT_CHUNK // 2):
            analog = np.random.default_rng(8).normal(size=n)
            got = sig.readout_channel(np.random.default_rng(9), analog, n_spins, f0, f1, scale)
            expected = readout_channel_oracle(
                np.random.default_rng(9), analog, n_spins, f0, f1, scale
            )
            assert np.array_equal(got, expected)


# even 5-smooth lengths m = 2^(a + 1) 3^b 5^c, up to 21,600
EVEN_SMOOTH = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)).map(
    lambda e: 2 ** (e[0] + 1) * 3 ** e[1] * 5 ** e[2]
)


def irfft_bound(expected):
    """How far two inverse real FFTs of one spectrum may part: each output
    passes log2(m) radix stages, plus the fold, the twiddle table and the
    twiddle, in either transform, and each rounds by at most eps of the
    largest sample."""
    return 2.0 * np.finfo(float).eps * (math.log2(expected.size) + 4.0) * np.max(np.abs(expected))


class TestBlockedInverse:
    @given(m=EVEN_SMOOTH, block=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    # the year's draw, q = 3^13 = 729 x 2187, at the real block size
    @example(m=3_188_646, block=sig._IRFFT_BLOCK, seed=0)
    # q = 2^20 = 1024 x 1024, even, with its self-paired middle term
    @example(m=1 << 21, block=sig._IRFFT_BLOCK, seed=1)
    @example(m=2, block=1, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_irfft(self, m, block, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=m // 2 + 1) + 1j * rng.normal(size=m // 2 + 1)
        expected = np.fft.irfft(z, m)
        with mock.patch.object(sig, "_IRFFT_BLOCK", block):
            got = sig._irfft_blocked(z.copy())
            # irfft ignores the imaginary parts of the DC and Nyquist terms
            z[0], z[-1] = z[0].real, z[-1].real
            assert np.array_equal(sig._irfft_blocked(z), got)
        assert got.shape == (m,)
        assert np.max(np.abs(got - expected)) <= irfft_bound(expected)

    def test_pink_noise_takes_it_from_the_constant(self):
        # an even draw at the constant goes through the blocked inverse, one
        # just below it through irfft, bit for bit as pink_noise_oracle
        # (the blocked inverse rounds differently somewhere in a million
        # samples); 1,036,800 is the even fast length below 2^20
        for m, blocked in ((sig._BLOCKED_MIN, True), (1_036_800, False)):
            assert sig._fast_len(m, real=True) == m
            got = sig.pink_noise(np.random.default_rng(5), m, 10.0, 1e-3)
            expected = pink_noise_oracle(np.random.default_rng(5), m, 10.0, 1e-3)
            assert np.array_equal(got, expected) is not blocked
            assert np.max(np.abs(got - expected)) <= irfft_bound(expected)


# p values at and next to the ends of [0, 1] and at the flip point
SPECIAL_P = [0.0, 2.0**-1074, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]


class TestBinomialByInversion:
    @given(
        n=st.integers(1, sig._INVERSION_SPINS),
        values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        size=st.sampled_from([1, sig._READOUT_CHUNK]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=60, values=SPECIAL_P, size=sig._READOUT_CHUNK, seed=0)
    @example(n=1, values=SPECIAL_P[::-1], size=sig._READOUT_CHUNK, seed=1)
    @example(n=10, values=[0.0], size=sig._READOUT_CHUNK, seed=2)
    @example(n=7, values=[1.0 - 2.0**-53], size=1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_generator_binomial(self, n, values, size, seed):
        # the p pattern repeats over one sample or one readout chunk
        p = np.resize(np.array(values), size)
        got = sig._binomial_by_inversion(np.random.default_rng(seed), n, p)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.random.default_rng(seed).binomial(n, p))

    def test_draw_order_across_chunks(self):
        # readout_channel's chunks at p_obs 0.3, 0 and 0.7: the all-zero
        # chunk draws no uniform, and the chunk after it draws on from
        # where the chunk before it stopped
        analog = np.repeat([-0.4, -1.0, 0.4], sig._READOUT_CHUNK)
        got = sig.readout_channel(np.random.default_rng(4), analog, 10, 1.0, 1.0, 1.0)
        expected = readout_channel_oracle(np.random.default_rng(4), analog, 10, 1.0, 1.0, 1.0)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 2.0**-52])
    def test_refuses_what_generator_binomial_refuses(self, bad):
        p = np.full(100, 0.5)
        p[37] = bad
        with pytest.raises(ValueError, match="p < 0, p > 1 or p contains NaNs"):
            np.random.default_rng(0).binomial(10, p)
        with pytest.raises(ValueError, match="p < 0, p > 1 or p contains NaNs"):
            sig._binomial_by_inversion(np.random.default_rng(0), 10, p)


# a power of two, drawn at its own length, and 360 * 1461 = 2^3 3^3 5 487,
# drawn at the fast length 531,441 = 3^12 and truncated
PINK_LENGTHS = (1 << 19, 525_960)


class TestNoiseGenerators:
    @pytest.mark.parametrize("exponent", [0.8, 1.0, 1.5])
    def test_pink_spectrum_slope(self, exponent):
        dt = 100.0
        for n in PINK_LENGTHS:
            rng = np.random.default_rng(42)
            x = sig.pink_noise(rng, n, dt, amp_psd_1hz=1e-3, exponent=exponent)
            f, p = sps.welch(x, fs=1 / dt, nperseg=4096)  # >100 averages
            band = (f >= 1e-4) & (f <= 1e-3)
            slope = np.polyfit(np.log(f[band]), np.log(p[band]), 1)[0]
            assert slope == pytest.approx(-exponent, abs=0.1)

    def test_pink_level(self):
        dt = 100.0
        for n in PINK_LENGTHS:
            rng = np.random.default_rng(43)
            x = sig.pink_noise(rng, n, dt, amp_psd_1hz=1e-3, exponent=1.0)
            f, p = sps.welch(x, fs=1 / dt, nperseg=4096)
            level = np.interp(4e-4, f, p)
            assert level == pytest.approx(1e-3 / 4e-4, rel=0.15)

    @given(
        n=st.integers(2, 50_000),
        dt=st.floats(1e-3, 1e3),
        exponent=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1461, dt=10.0, exponent=1.0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_pink_is_truncated_fast_length_draw(self, n, dt, exponent, seed):
        # the record is the head of the draw at the fast length, from the
        # same generator state
        m = fft.next_fast_len(n, real=True)
        got = sig.pink_noise(np.random.default_rng(seed), n, dt, 1e-3, exponent)
        full = sig.pink_noise(np.random.default_rng(seed), m, dt, 1e-3, exponent)
        assert got.shape == (n,)
        assert np.array_equal(got, full[:n])

    def test_telegraph_autocorrelation_rate(self):
        rng = np.random.default_rng(7)
        dt, n, rate = 0.5, 1 << 17, 0.05
        x = sig.telegraph_noise(rng, n, dt, 1.0, rate)
        assert set(np.unique(x)) == {-1.0, 1.0}
        m = 60000
        ac = np.correlate(x[:m], x[:m], "full")[m - 1 : m - 1 + 30] / m
        lags = np.arange(30) * dt
        fitted = -np.polyfit(lags[:20], np.log(np.abs(ac[:20])), 1)[0]
        assert fitted == pytest.approx(2 * rate, rel=0.10)

    def test_white_psd_level(self):
        rng = np.random.default_rng(11)
        dt, sigma = 2.0, 1.5
        x = sig.white_noise(rng, 1 << 16, sigma)
        f, p = sps.welch(x, fs=1 / dt, nperseg=1024)
        assert np.mean(p[5:-5]) == pytest.approx(2 * sigma**2 * dt, rel=0.05)

    def test_pink_rejects_nonfinite_density(self):
        # 1/f^40 at the lowest frequency of a four-year record overflows
        rng = np.random.default_rng(0)
        with pytest.raises(sig.UnrealizableNoiseError, match="noise.pink_exponent"):
            sig.pink_noise(rng, 126_230, 1000.0, 1e-3, exponent=40.0)

    def test_zero_amplitudes_give_zero(self):
        rng = np.random.default_rng(0)
        assert np.all(sig.pink_noise(rng, 256, 1.0, 0.0) == 0.0)
        assert np.all(sig.telegraph_noise(rng, 256, 1.0, 0.0, 1.0) == 0.0)
        assert np.all(sig.white_noise(rng, 256, 0.0) == 0.0)


class TestReadoutChannel:
    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(21)
        analog = np.repeat(np.linspace(-0.2, 0.2, 401), 50)
        out = sig.readout_channel(rng, analog, 10_000, 1.0, 1.0, 1.0)
        resid = out.reshape(401, 50).mean(axis=1) - np.linspace(-0.2, 0.2, 401)
        sigma = np.sqrt(0.25 / 10_000) * 2.0 / np.sqrt(50)
        assert np.mean(np.abs(resid) <= 3 * sigma) >= 0.99

    def test_debiasing_with_imperfect_fidelities(self):
        rng = np.random.default_rng(22)
        analog = np.full(200_000, 0.12)
        out = sig.readout_channel(rng, analog, 100, 0.9, 0.95, 1.0)
        assert np.mean(out) == pytest.approx(0.12, abs=2e-3)

    @pytest.mark.parametrize("n_spins", [10, 400])
    def test_nan_sample_raises(self, n_spins):
        analog = np.random.default_rng(24).normal(size=3 * sig._READOUT_CHUNK // 2)
        analog[sig._READOUT_CHUNK + 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            sig.readout_channel(np.random.default_rng(25), analog, n_spins, 0.95, 0.95, 0.25)

    @pytest.mark.parametrize("n_spins", [10, 400])
    def test_infinite_samples_clip(self, n_spins):
        # +inf reads as p = 1 and -inf as p = 0, as numpy's binomial has them
        analog = np.random.default_rng(26).normal(size=5000)
        analog[::7] = np.inf
        analog[3::7] = -np.inf
        got = sig.readout_channel(np.random.default_rng(27), analog, n_spins, 1.0, 0.95, 0.25)
        expected = readout_channel_oracle(
            np.random.default_rng(27), analog, n_spins, 1.0, 0.95, 0.25
        )
        assert np.array_equal(got, expected)

    def test_contrast_scaling_round_trip(self):
        rng = np.random.default_rng(23)
        analog = np.full(100_000, 1.6)  # outside [-1,1]; scale brings it in
        out = sig.readout_channel(rng, analog, 400, 1.0, 1.0, 0.25)
        assert np.mean(out) == pytest.approx(1.6, abs=0.01)


class TestNoiseConfig:
    def test_fidelity_bounds(self):
        with pytest.raises(ValueError):
            NoiseConfig(readout_f0=0.4)
        with pytest.raises(ValueError):
            NoiseConfig(readout_f1=1.2)

    def test_fidelity_sum_must_exceed_one(self):
        with pytest.raises(ValueError, match="readout_f0 \\+ readout_f1"):
            NoiseConfig(readout_f0=0.5, readout_f1=0.5)
        assert NoiseConfig(readout_f0=0.5, readout_f1=0.51).readout_f1 == 0.51

    def test_negative_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(white_psd=-1.0)

    def test_zero_config(self):
        cfg = NoiseConfig.zero()
        assert cfg.white_psd == 0.0 and cfg.pink_amplitude == 0.0


class TestSynthesize:
    def test_pure_daily_tone_periodogram_peak(self, site, eph, axion, halo, qubit):
        coeffs = geo.ModulationCoefficients(
            c0=0.0, c_daily=1.0, c_annual=0.0, c_cross=0.0,
            phase_daily=0.0, phase_annual=0.0,
        )
        ts = sig.synthesize_observable(
            site, eph, axion, halo, qubit, NoiseConfig.zero(),
            40 * SIDEREAL_DAY_S, 1800.0, coeffs=coeffs,
        )
        spec = np.abs(np.fft.rfft(ts.samples))
        freqs = np.fft.rfftfreq(ts.samples.size, ts.dt)
        f_peak = freqs[np.argmax(spec)]
        f_star = eph.omega_sidereal / (2 * np.pi)
        assert abs(f_peak - f_star) <= freqs[1]

    def test_noiseless_daily_rms_matches_geometry(self, site, eph, axion, halo, qubit):
        dt = SIDEREAL_DAY_S / 48  # integer samples per sidereal day
        ts = sig.synthesize_observable(
            site, eph, axion, halo, qubit, NoiseConfig.zero(), YEAR_S, dt
        )
        coeffs = geo.ModulationCoefficients(**ts.meta["coefficients"])
        for day in range(0, 360, 20):
            seg = ts.samples[day * 48 : (day + 1) * 48]
            oracle = geo.daily_rms(day + 0.5, coeffs)
            assert np.sqrt(np.mean(seg**2)) == pytest.approx(oracle, rel=1e-3)

    def test_bit_reproducible(self, site, eph, axion, halo, qubit):
        kwargs = dict(span_s=20 * SIDEREAL_DAY_S, dt=1800.0)
        a = sig.synthesize_observable(
            site, eph, axion, halo, qubit, NoiseConfig(seed=5), **kwargs
        )
        b = sig.synthesize_observable(
            site, eph, axion, halo, qubit, NoiseConfig(seed=5), **kwargs
        )
        np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(seed=12),
            NoiseConfig(seed=12, white_psd=0.0, pink_amplitude=1e-4),
            NoiseConfig.zero(seed=12),
        ],
        ids=["default", "white-off", "all-off"],
    )
    def test_components_added_in_order(self, site, eph, axion, halo, qubit, noise):
        # ((clean + white) + 1/f) + telegraph, each component from its own
        # child of SeedSequence(seed), whatever order synthesis draws them in
        dt = 1800.0
        ts = sig.synthesize_observable(
            site, eph, axion, halo, qubit, noise, 20 * SIDEREAL_DAY_S, dt
        )
        n, used = ts.samples.size, ts.meta["noise"]
        coeffs = geo.ModulationCoefficients(**ts.meta["coefficients"])
        r0, r1, r2, _ = (
            np.random.default_rng(s) for s in np.random.SeedSequence(noise.seed).spawn(4)
        )
        clean = geo.modulation_model(0.0, dt, n, coeffs)
        oracle = (
            (clean + sig.white_noise(r0, n, math.sqrt(used["white_psd"] / (2.0 * dt))))
            + sig.pink_noise(r1, n, dt, used["pink_amplitude"], used["pink_exponent"])
        ) + sig.telegraph_noise(r2, n, dt, used["rtn_amplitude"], used["rtn_rate_hz"])
        np.testing.assert_array_equal(ts.samples, oracle)
        assert ts.samples.tobytes() == oracle.tobytes()  # signed zeros too
        assert ts.meta["noise_var_realized"] == np.var(oracle - clean)

    def test_seed_changes_noise_not_coefficients(self, site, eph, axion, halo, qubit):
        fits = []
        for seed in (1, 2):
            ts = sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig(seed=seed), YEAR_S, 1800.0
            )
            fits.append(geo.fit_modulation_coefficients(ts.times, ts.samples))
        clean = sig.synthesize_observable(
            site, eph, axion, halo, qubit, NoiseConfig.zero(), YEAR_S, 1800.0
        )
        truth = geo.ModulationCoefficients(**clean.meta["coefficients"])
        # per-sample SNR ~ 1 over ~1.7e4 samples: coefficient error ~ 0.01
        for fit in fits:
            assert fit.c_daily == pytest.approx(truth.c_daily, abs=0.05)
            assert fit.c0 == pytest.approx(truth.c0, abs=0.05)

    def test_meta_provenance(self, site, eph, axion, halo, qubit):
        ts = sig.synthesize_observable(
            site, eph, axion, halo, qubit, NoiseConfig(seed=9),
            10 * SIDEREAL_DAY_S, 1800.0,
        )
        assert ts.meta["seed"] == 9
        assert "geometry_hash" in ts.meta
        assert ts.meta["beta0"] > 0
        assert ts.meta["noise"]["white_psd"] > 0
        assert ts.meta["noise_var_realized"] > 0

    def test_aliasing_guard(self, site, eph, axion, halo, qubit):
        with pytest.raises(ValueError, match="too coarse"):
            sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig.zero(),
                YEAR_S, SIDEREAL_DAY_S / 2,
            )

    # the per-unit costs the CLI charges, at the limits README states
    @pytest.mark.parametrize(
        "bytes_each, limit",
        [
            (sig.BYTES_PER_SAMPLE, sig.MAX_BYTES // sig.BYTES_PER_SAMPLE),
            (cli._BYTES_PER_MASS, 1_666_666),
            (cli._BYTES_PER_SHAPE, 10_000),
        ],
        ids=["sample", "mass-point", "line-shape"],
    )
    def test_byte_budget_limit_per_unit(self, bytes_each, limit):
        sig.check_size(limit, bytes_each, "units")
        sig.check_size(float(limit), bytes_each, "units")
        for count, shown in ((limit + 1, f"{limit + 1:,}"), (float("nan"), "nan")):
            with pytest.raises(ValueError, match=f"^{shown} units exceed {limit:,}, "):
                sig.check_size(count, bytes_each, "units")

    def test_span_guard(self, site, eph, axion, halo, qubit):
        with pytest.raises(ValueError, match="two sidereal days"):
            sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig.zero(), 3600.0, 60.0
            )

    def test_memory_per_sample(self, site, eph, axion, halo, qubit):
        # a million samples, readout on and off: the 1/f draw's spectrum and
        # output (two record lengths, and the frequency grid while it
        # lives) sit on top of clean alone, and the white draw's array
        # becomes the record; 28.4 B a sample with readout, 25.0 B without
        dt = 30.0
        for readout in (True, False):
            tracemalloc.start()
            ts = sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig(seed=4), 1_000_000 * dt, dt,
                readout=readout,
            )
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert ts.samples.size == 1_000_000
            assert peak <= 30 * ts.samples.size, readout

    def test_readout_noise_depends_on_spin_count(self, site, eph, axion, halo):
        out = {}
        for n_spins in (100, 10_000):
            qubit = QubitParams(n_spins=n_spins)
            ts = sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig.zero(seed=3),
                20 * SIDEREAL_DAY_S, 1800.0, readout=True,
            )
            clean = sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig.zero(),
                20 * SIDEREAL_DAY_S, 1800.0,
            )
            out[n_spins] = np.std(ts.samples - clean.samples)
        # binomial readout noise scales as 1/sqrt(n_spins)
        assert out[100] / out[10_000] == pytest.approx(10.0, rel=0.2)


class TestHeterodyne:
    def _tone_record(self, f_tone, amp=1.7, phase=0.3, span=800.0, dt=0.05):
        t = np.arange(0, span, dt)
        return TimeSeries(0.0, dt, amp * np.cos(2 * np.pi * f_tone * t + phase), {"kind": "tone"})

    def test_in_band_tone_amplitude_and_phase(self):
        base = sig.heterodyne(self._tone_record(2.1), 2.0, 0.4)
        mid = slice(base.samples.size // 4, 3 * base.samples.size // 4)
        amp = np.abs(base.samples[mid])
        assert np.mean(amp) == pytest.approx(1.7, rel=0.01)
        phase_err = np.angle(
            base.samples[mid] * np.exp(-1j * (2 * np.pi * 0.1 * base.times[mid] + 0.3))
        )
        assert np.max(np.abs(phase_err)) < 1e-3

    def test_out_of_band_rejection(self):
        base = sig.heterodyne(self._tone_record(2.0 + 0.8), 2.0, 0.4)
        mid = slice(base.samples.size // 4, 3 * base.samples.size // 4)
        residual_db = 20 * np.log10(np.max(np.abs(base.samples[mid])) / 1.7)
        assert residual_db < -60.0

    def test_white_noise_band_variance(self):
        dt, sigma, f_c, bw = 0.05, 0.8, 2.0, 0.4
        t = np.arange(0, 6000, dt)
        ratios = []
        for seed in range(6):
            noise = np.random.default_rng(500 + seed).normal(0, sigma, t.size)
            bb = sig.heterodyne(TimeSeries(0.0, dt, noise, {"kind": "noise"}), f_c, bw)
            mid = slice(bb.samples.size // 8, 7 * bb.samples.size // 8)
            ratios.append(np.var(bb.samples.real[mid]) / (2 * sigma**2 * dt * bw))
        assert np.mean(ratios) == pytest.approx(1.0, rel=0.05)

    def test_decimation_bookkeeping(self):
        base = sig.heterodyne(self._tone_record(2.05), 2.0, 0.4)
        assert base.dt > 0.05
        assert base.meta["heterodyne"]["decimation"] >= 1
        assert base.is_complex

    def test_center_frequency_guard(self):
        with pytest.raises(ValueError, match="Nyquist"):
            sig.heterodyne(self._tone_record(2.0), 15.0, 0.4)

    def test_bandwidth_guard(self):
        with pytest.raises(ValueError, match="bandwidth"):
            sig.heterodyne(self._tone_record(2.0), 2.0, 5.0)

    @staticmethod
    def _filtfilt_oracle(series, out):
        """filtfilt on the full-rate mixed record, taps rebuilt from meta,
        and the taps.  The mixing phase (-2 pi f_center)(t0 + k dt) is
        formed in long double, so its rounding is not the oracle's error."""
        h = out.meta["heterodyne"]
        fs = 1.0 / series.dt
        _, beta = sps.kaiserord(80.0, h["bandwidth"] / 4.0 / (fs / 2.0))
        taps = sps.firwin(h["numtaps"], h["cutoff_hz"], window=("kaiser", beta), fs=fs)
        k = np.arange(series.samples.size, dtype=np.longdouble)
        angle = (-2.0 * np.pi * h["f_center"]) * (series.t0 + series.dt * k)
        mixed = 2.0 * series.samples * np.exp(1j * angle).astype(complex)
        return sps.filtfilt(taps, [1.0], mixed)[:: h["decimation"]], taps

    @given(
        stretch=st.floats(0.0, 5.0),
        f_center=st.floats(2.0, 9.0),
        bandwidth=st.floats(0.8, 3.0),
        seed=st.integers(0, 2**16),
        t0=st.one_of(st.just(0.0), st.floats(-1e5, 1e5)),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_filtfilt_at_every_sample(self, stretch, f_center, bandwidth, seed, t0):
        dt = 0.05
        numtaps = sps.kaiserord(80.0, bandwidth / 4.0 / (0.5 / dt))[0] | 1
        n = 3 * numtaps + 1 + int(stretch * 3 * numtaps)  # just above the guard and up
        rng = np.random.default_rng(seed)
        t = t0 + dt * np.arange(n)
        x = rng.normal(0.0, 1.0, n) + 2.0 * np.cos(2 * np.pi * (f_center + 0.1) * t)
        series = TimeSeries(t0, dt, x, {"kind": "noise"})
        out = sig.heterodyne(series, f_center, bandwidth)
        assert out.meta["heterodyne"]["numtaps"] == numtaps
        oracle, taps = self._filtfilt_oracle(series, out)
        assert out.samples.shape == oracle.shape
        bound = 1e-12 * np.max(np.abs(x))
        if t0 != 0.0:
            # the two mixing phasors differ by their phase roundings: the
            # long double phases of the oracle and of grid_phasor's blocks,
            # 4 |omega| T eps_ld at T = |t0| + n dt, and the table's step,
            # |omega| dt b eps; the kernel taps (*) taps[::-1] passes such
            # an error on to 2 |x| at most sum|taps|^2 times over
            omega = 2.0 * np.pi * f_center
            b = math.isqrt(n - 1) + 1
            phase = (4.0 * omega * (abs(t0) + n * dt) * np.finfo(np.longdouble).eps
                     + omega * dt * b * np.finfo(float).eps)
            bound += 2.0 * np.max(np.abs(x)) * np.sum(np.abs(taps)) ** 2 * phase
        # every sample, the first and last 3*numtaps included
        assert np.max(np.abs(out.samples - oracle)) <= bound

    @given(
        ratio=st.one_of(
            st.floats(5e-4, 0.45),
            # bandwidth/fs at which Kaiser's numtaps - 1 = 72.05/2.285/(pi w)
            # lands within a hair of an integer k - 1, w = ratio/2
            st.builds(
                lambda k, nudge: 2 * 72.05 / 2.285 / np.pi / (k - 1 + nudge),
                st.integers(4, 40_000),
                st.floats(-1e-9, 1e-9),
            ),
        ),
        cutoff_fraction=st.floats(0.05, 0.95),
    )
    @example(ratio=2 * 72.05 / 2.285 / np.pi / 1256, cutoff_fraction=0.5)
    @settings(max_examples=60, deadline=None)
    def test_design_matches_kaiserord_and_firwin(self, ratio, cutoff_fraction):
        fs = 10_000.0
        width = ratio / 2.0  # bandwidth/4 in units of Nyquist
        numtaps = sig._kaiser_order(width)
        order, beta = sps.kaiserord(80.0, width)
        assert numtaps == order | 1
        cutoff = cutoff_fraction * fs / 2.0
        taps = sig._kaiser_lowpass(numtaps)(cutoff / (fs / 2.0))
        oracle = sps.firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs)
        assert np.max(np.abs(taps - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("real", [True, False])
    def test_fast_len_matches_next_fast_len(self, real):
        ours = [sig._fast_len(n, real) for n in range(1, 20_001)]
        assert ours == [fft.next_fast_len(n, real) for n in range(1, 20_001)]

    def test_narrow_band_at_high_rate(self):
        # 5 Hz at 10 kHz: about 40k taps, where filtfilt's lfilter_zi would
        # solve a (numtaps-1)^2 system of 12.9 GB
        fs, sigma, f_c, bw, n = 10_000.0, 0.8, 1000.0, 5.0, 1_000_000
        ratios = []
        for seed in range(8):
            noise = np.random.default_rng(700 + seed).normal(0.0, sigma, n)
            series = TimeSeries(0.0, 1.0 / fs, noise, {"kind": "noise"})
            if seed == 0:
                tracemalloc.start()
                bb = sig.heterodyne(series, f_c, bw)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            else:
                bb = sig.heterodyne(series, f_c, bw)
            h = bb.meta["heterodyne"]
            assert h["enbw_converged"]
            assert h["enbw_hz"] == pytest.approx(bw, rel=1e-4)
            # outputs whose kernel support lies inside the record
            edge = -(-h["numtaps"] // h["decimation"])
            z = bb.samples[edge:-edge]
            ratios.append(np.mean(np.abs(z) ** 2) / (4.0 * sigma**2 * bw / fs))
        assert np.mean(ratios) == pytest.approx(1.0, rel=0.05)
        # the window, its transform and the kernel's, with a little over,
        # and the output: no record-length buffer (3.25 windows measured)
        assert peak <= 4 * self._window_bytes(n, h["numtaps"]) + 16 * bb.samples.size

    @staticmethod
    def _window_bytes(n, numtaps):
        """The bytes of one complex overlap-save window, n_block as
        heterodyne picks it for n samples and numtaps taps."""
        size = 2 * numtaps - 1
        return 16 * sig._fast_len(min(n + size - 1, 8 * size))

    def test_memory_does_not_grow_with_the_record(self):
        # 40 Hz at 10 kHz, 5,021 taps and a window of 80,640 samples: the
        # traced peak is a few windows plus the output at 1M samples and at
        # 4M alike, where one record-length complex array would be 64 MB
        fs, f_c, bw = 10_000.0, 1000.0, 40.0
        peaks, outputs = [], []
        for n in (1_000_000, 4_000_000):
            noise = np.random.default_rng(n).normal(0.0, 1.0, n)
            series = TimeSeries(0.0, 1.0 / fs, noise, {"kind": "noise"})
            tracemalloc.start()
            bb = sig.heterodyne(series, f_c, bw)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            window = self._window_bytes(n, bb.meta["heterodyne"]["numtaps"])
            assert window == 16 * 80_640
            assert peak <= 4 * window + 16 * bb.samples.size, n
            peaks.append(peak)
            outputs.append(16 * bb.samples.size)
        # four times the record: only the output grows, and one window at most
        assert peaks[1] - peaks[0] <= outputs[1] - outputs[0] + window

