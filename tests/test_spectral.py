import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axionkit import EphemerisConstants, TimeSeries, WindowSpec
from axionkit import spectral as spec
from axionkit.constants import YEAR_S
from axionkit.timeseries import write_columns


def make_series(samples, dt=1.0, t0=0.0):
    return TimeSeries(t0, dt, samples, {"origin": "test"})


def triplet_record(eph, eps, span, dt, t0=0.0, psi_d=0.0, psi_a=0.0, amp=1.0):
    t = t0 + np.arange(0, span, dt)
    y = amp * (1 + eps * np.cos(eph.omega_annual * t - psi_a)) * np.cos(
        eph.omega_sidereal * t - psi_d
    )
    return TimeSeries(t0, dt, y, {"origin": "triplet"})


class TestPeriodogram:
    @pytest.mark.parametrize("kind", ["hann", "rectangular"])
    def test_parseval_white_noise(self, rng, kind):
        dt = 10.0
        x = rng.normal(0.0, 1.0, 1 << 15)
        s = spec.periodogram(make_series(x, dt), WindowSpec(kind, 1024 * dt, 0.5))
        assert s.n_averages >= 20
        assert np.sum(s.psd) * s.df == pytest.approx(np.var(x), rel=0.02)

    def test_white_noise_flat_level(self, rng):
        dt, sigma = 10.0, 1.3
        x = rng.normal(0.0, sigma, 1 << 15)
        s = spec.periodogram(make_series(x, dt), WindowSpec("hann", 1024 * dt, 0.5))
        assert np.mean(s.psd[3:-3]) == pytest.approx(2 * sigma**2 * dt, rel=0.05)

    def test_scipy_welch_oracle(self, rng):
        from scipy import signal as sps

        dt = 2.0
        x = rng.normal(0.0, 1.0, 1 << 14)
        s = spec.periodogram(make_series(x, dt), WindowSpec("hann", 512 * dt, 0.5))
        f_ref, p_ref = sps.welch(
            x, fs=1 / dt, window="hann", nperseg=512, noverlap=256, detrend=False
        )
        np.testing.assert_allclose(s.frequencies, f_ref)
        np.testing.assert_allclose(s.psd[1:-1], p_ref[1:-1], rtol=0.02)

    def test_tone_integrated_power(self):
        dt, amp, f_tone = 10.0, 2.0, 0.011
        t = np.arange(1 << 15) * dt
        x = amp * np.cos(2 * np.pi * f_tone * t)
        s = spec.periodogram(make_series(x, dt), WindowSpec("hann", 4096 * dt, 0.5))
        assert np.sum(s.psd) * s.df == pytest.approx(amp**2 / 2, rel=0.02)

    def test_two_tones_resolved(self):
        dt = 10.0
        t = np.arange(1 << 14) * dt
        seg = 2048 * dt
        delta_f = spec.window_response(WindowSpec("hann", seg, 0.0))
        f1 = 0.01
        f2 = f1 + 3 * delta_f
        x = np.cos(2 * np.pi * f1 * t) + np.cos(2 * np.pi * f2 * t)
        s = spec.periodogram(make_series(x, dt), WindowSpec("hann", seg, 0.5))
        region = (s.frequencies > f1 - 5 * delta_f) & (s.frequencies < f2 + 5 * delta_f)
        p = s.psd[region]
        maxima = [
            i for i in range(1, p.size - 1)
            if p[i] > p[i - 1] and p[i] > p[i + 1] and p[i] > 0.01 * p.max()
        ]
        assert len(maxima) == 2

    def test_segment_longer_than_record(self, rng):
        x = rng.normal(size=128)
        with pytest.raises(ValueError, match="exceeds"):
            spec.periodogram(make_series(x, 1.0), WindowSpec("hann", 1024.0, 0.5))

    def test_rejects_complex_input(self):
        x = np.exp(1j * np.arange(64.0))
        with pytest.raises(ValueError, match="real"):
            spec.periodogram(make_series(x, 1.0), WindowSpec("hann", 16.0, 0.5))

    def test_spectrum_export(self, rng, tmp_path):
        # a spectrum written in psd.csv's layout reads back exactly
        x = rng.normal(size=1 << 12)
        s = spec.periodogram(make_series(x, 1.0), WindowSpec("hann", 512.0, 0.5))
        write_columns(tmp_path / "s.csv", "f_hz,psd", (s.frequencies, s.psd))
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "f_hz,psd"
        table = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], s.frequencies)
        np.testing.assert_array_equal(table[:, 1], s.psd)


def _primes(below):
    sieve = np.ones(below, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(below**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve).tolist()


def _smooth(limit):
    found = {1}
    for q in (2, 3, 5, 7, 11):
        found |= {k * q**e for k in found for e in range(1, 40) if k * q**e <= limit}
    return sorted(found - {1})


LARGE_PRIMES = [q for q in _primes(5000) if q > 11]
# lengths with no prime factor above 11, with one or two primes above 11
# times a small cofactor (odd or even), and primes themselves
FFT_LENGTHS = st.one_of(
    st.sampled_from(_smooth(200_000)),
    st.builds(lambda p, k: p * k, st.sampled_from(LARGE_PRIMES), st.integers(1, 100)),
    st.builds(
        lambda p, q, k: p * q * k,
        st.sampled_from(LARGE_PRIMES[:100]),
        st.sampled_from(LARGE_PRIMES[:100]),
        st.sampled_from([1, 2]),
    ),
    st.sampled_from(LARGE_PRIMES),
)


class TestSplitTransform:
    @given(n=FFT_LENGTHS, seed=st.integers(0, 2**32 - 1))
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    @example(n=1461, seed=0)
    @example(n=126_230, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_rfft_power(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        got = spec._rfft_power(x)
        expected = np.abs(np.fft.rfft(x)) ** 2
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)

    @pytest.mark.parametrize(
        "n, p",
        [
            (3_155_760, 487),  # a year at dt = 10 s
            (126_230, 971),  # 2 * 5 * 13 * 971
            (1461, 487),  # 3 * 487: the least cofactor that splits
            (2 * 99_991, 0),  # cofactor 2 stays on np.fft.rfft
            (13 * 6480, 0),  # largest prime below the split's minimum
            (99_991, 0),  # prime
            (80_640, 0),  # 7-smooth
        ],
    )
    def test_splits_only_where_timed_faster(self, n, p):
        assert spec._split_prime(n) == p

    @pytest.mark.parametrize("nper", [2922, 1461])  # 2 * 3 * 487 and 3 * 487
    def test_parseval_segmented_hann(self, rng, nper):
        # one-sided psd with half-weight DC and Nyquist bins integrates to
        # the mean over segments of sum((w x)^2) / sum(w^2), exactly
        dt = 10.0
        x = rng.normal(0.0, 1.0, 20 * nper + 17)
        window = WindowSpec("hann", nper * dt, 0.5)
        s = spec.periodogram(make_series(x, dt), window)
        w = np.hanning(nper)
        step = nper // 2
        squares = [
            np.sum((x[i : i + nper] * w) ** 2) for i in range(0, x.size - nper + 1, step)
        ]
        assert s.n_averages == len(squares)
        assert np.sum(s.psd) * s.df == pytest.approx(np.mean(squares) / np.sum(w**2), rel=1e-9)


class TestWindowResponse:
    def test_rectangular_resolution(self):
        wr = spec.window_response(WindowSpec("rectangular", 1.26e8, 0.0))
        assert wr == pytest.approx(7.93e-9, rel=0.02)

    def test_hann_factor(self):
        rect = spec.window_response(WindowSpec("rectangular", 1e4, 0.0))
        hann = spec.window_response(WindowSpec("hann", 1e4, 0.0))
        assert hann / rect == pytest.approx(1.44, rel=1e-12)

    @pytest.mark.parametrize("length", [math.inf, math.nan, -1.0], ids=["inf", "nan", "negative"])
    def test_rejects_unusable_segment_length(self, length):
        # refused where the spec is made, not by int() or as a nan resolution
        with pytest.raises(ValueError, match="^segment_length must be finite and non-negative"):
            WindowSpec("hann", length, 0.5)


class TestTripletStatistic:
    def test_four_year_morphology(self, eph):
        # closed-form three-line record: side power over carrier power is
        # (depth/2)^2, and the two sides agree
        ts = triplet_record(eph, 0.1, 4 * YEAR_S, 1000.0)
        res = spec.triplet_statistic(ts, eph, 0.0, 0.0)
        assert res.x_plus / res.x_star == pytest.approx(0.0025, rel=0.05)
        assert res.x_minus / res.x_star == pytest.approx(0.0025, rel=0.05)
        assert res.x_plus == pytest.approx(res.x_minus, rel=0.02)
        assert res.epsilon_hat == pytest.approx(0.1, rel=0.01)

    def test_zero_depth(self, eph):
        ts = triplet_record(eph, 0.0, 2 * YEAR_S, 1800.0)
        res = spec.triplet_statistic(ts, eph, 0.0, 0.0)
        assert res.x_plus < 1e-10 * res.x_star
        assert res.epsilon_hat < 1e-6

    def test_sixty_day_noiseless_recovery(self, eph):
        span = 60 * 86400.0
        t0 = YEAR_S / 4 - span / 2
        ts = triplet_record(eph, 0.1, span, 1800.0, t0=t0)
        res = spec.triplet_statistic(ts, eph, 0.0, 0.0)
        assert res.epsilon_hat == pytest.approx(0.1, rel=0.20)
        # well inside: the fit is exact on noiseless data
        assert res.epsilon_hat == pytest.approx(0.1, rel=1e-9)

    def test_sixty_day_noisy_median(self, eph):
        span, dt = 60 * 86400.0, 1800.0
        t0 = YEAR_S / 4 - span / 2
        clean = triplet_record(eph, 0.5, span, dt, t0=t0)
        n = clean.samples.size
        sigma = np.sqrt(n / 2) / 10.0  # matched-filter carrier SNR of 10
        estimates = []
        for child in np.random.SeedSequence(2024).spawn(60):
            noisy = clean.samples + np.random.default_rng(child).normal(0, sigma, n)
            res = spec.triplet_statistic(TimeSeries(t0, dt, noisy, {"o": 1}), eph, 0.0, 0.0)
            estimates.append(res.epsilon_hat)
        assert np.median(estimates) == pytest.approx(0.5, rel=0.5)

    def test_internal_snr_convention(self, eph):
        span, dt = 60 * 86400.0, 1800.0
        t0 = YEAR_S / 4 - span / 2
        clean = triplet_record(eph, 0.1, span, dt, t0=t0)
        n = clean.samples.size
        sigma = np.sqrt(n / 2) / 10.0
        values = []
        for child in np.random.SeedSequence(77).spawn(20):
            noisy = clean.samples + np.random.default_rng(child).normal(0, sigma, n)
            res = spec.triplet_statistic(TimeSeries(t0, dt, noisy, {"o": 1}), eph, 0.0, 0.0)
            values.append(res.snr_star)
        assert np.mean(values) == pytest.approx(10.0, rel=0.2)

    def test_time_shift_covariance(self, eph):
        span, dt = 200 * 86164.0905, 1800.0
        ts = triplet_record(eph, 0.1, span, dt)
        shift = 37_123.0
        shifted = TimeSeries(ts.t0 + shift, dt, ts.samples, ts.meta)
        a = spec.triplet_statistic(ts, eph, 0.0, 0.0)
        b = spec.triplet_statistic(
            shifted, eph,
            eph.omega_sidereal * shift,
            eph.omega_annual * shift,
        )
        assert b.x_star == pytest.approx(a.x_star, rel=1e-9)
        assert b.x_plus == pytest.approx(a.x_plus, rel=1e-9)
        assert b.x_minus == pytest.approx(a.x_minus, rel=1e-9)
        assert b.epsilon_hat == pytest.approx(a.epsilon_hat, abs=1e-9)

    def test_power_statistic_quadratic_in_amplitude(self, eph):
        one = triplet_record(eph, 0.1, YEAR_S, 3600.0, amp=1.0)
        two = triplet_record(eph, 0.1, YEAR_S, 3600.0, amp=2.0)
        a = spec.triplet_statistic(one, eph, 0.0, 0.0)
        b = spec.triplet_statistic(two, eph, 0.0, 0.0)
        assert b.x_star / a.x_star == pytest.approx(4.0, rel=1e-12)

    def test_json_export(self, eph):
        # triplet.json holds asdict(result): plain JSON values that read back equal
        ts = triplet_record(eph, 0.1, 30 * 86400.0, 3600.0)
        record = asdict(spec.triplet_statistic(ts, eph, 0.0, 0.0))
        assert json.loads(json.dumps(record)) == record


def lstsq_depth(ts, eph, psi_d, psi_a):
    """The oracle: the two-template fit as a dense (n x 2) least squares,
    with 1 - rho^2 of its Gram matrix, the envelope template's norm, and
    the rounding bound of the closed form's 2x2 solve (see
    test_matches_lstsq_oracle)."""
    t = ts.times
    carrier = np.cos(eph.omega_sidereal * t - psi_d)
    envelope = carrier * np.cos(eph.omega_annual * t - psi_a)
    design = np.column_stack([carrier, envelope])
    coef, *_ = np.linalg.lstsq(design, ts.samples, rcond=None)
    (g_aa, g_ab), (_, g_bb) = design.T @ design
    r_a, r_b = design.T @ ts.samples
    separation = 1.0 - g_ab**2 / (g_aa * g_bb)
    a, b = g_bb * r_a - g_ab * r_b, g_aa * r_b - g_ab * r_a
    u = np.finfo(float).eps
    delta_a = u * (abs(g_bb * r_a) + abs(g_ab * r_b))
    delta_b = u * (abs(g_aa * r_b) + abs(g_ab * r_a))
    solve_error = delta_b / abs(a) + abs(b) * delta_a / a**2
    return max(0.0, coef[1] / coef[0]), separation, g_bb, solve_error


SIDEREAL_DAY = 2 * np.pi / EphemerisConstants().omega_sidereal


class TestPhaseLockedDepth:
    @given(
        t0=st.floats(0.0, YEAR_S),
        span_days=st.floats(2.0, 800.0),
        dt_fraction=st.floats(0.0, 1.0),
        depth=st.floats(0.0, 0.5),
        noise=st.floats(0.0, 3.0),
        psi_d=st.floats(0.0, 2 * np.pi),
        psi_a=st.floats(0.0, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(t0=0.0, span_days=2.0, dt_fraction=0.08645978386037113, depth=0.0, noise=1.625,
             psi_d=1.0, psi_a=0.46875, seed=100001)
    @settings(max_examples=40, deadline=None)
    def test_matches_lstsq_oracle(self, t0, span_days, dt_fraction, depth, noise,
                                  psi_d, psi_a, seed):
        # dt runs from 1 s to a tenth of a sidereal day, but no finer than
        # 200,000 samples over the span, spread evenly in log dt
        eph = EphemerisConstants()
        span = span_days * SIDEREAL_DAY
        dt_lo, dt_hi = max(1.0, span / 200_000), 0.1 * SIDEREAL_DAY
        dt = dt_lo * (dt_hi / dt_lo) ** dt_fraction
        ts = triplet_record(eph, depth, span, dt, t0=t0, psi_d=psi_d, psi_a=psi_a)
        ts.samples += noise * np.random.default_rng(seed).normal(size=ts.samples.size)
        oracle, separation, envelope_norm, solve_error = lstsq_depth(ts, eph, psi_d, psi_a)
        got = spec.triplet_statistic(ts, eph, psi_d, psi_a).epsilon_hat
        # rounding Os t (up to 7e3 rad here) leaves a phase error of order
        # eps Os t in each line sum and closed-form Gram term, an absolute
        # error of that times n; it counts against the envelope template's
        # norm, small on a short record near an envelope node, and grows
        # by 1/(1 - rho^2) as the templates approach collinearity
        phase_error = np.finfo(float).eps * eph.omega_sidereal * ts.times[-1]
        scale = phase_error * ts.samples.size / envelope_norm
        # the 2x2 solve then rounds on its own: a = g_bb r_a - g_ab r_b is
        # two products and a difference, each rounded by at most eps/2
        # relative, so |da| <= eps/2 (|g_bb r_a| + |g_ab r_b| + |a|)
        # <= eps (|g_bb r_a| + |g_ab r_b|), and likewise
        # |db| <= eps (|g_aa r_b| + |g_ab r_a|) for b = g_aa r_b - g_ab r_a.
        # To first order d(b/a) = db/a - b da/a^2, which is solve_error,
        # with g and r from the dense design (the closed form's to rounding).
        # Near collinearity a is a small difference of large terms (on the
        # pinned two-day draw the products are 1.25e9 and a = 139), so this
        # term, not the phase error, sets the bound there
        assert abs(got - oracle) <= scale * max(oracle, 1.0) / separation + solve_error

    @given(
        t0=st.floats(0.0, YEAR_S),
        n=st.integers(2, 20_000),
        dt=st.floats(1.0, 0.1 * SIDEREAL_DAY),
        phase=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_dirichlet_sum_matches_direct_sum(self, t0, n, dt, phase):
        eph = EphemerisConstants()
        om_s, om_a = eph.omega_sidereal, eph.omega_annual
        t = t0 + dt * np.arange(n, dtype=float)
        t_mid = t0 + 0.5 * (n - 1) * dt
        for omega in (2 * om_s, om_a, 2 * om_a, 2 * om_s + om_a, 2 * om_s - om_a,
                      2 * (om_s + om_a), 2 * (om_s - om_a)):
            direct = np.sum(np.cos(omega * t - phase))
            closed = spec._dirichlet_sum(n, dt, t_mid, omega, phase)
            # omega t reaches 5e3 rad: both sides carry ~1e-12 rad of phase error
            assert closed == pytest.approx(direct, abs=1e-11 * n)

    def test_rejects_dt_above_a_tenth_of_a_sidereal_day(self, eph):
        ts = make_series(np.ones(64), dt=0.1 * SIDEREAL_DAY + 1.0)
        with pytest.raises(ValueError, match="too coarse"):
            spec.triplet_statistic(ts, eph, 0.0, 0.0)

    def test_rejects_collinear_templates(self, eph):
        # three samples a second apart: carrier and envelope are one column
        ts = make_series(np.array([1.0, 1.1, 0.9]), dt=1.0)
        with pytest.raises(ValueError, match="collinear"):
            spec.triplet_statistic(ts, eph, 0.3, 1.2)

    def test_memory_above_the_record(self, eph):
        ts = triplet_record(eph, 0.1, 1 << 20, 1.0)
        tracemalloc.start()
        spec.triplet_statistic(ts, eph, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # no copy of the record: the (_BLOCK x 2 lines) trig table and the
        # per-block products, 1.8 MB here (1.75 B per sample); a float
        # temporary of the record's length would add 8 B per sample
        assert peak <= 4 * ts.samples.size


def direct_line_sum(t, y, omega):
    """The oracle: the sum evaluated term by term at the full frequency."""
    return complex(np.sum(y * np.exp(-1j * omega * t)))


class TestBlockedLineSums:
    @given(
        t0=st.floats(0.0, YEAR_S),
        dt=st.floats(1.0, 1800.0),
        n=st.sampled_from([2, 1000, spec._BLOCK, 3 * spec._BLOCK, 3 * spec._BLOCK + 17]),
        spacing=st.floats(1e-9, 5e-6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sums(self, t0, dt, n, spacing, seed):
        eph = EphemerisConstants()
        t = t0 + dt * np.arange(n, dtype=float)
        y = np.random.default_rng(seed).normal(size=n)
        om_s = eph.omega_sidereal
        offsets = [0.0, eph.omega_annual, -eph.omega_annual]
        offsets += [k * spacing for k in (-7, -5, -4, -3, 3, 4, 5, 7)]
        blocked = spec._line_sums(t0, dt, y, om_s, offsets)
        direct = np.array([direct_line_sum(t, y, om_s + d) for d in offsets])
        # both sides round omega * t, up to 6e3 rad here, to about 5e-13
        assert np.max(np.abs(blocked - direct)) <= 1e-12 * np.sum(np.abs(y))

    def test_triplet_powers_match_direct_sums(self, eph, rng):
        # a record whose length is no multiple of the block, off the epoch
        ts = triplet_record(eph, 0.2, 3 * spec._BLOCK * 600.0 + 7 * 600.0, 600.0, t0=1234.5)
        ts = TimeSeries(ts.t0, ts.dt, ts.samples + rng.normal(size=ts.samples.size), ts.meta)
        res = spec.triplet_statistic(ts, eph, 0.0, 0.0)
        om_s, om_a = eph.omega_sidereal, eph.omega_annual
        for power, omega in (
            (res.x_star, om_s), (res.x_plus, om_s + om_a), (res.x_minus, om_s - om_a)
        ):
            oracle = abs(direct_line_sum(ts.times, ts.samples, omega)) ** 2
            assert power == pytest.approx(oracle, rel=1e-10)


class TestResolvability:
    def test_boundary_both_sides(self, eph):
        ts = triplet_record(eph, 0.3, 4 * YEAR_S, 2000.0)
        f_star = eph.omega_sidereal / (2 * np.pi)
        f_a = eph.omega_annual / (2 * np.pi)

        def count_maxima(t_seg):
            s = spec.periodogram(ts, WindowSpec("rectangular", t_seg, 0.5))
            delta = spec.window_response(WindowSpec("rectangular", t_seg, 0.5))
            lo, hi = f_star - 3 * f_a - 3 * delta, f_star + 3 * f_a + 3 * delta
            region = (s.frequencies > lo) & (s.frequencies < hi)
            p = s.psd[region]
            return sum(
                1
                for i in range(1, p.size - 1)
                if p[i] > p[i - 1] and p[i] > p[i + 1] and p[i] > 1e-3 * p.max()
            ), delta

        n_resolved, d1 = count_maxima(2 * YEAR_S)  # delta_f = f_a / 2
        n_blended, d2 = count_maxima(0.5 * YEAR_S)  # delta_f = 2 f_a
        assert d1 < f_a < d2
        assert n_resolved == 3
        assert n_blended == 1


class TestSnrEstimate:
    def test_monte_carlo_peak_to_background(self):
        # detection-statistics oracle: tone amplitude A in white noise of
        # one-sided density S0 gives a periodogram peak-to-background ratio
        # of SNR^2/2 with SNR = A sqrt(T/S0)
        dt, n, amp, sigma = 1.0, 4096, 0.5, 1.0
        f_tone = 512 / (n * dt)
        t = np.arange(n) * dt
        s0 = 2 * sigma**2 * dt
        predicted = amp * np.sqrt(n * dt / s0)
        ratios = []
        for child in np.random.SeedSequence(11).spawn(100):
            rng = np.random.default_rng(child)
            x = amp * np.cos(2 * np.pi * f_tone * t) + rng.normal(0, sigma, n)
            s = spec.periodogram(make_series(x, dt), WindowSpec("rectangular", 0.0, 0.0))
            k = int(round(f_tone / s.df))
            mask = np.ones(s.psd.size, dtype=bool)
            mask[:10] = mask[-10:] = False
            mask[k - 3 : k + 4] = False
            ratios.append(s.psd[k] / np.mean(s.psd[mask]))
        measured = np.sqrt(2 * np.mean(ratios))
        assert measured == pytest.approx(predicted, rel=0.2)
