"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not deferred.  Run with ``pytest -v -s``
to see the per-criterion report lines.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from axionkit import (
    AxionParams,
    EphemerisConstants,
    HaloParams,
    NoiseConfig,
    QubitParams,
    SearchConfig,
    SiteGeometry,
    TimeSeries,
    WindowSpec,
    cli,
)
from axionkit import geometry as geo
from axionkit import sensitivity as sens
from axionkit import signals as sig
from axionkit import spectral as spec
from axionkit.constants import C_KM_S, SIDEREAL_DAY_S, YEAR_S, uev_to_hz
from axionkit.halo import (
    coherence_time,
    effective_field,
    fractional_linewidth_second_moment,
    lineshape_support,
    shm_lineshape,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


class TestCriterion1GeometricGains:
    def test_gains(self):
        gains = geo.geometric_gains(SiteGeometry(latitude_deg=39.9, wind_dec_deg=30.0))
        targets = {
            "p0": (gains.p0, 0.321),
            "mean_square": (gains.mean_square_projection, 0.324),
            "g_daily": (gains.g_daily, 1.77),
            "g_three_axis": (gains.g_three_axis, 1.76),
            "g_total": (gains.g_total, 5.40),
        }
        ok = all(abs(v / t - 1) <= 0.005 for v, t in targets.values())
        report("1 geometric gains", ok, ", ".join(
            f"{k}={v:.4f} (target {t})" for k, (v, t) in targets.items()
        ))
        for name, (value, target) in targets.items():
            assert value == pytest.approx(target, rel=0.005), name


class TestCriterion2HaloNumbers:
    # The references (3.9e-7, 3.3 ms, 117 Hz) are checked at the default
    # halo, the one every CLI run uses.
    halo = HaloParams()

    def test_2a_second_moment_linewidth(self):
        width = fractional_linewidth_second_moment(self.halo)
        ok = abs(width / 3.9e-7 - 1) <= 0.05
        report("2a fractional linewidth", ok,
               f"got {width:.4e} at v0={self.halo.v0:g} km/s, required 3.9e-7 +-5%")
        assert ok, (
            f"second-moment fractional linewidth is {width:.4e} for "
            f"v0={self.halo.v0:g} km/s, v_esc={self.halo.v_esc:g} km/s, outside "
            "3.9e-7 +-5%; the closed form is verified against the quadrature "
            "oracle in test_halo"
        )

    def test_2b_coherence_time(self):
        tau = coherence_time(uev_to_hz(1.0), self.halo)
        ok = abs(tau / 3.3e-3 - 1) <= 0.10
        report("2b coherence time at 1 ueV", ok,
               f"got {tau * 1e3:.3f} ms at v0={self.halo.v0:g} km/s, target 3.3 ms +-10%")
        assert ok

    def test_2c_lineshape(self):
        nu_a = uev_to_hz(1.0)
        lo, hi = lineshape_support(nu_a, self.halo)

        # FWHM by root finding on the positive-offset profile
        def height(x):
            return float(shm_lineshape(np.array([nu_a + x]), nu_a, self.halo)[0])

        x0 = nu_a * self.halo.v0**2 / (2 * C_KM_S**2)
        half = 0.5 * height(x0 / 2)
        left = optimize.brentq(lambda x: height(x) - half, 1e-9 * x0, x0 / 2)
        right = optimize.brentq(lambda x: height(x) - half, x0 / 2, 10 * x0)
        fwhm = right - left
        fwhm_ok = abs(fwhm / 117.0 - 1) <= 0.10

        below = shm_lineshape(np.linspace(nu_a - 300.0, nu_a - 1e-6, 500), nu_a, self.halo)
        support_ok = bool(np.all(below == 0.0))

        norm, _ = integrate.quad(
            lambda nu: float(shm_lineshape(np.array([nu]), nu_a, self.halo)[0]),
            lo, hi, points=[lo, hi], limit=200,
        )
        norm_ok = abs(norm - 1.0) <= 1e-6

        ok = fwhm_ok and support_ok and norm_ok
        report(
            "2c line shape", ok,
            f"FWHM={fwhm:.1f} Hz at v0={self.halo.v0:g} km/s (target 117 +-10%), "
            f"zero below line: {support_ok}, "
            f"norm={norm:.8f}",
        )
        assert fwhm_ok and support_ok and norm_ok


class TestCriterion3EffectiveField:
    def test_3a_magnitude_window(self):
        halo = HaloParams()
        value = effective_field(1e-13, halo, 1e-3 * C_KM_S)
        ok = 1e-21 / 3.0 <= value <= 3e-21
        report("3a effective field magnitude", ok,
               f"got {value:.3e} T, required within factor 3 of 1e-21 T")
        assert ok, (
            f"effective field is {value:.3e} T for g_ae=1e-13 at v=1e-3c "
            "(verified against an independent SI-unit oracle in test_halo), "
            "outside [3.3e-22, 3e-21] T; the field convention is set out in the "
            "effective_field docstring, and this reference waits on the paper's "
            "effective-field equation"
        )

    def test_3b_exact_linearity(self):
        halo = HaloParams()
        g = 1e-13
        b1 = effective_field(g, halo, 230.0)
        b2 = effective_field(2.0 * g, halo, 230.0)
        b5 = effective_field(5.0 * g, halo, 230.0)
        # doubling is bit-exact; odd factors round once, so within 2 ulp
        ok = (b2 == 2.0 * b1) and math.isclose(b5, 5.0 * b1, rel_tol=5e-16)
        report("3b effective field linearity", ok,
               f"x2 exact: {b2 == 2.0 * b1}, x5 rel err {abs(b5 / (5 * b1) - 1):.1e}")
        assert ok


def synthesize_injected(eph, epsilon, span, dt, t0=0.0):
    """Noiseless baseband with a unit daily tone of injected annual depth,
    produced through the synthesis pipeline."""
    coeffs = geo.ModulationCoefficients(
        c0=0.0, c_daily=1.0, c_annual=0.0, c_cross=epsilon,
        phase_daily=0.0, phase_annual=0.0,
    )
    return sig.synthesize_observable(
        SiteGeometry(), eph, AxionParams(), HaloParams(), QubitParams(),
        NoiseConfig.zero(), span, dt, coeffs=coeffs, t0=t0,
    )


class TestCriterion4TripletMorphology:
    def test_triplet(self):
        eph = EphemerisConstants()
        epsilon = 0.1
        dt = 1000.0
        span = 4 * YEAR_S  # 1.2623e8 s
        ts = synthesize_injected(eph, epsilon, span, dt)

        spectrum = spec.periodogram(ts, WindowSpec("rectangular", 0.0, 0.0))
        f = spectrum.frequencies
        f_star = eph.omega_sidereal / (2 * np.pi)
        f_a = eph.omega_annual / (2 * np.pi)

        k_star = int(np.argmax(spectrum.psd))

        def peak_near(fc):
            k = int(round(fc / spectrum.df))
            return k - 2 + int(np.argmax(spectrum.psd[k - 2 : k + 3]))

        k_plus, k_minus = peak_near(f_star + f_a), peak_near(f_star - f_a)
        three_maxima = k_minus < k_star < k_plus
        spacing_plus = (k_plus - k_star) * spectrum.df
        spacing_minus = (k_star - k_minus) * spectrum.df
        spacing_ok = (
            abs(spacing_plus - f_a) <= spectrum.df
            and abs(spacing_minus - f_a) <= spectrum.df
        )

        def line_power(k):
            return float(np.sum(spectrum.psd[k - 1 : k + 2]))

        ratio_plus = line_power(k_plus) / line_power(k_star)
        ratio_minus = line_power(k_minus) / line_power(k_star)
        target = (epsilon / 2) ** 2
        ratio_ok = (
            abs(ratio_plus / target - 1) <= 0.10 and abs(ratio_minus / target - 1) <= 0.10
        )

        delta_f = spec.window_response(WindowSpec("rectangular", 1.26e8, 0.0))
        delta_ok = abs(delta_f / 7.93e-9 - 1) <= 0.02

        ok = three_maxima and spacing_ok and ratio_ok and delta_ok
        report(
            "4 triplet morphology", ok,
            f"spacing={spacing_plus:.4e}/{spacing_minus:.4e} Hz (target {f_a:.4e} "
            f"+-{spectrum.df:.1e}), power ratios {ratio_plus:.4e}/{ratio_minus:.4e} "
            f"(target {target:.1e} +-10%), delta_f={delta_f:.4e} Hz",
        )
        assert three_maxima and spacing_ok and ratio_ok and delta_ok


class TestCriterion5SubYearRecovery:
    eph = EphemerisConstants()
    span = 60 * 86400.0
    dt = 1800.0
    epsilon = 0.5  # injected annual depth (see decisions ledger)

    def _record(self, t0):
        return synthesize_injected(self.eph, self.epsilon, self.span, self.dt, t0=t0)

    def test_5a_noiseless(self):
        # window centered on the annual zero crossing, where the envelope
        # template is best conditioned
        ts = self._record(YEAR_S / 4 - self.span / 2)
        result = spec.triplet_statistic(ts, self.eph, 0.0, 0.0)
        ok = abs(result.epsilon_hat / self.epsilon - 1) <= 0.20
        report("5a sub-year recovery (noiseless)", ok,
               f"epsilon_hat={result.epsilon_hat:.4f}, injected {self.epsilon}")
        assert ok

    def test_5b_noisy_median(self):
        t0 = YEAR_S / 4 - self.span / 2
        clean = self._record(t0)
        n = clean.samples.size
        sigma = np.sqrt(n / 2) / 10.0  # matched-filter carrier SNR of 10
        estimates = []
        for child in np.random.SeedSequence(50).spawn(100):
            noisy = clean.samples + np.random.default_rng(child).normal(0, sigma, n)
            res = spec.triplet_statistic(
                TimeSeries(t0, self.dt, noisy, {"origin": "acceptance-5b"}),
                self.eph, 0.0, 0.0,
            )
            estimates.append(res.epsilon_hat)
        median = float(np.median(estimates))
        ok = abs(median / self.epsilon - 1) <= 0.50
        report("5b sub-year recovery (noisy)", ok,
               f"median epsilon_hat={median:.4f} over 100 trials, injected {self.epsilon}")
        assert ok


class TestCriterion6DailyRmsRobustness:
    def test_monte_carlo_band(self):
        site, eph = SiteGeometry(), EphemerisConstants()
        axion, halo, qubit = AxionParams(), HaloParams(), QubitParams()
        per_day = 48
        dt = SIDEREAL_DAY_S / per_day

        coeffs = geo.modulation_coefficients(site, eph)
        days = np.arange(365.0)
        theory = geo.daily_rms(days + 0.5, coeffs)
        theory_norm = theory / theory.mean()

        trials = []
        for child in np.random.SeedSequence(202).generate_state(20):
            ts = sig.synthesize_observable(
                site, eph, axion, halo, qubit, NoiseConfig(seed=int(child)),
                YEAR_S, dt, coeffs=coeffs, readout=True,
            )
            chunks = ts.samples[: 365 * per_day].reshape(365, per_day)
            power = np.mean(chunks**2, axis=1) - ts.meta["noise_var_realized"]
            rms = np.sqrt(np.clip(power, 1e-30, None))
            trials.append(rms / rms.mean())
        trials = np.array(trials)
        mc_mean = trials.mean(axis=0)
        mc_sigma = trials.std(axis=0, ddof=1)

        inside = np.abs(mc_mean - theory_norm) <= 5.0 * mc_sigma
        fraction = float(np.mean(inside))
        ok = fraction >= 0.99
        report("6 daily-RMS robustness", ok,
               f"{fraction:.1%} of days inside the +-5 sigma band")
        assert ok


class TestCriterion7BesselSidebands:
    def test_fft_and_sum_rule(self):
        beta_loc = 0.5
        nu_line = 100.0
        axion = AxionParams(mass_uev=nu_line / uev_to_hz(1.0))
        f0, fs, span = 1000.0, 8192.0, 4.0
        t = np.arange(0, span, 1 / fs)
        y = sig.spin_expectation(t, 2 * np.pi * f0, beta_loc, axion)
        amp = np.abs(np.fft.rfft(y)) * 2.0 / t.size
        freqs = np.fft.rfftfreq(t.size, 1 / fs)

        table = sig.bessel_sideband_table(beta_loc, 3)
        errors = []
        for n in range(4):
            k = int(np.argmin(np.abs(freqs - (f0 + n * nu_line))))
            errors.append(abs(amp[k] / abs(table[n]) - 1))
        fft_ok = max(errors) <= 0.01

        full = sig.bessel_sideband_table(beta_loc, int(beta_loc) + 20)
        total = full[0] ** 2 + 2 * np.sum(full[1:] ** 2)
        sum_ok = abs(total - 1.0) <= 1e-9

        ok = fft_ok and sum_ok
        report("7 Bessel sidebands", ok,
               f"max FFT line error {max(errors):.2%}, sum rule residual {abs(total - 1):.1e}")
        assert fft_ok and sum_ok


class TestCriterion8SensitivityScaling:
    halo = HaloParams()
    cfg = SearchConfig()

    def test_slopes(self):
        masses = np.geomspace(0.1, 30.0, 40)
        curve = sens.g_min_curve(masses, QubitParams(), self.halo, self.cfg)
        flat = np.array([r == "flat" for r in curve.regime])
        logm, logg = np.log(curve.mass_uev), np.log(curve.g_min)
        slope_flat = float(np.polyfit(logm[flat], logg[flat], 1)[0])
        slope_tau = float(np.polyfit(logm[~flat], logg[~flat], 1)[0])
        ok = abs(slope_flat) <= 0.05 and abs(slope_tau - 0.5) <= 0.05
        report("8a sensitivity slopes", ok,
               f"cap-limited slope {slope_flat:.3f} (target 0), "
               f"coherence-limited slope {slope_tau:.3f} (target 0.5)")
        assert ok

    def test_gain_ratio_everywhere(self):
        masses = np.geomspace(0.5, 20.0, 25)
        gains = geo.geometric_gains(SiteGeometry(latitude_deg=39.9, wind_dec_deg=30.0))
        base = sens.g_min_curve(masses, QubitParams(), self.halo, self.cfg)
        full = sens.g_min_curve(masses, QubitParams(), self.halo, self.cfg, gains=gains)
        ratios = base.g_min / full.g_min
        ok = bool(np.all(np.abs(ratios / gains.g_total - 1) <= 0.01))
        report("8b uniform gain shift", ok,
               f"ratio spread [{ratios.min():.5f}, {ratios.max():.5f}] vs "
               f"G_total={gains.g_total:.4f} +-1%")
        assert ok

    def test_future_preset_band(self):
        masses = np.geomspace(1.0, 10.0, 30)
        gains = geo.geometric_gains(SiteGeometry())
        curve = sens.g_min_curve(
            masses, sens.PRESETS["future"], self.halo, self.cfg, gains=gains
        )
        ok = bool(np.all((curve.g_min >= 1e-14) & (curve.g_min <= 1e-10)))
        report("8c future-preset band", ok,
               f"curve spans [{curve.g_min.min():.3e}, {curve.g_min.max():.3e}], "
               "required within [1e-14, 1e-10]")
        assert ok


class TestCriterion9StatisticalPlumbing:
    def test_quantile_against_bisection_oracle(self):
        def oracle(p):
            lo, hi = 0.0, 45.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if 0.5 * special.erfc(mid / math.sqrt(2.0)) > p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        cfg = SearchConfig(bandwidth_hz=1.0, t_cap_s=1.0, epsilon_safety=0.99)
        z = sens.trials_threshold(uev_to_hz(1e-4), cfg, HaloParams())
        ok = abs(z - 2.326) <= 1e-3 and abs(z - oracle(0.01)) <= 1e-6
        report("9a look-elsewhere quantile", ok, f"z(1%, 1 trial)={z:.6f}")
        assert ok

    def test_parseval_closure(self):
        rng = np.random.default_rng(909)
        dt = 5.0
        x = rng.normal(0.0, 1.0, 1 << 15)
        ts = TimeSeries(0.0, dt, x, {"origin": "acceptance-9"})
        spectrum = spec.periodogram(ts, WindowSpec("hann", 1024 * dt, 0.5))
        closure = float(np.sum(spectrum.psd) * spectrum.df / np.var(x))
        ok = abs(closure - 1.0) <= 0.02 and spectrum.n_averages >= 20
        report("9b Parseval closure", ok,
               f"sum(psd)*df/var = {closure:.4f} over {spectrum.n_averages} averages")
        assert ok

    def test_manifest_determinism(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main([
            "psd", "--out", str(out1), "--span-days", "120", "--dt", "2000",
            "--seed", "77", "--formats", "csv,json",
        ]) == 0
        assert cli.main([
            "psd", "--config", str(out1 / "manifest.json"), "--out", str(out2),
        ]) == 0
        identical = (out1 / "psd.csv").read_bytes() == (out2 / "psd.csv").read_bytes()
        report("9c manifest determinism", identical,
               "regenerated CSV byte-identical" if identical else "CSV bytes differ")
        assert identical
