import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from axionkit import HaloParams, QubitParams, SearchConfig, SiteGeometry
from axionkit import sensitivity as sens
from axionkit.constants import uev_to_hz
from axionkit.geometry import geometric_gains
from axionkit.halo import coherence_time, effective_field


def gaussian_tail_quantile_oracle(p):
    """Independent oracle: bisection on erfc for the one-sided quantile."""
    lo, hi = 0.0, 45.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * special.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def g_min_loop_reference(masses, qubit, halo, cfg, gain_total, coherence_limited):
    """The per-mass scalar loop that g_min_curve vectorizes (no tail branch):
    its g_min with coherence_limited, its g_min_flat without."""
    eta_eff = qubit.eta_b_t_rthz / math.sqrt(qubit.n_spins)
    b_per_g = effective_field(1.0, halo, halo.v_ref)
    g_min, regime = [], []
    for m in masses:
        nu = uev_to_hz(m)
        tau = coherence_time(nu, halo)
        t_seg = min(cfg.epsilon_safety * tau, cfg.t_cap_s)
        t_coh = min(t_seg, tau) if coherence_limited else cfg.t_cap_s
        flat = not coherence_limited or cfg.epsilon_safety * tau >= cfg.t_cap_s
        regime.append("flat" if flat else "tau_limited")
        time_factor = math.sqrt(t_coh * cfg.t_tot_s / cfg.t_cap_s)
        log_p = math.log(cfg.alpha) - math.log(cfg.bandwidth_hz * t_seg)
        z_req = max(cfg.n_sigma, float(stats.norm.isf(math.exp(log_p))))
        g_min.append(z_req * eta_eff / (b_per_g * time_factor * gain_total))
    return np.array(g_min), regime


@pytest.fixture
def cfg():
    return SearchConfig()


class TestAdaptiveSegment:
    def test_cap_binds_at_low_mass(self, cfg, halo):
        assert sens.adaptive_segment(uev_to_hz(0.1), cfg, halo) == cfg.t_cap_s

    def test_coherence_binds_at_high_mass(self, cfg, halo):
        nu = uev_to_hz(20.0)
        t_seg = sens.adaptive_segment(nu, cfg, halo)
        tau = coherence_time(nu, halo)
        assert t_seg == pytest.approx(cfg.epsilon_safety * tau, rel=1e-12)
        assert t_seg < tau  # phase-coherence guard

    def test_continuous_at_boundary(self, cfg, halo):
        # mass where eps * tau = T_cap
        nu = cfg.epsilon_safety / (
            math.pi * cfg.t_cap_s * 4.249246e-7
        )
        low = sens.adaptive_segment(nu * 0.999, cfg, halo)
        high = sens.adaptive_segment(nu * 1.001, cfg, halo)
        assert low == pytest.approx(high, rel=3e-3)

    @given(nu=st.floats(1e6, 1e12))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_either_bound(self, nu):
        cfg, halo = SearchConfig(), HaloParams()
        t_seg = sens.adaptive_segment(nu, cfg, halo)
        assert t_seg <= cfg.t_cap_s + 1e-15
        assert t_seg <= cfg.epsilon_safety * coherence_time(nu, halo) * (1 + 1e-12)


class TestTrialsThreshold:
    def test_single_trial_quantile(self, halo):
        # alpha=1%, one trial: BW * T_seg = 1
        cfg = SearchConfig(bandwidth_hz=1.0, t_cap_s=1.0, epsilon_safety=0.99)
        z = sens.trials_threshold(uev_to_hz(1e-4), cfg, halo)
        assert z == pytest.approx(2.326, abs=1e-3)
        assert z == pytest.approx(gaussian_tail_quantile_oracle(0.01), abs=1e-6)

    def test_million_trials_quantile(self, halo):
        cfg = SearchConfig(bandwidth_hz=1e6, t_cap_s=1.0, epsilon_safety=0.99)
        z = sens.trials_threshold(uev_to_hz(1e-4), cfg, halo)
        assert z == pytest.approx(gaussian_tail_quantile_oracle(0.01 / 1e6), abs=1e-3)

    def test_monotone_in_trials(self, halo):
        values = []
        for bw in (1e3, 1e4, 1e5, 1e6, 1e7):
            cfg = SearchConfig(bandwidth_hz=bw)
            values.append(sens.trials_threshold(uev_to_hz(0.5), cfg, halo))
        assert np.all(np.diff(values) > 0)

    def test_monotone_in_alpha(self, halo):
        z_loose = sens.trials_threshold(uev_to_hz(0.5), SearchConfig(alpha=0.05), HaloParams())
        z_tight = sens.trials_threshold(uev_to_hz(0.5), SearchConfig(alpha=0.001), HaloParams())
        assert z_tight > z_loose

    def test_underflow_guard_against_asymptotic(self, halo):
        # per-trial level 1e-300, far below double-precision erfc territory
        cfg = SearchConfig(bandwidth_hz=1e298, t_cap_s=1.0, epsilon_safety=0.99)
        z = sens.trials_threshold(uev_to_hz(1e-4), cfg, halo)
        assert z == pytest.approx(37.047096, abs=1e-4)

    def test_rejects_sub_single_trial(self, halo):
        cfg = SearchConfig(bandwidth_hz=1.0, t_cap_s=1e-3)
        with pytest.raises(ValueError, match="trial"):
            sens.trials_threshold(uev_to_hz(1.0), cfg, halo)

    def test_array_matches_scalar_calls_across_both_branches(self, halo):
        # per-trial levels on both sides of 1e-280
        cfg = SearchConfig(bandwidth_hz=1e284)
        nus = np.geomspace(1e6, 1e14, 60)
        z = sens.trials_threshold(nus, cfg, halo)
        n_trials = cfg.bandwidth_hz * sens.adaptive_segment(nus, cfg, halo)
        log_p = math.log(cfg.alpha) - np.log(n_trials)
        tail = log_p < math.log(1e-280)
        assert tail.any() and not tail.all()
        np.testing.assert_array_equal(z, [sens.trials_threshold(nu, cfg, halo) for nu in nus])
        assert np.all(np.diff(z) <= 0)  # fewer trials at shorter segments

    def test_array_rejection_names_first_offender(self, halo):
        cfg = SearchConfig(bandwidth_hz=1500.0, t_cap_s=1e-3)
        nus = uev_to_hz(np.array([1.0, 10.0, 20.0, 30.0]))
        t_seg = sens.adaptive_segment(nus, cfg, halo)
        first = cfg.bandwidth_hz * t_seg[cfg.bandwidth_hz * t_seg < 1.0][0]
        with pytest.raises(ValueError, match=re.escape(f"= {first} < 1 trial")):
            sens.trials_threshold(nus, cfg, halo)


class TestNormalQuantileOfLog:
    # AS241 in log space against scipy's ndtri_exp, over every per-trial
    # level the configuration admits: alpha <= 0.1 and N_trials >= 1, down
    # to alpha = 5e-324 at 1.8e308 trials
    @given(log_p=st.floats(-700.0, math.log(0.1)))
    @example(log_p=math.log(0.1))
    @example(log_p=math.log(0.075))  # the central region's edge
    @example(log_p=-25.0)  # r = 5, where the two tail fits meet
    @settings(max_examples=300, deadline=None)
    def test_matches_ndtri_exp(self, log_p):
        z = sens._normal_quantile_of_log(log_p)
        assert abs(z / special.ndtri_exp(log_p) - 1.0) <= 2e-15

    @given(log_p=st.floats(-1460.0, -700.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_ndtri_exp_beyond_design_range(self, log_p):
        z = sens._normal_quantile_of_log(log_p)
        assert abs(z / special.ndtri_exp(log_p) - 1.0) <= 1e-11

    def test_array_matches_scalars(self):
        log_p = np.linspace(-1460.0, math.log(0.1), 997)
        z = sens._normal_quantile_of_log(log_p)
        np.testing.assert_array_equal(z, [sens._normal_quantile_of_log(v) for v in log_p])
        assert np.all(np.diff(z) > 0)


class TestGminCurve:
    def test_regime_slopes(self, cfg, halo, qubit):
        masses = np.geomspace(0.1, 30.0, 40)
        curve = sens.g_min_curve(masses, qubit, halo, cfg)
        logm, logg = np.log(curve.mass_uev), np.log(curve.g_min)
        flat = np.array([r == "flat" for r in curve.regime])
        tau = ~flat
        slope_flat = np.polyfit(logm[flat], logg[flat], 1)[0]
        slope_tau = np.polyfit(logm[tau][2:], logg[tau][2:], 1)[0]
        assert slope_flat == pytest.approx(0.0, abs=0.05)
        assert slope_tau == pytest.approx(0.5, abs=0.05)

    def test_regime_labels_match_segment_branch(self, cfg, halo, qubit):
        masses = np.geomspace(0.1, 30.0, 25)
        curve = sens.g_min_curve(masses, qubit, halo, cfg)
        for m, label in zip(curve.mass_uev, curve.regime):
            nu = uev_to_hz(m)
            cap_binds = cfg.epsilon_safety * coherence_time(nu, halo) >= cfg.t_cap_s
            assert label == ("flat" if cap_binds else "tau_limited")

    def test_future_preset_band(self, cfg, halo):
        masses = np.geomspace(1.0, 10.0, 20)
        gains = geometric_gains(SiteGeometry())
        curve = sens.g_min_curve(masses, sens.PRESETS["future"], halo, cfg, gains=gains)
        assert np.all(curve.g_min >= 1e-14)
        assert np.all(curve.g_min <= 1e-10)

    def test_gain_division_uniform(self, cfg, halo, qubit):
        masses = np.geomspace(0.5, 20.0, 15)
        gains = geometric_gains(SiteGeometry(latitude_deg=39.9, wind_dec_deg=30.0))
        base = sens.g_min_curve(masses, qubit, halo, cfg)
        gained = sens.g_min_curve(masses, qubit, halo, cfg, gains=gains)
        ratio = base.g_min / gained.g_min
        np.testing.assert_allclose(ratio, gains.g_total, rtol=1e-12)
        assert gains.g_total == pytest.approx(5.40, rel=0.005)

    def test_monotone_in_tau_limited_regime(self, cfg, halo, qubit):
        masses = np.geomspace(2.0, 50.0, 30)
        curve = sens.g_min_curve(masses, qubit, halo, cfg)
        tau_part = curve.g_min[[r == "tau_limited" for r in curve.regime]]
        assert np.all(np.diff(tau_part) > 0)

    @given(k=st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_eta_gain_rescaling_invariance(self, k):
        cfg, halo = SearchConfig(), HaloParams()
        masses = np.geomspace(0.5, 10.0, 6)
        base = sens.g_min_curve(masses, QubitParams(), halo, cfg, gains=2.0)
        scaled_qubit = QubitParams(eta_b_t_rthz=1e-15 * k)
        scaled = sens.g_min_curve(masses, scaled_qubit, halo, cfg, gains=2.0 * k)
        np.testing.assert_allclose(scaled.g_min, base.g_min, rtol=1e-12)

    def test_deterministic(self, cfg, halo, qubit):
        masses = np.geomspace(1.0, 10.0, 10)
        a = sens.g_min_curve(masses, qubit, halo, cfg)
        b = sens.g_min_curve(masses, qubit, halo, cfg)
        np.testing.assert_array_equal(a.g_min, b.g_min)

    def test_mass_independent_variant_is_flat(self, cfg, halo, qubit):
        masses = np.geomspace(0.1, 50.0, 20)
        g_flat = sens.g_min_curve(masses, qubit, halo, cfg).g_min_flat
        spread = np.log(g_flat.max() / g_flat.min())
        assert spread < 0.01

    def test_empty_grid_rejected(self, cfg, halo, qubit):
        with pytest.raises(ValueError, match="empty"):
            sens.g_min_curve(np.array([]), qubit, halo, cfg)

    @pytest.mark.parametrize("preset", ["current", "future"])
    @pytest.mark.parametrize("coherence_limited", [True, False])
    def test_matches_scalar_loop(self, cfg, halo, preset, coherence_limited):
        qubit = sens.PRESETS[preset]
        gains = geometric_gains(SiteGeometry())
        grids = [
            (np.geomspace(1.0, 10.0, 50),
             ((None, 1.0), (gains.g_daily, gains.g_daily), (gains, gains.g_total))),
            (np.geomspace(0.05, 200.0, 150), ((None, 1.0),)),
        ]
        for masses, gain_options in grids:
            for gain, total in gain_options:
                curve = sens.g_min_curve(masses, qubit, halo, cfg, gains=gain)
                g_ref, regime_ref = g_min_loop_reference(
                    masses, qubit, halo, cfg, total, coherence_limited)
                if coherence_limited:
                    assert curve.regime == regime_ref
                g_min = curve.g_min if coherence_limited else curve.g_min_flat
                np.testing.assert_array_equal(g_min, g_ref)  # same arithmetic, same bits

    @given(
        gain_tuple=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4).map(tuple),
        masses=st.lists(st.floats(0.05, 200.0), min_size=1, max_size=12, unique=True).map(sorted),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_gains_match_per_gain_calls(self, gain_tuple, masses):
        cfg, halo, qubit = SearchConfig(), HaloParams(), QubitParams()
        batch = sens.g_min_curve(masses, qubit, halo, cfg, gains=gain_tuple)
        assert batch.g_min.shape == batch.g_min_flat.shape == (len(gain_tuple), len(masses))
        for gain, g_min, g_min_flat in zip(gain_tuple, batch.g_min, batch.g_min_flat):
            one = sens.g_min_curve(masses, qubit, halo, cfg, gains=gain)
            np.testing.assert_array_equal(g_min, one.g_min)
            np.testing.assert_array_equal(g_min_flat, one.g_min_flat)
            assert one.regime == batch.regime

    @pytest.mark.parametrize("gains", [[2.0, 0.0], [1.0, -1.0], [math.nan]])
    def test_non_positive_gain_in_batch_rejected(self, cfg, halo, qubit, gains):
        with pytest.raises(ValueError, match="gain factor must be positive"):
            sens.g_min_curve(np.geomspace(1.0, 10.0, 4), qubit, halo, cfg, gains=gains)

    def test_current_vs_future_ordering(self, cfg, halo):
        masses = np.geomspace(1.0, 10.0, 8)
        current = sens.g_min_curve(masses, sens.PRESETS["current"], halo, cfg)
        future = sens.g_min_curve(masses, sens.PRESETS["future"], halo, cfg)
        assert np.all(current.g_min > future.g_min)


class TestDfszBand:
    def test_linear_in_mass(self):
        g1 = sens.dfsz_coupling(1.0, 1.0)
        g2 = sens.dfsz_coupling(2.0, 1.0)
        assert g2 / g1 == pytest.approx(2.0, rel=1e-12)

    def test_tan_beta_one_coefficient(self):
        # sin^2(beta) = 1/2 at tan(beta) = 1, so C_e = 1/6
        g = sens.dfsz_coupling(1.0, 1.0)
        expected = (1.0 / 6.0) * sens.M_E_GEV / sens.DFSZ_MASS_FA_UEV_GEV
        assert g == pytest.approx(expected, rel=1e-12)

    def test_benchmark_constant_propagation(self):
        # recompute from the centralized mass-decay-constant product
        mass = 1.0
        f_a = sens.DFSZ_MASS_FA_UEV_GEV / mass
        oracle = (0.5 / 3.0) * 0.51099895e-3 / f_a
        assert sens.dfsz_coupling(mass, 1.0) == pytest.approx(oracle, rel=1e-6)

    def test_band_ordering_and_benchmark_inside(self):
        masses = np.geomspace(1.0, 10.0, 5)
        lo, hi, bench = sens.dfsz_band(masses)
        assert np.all(lo < bench) and np.all(bench < hi)


class TestSearchConfigValidation:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            SearchConfig(epsilon_safety=1.5)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SearchConfig(alpha=0.5)
