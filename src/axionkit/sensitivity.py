"""Coupling-sensitivity curves: adaptive segmentation, look-elsewhere
thresholds, and the inversion of the matched-filter SNR for the minimum
detectable coupling, with optional geometric and resource gains.

The per-segment coherent gain is sqrt(T_coh) with T_coh the adaptive
segment length min(eps * tau_field, T_cap); stacking the record
non-coherently in power over the T_tot/T_cap capture intervals
multiplies by sqrt(T_tot/T_cap), so the curve scales with the full
observing time as sqrt(T_tot) and inherits the mass dependence of the
field coherence time: g_min ~ sqrt(m) where the coherence limit binds,
flat where the capture cap does.  Power within the field linewidth is
summed optimally, so no sqrt(n_bins) penalty appears anywhere.  The SNR
is linear in the coupling through the effective field, so the inversion
is closed-form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .constants import uev_to_hz
from .geometry import GeometricGains
from .halo import HaloParams, AxionParams, coherence_time_at_frequency, effective_field
from .signals import QubitParams


@dataclass(frozen=True)
class SearchConfig:
    """Wideband-search bookkeeping: coherence safety factor, per-segment
    capture cap and total observing time (s), scanned bandwidth (Hz),
    global false-positive rate and detection significance."""

    epsilon_safety: float = 0.5
    t_cap_s: float = 1e-3
    t_tot_s: float = 5e4
    bandwidth_hz: float = 1e6
    alpha: float = 0.01
    n_sigma: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.epsilon_safety < 1.0:
            raise ValueError("epsilon_safety must be in (0, 1)")
        if not 0.0 < self.alpha <= 0.1:
            raise ValueError("alpha must be in (0, 0.1]")
        for name in ("t_cap_s", "t_tot_s", "bandwidth_hz", "n_sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# "current" and "future" hardware configurations
PRESETS = {
    "current": QubitParams(n_spins=10, eta_b_t_rthz=1e-15),
    "future": QubitParams(n_spins=10**6, eta_b_t_rthz=1e-16),
}


def adaptive_segment(nu_hz, cfg: SearchConfig, halo: HaloParams):
    """Coherent segment length min(eps * tau(nu), T_cap), seconds.

    Continuous in frequency and never exceeds either bound; the safety
    factor keeps segments strictly inside the field coherence time.
    Elementwise over an array of frequencies.
    """
    return np.minimum(cfg.epsilon_safety * coherence_time_at_frequency(nu_hz, halo), cfg.t_cap_s)


def trials_threshold(nu_hz, cfg: SearchConfig, halo: HaloParams):
    """One-sided z threshold at per-trial level alpha/N_trials, with
    N_trials = bandwidth * T_seg(nu).  Monotone in both knobs; the
    quantile is taken from log(alpha/N_trials), so it stays finite where
    the per-trial level underflows.  Elementwise over an array of
    frequencies.
    """
    n_trials = cfg.bandwidth_hz * adaptive_segment(nu_hz, cfg, halo)
    too_few = n_trials < 1.0
    if np.any(too_few):
        raise ValueError(f"bandwidth * T_seg = {np.extract(too_few, n_trials)[0]} < 1 trial")
    log_p = math.log(cfg.alpha) - np.log(n_trials)
    return -special.ndtri_exp(log_p)


@dataclass
class SensitivityCurve:
    """Minimum detectable coupling over a mass grid, with each mass's
    regime label ("flat" or "tau_limited"); cli writes it as
    sensitivity_shm.csv or sensitivity_flat.csv."""

    mass_uev: np.ndarray
    g_min: np.ndarray
    regime: list


def _total_gain(gains) -> float:
    if gains is None:
        return 1.0
    if isinstance(gains, GeometricGains):
        return gains.g_total
    g = float(gains)
    if g <= 0:
        raise ValueError("gain factor must be positive")
    return g


def g_min_curve(
    mass_uev,
    qubit: QubitParams,
    halo: HaloParams,
    cfg: SearchConfig,
    gains=None,
    mass_dependent: bool = True,
) -> SensitivityCurve:
    """Minimum detectable coupling over the mass grid.

    Per mass, the required significance is the larger of n_sigma and the
    look-elsewhere threshold; the achievable SNR per unit coupling is
    (B_eff(g=1, v_ref)/eta_eff) * sqrt(T_coh * T_tot / T_cap) with
    eta_eff = eta_B/sqrt(n_spins), and the closed-form inversion gives
    g_min directly.  gains may be a GeometricGains record or a plain
    factor; it divides g_min uniformly.  mass_dependent=False freezes
    T_coh at the capture cap, producing the coherence-blind variant.
    """
    masses = np.asarray(mass_uev, dtype=float)
    if masses.size == 0:
        raise ValueError("empty mass grid")
    if np.any(np.diff(masses) <= 0):
        raise ValueError("mass grid must be strictly increasing")

    gain_total = _total_gain(gains)
    eta_eff = qubit.eta_b_t_rthz / math.sqrt(qubit.n_spins)
    b_per_g = effective_field(AxionParams(mass_uev=1.0, g_ae=1.0), halo, halo.v_ref)

    nu = uev_to_hz(masses)
    tau = coherence_time_at_frequency(nu, halo)
    flat = (cfg.epsilon_safety * tau >= cfg.t_cap_s) | (not mass_dependent)
    if mass_dependent:  # eps < 1 keeps the segment inside tau
        t_coh = adaptive_segment(nu, cfg, halo)
    else:
        t_coh = np.full_like(masses, cfg.t_cap_s)
    time_factor = np.sqrt(t_coh * cfg.t_tot_s / cfg.t_cap_s)
    z_req = np.maximum(cfg.n_sigma, trials_threshold(nu, cfg, halo))
    g_min = z_req * eta_eff / (b_per_g * time_factor * gain_total)
    bad = ~(np.isfinite(g_min) & (g_min > 0))
    if np.any(bad):
        raise ValueError(f"non-physical coupling at m={np.extract(bad, masses)[0]} ueV")

    return SensitivityCurve(masses, g_min, np.where(flat, "flat", "tau_limited").tolist())


# benchmark-model constants, used only for the overlay band:
# coupling g = C_e m_e / f_a with C_e = sin^2(beta)/3, and the mass-decay
# constant relation m_a * f_a = DFSZ_MASS_FA_UEV_GEV (in ueV * GeV).
DFSZ_MASS_FA_UEV_GEV = 5.7e12
M_E_GEV = 0.51099895e-3


def dfsz_coupling(mass_uev, tan_beta: float):
    """Benchmark electron coupling at the given mass and tan(beta)."""
    if tan_beta <= 0:
        raise ValueError("tan_beta must be positive")
    sin2 = tan_beta**2 / (1.0 + tan_beta**2)
    c_e = sin2 / 3.0
    f_a_gev = DFSZ_MASS_FA_UEV_GEV / np.asarray(mass_uev, dtype=float)
    return c_e * M_E_GEV / f_a_gev


def dfsz_band(mass_uev):
    """(g_low, g_high, g_benchmark) arrays over the mass grid: the band
    spans tan(beta) from 0.25 to 170 and the benchmark is tan(beta) = 1.
    Linear in mass at fixed tan(beta)."""
    g_lo = dfsz_coupling(mass_uev, 0.25)
    g_hi = dfsz_coupling(mass_uev, 170.0)
    return np.minimum(g_lo, g_hi), np.maximum(g_lo, g_hi), dfsz_coupling(mass_uev, 1.0)
