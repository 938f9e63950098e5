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
import sys
from dataclasses import dataclass

import numpy as np

from .constants import M_E_EV, uev_to_hz
from .geometry import GeometricGains
from .halo import HaloParams, coherence_time, effective_field
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
        # bandwidth * T_cap bounds the trials in a segment and T_cap * T_tot
        # bounds T_coh * T_tot: finite, they keep g_min and log p finite
        for a, b in (("bandwidth_hz", "t_cap_s"), ("t_cap_s", "t_tot_s")):
            product = getattr(self, a) * getattr(self, b)
            if not math.isfinite(product):
                raise ValueError(f"{a} * {b} = {product} must be finite")
        # a segment holds a trial, so T_coh >= 1/bandwidth: floors of T_coh * T_tot, time_factor**2
        per_hz = self.t_tot_s / self.bandwidth_hz
        for name, floor in (("", per_hz), (" / t_cap_s", per_hz / self.t_cap_s)):
            if floor < sys.float_info.min:
                raise ValueError(f"t_tot_s / bandwidth_hz{name} = {floor} underflows")


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
    return np.minimum(cfg.epsilon_safety * coherence_time(nu_hz, halo), cfg.t_cap_s)


def trials_threshold(nu_hz, cfg: SearchConfig, halo: HaloParams):
    """One-sided z threshold at per-trial level alpha/N_trials, with
    N_trials = bandwidth * T_seg(nu).  Monotone in both knobs; the
    quantile is taken from log(alpha/N_trials), so it stays finite where
    the per-trial level underflows.  Elementwise over an array of
    frequencies.
    """
    return _segment_threshold(adaptive_segment(nu_hz, cfg, halo), cfg)


def _segment_threshold(t_seg, cfg: SearchConfig):
    """trials_threshold for segments of length t_seg, seconds."""
    n_trials = cfg.bandwidth_hz * t_seg
    too_few = n_trials < 1.0
    if np.any(too_few):
        raise ValueError(f"bandwidth * T_seg = {np.extract(too_few, n_trials)[0]} < 1 trial")
    return -_normal_quantile_of_log(math.log(cfg.alpha) - np.log(n_trials))


# Wichura's AS241 (Applied Statistics 37, 477, 1988) rational approximations
# of the normal quantile, highest power first: (numerator, denominator) for
# the central region |p - 1/2| <= 0.425, and for the tail in r = sqrt(-log p)
# on r <= 5 and beyond
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632045890e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _rational(coefficients, r):
    num, den = (np.polyval(c, r) for c in coefficients)
    return num / den


def _normal_quantile_of_log(log_p):
    """The standard normal quantile at p = exp(log_p) for log_p <= log 0.1,
    elementwise: AS241 with its tail variable r = sqrt(-log p) taken from
    log_p directly, so no p underflows.  Agrees with
    scipy.special.ndtri_exp to 2e-15 (relative) down to log_p = -700 and
    to 1e-11 down to -1460, where AS241's tail fit ends its design range."""
    log_p = np.asarray(log_p, dtype=float)
    q = np.exp(log_p) - 0.5
    r = np.sqrt(-log_p)
    central = np.abs(q) <= 0.425
    return np.where(
        central,
        q * _rational(_AS241_CENTRAL, 0.180625 - q * q),
        -np.where(r <= 5.0, _rational(_AS241_NEAR, r - 1.6), _rational(_AS241_FAR, r - 5.0)),
    )


@dataclass
class SensitivityCurve:
    """Minimum detectable coupling over a mass grid, one row per gain factor
    (see g_min_curve), with each mass's regime label ("flat" or "tau_limited")
    and the coherence-blind g_min_flat, T_coh frozen at the capture cap."""

    mass_uev: np.ndarray
    g_min: np.ndarray
    g_min_flat: np.ndarray
    regime: list


def _total_gain(gains) -> np.ndarray:
    if isinstance(gains, GeometricGains):
        gains = gains.g_total
    g = np.asarray(1.0 if gains is None else gains, dtype=float)
    if not np.all(g > 0):
        raise ValueError("gain factor must be positive")
    return g


def g_min_curve(
    mass_uev,
    qubit: QubitParams,
    halo: HaloParams,
    cfg: SearchConfig,
    gains=None,
) -> SensitivityCurve:
    """Minimum detectable coupling over the mass grid.

    Per mass, the required significance is the larger of n_sigma and the
    look-elsewhere threshold; the achievable SNR per unit coupling is
    (B_eff(g=1, v_ref)/eta_eff) * sqrt(T_coh * T_tot / T_cap) with
    eta_eff = eta_B/sqrt(n_spins), and the closed-form inversion gives
    g_min directly.  gains may be a GeometricGains record, a plain factor
    or a sequence of factors, each dividing g_min uniformly: g_min has
    shape gains.shape + masses.shape, one row per factor.  g_min_flat
    freezes T_coh at the capture cap: the coherence-blind variant.
    """
    masses = np.asarray(mass_uev, dtype=float)
    if masses.size == 0:
        raise ValueError("empty mass grid")
    if np.any(np.diff(masses) <= 0):
        raise ValueError("mass grid must be strictly increasing")

    gain = _total_gain(gains)[..., None]
    eta_eff = qubit.eta_b_t_rthz / math.sqrt(qubit.n_spins)
    b_per_g = effective_field(1.0, halo, halo.v_ref)

    nu = uev_to_hz(masses)
    # eps < 1 keeps the segment inside tau; it is the cap exactly where eps tau >= T_cap
    t_coh = adaptive_segment(nu, cfg, halo)
    regime = np.where(t_coh == cfg.t_cap_s, "flat", "tau_limited").tolist()
    z_eta = np.maximum(cfg.n_sigma, _segment_threshold(t_coh, cfg)) * eta_eff
    g_min, g_min_flat = (z_eta / (b_per_g * np.sqrt(t * cfg.t_tot_s / cfg.t_cap_s) * gain)
                         for t in (t_coh, cfg.t_cap_s))
    ok = np.isfinite(g_min) & np.isfinite(g_min_flat) & (g_min > 0) & (g_min_flat > 0)
    if not np.all(ok):
        raise ValueError(f"non-physical coupling at m={masses[np.nonzero(~ok)[-1].min()]} ueV")

    return SensitivityCurve(masses, g_min, g_min_flat, regime)


# benchmark-model constants, used only for the overlay band:
# coupling g = C_e m_e / f_a with C_e = sin^2(beta)/3, and the mass-decay
# constant relation m_a * f_a = DFSZ_MASS_FA_UEV_GEV (in ueV * GeV).
DFSZ_MASS_FA_UEV_GEV = 5.7e12
M_E_GEV = M_E_EV * 1e-9


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
