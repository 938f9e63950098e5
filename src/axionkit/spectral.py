"""Spectral estimation: averaged periodogram, window response, and the
ephemeris-guided three-line statistic at the sidereal frequency and its
annual sidebands.

One-sided PSD convention throughout: the density integrates to the
variance of a zero-mean stationary input, with the DC and Nyquist bins
carrying half weight.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EphemerisConstants
from .timeseries import TimeSeries, write_columns


@dataclass(frozen=True)
class WindowSpec:
    """Taper choice and segmentation for the averaged periodogram."""

    kind: str = "hann"
    segment_length: float = 0.0  # seconds; 0 means one segment spanning the record
    overlap: float = 0.5

    def __post_init__(self):
        if self.kind not in ("rectangular", "hann"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if not 0.0 <= self.overlap <= 0.9:
            raise ValueError(f"overlap must be in [0, 0.9], got {self.overlap}")

    def taper(self, n: int) -> np.ndarray:
        if self.kind == "rectangular":
            return np.ones(n)
        return np.hanning(n)


@dataclass
class Spectrum:
    """One-sided power spectral density on a uniform frequency grid."""

    f0: float
    df: float
    psd: np.ndarray
    window: WindowSpec
    n_averages: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.f0 + self.df * np.arange(len(self.psd))

    def to_csv(self, path) -> None:
        write_columns(path, "f_hz,psd", (self.frequencies, self.psd))


def periodogram(series: TimeSeries, window: WindowSpec) -> Spectrum:
    """Averaged modified periodogram of a real record.

    Normalized so that sum(psd) * df equals the variance of a zero-mean
    stationary input (within estimator noise).  Segments are tapered,
    overlapped by the configured fraction, and averaged in fixed order.
    """
    y = series.samples
    if np.iscomplexobj(y):
        raise ValueError("periodogram expects a real record")
    n = y.size
    dt = series.dt
    nper = n if window.segment_length == 0 else int(round(window.segment_length / dt))
    if nper < 2:
        raise ValueError("segment must contain at least 2 samples")
    if nper > n:
        raise ValueError(f"segment of {nper} samples exceeds the {n}-sample record")

    taper = window.taper(nper)
    u = float(np.sum(taper**2))
    step = max(1, int(round(nper * (1.0 - window.overlap))))
    n_freq = nper // 2 + 1
    acc = np.zeros(n_freq)
    count = 0
    for start in range(0, n - nper + 1, step):
        seg = y[start : start + nper] * taper
        spec = np.abs(np.fft.rfft(seg)) ** 2
        acc += spec
        count += 1
    psd = acc * (2.0 * dt / (u * count))
    psd[0] *= 0.5
    if nper % 2 == 0:
        psd[-1] *= 0.5
    return Spectrum(f0=0.0, df=1.0 / (nper * dt), psd=psd, window=window, n_averages=count)


@dataclass
class WindowResponse:
    """Continuous transform W(Omega) of the taper and its resolution
    bandwidth delta_f (Hz): 1/T for rectangular, 1.44/T for hann."""

    window: WindowSpec
    delta_f: float

    def __call__(self, omega) -> np.ndarray:
        t_seg = self.window.segment_length
        omega = np.asarray(omega, dtype=float)

        def rect(om):
            return t_seg * np.exp(-0.5j * om * t_seg) * np.sinc(om * t_seg / (2.0 * np.pi))

        if self.window.kind == "rectangular":
            return rect(omega)
        shift = 2.0 * np.pi / t_seg
        return 0.5 * rect(omega) - 0.25 * (rect(omega - shift) + rect(omega + shift))


def window_response(window: WindowSpec) -> WindowResponse:
    if window.segment_length <= 0:
        raise ValueError("window_response needs a positive segment_length")
    factor = 1.0 if window.kind == "rectangular" else 1.44
    return WindowResponse(window=window, delta_f=factor / window.segment_length)


@dataclass
class TripletResult:
    """Demodulated powers at the carrier and the two annual sidebands,
    the estimated annual depth, and internal signal-to-noise figures.
    mode names the depth estimator."""

    x_star: float
    x_plus: float
    x_minus: float
    f_star: float
    f_plus: float
    f_minus: float
    epsilon_hat: float
    snr_star: float
    snr_pm: float
    mode: str = "phase-locked"


# samples per block of the blocked line sums; a private constant that sets
# the shape of the (blocks x _BLOCK) @ (_BLOCK x lines) product
_BLOCK = 4096


def _line_sums(t, dt: float, y, omega: float, offsets) -> np.ndarray:
    """sum_k y_k exp(-i (omega + d_j) t_k) for each offset d_j.

    t must be the uniform grid t_k = t[0] + k dt.  The record is mixed
    once with exp(-i omega t).  With k = b _BLOCK + m, exp(-i d t_k)
    splits into the per-block phase exp(-i d t[b _BLOCK]) and the
    in-block phase exp(-i d m dt), so all sums are one matrix product of
    the mixed record, zero-padded to whole blocks, followed by a
    phase-weighted sum over blocks.
    """
    n = y.size
    blocks = -(-n // _BLOCK)
    phase = omega * t
    mixed = np.zeros(blocks * _BLOCK, dtype=complex)
    np.multiply(y, np.cos(phase), out=mixed.real[:n])
    np.multiply(y, -np.sin(phase), out=mixed.imag[:n])
    d = np.asarray(offsets, dtype=float)
    in_block = np.exp(-1j * np.outer(dt * np.arange(_BLOCK), d))
    per_block = np.exp(-1j * np.outer(t[::_BLOCK], d))
    return np.sum(per_block * (mixed.reshape(blocks, _BLOCK) @ in_block), axis=0)


def triplet_statistic(
    baseband: TimeSeries,
    eph: EphemerisConstants,
    psi_daily: float,
    psi_annual: float,
) -> TripletResult:
    """Heterodyned powers X = |sum y exp(-i Omega t)|^2 at the three
    target frequencies, plus an annual-depth estimate.

    The record is mixed once with exp(-i Os t); every line is then
    Os + d for a small offset d (0 and +/-Oa for the triplet, multiples
    of the comb spacing for the noise floor), and the eleven sums come
    out of one blocked matrix product on the uniform time grid (see
    _line_sums), equal to the direct sums to rounding.

    The depth comes from a least-squares fit of the two-template model

        y ~ a * cos(Os t - psi_daily) + b * cos(Os t - psi_daily) cos(Oa t - psi_annual)

    with both phases fixed by the ephemeris, so the sidebands accumulate
    coherently and the estimate works on records far shorter than a
    year.  The estimate b/a is clipped at zero.

    Internal noise figures compare the triplet powers against the mean
    demodulated power on a comb of off-target frequencies.
    """
    t = baseband.times
    y = np.real(baseband.samples)

    om_s, om_a = eph.omega_sidereal, eph.omega_annual
    omega_plus, omega_minus = om_s + om_a, om_s - om_a

    # noise floor from a comb of off-target frequencies, spaced by the
    # larger of the annual rate and the record's own resolution; the
    # sqrt(2) puts the figures in the matched-filter amplitude convention
    span = t[-1] - t[0]
    base = max(om_a, 2.0 * math.pi / span)
    comb = [k * base for k in (-7, -5, -4, -3, 3, 4, 5, 7)]
    lines = _line_sums(t, baseband.dt, y, om_s, [0.0, om_a, -om_a, *comb])
    power = np.abs(lines) ** 2
    x_star, x_plus, x_minus = power[:3]
    floor = max(np.mean(power[3:]), 1e-300)
    snr_star = math.sqrt(2.0 * x_star / floor)
    snr_pm = math.sqrt(x_plus + x_minus) / math.sqrt(floor)

    carrier = np.cos(om_s * t - psi_daily)
    envelope = carrier * np.cos(om_a * t - psi_annual)
    coef, *_ = np.linalg.lstsq(np.column_stack([carrier, envelope]), y, rcond=None)
    epsilon_hat = coef[1] / coef[0] if coef[0] != 0.0 else 0.0
    epsilon_hat = max(0.0, float(epsilon_hat))

    return TripletResult(
        x_star=float(x_star),
        x_plus=float(x_plus),
        x_minus=float(x_minus),
        f_star=om_s / (2.0 * math.pi),
        f_plus=omega_plus / (2.0 * math.pi),
        f_minus=omega_minus / (2.0 * math.pi),
        epsilon_hat=epsilon_hat,
        snr_star=snr_star,
        snr_pm=snr_pm,
    )
