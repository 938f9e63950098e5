"""Measurable-signal synthesis: FM response, noise, readout, heterodyne.

Two time scales are handled separately and never mixed in one array.
The carrier-scale response (precession at omega0 with FM sidebands at
multiples of the field frequency) is validated analytically and on short
high-rate records; year-scale synthesis operates directly on the slow
baseband model, i.e. the daily tone with its annual envelope, to which
white, 1/f and random-telegraph noise and a binary readout channel are
applied.  Every stochastic ingredient draws from its own child generator
of a single master seed, so records are bit-reproducible.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import signal as sps

from . import geometry
from .constants import SIDEREAL_DAY_S
from .halo import AxionParams, HaloParams, effective_field
from .timeseries import TimeSeries, short_hash

SYNTH_SCHEMA = "axionkit-baseband/1"

# the byte budget of one run, and the peak bytes per sample of synthesis
# with readout
MAX_BYTES = 2_000_000_000
BYTES_PER_SAMPLE = 40


class UnrealizableNoiseError(ValueError):
    """A noise setting that passed validation cannot be realized on the
    requested record; the message names the configuration key."""


@dataclass(frozen=True)
class QubitParams:
    """Sensor parameters: gyromagnetic ratio in Hz/T, spin count and
    single-spin field sensitivity in T/sqrt(Hz)."""

    gamma_e_hz_t: float = 28e9
    n_spins: int = 10
    eta_b_t_rthz: float = 1e-15

    def __post_init__(self):
        for name in ("gamma_e_hz_t", "eta_b_t_rthz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_spins < 1:
            raise ValueError("n_spins must be at least 1")


@dataclass(frozen=True)
class NoiseConfig:
    """Additive-noise and readout configuration in signal units.

    Amplitude fields set to None are auto-scaled at synthesis time:
    white noise to unit single-sample SNR of the daily tone, the 1/f
    knee to the sidereal frequency, and the telegraph amplitude to a
    fifth of the signal RMS.  Explicit zeros switch a component off.
    """

    white_psd: float | None = None
    pink_amplitude: float | None = None
    pink_exponent: float = 1.0
    rtn_amplitude: float | None = None
    rtn_rate_hz: float = 1.0 / 3600.0
    readout_f0: float = 0.95
    readout_f1: float = 0.95
    seed: int = 0

    def __post_init__(self):
        for name in ("white_psd", "pink_amplitude", "rtn_amplitude", "seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.pink_exponent <= 0:
            raise ValueError("pink_exponent must be positive")
        if self.rtn_rate_hz < 0:
            raise ValueError("rtn_rate_hz must be non-negative")
        for name in ("readout_f0", "readout_f1"):
            if not 0.5 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0.5, 1]")
        if self.readout_f0 + self.readout_f1 <= 1.0:
            # the readout debias divides by f0 + f1 - 1
            raise ValueError(
                f"readout_f0 + readout_f1 = {self.readout_f0 + self.readout_f1} "
                "must exceed 1 (the readout carries no information otherwise)"
            )

    @classmethod
    def zero(cls, seed: int = 0) -> "NoiseConfig":
        """All additive components off, ideal readout fidelities."""
        return cls(
            white_psd=0.0,
            pink_amplitude=0.0,
            rtn_amplitude=0.0,
            readout_f0=1.0,
            readout_f1=1.0,
            seed=seed,
        )


def modulation_index(
    axion: AxionParams,
    halo: HaloParams,
    qubit: QubitParams,
    cos_theta: float,
    v_km_s: float,
) -> float:
    """Local FM depth: (gamma_e B_eff / omega_a) * cos(theta).

    With gamma_e in Hz/T and the field frequency in Hz the 2 pi factors
    cancel.  Linear in the coupling through the effective field.
    """
    delta_nu = qubit.gamma_e_hz_t * effective_field(axion, halo, v_km_s)
    return delta_nu / axion.frequency_hz * cos_theta


def spin_expectation(t, omega0: float, beta_loc: float, axion: AxionParams, phi0: float = 0.0):
    """Transverse spin expectation of a frequency-modulated precession:
    cos(omega0 t + beta_loc sin(omega_a t + phase) + phi0), in [-1, 1]."""
    t = np.asarray(t, dtype=float)
    return np.cos(omega0 * t + beta_loc * np.sin(axion.omega_rad_s * t + axion.phase) + phi0)


def bessel_sideband_table(beta: float, n_max: int) -> np.ndarray:
    """First-kind Bessel values J_0..J_n_max at the modulation index.

    Computed with Miller's downward recurrence normalized through
    J_0 + 2 sum J_2k = 1, which is stable for all orders; the sideband
    sum rule J_0^2 + 2 sum J_n^2 = 1 then holds to 1e-9 once n_max
    exceeds beta + 20.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    sign = -1.0 if beta < 0 else 1.0
    beta = abs(float(beta))
    if beta == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    if beta < 1e-6:
        # ascending series; the recurrence runs out of dynamic range here
        x = 0.5 * beta
        if x == 0.0:  # denormal argument underflows the half-step
            out = np.zeros(n_max + 1)
            out[0] = 1.0
            return out
        log_x = math.log(x)
        out = np.zeros(n_max + 1)
        for n in range(n_max + 1):
            log_lead = n * log_x - math.lgamma(n + 1)
            lead = math.exp(log_lead) if log_lead > -745.0 else 0.0
            out[n] = lead * (1.0 - x * x / (n + 1.0))
        if sign < 0:
            out[1::2] *= -1.0
        return out

    start = n_max + int(beta) + 24
    start += start % 2  # even start keeps the normalization sum aligned
    j_up = 0.0
    j_cur = 1e-30
    values = np.zeros(start + 1)
    values[start] = j_cur
    for k in range(start, 0, -1):
        j_down = (2.0 * k / beta) * j_cur - j_up
        j_up, j_cur = j_cur, j_down
        values[k - 1] = j_cur
        if abs(j_cur) > 1e250:  # rescale to dodge overflow
            values *= 1e-250
            j_up *= 1e-250
            j_cur *= 1e-250
    norm = values[0] + 2.0 * np.sum(values[2::2])
    values /= norm
    out = values[: n_max + 1].copy()
    if sign < 0:  # J_n(-x) = (-1)^n J_n(x)
        out[1::2] *= -1.0
    return out


def white_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    return rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)


def pink_noise(
    rng: np.random.Generator, n: int, dt: float, amp_psd_1hz: float, exponent: float = 1.0
) -> np.ndarray:
    """Gaussian noise with one-sided PSD A/f^exponent, A given at 1 Hz.

    Spectral shaping in the frequency domain: each rFFT coefficient is
    drawn with variance matching the target density, the DC term is
    zeroed, and the record is transformed back.  Exact PSD control at
    arbitrary record length, deterministic per generator state.

    Raises UnrealizableNoiseError, naming noise.pink_exponent and
    noise.pink_amplitude, when the target density is not finite on the
    record's frequency grid (a steep exponent or a huge amplitude
    overflows at the lowest frequency, 1/(n dt)).
    """
    if amp_psd_1hz <= 0:
        return np.zeros(n)
    # scale holds the frequency grid, then the target density, then the
    # coefficient standard deviation
    scale = np.fft.rfftfreq(n, dt)
    lowest = scale[1]
    density = scale[1:]
    with np.errstate(divide="ignore", over="ignore"):
        density **= exponent
        np.divide(amp_psd_1hz, density, out=density)
        scale[0] = 0.0
        # one-sided PSD S relates to rfft coefficients via E|X_k|^2 = S_k n / (2 dt)
        scale *= n
        scale /= 2.0 * dt
        np.sqrt(scale, out=scale)
    if not np.all(np.isfinite(scale)):
        raise UnrealizableNoiseError(
            f"noise.pink_exponent = {exponent:g} and noise.pink_amplitude = "
            f"{amp_psd_1hz:g} at 1 Hz: the 1/f^{exponent:g} density is not finite down "
            f"to this record's lowest frequency {lowest:.3g} Hz; lower the exponent or "
            "the amplitude (an unset noise.pink_amplitude follows noise.white_psd)"
        )
    z = np.empty(scale.size, dtype=complex)
    z.real = rng.normal(size=scale.size)
    z.imag = rng.normal(size=scale.size)
    scale /= math.sqrt(2.0)
    z.real *= scale
    z.imag *= scale
    del scale, density
    z[0] = 0.0
    if n % 2 == 0:
        z[-1] = z[-1].real * math.sqrt(2.0)
    return np.fft.irfft(z, n)


def telegraph_noise(
    rng: np.random.Generator, n: int, dt: float, amplitude: float, rate_hz: float
) -> np.ndarray:
    """Random telegraph noise switching between +/-amplitude.

    Transitions occur at rate_hz in each direction, so the
    autocorrelation decays as amplitude^2 exp(-2 rate |tau|).  A sample
    flips state when an odd number of transitions fell in the step,
    which happens with probability (1 - exp(-2 r dt))/2.
    """
    if amplitude <= 0 or rate_hz <= 0:
        return np.zeros(n)
    p_flip = 0.5 * (1.0 - math.exp(-2.0 * rate_hz * dt))
    flips = rng.random(n) < p_flip
    flips[0] = False
    state = np.where(np.cumsum(flips) % 2 == 0, 1.0, -1.0)
    if rng.random() < 0.5:
        state = -state
    return amplitude * state


def readout_channel(
    rng: np.random.Generator,
    analog: np.ndarray,
    n_spins: int,
    f0: float,
    f1: float,
    scale: float,
) -> np.ndarray:
    """Binary (blockade-style) readout of an analog stream.

    Each sample maps to an excitation probability p = (1 + scale*x)/2,
    passes through the assignment-error channel with fidelities (f0, f1),
    and is estimated from n_spins Bernoulli draws.  The output is
    debiased back to analog units, so its expectation equals the input
    wherever scale*x stays inside the readout contrast window.
    """
    if not 0 < scale:
        raise ValueError("scale must be positive")
    # p, then p_obs, then the debiased estimate, all in one array
    p = np.multiply(scale, analog)
    np.clip(p, -1.0, 1.0, out=p)
    p += 1.0
    p *= 0.5
    false_high = np.subtract(1.0, p)
    false_high *= 1.0 - f0
    p *= f1
    p += false_high
    del false_high
    counts = rng.binomial(n_spins, p)
    np.divide(counts, n_spins, out=p)
    del counts
    p -= 1.0 - f0
    p /= f0 + f1 - 1.0
    p *= 2.0
    p -= 1.0
    p /= scale
    return p


def check_size(count: float, bytes_each: int, unit: str) -> None:
    """Raise ValueError if count units of bytes_each bytes exceed MAX_BYTES,
    the one byte budget of a run; the message starts with count and unit.
    The limit is the whole number MAX_BYTES // bytes_each, and NaN fails."""
    limit = MAX_BYTES // bytes_each
    if not count <= limit:
        shown = f"{count:,}" if isinstance(count, int) else f"{count:.4g}"
        raise ValueError(
            f"{shown} {unit} exceed {limit:,}, the most that fit "
            f"{MAX_BYTES:,} bytes at {bytes_each:,} bytes each"
        )


def check_record(span_s: float, dt: float, eph: geometry.EphemerisConstants) -> None:
    """Raise ValueError unless synthesize_observable accepts the record:
    dt resolves the daily tone, the span covers two sidereal days, and
    its span_s / dt samples fit the byte budget (check_size at
    BYTES_PER_SAMPLE)."""
    geometry.check_daily_sampling(dt, eph)
    if span_s < 2.0 * SIDEREAL_DAY_S:
        raise ValueError("span must cover at least two sidereal days")
    check_size(span_s / dt, BYTES_PER_SAMPLE, "samples")


def synthesize_observable(
    site: geometry.SiteGeometry,
    eph: geometry.EphemerisConstants,
    axion: AxionParams,
    halo: HaloParams,
    qubit: QubitParams,
    noise: NoiseConfig,
    span_s: float,
    dt: float,
    coeffs: geometry.ModulationCoefficients | None = None,
    readout: bool = False,
    t0: float = 0.0,
) -> TimeSeries:
    """Year-scale baseband stream of the geometric modulation plus noise.

    The clean signal is the harmonic model of (v_lab/v_ref) cos(theta),
    i.e. the daily tone whose amplitude carries the annual envelope, in
    units of the overall scale beta0 (recorded in the metadata, along
    with everything needed to regenerate the record bit-identically).
    Additive white, 1/f and telegraph noise come from per-component
    child seeds; the optional readout stage quantizes through the
    Bernoulli channel with the configured fidelities and qubit.n_spins.
    """
    check_record(span_s, dt, eph)
    n = int(round(span_s / dt))

    if coeffs is None:
        coeffs = geometry.modulation_coefficients(site, eph, halo.v_ref)
    clean = geometry.modulation_model(t0 + dt * np.arange(n), coeffs, eph)
    beta0 = modulation_index(axion, halo, qubit, 1.0, halo.v_ref)

    rms = float(np.sqrt(np.mean(clean**2)))
    sigma_white_auto = rms  # single-sample SNR of the modulated tone ~ 1
    white_psd = noise.white_psd
    if white_psd is None:
        white_psd = 2.0 * sigma_white_auto**2 * dt
    pink_amp = noise.pink_amplitude
    if pink_amp is None:
        pink_amp = white_psd * (eph.omega_sidereal / (2.0 * math.pi))
    rtn_amp = noise.rtn_amplitude
    if rtn_amp is None:
        rtn_amp = 0.2 * rms

    seeds = np.random.SeedSequence(noise.seed).spawn(4)
    rngs = [np.random.default_rng(s) for s in seeds]
    sigma_white = math.sqrt(white_psd / (2.0 * dt))
    y = clean.copy()
    y += white_noise(rngs[0], n, sigma_white)
    y += pink_noise(rngs[1], n, dt, pink_amp, noise.pink_exponent)
    y += telegraph_noise(rngs[2], n, dt, rtn_amp, noise.rtn_rate_hz)

    readout_scale = None
    if readout:
        readout_scale = 1.0 / (4.0 * max(float(np.sqrt(np.mean(y**2))), 1e-30))
        y = readout_channel(
            rngs[3], y, qubit.n_spins, noise.readout_f0, noise.readout_f1, readout_scale
        )

    meta = {
        "schema": SYNTH_SCHEMA,
        "geometry_hash": short_hash({"site": asdict(site), "eph": asdict(eph)}),
        "seed": noise.seed,
        "axion": asdict(axion),
        "halo": asdict(halo),
        "beta0": beta0,
        "coefficients": asdict(coeffs),
        "noise": {
            "white_psd": white_psd,
            "pink_amplitude": pink_amp,
            "pink_exponent": noise.pink_exponent,
            "rtn_amplitude": rtn_amp,
            "rtn_rate_hz": noise.rtn_rate_hz,
            "readout": bool(readout),
            "readout_f0": noise.readout_f0,
            "readout_f1": noise.readout_f1,
            "readout_scale": readout_scale,
            "n_spins": qubit.n_spins if readout else None,
        },
        "noise_var_realized": float(np.var(np.subtract(y, clean, out=clean))),
        "units": "beta/beta0",
    }
    return TimeSeries(t0=t0, dt=dt, samples=y, meta=meta)


def heterodyne(series: TimeSeries, f_center: float, bandwidth: float) -> TimeSeries:
    """Complex demodulation of a narrow band around f_center.

    The record is mixed with exp(-2 pi i f_center t), low-passed to the
    half-width bandwidth/2 (transition region extends to the full
    bandwidth), scaled so an in-band real tone of amplitude A appears as
    a complex tone of modulus A, and decimated to roughly four samples
    per bandwidth.  Filtering is zero-phase, preserving tone phases.

    The low-pass is the forward-backward pass of a Kaiser FIR `taps`,
    applied as one convolution with the symmetric kernel
    taps (*) taps[::-1] of 2*numtaps - 1 points.  Edges follow filtfilt's
    default, odd extension by 3*numtaps samples; only the numtaps - 1 of
    them nearest each end reach the output, so the record is extended by
    those alone and the result equals filtfilt's.  The cutoff is tuned
    until the two-sided noise-equivalent bandwidth fs * sum(kernel**2)
    (Parseval) is within 1e-4 of the request; meta["heterodyne"] records
    the cutoff, the bandwidth reached and whether the tuning converged.
    Overlap-add convolution costs O((N + numtaps) log numtaps) time and
    O(N + numtaps) memory.
    """
    fs = 1.0 / series.dt
    if not 0 < f_center < fs / 2.0:
        raise ValueError(f"f_center={f_center} Hz outside (0, Nyquist={fs / 2.0} Hz)")
    if not 0 < bandwidth < 2.0 * f_center:
        raise ValueError("need 0 < bandwidth < 2*f_center")

    t = series.times
    mixed = 2.0 * series.samples * np.exp(-2j * math.pi * f_center * t)

    width = bandwidth / 4.0  # transition width beyond the passband edge
    numtaps, beta = sps.kaiserord(80.0, width / (fs / 2.0))
    numtaps |= 1
    if numtaps * 3 >= series.samples.size:
        raise ValueError(
            f"record too short ({series.samples.size} samples) for a "
            f"{bandwidth} Hz band at fs={fs} Hz"
        )
    # tune the cutoff until the two-sided noise-equivalent bandwidth of the
    # zero-phase kernel, fs * sum(kernel**2) by Parseval, equals the request
    cutoff = bandwidth / 2.0 + width / 2.0
    step = 0.0
    for _ in range(8):
        cutoff += step
        taps = sps.firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs)
        kernel = sps.fftconvolve(taps, taps[::-1])
        enbw = fs * float(np.dot(kernel, kernel))
        converged = abs(enbw - bandwidth) < 1e-4 * bandwidth
        if converged:
            break
        step = (bandwidth - enbw) / 2.0

    extended = np.pad(mixed, numtaps - 1, mode="reflect", reflect_type="odd")
    base = sps.oaconvolve(extended, kernel, mode="valid")

    decim = max(1, int(math.floor(fs / (4.0 * bandwidth))))
    out = base[::decim]
    meta = dict(series.meta)
    meta.update(
        {
            "heterodyne": {
                "f_center": f_center,
                "bandwidth": bandwidth,
                "decimation": decim,
                "numtaps": int(numtaps),
                "cutoff_hz": cutoff,
                "enbw_hz": enbw,
                "enbw_converged": converged,
            }
        }
    )
    return TimeSeries(t0=series.t0, dt=series.dt * decim, samples=out, meta=meta)
