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
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .constants import ELECTRON_GAMMA_RAD_S_T, SIDEREAL_DAY_S, uev_to_hz, uev_to_rad_s
from .halo import HaloParams, effective_field
from .timeseries import TimeSeries, grid_phasor, short_hash, turns

SYNTH_SCHEMA = "axionkit-baseband/1"

# the byte budget of one run, and the peak bytes per sample of synthesis:
# the slope of a fresh process's peak RSS over one synthesize_observable
# at dt = 10 s, between two record lengths, read 35.8-40.5 B a sample from
# 103,680 to 397,440 samples (irfft draws, pink_noise) and 32.2-32.5 B
# from 1,105,920 to 3,155,760 (blocked ones), readout on or off (numpy
# 2.4.6, x86-64 Linux); tracemalloc sees less, since pocketfft's plan and
# work buffer are not Python allocations
MAX_BYTES = 2_000_000_000
BYTES_PER_SAMPLE = 44


class UnrealizableNoiseError(ValueError):
    """A noise setting that passed validation cannot be realized on the
    requested record; the message names the configuration key."""


@dataclass(frozen=True)
class AxionParams:
    """Oscillating-field parameters: mass in ueV, dimensionless coupling
    to the electron, and an arbitrary field phase in radians.

    The field amplitude itself never appears: it is eliminated in favor
    of rho_dm everywhere.
    """

    mass_uev: float = 1.0
    g_ae: float = 1e-13
    phase: float = 0.0

    def __post_init__(self):
        if not self.mass_uev > 0:
            raise ValueError(f"mass_uev must be positive, got {self.mass_uev}")
        if self.g_ae < 0:
            raise ValueError(f"g_ae must be non-negative, got {self.g_ae}")

    @property
    def frequency_hz(self) -> float:
        return uev_to_hz(self.mass_uev)

    @property
    def omega_rad_s(self) -> float:
        return uev_to_rad_s(self.mass_uev)


@dataclass(frozen=True)
class QubitParams:
    """Sensor parameters: spin count and single-spin field sensitivity in
    T/sqrt(Hz)."""

    n_spins: int = 10
    eta_b_t_rthz: float = 1e-15

    def __post_init__(self):
        if self.eta_b_t_rthz <= 0:
            raise ValueError("eta_b_t_rthz must be positive")
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
    axion: AxionParams, halo: HaloParams, cos_theta: float, v_km_s: float
) -> float:
    """Local FM depth: (gamma_e B_eff / omega_a) * cos(theta), with gamma_e
    the CODATA ratio in rad/s/T that effective_field divides by, so the
    depth is the axion-induced precession rate over omega_a.  Linear in
    the coupling through the effective field.
    """
    b_eff = effective_field(axion.g_ae, halo, v_km_s)
    return ELECTRON_GAMMA_RAD_S_T * b_eff / axion.omega_rad_s * cos_theta


def spin_expectation(t, omega0: float, beta_loc: float, axion: AxionParams, phi0: float = 0.0):
    """Transverse spin expectation of a frequency-modulated precession:
    cos(omega0 t + beta_loc sin(omega_a t + phase) + phi0), in [-1, 1]."""
    t = np.asarray(t, dtype=float)
    return np.cos(omega0 * t + beta_loc * np.sin(axion.omega_rad_s * t + axion.phase) + phi0)


def bessel_sideband_table(beta: float, n_max: int) -> np.ndarray:
    """FM sideband amplitudes J_0..J_n_max at modulation index beta, from
    scipy.special.jv.  Their powers obey J_0^2 + 2 sum J_n^2 = 1, which the
    truncated table meets once n_max exceeds |beta| by a few tens.
    scipy.special is imported here, not with the package: no subcommand
    needs it, and it costs about 0.3 s of start-up."""
    from scipy import special

    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    return special.jv(np.arange(n_max + 1), beta)


def white_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    return rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)


def pink_noise(
    rng: np.random.Generator, n: int, dt: float, amp_psd_1hz: float, exponent: float = 1.0
) -> np.ndarray:
    """Gaussian noise with one-sided PSD A/f^exponent, A given at 1 Hz.

    Spectral shaping in the frequency domain: each rFFT coefficient of a
    draw of m = _fast_len(n, real=True) samples, the least 5-smooth
    length >= n, is drawn with variance matching the target density, the
    DC term is zeroed, and the first n samples of the inverse transform
    are kept.  Drawing at m rather than n keeps both transforms off the
    slow path of a length with a large prime factor (every 365.25-day
    record carries 487); the kept samples have the target density on
    the grid k / (m dt), and they are not periodic over the record.
    Deterministic per generator state.  An even draw of m >= 2^20
    samples is inverted by _irfft_blocked, which folds the spectrum in
    place and transforms it in blocks: about two record lengths of
    doubles, the spectrum and the output, plus a few blocks.  Shorter and
    odd draws go to np.fft.irfft, which holds two more, pocketfft's copy
    of the spectrum and its work buffer, and keep irfft's bytes.

    Raises UnrealizableNoiseError, naming noise.pink_exponent and
    noise.pink_amplitude, when the target density is not finite on the
    drawn frequency grid (a steep exponent or a huge amplitude overflows
    at the lowest frequency, 1/(m dt)).
    """
    if amp_psd_1hz <= 0:
        return np.zeros(n)
    m = _fast_len(n, real=True)
    # scale holds the frequency grid, then the target density, then the
    # coefficient standard deviation
    scale = np.fft.rfftfreq(m, dt)
    lowest = scale[1]
    density = scale[1:]
    with np.errstate(divide="ignore", over="ignore"):
        density **= exponent
        np.divide(amp_psd_1hz, density, out=density)
        scale[0] = 0.0
        # one-sided PSD S relates to rfft coefficients via E|X_k|^2 = S_k m / (2 dt)
        scale *= m
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
    if m % 2 == 0:
        z[-1] = z[-1].real * math.sqrt(2.0)
    if m % 2 == 0 and m >= _BLOCKED_MIN:
        return _irfft_blocked(z)[:n]
    return np.fft.irfft(z, m)[:n]


# pink_noise inverts a draw of even length m >= _BLOCKED_MIN with
# _irfft_blocked, whose scratch is a few blocks of _IRFFT_BLOCK complex
# elements where np.fft.irfft holds about two more record lengths.  Timed
# against irfft (2 cores, numpy 2.4), best of 7: 5.4 against 1.9 ms at
# m = 128,000, 18.6 against 20.3 ms at 2^20 and 65 against 79 ms at the
# year's 3,188,646.  Below the constant every draw keeps irfft's bytes,
# among them every figure dataset's (the largest, psd's, has m = 128,000).
_BLOCKED_MIN = 1 << 20
_IRFFT_BLOCK = 1 << 15


def _irfft_blocked(z: np.ndarray) -> np.ndarray:
    """np.fft.irfft(z, m) to rounding, for the half spectrum z of an even
    length m = 2 (z.size - 1); z is overwritten.

    The inverse of a length-m real transform is one complex transform of
    length q = m / 2 whose output holds the even samples in its real
    part and the odd ones in its imaginary part.  Its spectrum is folded
    into z[:q] in place, pair (k, q - k) at a time, as
    2 Z[k] = E + i O and 2 Z[q - k] = conj(E - i O), with E = X[k] +
    conj(X[q - k]) and O = (X[k] - conj(X[q - k])) exp(2 pi i k / m).  The
    imaginary parts of X[0] and X[q] are ignored, as irfft ignores them.
    The length-q inverse runs four-step on the q = n1 n2 view, n1 the
    largest divisor <= sqrt(q) (729 x 2187 for the year): inverse FFTs
    down blocks of columns, times the twiddles exp(2 pi i n1 k2 / q),
    then inverse FFTs along blocks of rows, written transposed into the
    output viewed as q complex samples.  Every phasor is
    timeseries.turns of an exact integer: per block, one phasor of the
    block's start times a table shared by all blocks.  The fold's factor
    1/2 rides on the twiddle table, where it is exact."""
    q = z.size - 1
    m = 2 * q
    x0, xq = z[0].real, z[q].real
    z[0] = complex(x0 + xq, x0 - xq)
    if q % 2 == 0:
        z[q // 2] = 2.0 * np.conj(z[q // 2])
    half = (q + 1) // 2
    spin = 1j * turns(np.arange(min(_IRFFT_BLOCK, half)), m)
    for start in range(0, half, _IRFFT_BLOCK):
        a, b = max(start, 1), min(start + _IRFFT_BLOCK, half)
        lower = z[a:b]
        upper = z[q - b + 1 : q - a + 1][::-1]  # X[q - k], k = a .. b - 1
        mirror = np.conj(upper)
        even = lower + mirror
        odd = np.subtract(lower, mirror, out=mirror)
        odd *= spin[a - start : b - start]
        odd *= turns(start, m)
        np.add(even, odd, out=lower)
        np.subtract(even, odd, out=even)
        np.conjugate(even, out=upper)

    n1 = max(d for d in range(1, math.isqrt(q) + 1) if q % d == 0)
    n2 = q // n1
    grid = z[:q].reshape(n1, n2)
    width = max(1, min(n2, _IRFFT_BLOCK // n1))
    rows = np.arange(n1)
    table = 0.5 * turns(np.multiply.outer(rows, np.arange(width)), q)
    for first in range(0, n2, width):
        cols = np.fft.ifft(grid[:, first : first + width], axis=0)
        cols *= turns(rows * first, q)[:, None] * table[:, : cols.shape[1]]
        grid[:, first : first + width] = cols
    out = np.empty(m)
    dest = out.view(complex).reshape(n2, n1)
    height = max(1, _IRFFT_BLOCK // n2)
    for first in range(0, n1, height):
        dest[:, first : first + height] = np.fft.ifft(grid[first : first + height], axis=1).T
    return out


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
    # the parity of the flips so far, in place: True where the state is -1
    np.logical_xor.accumulate(flips, out=flips)
    state = np.where(flips, -1.0, 1.0)
    if rng.random() < 0.5:
        np.negative(state, out=state)
    state *= amplitude
    return state


# samples per chunk of the readout channel: a chunk's work arrays stay in
# L2, and the chunks draw from one generator in record order
_READOUT_CHUNK = 1 << 14

# Generator.binomial inverts the CDF wherever n min(p, 1 - p) <= 30, so
# for every p up to this many spins; above it some draws go to BTPE
_INVERSION_SPINS = 60


def _binomial_by_inversion(generator: np.random.Generator, n: int, p: np.ndarray) -> np.ndarray:
    """generator.binomial(n, p) for 1 <= n <= _INVERSION_SPINS, as uint8.

    numpy's inversion, as plain array expressions over all of p: one
    uniform u per sample with p != 0, in order (none where p == 0, which
    counts 0); X counts the CDF terms at min(p, 1 - p) that u exceeds,
    the pmf from exp(n log q) by its ratio recurrence, and n - X is
    returned where p > 0.5.  numpy subtracts each pmf term from u
    instead of summing them, so a u within rounding of a CDF boundary
    can count differently, and numpy redraws a count past
    n p + 10 sqrt(n p q + 1), which no draw reaches at n <= 10 and at
    most 5e-14 of draws reach up to 60 spins (n = 59, p near 0.02).
    """
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("p < 0, p > 1 or p contains NaNs")
    drawn = p != 0.0
    u = np.zeros(p.shape)
    u[drawn] = generator.random(np.count_nonzero(drawn))
    small = np.minimum(p, 1.0 - p)
    q = 1.0 - small
    ratio = small / q
    pmf = np.exp(n * np.log(q))
    cdf = pmf.copy()
    c = np.zeros(p.shape, np.uint8)
    # n comparisons of u with the CDF, which grows by one pmf term between two
    for k in range(n - 1):
        c += u > cdf
        pmf *= ratio * ((n - k) / (k + 1))
        cdf += pmf
    c += u > cdf
    return np.where(p > 0.5, n - c, c)


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
    p_obs = p f1 + (1 - p)(1 - f0), and is estimated from n_spins
    Bernoulli draws.  The output is debiased back to analog units, so its
    expectation equals the input wherever scale*x stays inside the
    readout contrast window.

    The stream is read out in chunks of _READOUT_CHUNK samples, the last
    one shorter, each drawing from rng in record order, so the counts
    are one rng.binomial(n_spins, p_obs) over the whole record.  Up to
    _INVERSION_SPINS (60) spins, n_spins min(p, 1 - p) <= 30 for every
    p, so numpy inverts the CDF for every draw, with one uniform each;
    _binomial_by_inversion does the same as array expressions.  Its
    counts equal numpy's except where a uniform falls within rounding of
    a CDF boundary or numpy redraws a far-tail count, each of order
    1e-13 per draw or less (see there).  Above 60 spins numpy draws some
    counts by BTPE, a rejection sampler with a varying number of
    uniforms, so those chunks call rng.binomial.  A NaN sample raises
    ValueError either way.
    """
    if not 0 < scale:
        raise ValueError("scale must be positive")
    analog = np.asarray(analog)
    flat = analog.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _READOUT_CHUNK):
        stop = start + _READOUT_CHUNK
        p = (np.clip(scale * flat[start:stop], -1.0, 1.0) + 1.0) * 0.5
        p_obs = p * f1 + (1.0 - p) * (1.0 - f0)
        if 1 <= n_spins <= _INVERSION_SPINS:
            counts = _binomial_by_inversion(rng, n_spins, p_obs)
        else:
            counts = rng.binomial(n_spins, p_obs)
        out[start:stop] = (2.0 * ((counts / n_spins - (1.0 - f0)) / (f0 + f1 - 1.0)) - 1.0) / scale
    return out.reshape(analog.shape)


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


# the largest n max|y| of a synthesized record: every later figure of the
# record (its mean squares, the readout scale, |rfft|^2, the line-sum
# powers) is at most (n max|y|)^2, and the PSD's 2 dt / n keeps it finite
_MAX_RECORD_SCALE = 1e150


def check_record(span_s: float, dt: float) -> None:
    """Raise ValueError unless synthesize_observable accepts the record:
    dt resolves the daily tone, the span covers two sidereal days, and
    its span_s / dt samples fit the byte budget (check_size at
    BYTES_PER_SAMPLE)."""
    geometry.check_daily_sampling(dt)
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
    child seeds, so the order of the draws moves no stream.  The 1/f
    noise is drawn first, while the clean signal is the only
    record-length array alive, because its inverse transform is the
    largest working set of synthesis (pink_noise); the white draw's
    array then becomes the record.  The sum is ((clean + white) + 1/f)
    + telegraph whatever the draw order (IEEE addition commutes), so
    the bytes are those of adding the components in that order.  The
    optional readout stage quantizes through the Bernoulli channel with
    the configured fidelities and qubit.n_spins from its own child
    generator (readout_channel).

    Raises UnrealizableNoiseError, naming noise.white_psd,
    noise.pink_amplitude and noise.rtn_amplitude, when the summed
    record's n max|y| passes _MAX_RECORD_SCALE, before the readout.
    """
    check_record(span_s, dt)
    n = int(round(span_s / dt))

    if coeffs is None:
        coeffs = geometry.modulation_coefficients(site, eph)
    clean = geometry.modulation_model(t0, dt, n, coeffs)
    beta0 = modulation_index(axion, halo, 1.0, halo.v_ref)

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
    # the 1/f draw first, before the record exists (see the docstring)
    pink = pink_noise(rngs[1], n, dt, pink_amp, noise.pink_exponent)
    y = white_noise(rngs[0], n, sigma_white)
    y += clean
    y += pink
    del pink
    y += telegraph_noise(rngs[2], n, dt, rtn_amp, noise.rtn_rate_hz)
    peak = max(y.max(), -y.min())  # max |y| without a record-length temporary
    if not peak <= _MAX_RECORD_SCALE / n:  # a NaN fails too
        raise UnrealizableNoiseError(
            f"noise.white_psd = {white_psd:g}, noise.pink_amplitude = {pink_amp:g} and "
            f"noise.rtn_amplitude = {rtn_amp:g}: the record's largest |sample|, {peak:.3g}, "
            f"times its {n} samples passes {_MAX_RECORD_SCALE:g}, past which its squares "
            "and its spectrum overflow; lower the noise amplitudes"
        )

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


def _kaiser_order(width: float) -> int:
    """Odd tap count for 80 dB of stop-band attenuation across a transition
    `width` in units of Nyquist: Kaiser's formula, as in kaiserord."""
    return math.ceil((80.0 - 7.95) / 2.285 / (math.pi * width) + 1) | 1


def _kaiser_lowpass(numtaps: int) -> Callable[[float], np.ndarray]:
    """taps(c): the one-band firwin low-pass with cutoff c in units of
    Nyquist, a sinc times the 80 dB Kaiser window (np.kaiser, with
    kaiserord's beta), scaled to unit DC gain.  The window is computed
    once, here."""
    m = np.arange(numtaps, dtype=float) - (numtaps - 1) / 2.0
    window = np.kaiser(numtaps, 0.1102 * (80.0 - 8.7))

    def taps(c: float) -> np.ndarray:
        h = c * np.sinc(c * m) * window
        return h / h.sum()

    return taps


def _fast_len(n: int, real: bool = False) -> int:
    """The least length >= n whose FFT is fast, as scipy.fft.next_fast_len
    picks it: no prime factor above 5 for a real transform, above 11 for
    a complex one.  Each odd smooth m <= the next power of two is raised
    by the least power of two that reaches n."""
    ceiling = 1 << (n - 1).bit_length()
    odd = [1]
    for prime in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m <= ceiling:
                grown.append(m)
                m *= prime
        odd = grown
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


def heterodyne(series: TimeSeries, f_center: float, bandwidth: float) -> TimeSeries:
    """Complex demodulation of a narrow band around f_center.

    The record is mixed with exp(-2 pi i f_center t), written in place
    by timeseries.grid_phasor on each window's stretch of the record's
    grid t0 + k dt: about 2 sqrt(n_block) complex exponentials a window
    and one complex multiply per sample, with no sine or cosine per
    sample.  It is then low-passed to the half-width bandwidth/2
    (transition region extends to the full bandwidth), scaled so an
    in-band real tone of amplitude A appears as a complex tone of modulus
    A, and decimated to roughly four samples per bandwidth.  Filtering is
    zero-phase, preserving tone phases.

    The low-pass is the forward-backward pass of a Kaiser FIR `taps`,
    applied as one convolution with the symmetric kernel
    taps (*) taps[::-1] of 2*numtaps - 1 points.  Edges follow filtfilt's
    default, odd extension by 3*numtaps samples; only the numtaps - 1 of
    them nearest each end reach the output, so the record is extended by
    those alone and the result equals filtfilt's.  The cutoff is tuned
    until the two-sided noise-equivalent bandwidth fs * sum(kernel**2)
    (Parseval) is within 1e-4 of the request; meta["heterodyne"] records
    the cutoff, the bandwidth reached and whether the tuning converged.
    That sum is a numpy reduction, not a BLAS dot product, so its bytes do
    not depend on the BLAS thread count, and the heterodyne calls no BLAS
    routine at all.

    The design reproduces scipy.signal's kaiserord (Kaiser's formula for
    80 dB of stop-band attenuation) and one-band firwin (a windowed sinc
    of unit DC gain).  It is written out here because importing
    scipy.signal, which also imports scipy.stats, costs about a second
    and 50 MB of every process, and this is the package's only filter.
    Overlap-save convolution by numpy.fft at the lengths
    scipy.fft.next_fast_len would pick (_fast_len) costs
    O((N + numtaps) log numtaps) time.  Its windows are streamed through
    one buffer of n_block samples, each mixed as it is reached, and the
    odd extensions are taken from the first and last windows' own mixed
    samples, so no record-length complex array exists: beyond the record,
    the memory is O(n_block + N/decimation), with n_block at most about
    16 numtaps.
    """
    fs = 1.0 / series.dt
    if not 0 < f_center < fs / 2.0:
        raise ValueError(f"f_center={f_center} Hz outside (0, Nyquist={fs / 2.0} Hz)")
    if not 0 < bandwidth < 2.0 * f_center:
        raise ValueError("need 0 < bandwidth < 2*f_center")

    n = series.samples.size
    width = bandwidth / 4.0  # transition width beyond the passband edge
    numtaps = _kaiser_order(width / (fs / 2.0))
    if numtaps * 3 >= n:
        raise ValueError(
            f"record too short ({n} samples) for a "
            f"{bandwidth} Hz band at fs={fs} Hz"
        )
    lowpass = _kaiser_lowpass(numtaps)
    size = 2 * numtaps - 1
    n_kernel = _fast_len(size, real=True)
    # tune the cutoff until the two-sided noise-equivalent bandwidth of the
    # zero-phase kernel, fs * sum(kernel**2) by Parseval, equals the request
    cutoff = bandwidth / 2.0 + width / 2.0
    step = 0.0
    for _ in range(8):
        cutoff += step
        taps = lowpass(cutoff / (fs / 2.0))
        # taps (*) taps[::-1] is the autocorrelation, centred on numtaps - 1
        power = np.abs(np.fft.rfft(taps, n_kernel)) ** 2
        kernel = np.roll(np.fft.irfft(power, n_kernel), numtaps - 1)[:size]
        enbw = fs * float(np.sum(np.square(kernel)))
        converged = abs(enbw - bandwidth) < 1e-4 * bandwidth
        if converged:
            break
        step = (bandwidth - enbw) / 2.0

    # overlap-save over the extended record: the mixed record
    # 2 y exp(-i 2 pi f_center t) at extended indices pad .. n + pad - 1,
    # its odd extensions either side and zeros beyond.  The window of n_block
    # extended samples from start yields the outputs start .. start + hop - 1,
    # free of circular wrap-around, of which every decim-th is kept; eight
    # kernel lengths measured fastest.  The window is one buffer: it carries
    # the size - 1 samples it shares with the previous window, and only the
    # new ones are mixed, in place.
    decim = max(1, int(math.floor(fs / (4.0 * bandwidth))))
    n_block = _fast_len(min(n + size - 1, 8 * size))
    hop = n_block - size + 1
    pad = numtaps - 1
    response = np.fft.fft(kernel, n_block)
    omega = -2.0 * math.pi * f_center
    window, block = np.empty(n_block, dtype=complex), np.empty(n_block, dtype=complex)
    out = np.empty(-(-n // decim), dtype=complex)
    for start in range(0, n, hop):
        # window[j] is extended sample start + j; the new ones run fresh .. end - 1
        fresh, end = start + size - 1 if start else 0, start + n_block
        if start:
            window[: size - 1] = window[hop:]
        lo, hi = max(fresh, pad), min(end, n + pad)
        if lo < hi:
            mixed = window[lo - start : hi - start]
            grid_phasor(omega, series.t0, series.dt, lo - pad, hi - pad, out=mixed)
            mixed *= series.samples[lo - pad : hi - pad]
            mixed *= 2.0
        if not start:  # filtfilt's odd extension, 2 z[0] - z[pad:0:-1]
            window[:pad] = 2.0 * window[pad] - window[2 * pad : pad : -1]
        lo, hi = max(fresh, n + pad), min(end, n + 2 * pad)
        if lo < hi:  # and at the end, extended sample e mirrors 2 (n + pad - 1) - e
            mirror = 2 * (n + pad - 1) - start
            window[lo - start : hi - start] = (
                2.0 * window[n + pad - 1 - start] - window[mirror - hi + 1 : mirror - lo + 1][::-1]
            )
        window[max(fresh, n + 2 * pad) - start :] = 0.0
        np.fft.fft(window, out=block)
        block *= response
        np.fft.ifft(block, out=block)
        stop = min(start + hop, n)
        first, last = -(-start // decim), -(-stop // decim)
        shift = size - 1 - start  # output i is block[i + shift]
        out[first:last] = block[first * decim + shift : stop + shift : decim]
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
