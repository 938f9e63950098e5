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

from . import geometry, workers
from .constants import ELECTRON_GAMMA_RAD_S_T, SIDEREAL_DAY_S, uev_to_hz, uev_to_rad_s
from .halo import HaloParams, effective_field
from .timeseries import TimeSeries, grid_phasor, short_hash

SYNTH_SCHEMA = "axionkit-baseband/1"

# the byte budget of one run, and the peak bytes per sample of synthesis:
# one synthesize_observable raised a fresh process's peak RSS by 42.7 B a
# sample at 10**6 samples and 41.2 B at 3,155,760, readout on or off
# (numpy 2.4.6, x86-64 Linux); tracemalloc sees less, since pocketfft's
# plan and work buffer are not Python allocations
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
    Deterministic per generator state.  The inverse transform holds
    about four record lengths of doubles at once: the spectrum, its
    output, and pocketfft's plan and work buffer.

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
    return np.fft.irfft(z, m)[:n]


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


# samples per block of the readout channel; each block draws from its own
# child generator, so the stream does not depend on the number of workers
_READOUT_BLOCK = 1 << 16

# Generator.binomial inverts the CDF wherever n min(p, 1 - p) <= 30, so
# for every p up to this many spins; above it some draws go to BTPE
_INVERSION_SPINS = 60
# samples per pass of the inversion: its work arrays stay in L2
_INVERSION_CHUNK = 1 << 14


def _binomial_by_inversion(generator: np.random.Generator, n: int, p: np.ndarray) -> np.ndarray:
    """generator.binomial(n, p) for 1 <= n <= _INVERSION_SPINS, as uint8.

    numpy's inversion, as array operations a chunk at a time: one
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
    counts = np.zeros(p.shape, np.uint8)
    size = min(p.size, _INVERSION_CHUNK)
    u, pmf, cdf, ratio, step = (np.empty(size) for _ in range(5))
    mask = np.empty(size, bool)
    # the mask's bytes as uint8 and the pmf ratio's factors as 0-d
    # arrays: no step then converts a scalar or casts through a buffer,
    # allocations that tracemalloc would charge on every step
    above = mask.view(np.uint8)
    steps = [np.array((n - k) / (k + 1)) for k in range(n - 1)]
    for start in range(0, p.size, _INVERSION_CHUNK):
        x = p[start : start + _INVERSION_CHUNK]
        c = counts[start : start + _INVERSION_CHUNK]
        m = x.size
        u_, pmf_, cdf_, ratio_, step_, mask_, above_ = (
            a[:m] for a in (u, pmf, cdf, ratio, step, mask, above)
        )
        np.not_equal(x, 0.0, out=mask_)
        drawn = np.count_nonzero(mask_)
        if drawn == m:
            generator.random(out=u_)
        else:
            u_.fill(0.0)
            u_[mask_] = generator.random(drawn)
        # the inversion's p, its q, then the ratio p/q and the pmf at 0
        np.subtract(1.0, x, out=step_)
        np.minimum(x, step_, out=ratio_)
        np.subtract(1.0, ratio_, out=pmf_)
        ratio_ /= pmf_
        np.log(pmf_, out=pmf_)
        pmf_ *= n
        np.exp(pmf_, out=pmf_)
        np.copyto(cdf_, pmf_)
        # n comparisons of u with the CDF, which grows by one pmf term between two
        for s in steps:
            np.greater(u_, cdf_, out=mask_)
            c += above_
            np.multiply(ratio_, s, out=step_)
            pmf_ *= step_
            cdf_ += pmf_
        np.greater(u_, cdf_, out=mask_)
        c += above_
        np.greater(x, 0.5, out=mask_)
        np.subtract(n, c, out=c, where=mask_)
    return counts


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

    The stream is read out in blocks of _READOUT_BLOCK samples, the last
    one shorter.  One rng.integers call draws a seed in [0, 2^63) for
    each block, and block b's counts come from default_rng(seed_b), so
    the blocks run on the worker pool (workers.each) and the record is
    the same whatever the number of workers.

    The counts are default_rng(seed_b).binomial(n_spins, p_obs).  Up to
    _INVERSION_SPINS (60) spins, n_spins min(p, 1 - p) <= 30 for every
    p, so numpy inverts the CDF for every draw, with one uniform each;
    _binomial_by_inversion does the same as array operations, at about
    a third of the CPU of numpy's per-draw loop.  Its counts equal numpy's
    except where a uniform falls within rounding of a CDF boundary or
    numpy redraws a far-tail count, each of order 1e-13 per draw or
    less (see there).  Above 60 spins numpy draws some counts by BTPE,
    a rejection sampler with a varying number of uniforms, so those
    blocks call generator.binomial.  A NaN sample raises ValueError
    either way.
    """
    if not 0 < scale:
        raise ValueError("scale must be positive")
    analog = np.asarray(analog)
    flat = analog.reshape(-1)
    out = np.empty(flat.shape)
    starts = range(0, flat.size, _READOUT_BLOCK)
    seeds = rng.integers(1 << 63, size=len(starts)).tolist()

    def read(block):
        start = starts[block]
        stop = start + _READOUT_BLOCK
        # p, then p_obs, in one block-sized array; the debiased estimate
        # is written into the block's slice of the output
        p = np.multiply(scale, flat[start:stop])
        np.clip(p, -1.0, 1.0, out=p)
        p += 1.0
        p *= 0.5
        false_high = np.subtract(1.0, p)
        false_high *= 1.0 - f0
        p *= f1
        p += false_high
        generator = np.random.default_rng(seeds[block])
        if 1 <= n_spins <= _INVERSION_SPINS:
            counts = _binomial_by_inversion(generator, n_spins, p)
        else:
            counts = generator.binomial(n_spins, p)
        estimate = out[start:stop]
        np.divide(counts, n_spins, out=estimate)
        estimate -= 1.0 - f0
        estimate /= f0 + f1 - 1.0
        estimate *= 2.0
        estimate -= 1.0
        estimate /= scale

    workers.each(read, range(len(starts)))
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
    the configured fidelities and qubit.n_spins, block by block: its
    child generator seeds one generator per block of _READOUT_BLOCK
    samples (readout_channel), so the record does not depend on the
    number of cores that read it out.
    """
    check_record(span_s, dt)
    n = int(round(span_s / dt))

    if coeffs is None:
        coeffs = geometry.modulation_coefficients(site, eph, halo.v_ref)
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
