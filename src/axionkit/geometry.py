"""Lab-frame wind geometry: projections and the modulation fit.

A fixed mean-wind direction, given in equatorial coordinates (right
ascension, declination), is combined with the annually rotating orbital
velocity.  The sensor axis, fixed in the local horizontal frame at the
observing site, is rotated into the equatorial frame at each local
sidereal time.  The projection of the wind direction onto that axis is
the slowly varying geometric factor that amplitude-modulates the
measurable signal; its harmonic content at the sidereal and annual
frequencies is summarized by a small set of modulation coefficients.

Conventions
-----------
Equatorial frame: x toward the vernal equinox, z toward the celestial
north pole.  Horizontal frame: (east, north, up).  Device azimuth is
measured from north toward east; elevation from the horizon.  The epoch
t = 0 corresponds simultaneously to the configured initial sidereal
phase and to orbital phase zero; all fitted phases are relative to it.
The wind vector is v_sun * w_hat - u_orbit(t), u_orbit being Earth's
orbital velocity on a circular ecliptic orbit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .constants import C_KM_S, OBLIQUITY_DEG, OMEGA_ANNUAL, OMEGA_SIDEREAL, SIDEREAL_DAY_S, YEAR_S
from .timeseries import grid_phasor


class GainUnboundedError(ValueError):
    """Raised when the time-averaged projection vanishes and the
    matched-weighting gain is unbounded; the message names the two
    configuration keys that set the projection."""


@dataclass(frozen=True)
class SiteGeometry:
    """Observing site (its latitude, and lst0_rad, the local sidereal phase
    at t = 0, in place of a longitude), the sensor axis, fixed in the
    horizontal frame, and wind direction (angles in degrees, phase in rad)."""

    latitude_deg: float = 39.9042
    wind_ra_deg: float = 270.0
    wind_dec_deg: float = 30.0
    elevation_deg: float = 90.0
    azimuth_deg: float = 0.0
    lst0_rad: float = 0.0

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ValueError(f"latitude must be in [-90, 90], got {self.latitude_deg}")
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValueError(f"elevation must be in [-90, 90], got {self.elevation_deg}")
        if abs(self.wind_dec_deg) > 90.0:
            raise ValueError(f"wind declination must be in [-90, 90], got {self.wind_dec_deg}")
        # canonical ranges
        object.__setattr__(self, "wind_ra_deg", self.wind_ra_deg % 360.0)
        object.__setattr__(self, "azimuth_deg", self.azimuth_deg % 360.0)
        object.__setattr__(self, "lst0_rad", self.lst0_rad % (2.0 * math.pi))


@dataclass(frozen=True)
class EphemerisConstants:
    """Orbital speeds and phases, with the fixed sidereal and annual
    angular rates (class constants, not settings) of the modulation.

    v_sun is the Sun's speed through the halo, the speed beta_ratio is
    normalized by in modulation_coefficients, and the same speed as
    HaloParams.v_ref; a run configuration must set the two equal.
    Speeds are in km/s: v_sun at least 1 and v_orbit non-negative, both
    below c, as for HaloParams; |beta| <= 1 + v_orbit / v_sun then stays
    below 3e5.
    """

    omega_sidereal: ClassVar[float] = OMEGA_SIDEREAL
    omega_annual: ClassVar[float] = OMEGA_ANNUAL
    v_sun: float = 230.0
    v_orbit: float = 30.0
    obliquity_deg: float = OBLIQUITY_DEG
    orbital_phase: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.v_sun < C_KM_S:
            raise ValueError(
                f"v_sun must be at least 1 km/s and below c = {C_KM_S} km/s, got {self.v_sun}"
            )
        if not 0.0 <= self.v_orbit < C_KM_S:
            raise ValueError(
                f"v_orbit must be non-negative and below c = {C_KM_S} km/s, got {self.v_orbit}"
            )


def check_daily_sampling(dt: float) -> None:
    """Raise ValueError unless a record's spacing dt resolves the daily
    tone: dt at most a tenth of a sidereal day, 2 pi / (10 Os)."""
    max_dt = 0.1 * 2.0 * math.pi / OMEGA_SIDEREAL
    if not dt <= max_dt:
        raise ValueError(
            f"dt={dt} s too coarse for the daily tone; need dt <= {max_dt:.1f} s"
        )


@dataclass(frozen=True)
class ModulationCoefficients:
    """Harmonic fingerprint of the projection series.

    model(t) = c0 + c_daily cos(Os t - phase_daily)
                  + c_annual cos(Oa t - phase_annual)
                  + c_cross cos(Os t - phase_daily) cos(Oa t - phase_annual)

    with Os, Oa the sidereal and annual angular rates: the paper's pure
    amplitude envelope, which synthesis uses, with symmetric sidebands at
    Os +/- Oa.  c_cross keeps the fit's 2x2 mixed block along the recovered
    phases and leaves out its second component (singular values 0.1006
    and 0.0918 at the default site, c_cross = -0.0918).  residual_rms is
    the residual of the nine-term fit, not of this four-term model.
    """

    c0: float
    c_daily: float
    c_annual: float
    c_cross: float
    phase_daily: float
    phase_annual: float
    residual_rms: float = 0.0

    @property
    def annual_depth(self) -> float:
        """Relative annual modulation of the daily tone, c_cross/c_daily."""
        if self.c_daily == 0.0:
            return 0.0
        return self.c_cross / self.c_daily

    @property
    def envelope_depth_and_phase(self) -> tuple[float, float]:
        """Canonical (|depth|, phase) of the daily-tone envelope
        K(t) = c_daily [1 + depth cos(Oa t - phase)]: a negative fitted
        depth is folded into a half-turn phase shift."""
        depth = self.annual_depth
        if depth >= 0:
            return depth, self.phase_annual
        return -depth, (self.phase_annual + math.pi) % (2.0 * math.pi)


def wind_unit_equatorial(site: SiteGeometry) -> np.ndarray:
    """Mean wind direction as a unit vector in the equatorial frame."""
    ra = math.radians(site.wind_ra_deg)
    dec = math.radians(site.wind_dec_deg)
    return np.array(
        [math.cos(dec) * math.cos(ra), math.cos(dec) * math.sin(ra), math.sin(dec)]
    )


def wind_velocity_equatorial(t, site: SiteGeometry, eph: EphemerisConstants) -> np.ndarray:
    """Apparent wind velocity vector in the equatorial frame, km/s: the mean
    wind (from the solar motion) less Earth's orbital velocity on a circular
    ecliptic orbit, whose plane is tilted about the equinox axis by the
    obliquity.  Shape (..., 3).  t may be any array of times: the orbital
    phase takes one sine and one cosine per sample.
    """
    theta = eph.omega_annual * np.asarray(t, dtype=float) + eph.orbital_phase
    return np.stack(_wind_components(np.sin(theta), np.cos(theta), site, eph), axis=-1)


def _wind_components(sin_t, cos_t, site: SiteGeometry, eph: EphemerisConstants):
    """The three equatorial components of wind_velocity_equatorial, each
    shaped like sin_t: v_sun w_hat_k - v_orbit u_k, from the sine and
    cosine of the orbital phase Oa t + orbital_phase."""
    eps = math.radians(eph.obliquity_deg)
    w = eph.v_sun * wind_unit_equatorial(site)
    v_x = w[0] + eph.v_orbit * sin_t
    v_y = w[1] - eph.v_orbit * (cos_t * math.cos(eps))
    v_z = w[2] - eph.v_orbit * (cos_t * math.sin(eps))
    return v_x, v_y, v_z


def device_axis(site: SiteGeometry) -> np.ndarray:
    """Sensor axis in the horizontal frame (east, north, up), shape (3,)."""
    elev, azim = math.radians(site.elevation_deg), math.radians(site.azimuth_deg)
    cos_e = math.cos(elev)
    return np.array([cos_e * math.sin(azim), cos_e * math.cos(azim), math.sin(elev)])


# samples per chunk of the geometry kernels; bounds their temporaries at
# about a MB whatever the length of t, and with the chunks' boundaries
# defines the bytes
_CHUNK = 1 << 14


def _chunked(n, kernel, dtype=float):
    """kernel(start, stop) for each chunk start <= k < stop of _CHUNK
    samples, in order, written into one output array of n samples of
    dtype.  Each chunk is computed alone, so the chunks define the bytes."""
    out = np.empty(n, dtype=dtype)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        out[start:stop] = kernel(start, stop)
    return out


# a time may leave its grid by this many eps of the grid's largest |t|:
# t0 + dt * np.arange(n), np.linspace and TimeSeries.times round each time
# by at most a few, and so does the spacing read back from the end points
_GRID_ULPS = 8.0


def beta_ratio(t, site: SiteGeometry, eph: EphemerisConstants, v_ref: float):
    """Normalized signal amplitude (v_lab/v_ref) * cos(theta).

    The lab speed cancels against the normalization of the wind
    direction, so this is q . v_lab / v_ref for the sensor axis q and the
    wind v_lab in the horizontal frame.  It can exceed one in magnitude
    when the lab speed tops the reference speed.  This is the quantity
    whose daily series and envelope make up the year-long geometric
    modulation.

    The rotation R from the equatorial to the horizontal frame is never
    formed: q . (R v_eq) = (R^T q) . v_eq, and with h = cos(lat) q_u -
    sin(lat) q_n and s, c the sine and cosine of the local sidereal time,
    R^T q = (h c - q_e s, h s + q_e c, cos(lat) q_n + sin(lat) q_u),
    dotted with the equatorial wind v_sun w_hat - u_orbit(t).  q and h are
    fixed; the kernel runs on chunks of _CHUNK samples (_chunked).

    t, of any shape, must hold a uniform grid t_k = t0 + k dt in its
    flattened order, as a time array made by np.arange, np.linspace or
    TimeSeries.times does; this is the one function that reads a grid
    from times.  t0 = t[0] and dt = (t[-1] - t[0]) / (n - 1), or 0 when
    n < 2.  Each chunk's sidereal and orbital sines and cosines are the
    imaginary and real parts of two timeseries.grid_phasor on that grid,
    so no sine or cosine is taken per sample.  Each chunk first checks its
    times: raises ValueError naming, by its index in t's shape, the first
    t_k off t0 + k dt by more than _GRID_ULPS eps max(|t[0]|, |t[-1]|); a
    NaN or infinite time fails.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    n = flat.size
    t0, last = (float(flat[0]), float(flat[-1])) if n else (0.0, 0.0)
    dt = (last - t0) / (n - 1) if n > 1 else 0.0
    tolerance = _GRID_ULPS * np.finfo(float).eps * max(abs(t0), abs(last))

    def off_grid(k):
        index = ", ".join(str(int(i)) for i in np.unravel_index(k, t.shape))
        value = float(flat[k])
        reason = "is not finite" if not math.isfinite(value) else (
            f"is off the uniform grid t0 + k dt (t0 = {t0!r}, dt = {dt!r}) "
            f"by more than {tolerance:.3g}"
        )
        return ValueError(f"t[{index}] = {value!r} {reason}; times must be a uniform grid")

    if not math.isfinite(tolerance):
        raise off_grid(0 if not math.isfinite(t0) else n - 1)
    lam = math.radians(site.latitude_deg)
    sin_l, cos_l = math.sin(lam), math.cos(lam)
    q_e, q_n, q_u = device_axis(site)
    h = cos_l * q_u - sin_l * q_n

    def kernel(start, stop):
        offset = np.arange(start, stop, dtype=float)
        offset *= dt
        offset += t0
        offset -= flat[start:stop]
        np.abs(offset, out=offset)
        if not offset.max() <= tolerance:  # a NaN fails too
            raise off_grid(start + int(np.argmax(~(offset <= tolerance))))
        # exp(i (lst0 + Os t)) and exp(i (Oa t + orbital_phase))
        lst = grid_phasor(eph.omega_sidereal, t0, dt, start, stop, -site.lst0_rad)
        orbit = grid_phasor(eph.omega_annual, t0, dt, start, stop, -eph.orbital_phase)
        s, c = lst.imag, lst.real
        v_x, v_y, v_z = _wind_components(orbit.imag, orbit.real, site, eph)
        dot = (h * c - q_e * s) * v_x
        dot += (h * s + q_e * c) * v_y
        dot += (cos_l * q_n + sin_l * q_u) * v_z
        dot /= v_ref
        return dot

    return _chunked(n, kernel).reshape(t.shape)[()]


def modulation_model(t0: float, dt: float, n: int, coeffs: ModulationCoefficients) -> np.ndarray:
    """Evaluate the harmonic model defined by a coefficient set on the n
    samples of the grid t_k = t0 + k dt.

    The terms are summed in the order c0 + daily + annual + cross, on
    chunks of _CHUNK samples (_chunked).  Each chunk's two cosines are the
    real parts of timeseries.grid_phasor at Os and Oa, with each term's
    phase folded into its block factor, so no time array is formed and no
    cosine is taken per sample.  This pure amplitude envelope has
    symmetric sidebands and lacks the mixed-block component that the fit
    drops, so it is not beta_ratio.
    """

    def kernel(start, stop):
        daily = grid_phasor(OMEGA_SIDEREAL, t0, dt, start, stop, coeffs.phase_daily).real
        annual = grid_phasor(OMEGA_ANNUAL, t0, dt, start, stop, coeffs.phase_annual).real
        return (coeffs.c0 + coeffs.c_daily * daily + coeffs.c_annual * annual
                + coeffs.c_cross * daily * annual)

    return _chunked(n, kernel)


# rows per block of the fit's QR factorization: a 512 x 10 block stays
# under the size at which OpenBLAS threads level-2 BLAS; with two BLAS
# threads and the second core busy, one threaded factorization of the
# year's 5,861 x 10 rows waited up to 40 ms
_FIT_ROWS = 512


def fit_modulation_coefficients(t0: float, dt: float, series) -> ModulationCoefficients:
    """Least-squares harmonic fit of a projection series sampled on the
    grid t_k = t0 + k dt.

    The basis is {1, cos/sin(Os t), cos/sin(Oa t)} plus the four mixed
    products; the mixed block is then collapsed onto the single
    cross-coefficient consistent with the phases recovered from the pure
    sidereal and annual terms; its second component, off those phases, is
    dropped (singular value 0.1006 at the default site, 0.0918 kept).
    Phases come out modulo 2 pi.  residual_rms is the nine-term fit's residual,
    which does not count what the collapse drops.

    The basis' cosines and sines are the real and imaginary parts of
    timeseries.grid_phasor at Os and Oa on the chunks of _CHUNK samples
    on which beta_ratio takes its phasors, so no sine or cosine is taken
    per sample, and on beta_ratio's grid at lst0 = orbital_phase = 0 the
    two take the same phasors.

    The least-squares problem is solved through the triangular factor R
    of the QR factorization of [design | y], whose last column holds
    Q^T y, so Q is never formed; the 9 x 9 system in R is then solved
    directly.  R is factored from the Rs of blocks of _FIT_ROWS rows, so
    no factorization is large enough for BLAS to thread it.

    Raises ValueError if series is not 1-D, or if the design matrix is
    rank deficient (for example when the sampling aliases the sidereal
    rate), by lstsq's rule: singular values at most eps max(M, N) s_max
    count as zero.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be a 1-D array")

    def phasor(omega):
        return _chunked(y.size, lambda a, b: grid_phasor(omega, t0, dt, a, b), complex)

    daily, annual = phasor(OMEGA_SIDEREAL), phasor(OMEGA_ANNUAL)
    cs, ss, ca, sa = daily.real, daily.imag, annual.real, annual.imag
    # [design | y]: its R holds the design's R and, in its last column,
    # Q^T y; it is the R of the stacked Rs of its blocks of _FIT_ROWS rows
    rows = np.column_stack(
        [np.ones(y.size), cs, ss, ca, sa, cs * ca, cs * sa, ss * ca, ss * sa, y]
    )
    design = rows[:, :-1]
    starts = range(0, max(len(rows), 1), _FIT_ROWS)  # one empty block if series is empty
    r = np.concatenate([np.linalg.qr(rows[i : i + _FIT_ROWS], mode="r") for i in starts])
    r = np.linalg.qr(r, mode="r")
    # R's singular values are the design's, ranked by lstsq's rule
    k = design.shape[1]
    s = np.linalg.svd(r[:k, :k], compute_uv=False)
    tolerance = np.finfo(float).eps * max(design.shape) * s.max(initial=0.0)
    rank = int(np.count_nonzero(s > tolerance))
    if rank < k:
        raise ValueError(
            f"design matrix rank {rank} < {k}; "
            "sampling or geometry degenerate"
        )
    coef = np.linalg.solve(r[:k, :k], r[:k, k])

    c0 = coef[0]
    c_daily = math.hypot(coef[1], coef[2])
    phase_daily = math.atan2(coef[2], coef[1]) % (2.0 * math.pi)
    c_annual = math.hypot(coef[3], coef[4])
    phase_annual = math.atan2(coef[4], coef[3]) % (2.0 * math.pi)
    # rank-one reduction of the mixed block onto the recovered phases
    u = np.array(
        [
            math.cos(phase_daily) * math.cos(phase_annual),
            math.cos(phase_daily) * math.sin(phase_annual),
            math.sin(phase_daily) * math.cos(phase_annual),
            math.sin(phase_daily) * math.sin(phase_annual),
        ]
    )
    c_cross = float(np.dot(coef[5:9], u))
    resid = y - design @ coef
    return ModulationCoefficients(
        c0=float(c0),
        c_daily=float(c_daily),
        c_annual=float(c_annual),
        c_cross=c_cross,
        phase_daily=phase_daily,
        phase_annual=phase_annual,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


@lru_cache(maxsize=16)
def modulation_coefficients(site: SiteGeometry, eph: EphemerisConstants) -> ModulationCoefficients:
    """Year-long harmonic fit of beta_ratio at v_ref = eph.v_sun, the Sun's
    speed through the halo, on 16 samples a sidereal day from t = 0;
    cached per (site, ephemeris)."""
    dt = SIDEREAL_DAY_S / 16.0
    t = np.arange(0.0, YEAR_S, dt)
    return fit_modulation_coefficients(0.0, dt, beta_ratio(t, site, eph, eph.v_sun))


def daily_mean_and_excursion(day, coeffs: ModulationCoefficients):
    """Slow components at the given (fractional) sidereal day index:
    daily mean mu(t) = c0 + c_annual cos(Oa t - phase_annual) and daily
    excursion K(t) = c_daily + c_cross cos(Oa t - phase_annual)."""
    t = np.asarray(day, dtype=float) * SIDEREAL_DAY_S
    annual = np.cos(OMEGA_ANNUAL * t - coeffs.phase_annual)
    mu = coeffs.c0 + coeffs.c_annual * annual
    k = coeffs.c_daily + coeffs.c_cross * annual
    return mu, k


def daily_envelope(day, coeffs: ModulationCoefficients):
    """(min, max) of the daily waveform on the given day: mu -/+ |K|."""
    mu, k = daily_mean_and_excursion(day, coeffs)
    return mu - np.abs(k), mu + np.abs(k)


def daily_rms(day, coeffs: ModulationCoefficients):
    """RMS over one sidereal day of mu + K cos(Os t' - phase):
    sqrt(mu^2 + K^2/2)."""
    mu, k = daily_mean_and_excursion(day, coeffs)
    return np.sqrt(mu**2 + 0.5 * k**2)


@dataclass(frozen=True)
class GeometricGains:
    """Gain factors of matched daily weighting and multi-axis readout
    relative to a single-axis, uniformly weighted baseline; n_axes, the
    number of identical sensors, is a class constant."""

    p0: float
    mean_square_projection: float
    g_daily: float
    g_three_axis: float
    g_total: float
    n_axes: ClassVar[int] = 3


def geometric_gains(site: SiteGeometry) -> GeometricGains:
    """Gains for a zenith-type axis at the site latitude.

    p0 = sin(lat) sin(dec) is the time-averaged projection;
    <P^2> = p0^2 + (cos(lat) cos(dec))^2 / 2 its mean square over a day.
    Matched daily weighting gains sqrt(<P^2>)/|p0|, three-axis readout
    1/sqrt(<P^2>), and operating the record's n_axes = 3 identical
    sensors adds the usual sqrt(3) resource factor.
    """
    lam = math.radians(site.latitude_deg)
    dec = math.radians(site.wind_dec_deg)
    p0 = math.sin(lam) * math.sin(dec)
    p2 = p0**2 + (math.cos(lam) * math.cos(dec)) ** 2 / 2.0
    if abs(p0) < 1e-12:
        raise GainUnboundedError(
            f"geometry.latitude_deg = {site.latitude_deg:g} and geometry.wind_dec_deg = "
            f"{site.wind_dec_deg:g}: the time-averaged projection sin(lat) sin(dec) "
            "vanishes, so the matched-weighting gain is unbounded"
        )
    g_daily = math.sqrt(p2) / abs(p0)
    g_three_axis = 1.0 / math.sqrt(p2)
    g_total = math.sqrt(GeometricGains.n_axes) * g_daily * g_three_axis
    return GeometricGains(
        p0=p0,
        mean_square_projection=p2,
        g_daily=g_daily,
        g_three_axis=g_three_axis,
        g_total=g_total,
    )
