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

from .constants import OBLIQUITY_DEG, OMEGA_ANNUAL, OMEGA_SIDEREAL, SIDEREAL_DAY_S, YEAR_S


class DegenerateFitError(ValueError):
    """Raised when the modulation-coefficient design matrix loses rank."""


class GainUnboundedError(ValueError):
    """Raised when the time-averaged projection vanishes and the
    matched-weighting gain is unbounded; the message names the two
    configuration keys that set the projection."""


@dataclass(frozen=True)
class SiteGeometry:
    """Observing site (its latitude, and lst0_rad, the local sidereal phase
    at t = 0, in place of a longitude), sensor pointing and wind direction
    (angles in degrees, turntable rate in rad/s, phase in rad)."""

    latitude_deg: float = 39.9042
    wind_ra_deg: float = 270.0
    wind_dec_deg: float = 30.0
    elevation_deg: float = 90.0
    azimuth_deg: float = 0.0
    turntable_rate_rad_s: float = 0.0
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

    v_sun is the Sun's speed through the halo, the same speed as
    HaloParams.v_ref; a run configuration must set the two equal.
    """

    omega_sidereal: ClassVar[float] = OMEGA_SIDEREAL
    omega_annual: ClassVar[float] = OMEGA_ANNUAL
    v_sun: float = 230.0
    v_orbit: float = 30.0
    obliquity_deg: float = OBLIQUITY_DEG
    orbital_phase: float = 0.0

    def __post_init__(self):
        if self.v_sun <= 0 or self.v_orbit < 0:
            raise ValueError("v_sun must be positive and v_orbit non-negative")


def check_daily_sampling(dt: float, eph: EphemerisConstants) -> None:
    """Raise ValueError unless a record's spacing dt resolves the daily
    tone: dt at most a tenth of a sidereal day, 2 pi / (10 Os)."""
    max_dt = 0.1 * 2.0 * math.pi / eph.omega_sidereal
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

    with Os, Oa the sidereal and annual angular rates.  residual_rms
    records the fit residue when the coefficients came from data.
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


def orbital_velocity_equatorial(t, eph: EphemerisConstants) -> np.ndarray:
    """Earth's orbital velocity in the equatorial frame, km/s.

    Circular ecliptic orbit; the ecliptic plane is tilted about the
    equinox axis by the obliquity.  Shape (..., 3).
    """
    t = np.asarray(t, dtype=float)
    theta = eph.omega_annual * t + eph.orbital_phase
    eps = math.radians(eph.obliquity_deg)
    v = np.empty(t.shape + (3,))
    v[..., 0] = -np.sin(theta)
    v[..., 1] = np.cos(theta) * math.cos(eps)
    v[..., 2] = np.cos(theta) * math.sin(eps)
    return eph.v_orbit * v


def wind_velocity_equatorial(t, site: SiteGeometry, eph: EphemerisConstants) -> np.ndarray:
    """Apparent wind velocity vector in the equatorial frame, km/s.

    Sum of the mean wind (from the solar motion) and the reflex of the
    orbital velocity.  Shape (..., 3).
    """
    t = np.asarray(t, dtype=float)
    w = eph.v_sun * wind_unit_equatorial(site)
    return w - orbital_velocity_equatorial(t, eph)


def device_axis(t, site: SiteGeometry) -> np.ndarray:
    """Sensor axis in the horizontal frame, including turntable rotation."""
    t = np.asarray(t, dtype=float)
    elev = math.radians(site.elevation_deg)
    azim = math.radians(site.azimuth_deg) + site.turntable_rate_rad_s * t
    q = np.empty(t.shape + (3,))
    q[..., 0] = math.cos(elev) * np.sin(azim)
    q[..., 1] = math.cos(elev) * np.cos(azim)
    q[..., 2] = math.sin(elev)
    return q


# samples per chunk of the beta_ratio kernel; bounds its temporaries at a
# few MB whatever the length of t
_CHUNK = 1 << 16


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
    dotted with the equatorial wind v_sun w_hat - u_orbit(t).  The
    samples are taken in chunks of _CHUNK into one output array.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    out = np.empty(flat.shape)
    lam = math.radians(site.latitude_deg)
    sin_l, cos_l = math.sin(lam), math.cos(lam)
    for start in range(0, flat.size, _CHUNK):
        tc = flat[start : start + _CHUNK]
        q = device_axis(tc, site)
        q_e, q_n, q_u = q[..., 0], q[..., 1], q[..., 2]
        lst = site.lst0_rad + eph.omega_sidereal * tc
        s, c = np.sin(lst), np.cos(lst)
        h = cos_l * q_u - sin_l * q_n
        v = wind_velocity_equatorial(tc, site, eph)
        dot = (h * c - q_e * s) * v[:, 0]
        dot += (h * s + q_e * c) * v[:, 1]
        dot += (cos_l * q_n + sin_l * q_u) * v[:, 2]
        dot /= v_ref
        out[start : start + tc.size] = dot
    return out.reshape(t.shape)[()]


def _cos_phase(t: np.ndarray, omega: float, phase: float) -> np.ndarray:
    """cos(omega t - phase) in one new array shaped like t."""
    out = np.multiply(omega, t, out=np.empty_like(t))
    np.subtract(out, phase, out=out)
    return np.cos(out, out=out)


def modulation_model(t, coeffs: ModulationCoefficients, eph: EphemerisConstants):
    """Evaluate the harmonic model defined by a coefficient set.

    Three arrays shaped like t, no other temporaries; the terms are
    summed in the order c0 + daily + annual + cross.
    """
    t = np.asarray(t, dtype=float)
    daily = _cos_phase(t, eph.omega_sidereal, coeffs.phase_daily)
    annual = _cos_phase(t, eph.omega_annual, coeffs.phase_annual)
    model = np.multiply(coeffs.c_daily, daily, out=np.empty_like(t))
    np.add(coeffs.c0, model, out=model)
    daily *= coeffs.c_cross
    daily *= annual
    annual *= coeffs.c_annual
    model += annual
    model += daily
    return model[()]


def fit_modulation_coefficients(t, series, eph: EphemerisConstants) -> ModulationCoefficients:
    """Least-squares harmonic fit of a projection series.

    The basis is {1, cos/sin(Os t), cos/sin(Oa t)} plus the four mixed
    products; the mixed block is then collapsed onto the single
    cross-coefficient consistent with the phases recovered from the pure
    sidereal and annual terms.  Phases come out modulo 2 pi.

    Raises DegenerateFitError if the design matrix is rank deficient
    (for example when the sampling aliases the sidereal rate).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(series, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and series must be 1-D arrays of equal length")

    cs, ss = np.cos(eph.omega_sidereal * t), np.sin(eph.omega_sidereal * t)
    ca, sa = np.cos(eph.omega_annual * t), np.sin(eph.omega_annual * t)
    design = np.column_stack(
        [np.ones_like(t), cs, ss, ca, sa, cs * ca, cs * sa, ss * ca, ss * sa]
    )
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateFitError(
            f"design matrix rank {rank} < {design.shape[1]}; "
            "sampling or geometry degenerate"
        )

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
def modulation_coefficients(
    site: SiteGeometry, eph: EphemerisConstants, v_ref: float
) -> ModulationCoefficients:
    """Year-long harmonic fit of the normalized signal amplitude for the
    given geometry, cached per (site, ephemeris, reference speed)."""
    dt = SIDEREAL_DAY_S / 16.0
    t = np.arange(0.0, YEAR_S, dt)
    return fit_modulation_coefficients(t, beta_ratio(t, site, eph, v_ref), eph)


def daily_mean_and_excursion(day, coeffs: ModulationCoefficients, eph: EphemerisConstants):
    """Slow components at the given (fractional) sidereal day index:
    daily mean mu(t) = c0 + c_annual cos(Oa t - phase_annual) and daily
    excursion K(t) = c_daily + c_cross cos(Oa t - phase_annual)."""
    t = np.asarray(day, dtype=float) * SIDEREAL_DAY_S
    annual = np.cos(eph.omega_annual * t - coeffs.phase_annual)
    mu = coeffs.c0 + coeffs.c_annual * annual
    k = coeffs.c_daily + coeffs.c_cross * annual
    return mu, k


def daily_envelope(day, coeffs: ModulationCoefficients, eph: EphemerisConstants):
    """(min, max) of the daily waveform on the given day: mu -/+ |K|."""
    mu, k = daily_mean_and_excursion(day, coeffs, eph)
    return mu - np.abs(k), mu + np.abs(k)


def daily_rms(day, coeffs: ModulationCoefficients, eph: EphemerisConstants):
    """RMS over one sidereal day of mu + K cos(Os t' - phase):
    sqrt(mu^2 + K^2/2)."""
    mu, k = daily_mean_and_excursion(day, coeffs, eph)
    return np.sqrt(mu**2 + 0.5 * k**2)


@dataclass(frozen=True)
class GeometricGains:
    """Gain factors of matched daily weighting and multi-axis readout
    relative to a single-axis, uniformly weighted baseline."""

    p0: float
    mean_square_projection: float
    g_daily: float
    g_three_axis: float
    g_total: float
    n_axes: int = 3


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
