"""Standard Halo Model kinematics and the wind-induced effective field.

The local dark-matter speed distribution is a truncated Maxwell-Boltzmann,
f(v) ~ v^2 exp(-v^2/v0^2) for v < v_esc.  From it follow the mean-square
speed, the fractional linewidth of the oscillating field, its coherence
time, the spectral line shape seen by a narrowband receiver, and the
magnitude of the effective magnetic field acting on an electron spin.

All functions are pure; arrays pass through elementwise where sensible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_KM_S, ELECTRON_GAMMA_RAD_S_T, EV_TO_RAD_S, GEV_CM3_TO_EV4, M_E_EV


@dataclass(frozen=True)
class HaloParams:
    """Local halo kinematics.

    v0, v_esc in km/s; rho_dm in GeV/cm^3; v_ref is the speed used to
    normalize the overall signal scale (beta0) and the effective field
    entering sensitivity estimates.

    v0 is at least 1 km/s and v_esc below the speed of light: the line's
    fractional width v0^2/(2c^2) is then at least 5.6e-12, some 25,000
    double-precision steps of its frequency, and the non-relativistic map
    from speed to frequency holds.  v_ref too is at least 1 km/s and below
    c, the range of EphemerisConstants.v_sun.

    The defaults are the Standard Halo Model: v0 = 220 km/s, the speed
    at which the fractional linewidth is 3.9e-7, the coherence time at
    1 ueV 3.3 ms and the FWHM at 1 ueV 117 Hz.  v_ref is the Sun's speed
    through the halo, v0 plus the solar peculiar motion (about 232 km/s),
    rounded to 230 km/s.  It is the same speed as EphemerisConstants.v_sun,
    which sets the lab wind; a run configuration must set the two equal.
    """

    v0: float = 220.0
    v_esc: float = 544.0
    rho_dm: float = 0.4
    v_ref: float = 230.0

    def __post_init__(self):
        if not self.v0 >= 1.0:
            raise ValueError(f"v0 must be at least 1 km/s, got {self.v0}")
        if not self.v_esc > self.v0:
            raise ValueError(f"v_esc ({self.v_esc}) must exceed v0 ({self.v0})")
        if not self.v_esc < C_KM_S:
            raise ValueError(f"v_esc must be below c = {C_KM_S} km/s, got {self.v_esc}")
        if not self.rho_dm > 0:
            raise ValueError(f"rho_dm must be positive, got {self.rho_dm}")
        if not 1.0 <= self.v_ref < C_KM_S:
            raise ValueError(
                f"v_ref must be at least 1 km/s and below c = {C_KM_S} km/s, got {self.v_ref}"
            )


def _truncated_norm(z: float) -> float:
    """N(z) = erf(z) - 2 z e^(-z^2)/sqrt(pi), the regularized incomplete gamma
    function P(3/2, z^2): Gamma(3/2) N(z) is the integral of sqrt(u) e^(-u)
    over [0, z^2].  It normalizes both the speed distribution and the line
    shape truncated at z = v_esc/v0."""
    return math.erf(z) - 2.0 * z * math.exp(-z * z) / math.sqrt(math.pi)


def mean_square_speed(halo: HaloParams) -> float:
    """Mean-square speed of the truncated Maxwell-Boltzmann halo, km^2/s^2.

    Closed form: v0^2 * [3/2 - 2 z^3 e^(-z^2) / (sqrt(pi) N(z))] with
    z = v_esc/v0 and N(z) = P(3/2, z^2) (_truncated_norm).  Approaches
    1.5 v0^2 as the truncation is pushed to infinity, and is always
    strictly below it.
    """
    z = halo.v_esc / halo.v0  # above 1, so N(z) is positive
    ez2 = math.exp(-z * z)
    return halo.v0**2 * (1.5 - 2.0 * z**3 * ez2 / (math.sqrt(math.pi) * _truncated_norm(z)))


def fractional_linewidth_second_moment(halo: HaloParams) -> float:
    """Fractional linewidth <v^2>/(2 c^2).

    This is the convention that drives the coherence time; for the
    default halo it evaluates to 3.94e-7.
    """
    return mean_square_speed(halo) / (2.0 * C_KM_S**2)


def fractional_linewidth_v0(halo: HaloParams) -> float:
    """Fractional line-scale v0^2/(2 c^2), the exponential-decay scale of
    the line shape (the convention quoted alongside the FWHM figure).
    """
    return halo.v0**2 / (2.0 * C_KM_S**2)


def coherence_time(nu_hz, halo: HaloParams):
    """Coherence time tau = 1/(pi * dnu) of a field oscillating at nu_hz,
    seconds; elementwise over an array of frequencies.

    dnu is the absolute second-moment linewidth nu_hz * <v^2>/(2c^2), so
    tau scales exactly as 1/mass.  3.34 ms at 1 ueV for the default
    halo.
    """
    not_positive = np.asarray(nu_hz) <= 0
    if np.any(not_positive):
        raise ValueError(f"frequency must be positive, got {np.extract(not_positive, nu_hz)[0]}")
    return 1.0 / (np.pi * nu_hz * fractional_linewidth_second_moment(halo))


def _check_line_origin(nu_a: float) -> None:
    if not 0.0 < nu_a < math.inf:
        raise ValueError(f"line origin nu_a must be positive and finite, got {nu_a}")


def shm_lineshape(nu_hz, nu_a: float, halo: HaloParams) -> np.ndarray:
    """Normalized spectral density g(nu) of the halo line, 1/Hz.

    The speed distribution maps through nu = nu_a (1 + v^2/(2 c^2)) with
    its Jacobian, giving g(x) ~ sqrt(x) exp(-x/x0) on 0 <= x <= x_esc,
    where x = nu - nu_a, x0 = nu_a v0^2/(2c^2) and x_esc = x0 (v_esc/v0)^2.
    The normalization constant is analytic, x0^(3/2) Gamma(3/2) P(3/2, z^2)
    with z = v_esc/v0, so the continuous density integrates to one exactly.

    Parameters
    ----------
    nu_hz : array_like
        Monotonically increasing frequency grid, Hz.
    nu_a : float
        Line origin (the field frequency), Hz; positive and finite.

    Returns
    -------
    ndarray of densities; zero below nu_a and above the escape edge.
    """
    _check_line_origin(nu_a)
    nu = np.asarray(nu_hz, dtype=float)
    if nu.size == 0:
        raise ValueError("empty frequency grid")
    if nu.size > 1 and not np.all(np.diff(nu) > 0):
        raise ValueError("frequency grid must be strictly increasing")

    z = halo.v_esc / halo.v0
    z2 = z**2
    x0 = nu_a * fractional_linewidth_v0(halo)
    x = nu - nu_a
    # analytic normalization: integral of sqrt(x) e^(-x/x0) over [0, z2*x0]
    norm = x0**1.5 * (0.5 * math.sqrt(math.pi)) * _truncated_norm(z)
    out = np.zeros_like(nu)
    inside = (x >= 0) & (x <= z2 * x0)
    out[inside] = np.sqrt(x[inside]) * np.exp(-x[inside] / x0) / norm
    return out


def lineshape_support(nu_a: float, halo: HaloParams) -> tuple[float, float]:
    """Interval [nu_a, nu_a(1 + v_esc^2/(2c^2))] carrying the line with origin nu_a, Hz."""
    _check_line_origin(nu_a)
    return nu_a, nu_a * (1.0 + halo.v_esc**2 / (2.0 * C_KM_S**2))


def effective_field(g_ae: float, halo: HaloParams, v_km_s) -> float:
    """Magnitude of the wind-induced effective magnetic field, Tesla.

    B = g_ae * (v/c) * sqrt(2 rho) / (m_e * gamma_e): the spin-precession
    amplitude g_ae v sqrt(2 rho)/m_e (an energy in natural units) divided
    by the electron gyromagnetic ratio.  Unit chain: rho converts from
    GeV/cm^3 to eV^4 via (hbar c)^3, the energy to rad/s via 1/hbar, and
    gamma_e is the CODATA value in rad/s/T.  Linear in both g_ae and v,
    and proportional to sqrt(rho).

    Convention: B is the field whose Larmor precession at gamma_e equals
    the axion-induced precession.  Matching the wind Hamiltonian
    H = (g_ae/2m_e) sigma.grad(a) to the Zeeman term
    (hbar gamma_e/2) sigma.B gives B = g_ae |grad a|/(m_e gamma_e), with
    |grad a| = sqrt(2 rho) v/c.  For g_ae = 1e-13, v = 1e-3 c and the
    default rho = 0.4 GeV/cm^3 this is 4.19e-21 T.  The other common
    convention, B = g_ae |grad a|/(2e), gives about half of that
    (2.10e-21 T; the ratio is g_e/4 since gamma_e = g_e e/(2 m_e)).
    signals turns B back into a precession rate through the same
    constants.ELECTRON_GAMMA_RAD_S_T and g_min_curve divides by B, so a
    halved B would halve the simulated precession and double every g_min.
    """
    if g_ae < 0:
        raise ValueError(f"g_ae must be non-negative, got {g_ae}")
    v = np.asarray(v_km_s, dtype=float)
    if np.any(v <= 0):
        raise ValueError("speed must be positive")
    rho_ev4 = halo.rho_dm * GEV_CM3_TO_EV4
    domega_ev = g_ae * (v / C_KM_S) * np.sqrt(2.0 * rho_ev4) / M_E_EV
    b = domega_ev * EV_TO_RAD_S / ELECTRON_GAMMA_RAD_S_T
    return float(b) if np.isscalar(v_km_s) else b
