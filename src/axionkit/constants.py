"""Physical constants and unit conversions used across the toolkit.

Everything external speaks SI (Hz, s, T, km/s); the natural-unit
conversions needed for the dark-matter field amplitude are centralized
here so there is exactly one place where hbar and c can hide.
"""

import math

# CODATA 2018
C_KM_S = 299792.458            # speed of light, km/s
EV_J = 1.602176634e-19         # electron volt, J
H_J_S = 6.62607015e-34         # Planck constant, J s
HBAR_J_S = 1.054571817e-34     # reduced Planck constant, J s
HBARC_EV_CM = 1.9732698040e-5  # hbar*c, eV cm
M_E_EV = 510998.95             # electron mass, eV
ELECTRON_GAMMA_RAD_S_T = 1.76085963023e11  # electron gyromagnetic ratio, rad/s/T

# 1 ueV of oscillation energy corresponds to ~241.799 MHz
UEV_TO_HZ = 1e-6 * EV_J / H_J_S
EV_TO_RAD_S = EV_J / HBAR_J_S

# energy density: 1 GeV/cm^3 in eV^4 (natural units)
GEV_CM3_TO_EV4 = 1e9 * HBARC_EV_CM**3

# celestial mechanics
SIDEREAL_DAY_S = 86164.0905
YEAR_S = 365.25 * 86400.0
OMEGA_SIDEREAL = 2.0 * math.pi / SIDEREAL_DAY_S  # rad/s, ~7.292e-5
OMEGA_ANNUAL = 2.0 * math.pi / YEAR_S            # rad/s, ~1.991e-7
OBLIQUITY_DEG = 23.44


def uev_to_hz(mass_uev: float) -> float:
    """Oscillation frequency (Hz) of a field of the given mass in ueV."""
    return mass_uev * UEV_TO_HZ


def uev_to_rad_s(mass_uev: float) -> float:
    """Angular oscillation frequency (rad/s) for a mass in ueV."""
    return mass_uev * 1e-6 * EV_TO_RAD_S
