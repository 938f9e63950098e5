import numpy as np
import pytest

from axionkit import (
    AxionParams,
    EphemerisConstants,
    HaloParams,
    QubitParams,
    SiteGeometry,
)


@pytest.fixture
def halo():
    return HaloParams()


@pytest.fixture
def axion():
    return AxionParams(mass_uev=1.0, g_ae=1e-13)


@pytest.fixture
def nu_a(axion):
    return axion.frequency_hz


@pytest.fixture
def site():
    return SiteGeometry()


@pytest.fixture
def eph():
    return EphemerisConstants()


@pytest.fixture
def eph_no_orbit():
    return EphemerisConstants(v_orbit=0.0)


@pytest.fixture
def qubit():
    return QubitParams()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
