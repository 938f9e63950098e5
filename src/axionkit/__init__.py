"""axionkit: desk-scale simulation and analysis of axion-wind searches
with spin-qubit magnetometers."""

__version__ = "0.1.0"

from .halo import HaloParams
from .geometry import EphemerisConstants, ModulationCoefficients, SiteGeometry
from .signals import AxionParams, NoiseConfig, QubitParams
from .spectral import Spectrum, TripletResult, WindowSpec
from .sensitivity import SearchConfig, SensitivityCurve
from .timeseries import TimeSeries

__all__ = [
    "AxionParams",
    "EphemerisConstants",
    "HaloParams",
    "ModulationCoefficients",
    "NoiseConfig",
    "QubitParams",
    "SearchConfig",
    "SensitivityCurve",
    "SiteGeometry",
    "Spectrum",
    "TimeSeries",
    "TripletResult",
    "WindowSpec",
    "__version__",
]
