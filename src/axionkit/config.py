"""Run configuration: strict JSON ingestion, dotted-key overrides.

A run configuration is a JSON object with one section per parameter
group.  Unknown keys anywhere are rejected with the offending dotted
path; every field has a default, so the empty object is a valid
configuration.  A previously written run manifest can be passed in
place of a configuration file; load_config extracts its config and, for
a run of the same subcommand, its arguments.  A retired key loads only
at its former default; the axion section holds retired keys only.
"""

import dataclasses
import json
import sys
import types
import typing
from dataclasses import dataclass, field

from .constants import OMEGA_ANNUAL, OMEGA_SIDEREAL
from .geometry import EphemerisConstants, SiteGeometry
from .halo import HaloParams
from .sensitivity import SearchConfig
from .signals import AxionParams, NoiseConfig, QubitParams

MANIFEST_SCHEMA = "axionkit-manifest/1"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv", "json", "svg")

    def __post_init__(self):
        allowed = {"csv", "json", "svg"}
        bad = set(self.formats) - allowed
        if bad:
            raise ValueError(f"unknown output formats {sorted(bad)}")
        object.__setattr__(self, "formats", tuple(self.formats))


@dataclass(frozen=True)
class RunConfig:
    geometry: SiteGeometry = field(default_factory=SiteGeometry)
    ephemeris: EphemerisConstants = field(default_factory=EphemerisConstants)
    halo: HaloParams = field(default_factory=HaloParams)
    # not a setting: figures are in units of beta0; sensitivity and linewidth take their masses
    axion: typing.ClassVar[AxionParams] = AxionParams()
    qubit: QubitParams = field(default_factory=QubitParams)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}

# keys that earlier manifests carry and that reach no artifact, each with
# the only value it may still hold, so those manifests load unchanged
_RETIRED = {
    "geometry": {"longitude_deg": 116.4074, "turntable_rate_rad_s": 0.0},
    "ephemeris": {"omega_sidereal": OMEGA_SIDEREAL, "omega_annual": OMEGA_ANNUAL},
    "axion": {"mass_uev": 1.0, "g_ae": 1e-13, "phase": 0.0},
    "qubit": {
        "gamma_e_hz_t": 28e9, "t1_s": 1e-3, "t2_s": 1e-4, "b0_t": 0.5, "q_resonator": 1e4,
        "omega0_rad_s": None,
    },
}


def _coerce(value, annotation, path):
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):  # float | None and friends
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, args[0], path)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, +-Inf, huge ints
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if annotation is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(value)
    raise ConfigError(f"{path}: unsupported field type {annotation}")


def _build_section(cls, data, section: str):
    """The section's dataclass built from data; cls None for a section
    whose every key is retired, which builds nothing."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)} if cls else set()
    data = dict(data)
    for key, default in _RETIRED.get(section, {}).items():
        if data.pop(key, default) != default:
            raise ConfigError(f"{section}.{key}: retired key, accepted only at {default!r}")
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"{section}.{sorted(unknown)[0]}: unknown key (known: {sorted(known)})"
        )
    if cls is None:
        return None
    hints = typing.get_type_hints(cls)
    kwargs = {
        name: _coerce(value, hints[name], f"{section}.{name}")
        for name, value in data.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # a message that starts with a field's name names its dotted key
        joint = "." if str(exc).split(" ", 1)[0] in known else ": "
        raise ConfigError(f"{section}{joint}{exc}") from exc


def build_config(data: dict) -> RunConfig:
    """Construct a validated RunConfig from a plain configuration object.

    halo.v_ref and ephemeris.v_sun are both the Sun's speed through the
    halo, so a configuration where they differ is rejected.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"configuration root must be an object, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS) - set(_RETIRED)
    if unknown:
        raise ConfigError(
            f"{sorted(unknown)[0]}: unknown section (known: {sorted(_SECTIONS)})"
        )
    for name in _RETIRED.keys() - _SECTIONS.keys():
        _build_section(None, data.get(name, {}), name)
    sections = {
        name: _build_section(factory, data.get(name, {}), name)
        for name, factory in _SECTIONS.items()
    }
    v_ref, v_sun = sections["halo"].v_ref, sections["ephemeris"].v_sun
    if v_ref != v_sun:
        raise ConfigError(
            f"halo.v_ref ({v_ref}) and ephemeris.v_sun ({v_sun}) must be equal: "
            "both are the Sun's speed through the halo, so set them together"
        )
    return RunConfig(**sections)


def load_config(path, overrides=(), subcommand=None) -> tuple[RunConfig, dict]:
    """Read a config file, or a run manifest, and apply --set overrides.

    path None means no file: the defaults.  Returns the validated
    RunConfig and the arguments a manifest carries for subcommand; a
    plain config file carries none, and a manifest of another
    subcommand lends its config only.  The top-level seed of a manifest
    written before the seed moved into noise.seed is folded into
    noise.seed ahead of the overrides.
    """
    data, run_args = {}, {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read ({exc})") from exc
        if isinstance(data, dict) and data.get("schema") == MANIFEST_SCHEMA:
            args = data.get("args", {})
            if not isinstance(args, dict):
                raise ConfigError(f"{path}: manifest args must be an object")
            seed = data.get("seed")
            if seed is not None and (
                isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
            ):
                raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")
            if seed is not None:
                overrides = [f"noise.seed={seed}", *overrides]
            if data.get("subcommand", subcommand) == subcommand:
                run_args = args
            data = data.get("config", {})
    return build_config(apply_overrides(data, overrides)), run_args


def config_to_dict(cfg: RunConfig) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``section.key=value`` strings onto a config dictionary.

    Values parse as JSON literals, falling back to bare strings.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"configuration root must be an object, got {type(data).__name__}")
    result = json.loads(json.dumps(data))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        parts = key.strip().split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key {key!r} must be section.field")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        section = result.setdefault(parts[0], {})
        if not isinstance(section, dict):
            raise ConfigError(f"{parts[0]}: expected an object, got {type(section).__name__}")
        section[parts[1]] = value
    return result


def list_config_keys() -> list[str]:
    """Every dotted configuration key, with its default, for help text."""
    lines = []
    for name, factory in _SECTIONS.items():
        for f in dataclasses.fields(factory):
            default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
            lines.append(f"{name}.{f.name} (default: {default!r})")
    return lines
