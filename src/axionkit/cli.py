"""Command-line front end: regenerate every figure dataset from a config.

Each subcommand writes CSV (authoritative), JSON records, optional SVG
inspection plots, and a run manifest that echoes the fully resolved
configuration and subcommand arguments, and records the axionkit, numpy,
python and scipy versions and numpy's SIMD dispatch (its baseline and the
CPU features found) that byte identity depends on.  Passing a
manifest back as --config reproduces the artifacts byte for byte; the
versions are not read back, so older manifests without some of them
still load.

--seed N and --formats a,b are spellings of the configuration keys
noise.seed and output.formats (--set noise.seed=N, --set
output.formats=[...]), applied after every --set, so the manifest
records the seed once, in config.noise.seed.  Each subcommand argument
is declared once in _COMMANDS with the parser that checks its domain,
and resolved from the command line, then the manifest's args (when the
manifest is of the same subcommand), then its default.

A subcommand computes and returns its artifacts as {name: write(path)}
without touching the file system; main writes them and the manifest
into a staging directory and moves each into --out only when all were
written.  Any non-zero exit leaves --out as it was.

Exit codes: 0 success, 2 configuration error, 3 numerical or I/O failure.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from . import __version__, geometry, sensitivity, signals, spectral, svgplot
from .config import (
    MANIFEST_SCHEMA,
    ConfigError,
    RunConfig,
    config_to_dict,
    list_config_keys,
    load_config,
)
from .constants import SIDEREAL_DAY_S, YEAR_S, uev_to_hz
from .halo import fractional_linewidth_v0, lineshape_support, shm_lineshape
from .timeseries import TimeSeries, write_columns


# artifact writers: each returns write(path) for main to call when publishing
def _csv(header: str, columns):
    return lambda path: write_columns(path, header, columns)


def _json(record: dict):
    return lambda path: path.write_text(
        json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def _svg(curves, **kwargs):
    return lambda path: svgplot.line_plot(path, curves, **kwargs)


def _daily_rms_debiased(samples: np.ndarray, per_day: int, noise_var: float) -> np.ndarray:
    n_days = samples.size // per_day
    chunks = samples[: n_days * per_day].reshape(n_days, per_day)
    power = np.mean(chunks**2, axis=1) - noise_var
    return np.sqrt(np.clip(power, 1e-30, None))


def _check_args(names: str, check, *values) -> None:
    """Run a library check on argument values before any computation:
    its ValueError becomes a ConfigError (exit 2) naming the arguments."""
    try:
        check(*values)
    except ValueError as exc:
        raise ConfigError(f"{names}: {exc}") from None


# peak bytes of a run per unit of its size (numpy 2.4): the slope of
# ru_maxrss between fresh processes at two sizes, which sees the C-level
# buffers that tracemalloc misses, with headroom (test_fresh_process holds
# each slope under its constant).  A sensitivity grid's mass: 1,008-1,083
# bytes between 20,000 and 400,000 mass points.  A linewidth line shape of
# _LINEWIDTH_ROWS rows: 168,800 bytes from 50 to 200 masses and 154,000-
# 158,000 between 200 and 1,600, 18 % under the constant at the steepest
_BYTES_PER_MASS = 1200
_LINEWIDTH_ROWS = 1500
_BYTES_PER_SHAPE = 200_000


def _synthesis_args(args: dict) -> tuple[float, float]:
    """The span (s) and dt of a psd or triplet record, checked."""
    span_s, dt = args["span-days"] * 86400.0, args["dt"]
    _check_args("args.span-days and args.dt", signals.check_record, span_s, dt)
    return span_s, dt


def cmd_envelope(cfg: RunConfig, args: dict) -> dict:
    span_days, dt = args["span-days"], args["dt"]
    span_s = span_days * SIDEREAL_DAY_S
    # the larger of the span/dt samples and the span_days daily rows
    _check_args(
        "args.span-days and args.dt", signals.check_size,
        span_s / min(dt, SIDEREAL_DAY_S), signals.BYTES_PER_SAMPLE, "samples",
    )
    coeffs = geometry.modulation_coefficients(cfg.geometry, cfg.ephemeris)

    days = np.arange(0.0, span_days)
    lo, hi = geometry.daily_envelope(days + 0.5, coeffs)
    t = np.arange(0.0, span_s, dt)
    beta_abs = np.abs(
        geometry.beta_ratio(t, cfg.geometry, cfg.ephemeris, cfg.ephemeris.v_sun)
    )
    stride = max(1, t.size // 8000)
    return {
        "envelope_daily.csv": _csv("day,env_min,env_max", (days.astype(int), lo, hi)),
        "beta_instantaneous.csv": _csv("t_s,abs_beta_ratio", (t, beta_abs)),
        "coefficients.json": _json(
            {"schema": "axionkit-coefficients/1", **dataclasses.asdict(coeffs)}
        ),
        "envelope.svg": _svg(
            [
                {"x": t[::stride] / SIDEREAL_DAY_S, "y": beta_abs[::stride], "label": "|signal|"},
                {"x": days, "y": np.abs(hi), "label": "envelope max"},
            ],
            xlabel="sidereal day",
            ylabel="normalized amplitude",
            title="daily modulation and its annual envelope",
        ),
    }


def cmd_daily_rms(cfg: RunConfig, args: dict) -> dict:
    trials, per_day = args["trials"], args["samples-per-day"]
    band_sigma = args["band-sigma"]
    dt = SIDEREAL_DAY_S / per_day
    _check_args("args.samples-per-day", signals.check_record, YEAR_S, dt)
    _check_args(
        "args.trials", signals.check_size, trials * YEAR_S / dt, signals.BYTES_PER_SAMPLE, "samples"
    )
    coeffs = geometry.modulation_coefficients(cfg.geometry, cfg.ephemeris)

    days = np.arange(0.0, 365.0)
    theory = geometry.daily_rms(days + 0.5, coeffs)
    theory_norm = theory / np.mean(theory)

    child_seeds = np.random.SeedSequence(cfg.noise.seed).generate_state(trials)
    per_trial = []
    for child in child_seeds:
        noise = dataclasses.replace(cfg.noise, seed=int(child))
        ts = signals.synthesize_observable(
            cfg.geometry, cfg.ephemeris, cfg.axion, cfg.halo, cfg.qubit,
            noise, YEAR_S, dt, coeffs=coeffs, readout=True,
        )
        rms = _daily_rms_debiased(
            ts.samples, per_day, ts.meta["noise_var_realized"]
        )[: days.size]
        per_trial.append(rms / np.mean(rms))
    per_trial = np.array(per_trial)
    mc_mean = per_trial.mean(axis=0)
    mc_sigma = per_trial.std(axis=0, ddof=1)
    # a band past the float range is left out of the plot, which drops
    # non-finite points
    with np.errstate(over="ignore"):
        band_hi, band_lo = mc_mean + band_sigma * mc_sigma, mc_mean - band_sigma * mc_sigma

    return {
        "daily_rms.csv": _csv(
            "day,theory_norm,mc_mean,mc_sigma,trial0",
            (days.astype(int), theory_norm, mc_mean, mc_sigma, per_trial[0]),
        ),
        "daily_rms.svg": _svg(
            [
                {"x": days, "y": theory_norm, "label": "geometry only"},
                {"x": days, "y": mc_mean, "label": "ensemble mean", "markers": True},
                {"x": days, "y": band_hi, "label": f"+{band_sigma:g} sigma"},
                {"x": days, "y": band_lo, "label": f"-{band_sigma:g} sigma"},
            ],
            xlabel="sidereal day",
            ylabel="normalized daily RMS",
            title="daily RMS with readout and noise",
        ),
    }


def cmd_psd(cfg: RunConfig, args: dict) -> dict:
    ts = signals.synthesize_observable(
        cfg.geometry, cfg.ephemeris, cfg.axion, cfg.halo, cfg.qubit,
        cfg.noise, *_synthesis_args(args),
    )
    window = spectral.WindowSpec("rectangular", 0.0, 0.0)
    spectrum = spectral.periodogram(ts, window)

    f_star = cfg.ephemeris.omega_sidereal / (2 * np.pi)
    f_a = cfg.ephemeris.omega_annual / (2 * np.pi)
    # f_star +/- 10 f_a, widened to +/- 2 df where the bins are coarser, so
    # that the zoom holds at least three bins on any record
    half = max(10 * f_a, 2 * spectrum.df)
    zoom = (spectrum.frequencies > f_star - half) & (spectrum.frequencies < f_star + half)
    return {
        "psd.csv": _csv("f_hz,psd", (spectrum.frequencies, spectrum.psd)),
        "psd_markers.json": _json(
            {
                "schema": "axionkit-psd-markers/1",
                "f_star_hz": f_star,
                "f_plus_hz": f_star + f_a,
                "f_minus_hz": f_star - f_a,
                "annual_splitting_hz": f_a,
                "delta_f_window_hz": spectrum.df,
                "resolvable": spectrum.df < f_a,
            }
        ),
        "psd.svg": _svg(
            [{"x": (spectrum.frequencies[zoom] - f_star) / f_a, "y": spectrum.psd[zoom]}],
            xlabel="(f - f_sidereal) / f_annual",
            ylabel="PSD (1/Hz)",
            title="baseband PSD around the sidereal line",
            ylog=True,
        ),
    }


def cmd_triplet(cfg: RunConfig, args: dict) -> dict:
    data_path = args["data"]
    psi_daily, psi_annual = args["psi-daily"], args["psi-annual"]

    if data_path is not None:
        if psi_daily is None or psi_annual is None:
            raise ConfigError(
                "triplet on supplied data needs the ephemeris phases: "
                "pass --psi-daily and --psi-annual"
            )
        ts = TimeSeries.from_csv(data_path)
    else:
        ts = signals.synthesize_observable(
            cfg.geometry, cfg.ephemeris, cfg.axion, cfg.halo, cfg.qubit,
            cfg.noise, *_synthesis_args(args),
        )
        coeffs = geometry.ModulationCoefficients(**ts.meta["coefficients"])
        if psi_daily is None:
            psi_daily = coeffs.phase_daily
        if psi_annual is None:
            _, psi_annual = coeffs.envelope_depth_and_phase

    result = spectral.triplet_statistic(ts, cfg.ephemeris, psi_daily, psi_annual)
    return {
        "triplet.json": _json(
            {
                "schema": "axionkit-triplet/2",
                **dataclasses.asdict(result),
                "psi_daily": float(psi_daily),
                "psi_annual": float(psi_annual),
            }
        ),
        "triplet.csv": _csv(
            "component,frequency_hz,power",
            (
                ("star", "plus", "minus"),
                (result.f_star, result.f_plus, result.f_minus),
                (result.x_star, result.x_plus, result.x_minus),
            ),
        ),
    }


def cmd_linewidth(cfg: RunConfig, args: dict) -> dict:
    masses = args["masses"].values
    _check_args("args.masses", signals.check_size, len(masses), _BYTES_PER_SHAPE, "line shapes")
    blocks = []
    curves = []
    for mass in masses:
        nu_a = uev_to_hz(mass)
        lo, hi = lineshape_support(nu_a, cfg.halo)
        span = (hi - lo) * 1.05
        offsets = np.linspace(-0.02 * span, span, _LINEWIDTH_ROWS)
        density = shm_lineshape(nu_a + offsets, nu_a, cfg.halo)
        blocks.append((np.full(offsets.size, mass), offsets, density))
        curves.append({"x": offsets, "y": density, "label": f"{mass:g} ueV"})
    return {
        "linewidth.csv": _csv("mass_uev,offset_hz,density_per_hz", np.hstack(blocks)),
        "linewidth_meta.json": _json(
            {
                "schema": "axionkit-linewidth/1",
                "masses_uev": masses,
                "fractional_scale_width": fractional_linewidth_v0(cfg.halo),
                "halo": dataclasses.asdict(cfg.halo),
            }
        ),
        "linewidth.svg": _svg(
            curves,
            xlabel="frequency offset from line origin (Hz)",
            ylabel="density (1/Hz)",
            title="halo line shapes",
        ),
    }


def cmd_sensitivity(cfg: RunConfig, args: dict) -> dict:
    preset, gains_mode = args["preset"], args["gains"]
    _check_args(
        "args.mass-points", signals.check_size, args["mass-points"], _BYTES_PER_MASS, "mass points"
    )
    if args["mass-points"] > 1 and not args["mass-min"] < args["mass-max"]:
        raise ConfigError(
            f"args.mass-min and args.mass-max: a grid of {args['mass-points']} masses "
            "needs mass-min below mass-max"
        )
    masses = np.geomspace(args["mass-min"], args["mass-max"], args["mass-points"])
    # the segment, so the trial count, shrinks with mass: the largest one fails first
    _check_args(
        f"args.mass-{'max' if masses.size > 1 else 'min'} and search.bandwidth_hz",
        sensitivity.trials_threshold, uev_to_hz(masses[-1]), cfg.search, cfg.halo,
    )
    qubit = cfg.qubit if preset == "config" else sensitivity.PRESETS[preset]

    gains = geometry.geometric_gains(cfg.geometry)
    gain_for = {"none": 1.0, "matched": gains.g_daily, "all": gains.g_total}
    gain_record = {"total": gain_for[gains_mode]}
    if gains_mode == "all":
        gain_record.update(matched_weighting=gains.g_daily, three_axis=gains.g_three_axis,
                           resource_sqrt_n=math.sqrt(gains.n_axes))
    curves = sensitivity.g_min_curve(masses, qubit, cfg.halo, cfg.search, list(gain_for.values()))
    row = list(gain_for).index(gains_mode)
    shm, flat = curves.g_min[row], curves.g_min_flat[row]
    baseline, matched, all_gains = curves.g_min
    dfsz_lo, dfsz_hi, dfsz_bench = sensitivity.dfsz_band(masses)
    return {
        "sensitivity_shm.csv": _csv("m_a_uev,g_min,regime", (masses, shm, curves.regime)),
        "sensitivity_flat.csv": _csv("m_a_uev,g_min,regime", (masses, flat, ["flat"] * len(flat))),
        "sensitivity_variants.csv": _csv(
            "m_a_uev,g_min_baseline,g_min_matched,g_min_all_gains,regime",
            (masses, baseline, matched, all_gains, curves.regime),
        ),
        "dfsz.csv": _csv(
            "m_a_uev,g_low,g_high,g_tan_beta_1", (masses, dfsz_lo, dfsz_hi, dfsz_bench)
        ),
        "sensitivity.json": _json(
            {
                "schema": "axionkit-sensitivity/3",
                "preset": preset,
                "gains_mode": gains_mode,
                "gains": gain_record,
                "config": {
                    **dataclasses.asdict(cfg.search), "qubit": dataclasses.asdict(qubit),
                    "halo": dataclasses.asdict(cfg.halo),
                },
            }
        ),
        "sensitivity.svg": _svg(
            [
                {"x": masses, "y": baseline, "label": "baseline"},
                {"x": masses, "y": matched, "label": "matched weighting"},
                {"x": masses, "y": all_gains, "label": "all gains"},
                {"x": masses, "y": dfsz_bench, "label": "benchmark model"},
            ],
            xlabel="mass (ueV)",
            ylabel="minimum detectable coupling",
            title=f"coupling sensitivity ({preset})",
            xlog=True,
            ylog=True,
        ),
    }


def _parser(convert, accept, domain: str):
    """Parse one argument's string with convert; ValueError unless
    accept(value).  domain names the accepted values in --help and in
    the error."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise ValueError(domain)
        return value

    parse.domain = domain
    return parse


class _Masses(str):
    """--masses text as given, for the manifest, with its parsed values."""

    def __init__(self, text: str):
        self.values = [float(m) for m in text.split(",")]


def _positive(value: float) -> bool:
    return 0.0 < value < math.inf


def _at_least(low: int):
    return _parser(int, lambda value: value >= low, f"an integer >= {low}")


def _one_of(*names: str):
    return _parser(str, lambda value: value in names, "one of " + ", ".join(names))


_FINITE = _parser(float, math.isfinite, "a finite number")
_POSITIVE = _parser(float, _positive, "a positive number")
# shm_lineshape's normalization x0**1.5 leaves the double range below about
# 1e-217 and above 1e203 ueV at the default halo (infinite or no density);
# these bounds keep it inside for every halo.v0 from 1 km/s to c
_MASSES = _parser(
    _Masses,
    lambda m: all(1e-150 <= value <= 1e150 for value in m.values),
    "comma-separated numbers from 1e-150 to 1e150",
)
_DT_HELP = "sample spacing in seconds"

# subcommand -> (function, help, ((argument, parser, default, help), ...))
_COMMANDS = {
    "envelope": (
        cmd_envelope,
        "daily min/max envelope and instantaneous amplitude over a year",
        (
            ("span-days", _POSITIVE, 366.0, "record length in sidereal days"),
            ("dt", _POSITIVE, 600.0, _DT_HELP),
        ),
    ),
    "daily-rms": (
        cmd_daily_rms,
        "geometry-only daily RMS against noisy Monte-Carlo observations",
        (
            ("trials", _at_least(2), 16, "Monte-Carlo ensemble size"),
            ("samples-per-day", _at_least(1), 48, "samples per sidereal day"),
            ("band-sigma", _POSITIVE, 5.0, "band half-width in ensemble sigmas"),
        ),
    ),
    "psd": (
        cmd_psd,
        "baseband power spectral density with the annual-splitting markers",
        (
            ("span-days", _POSITIVE, 4 * 365.25, "record length in days of 86,400 s"),
            ("dt", _POSITIVE, 1000.0, _DT_HELP),
        ),
    ),
    "triplet": (
        cmd_triplet,
        "heterodyned three-line statistics and annual-depth estimate",
        (
            ("data", _parser(str, bool, "a file path"), None,
             "CSV time series to analyze instead of synthesizing"),
            ("psi-daily", _FINITE, None, "sidereal phase (rad)"),
            ("psi-annual", _FINITE, None, "annual envelope phase (rad)"),
            ("span-days", _POSITIVE, 240.0, "synthesized record length in days of 86,400 s"),
            ("dt", _POSITIVE, 1800.0, _DT_HELP),
        ),
    ),
    "linewidth": (
        cmd_linewidth,
        "halo line shapes for a list of masses",
        (("masses", _MASSES, "1,5,10", "masses in ueV"),),
    ),
    "sensitivity": (
        cmd_sensitivity,
        "coupling sensitivity curves with gain and preset variants",
        (
            ("preset", _one_of("config", *sensitivity.PRESETS), "config", "qubit parameters"),
            ("gains", _one_of("none", "matched", "all"), "all", "geometric gains applied"),
            ("mass-min", _POSITIVE, 1.0, "grid start (ueV)"),
            ("mass-max", _POSITIVE, 10.0, "grid end (ueV)"),
            ("mass-points", _at_least(1), 50, "grid size"),
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    epilog = "configuration keys for --set:\n  " + "\n  ".join(list_config_keys())
    parser = argparse.ArgumentParser(
        prog="axionkit",
        description="regenerate the wind-modulation figure datasets",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"axionkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, spec) in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", help="JSON config file (or a previous run manifest)")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key, e.g. --set halo.v0=230",
        )
        p.add_argument("--seed", help="master noise seed: --set noise.seed=N")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--formats", help="comma-separated subset of csv,json,svg: --set output.formats"
        )
        for arg, parse, default, arg_help in spec:
            p.add_argument(
                f"--{arg}", help=f"{arg_help}; {parse.domain} (default: {default})"
            )
    return parser


def _resolve_args(spec, args: argparse.Namespace, manifest_args: dict) -> dict:
    """Each declared argument from the command line, else the manifest's
    args, else its default, passed through its parser."""
    resolved = {}
    for name, parse, default, _ in spec:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            value = manifest_args.get(name)
        if value is None:
            value = default
        if value is not None:
            try:
                value = parse(str(value))
            except ValueError as exc:
                raise ConfigError(
                    f"args.{name}: expected {parse.domain}, got {value!r}"
                ) from exc
        resolved[name] = value
    return resolved


def _publish(outdir: Path, artifacts: dict) -> None:
    """write(path) every artifact into a staging directory in outdir's
    nearest existing ancestor (so a missing outdir is created only on
    success), then move each into outdir.  The staging directory is
    always removed, so a failed write leaves outdir as it was, and its
    error names the artifact's place in outdir."""
    anchor = next(p for p in outdir.absolute().parents if p.is_dir())
    staging = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=anchor))
    try:
        for name, write in artifacts.items():
            try:
                write(staging / name)
            except Exception as exc:
                raise RuntimeError(str(exc).replace(str(staging), str(outdir))) from exc
        outdir.mkdir(parents=True, exist_ok=True)
        for name in artifacts:
            os.replace(staging / name, outdir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, _, spec = _COMMANDS[args.subcommand]
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"noise.seed={args.seed}")
    if args.formats is not None:
        overrides.append(f"output.formats={json.dumps(args.formats.split(','))}")
    try:
        cfg, manifest_args = load_config(args.config, overrides, args.subcommand)
        run_args = _resolve_args(spec, args, manifest_args)
        artifacts = {
            name: write
            for name, write in command(cfg, run_args).items()
            if Path(name).suffix[1:] in cfg.output.formats
        }
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "subcommand": args.subcommand,
            "config": config_to_dict(cfg),
            "args": run_args,
            "versions": {
                "axionkit": __version__,
                "numpy": np.__version__,
                "numpy_simd": simd["baseline"] + simd.get("found", []),
                "python": platform.python_version(),
                "scipy": scipy.__version__,
            },
            "outputs": sorted(artifacts),
        }
        artifacts["manifest.json"] = _json(manifest)
        outdir = Path(args.out or cfg.output.directory)
        _publish(outdir, artifacts)
    except (ConfigError, signals.UnrealizableNoiseError, geometry.GainUnboundedError) as exc:
        print(f"axionkit: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or I/O failure
        print(f"axionkit: {args.subcommand} failed: {exc}", file=sys.stderr)
        return 3
    for name in artifacts:
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
