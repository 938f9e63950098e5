"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

A workload is ``setup(seed, size, workdir) -> state`` plus ``ops(state)``,
a list of ``(name, run, check)``.  ``run(state)`` is one timed call into
axionkit's public API (it may leave results in ``state`` for later
operations); ``check(state, result)`` runs untimed and returns a list of
problems, empty when the output is correct.

Statistical tolerances are set for the full size and widen as
``sqrt(full samples / samples)`` at the smoke size, so the estimators
are held to the same number of standard deviations at both.

Why each workload exists:

* ``figures`` is what users run: the seven ``scripts/make_figures.py``
  CLI invocations with that script's seed, then the README's
  measured-data path (``TimeSeries.to_csv`` on a 240-day, 60 s record,
  then ``axionkit triplet --data``).  CSV writing and reading dominate,
  and no array exceeds 350k samples, so it shows changes to I/O, the CLI
  and ``svgplot``, and should show none from heterodyne or year-scale
  work.
* ``year-search`` runs one year at dt = 10 s (3,155,760 samples, 25 MB
  per array, far above L2) through projection, synthesis with readout,
  a one-segment periodogram, the three-line statistic and a binary round
  trip.  No CSV and no heterodyne: it is the workload for memory and for
  the triplet phasors.
* ``carrier-scan`` heterodynes a 400,000-sample, 10 kHz record with a
  known tone at 160, 80 and 40 Hz bands (1,257, 2,511 and 5,021 taps,
  so the filter-length scaling shows), and computes ``g_min_curve`` on
  a 5,000-point mass grid in each gain mode plus ``dfsz_band``.  No
  year-scale arrays and no CSV: it is the workload for heterodyne and
  for the per-mass scalar loop.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from axionkit import cli, geometry, sensitivity, signals, spectral
from axionkit.config import build_config
from axionkit.constants import OMEGA_ANNUAL, OMEGA_SIDEREAL, YEAR_S
from axionkit.timeseries import TimeSeries


def _finite_problems(label: str, values) -> list:
    values = np.asarray(values)
    if values.size == 0:
        return [f"{label}: empty"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: {int(np.sum(~np.isfinite(values)))} non-finite values"]
    return []


def _csv_problems(path: Path) -> list:
    """A CSV artifact must parse, and each numeric column must be finite."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if len(rows) < 2:
        return [f"{path.name}: no data rows"]
    header, body = rows[0], rows[1:]
    problems = []
    for col, name in enumerate(header):
        cells = [row[col] if col < len(row) else "" for row in body]
        try:
            values = np.array([float(cell) for cell in cells])
        except ValueError:
            try:
                float(cells[0])
            except ValueError:
                continue  # a label column such as regime or component
            problems.append(f"{path.name}:{name}: unparsable cell")
            continue
        problems += _finite_problems(f"{path.name}:{name}", values)
    return problems


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_check(outdir: str):
    def check(state, code) -> list:
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        for path in sorted((state["workdir"] / outdir).glob("*.csv")):
            problems += _csv_problems(path)
        return problems

    return check


def _tolerance(full: float, n_full: int, n: int) -> float:
    return full * math.sqrt(n_full / n)


# --------------------------------------------------------------- figures

FIGURE_SEED = 20250810  # the seed scripts/make_figures.py passes
FIGURE_RUNS = {
    "full": [
        ("envelope", ["--span-days", "366"]),
        ("daily-rms", ["--trials", "24"]),
        ("psd", []),
        ("triplet", ["--span-days", "240"]),
        ("linewidth", ["--masses", "1,5,10"]),
        ("sensitivity", ["--preset", "current", "--gains", "all"]),
        ("sensitivity", ["--preset", "future", "--gains", "all"]),
    ],
    "tiny": [
        ("envelope", ["--span-days", "20"]),
        ("daily-rms", ["--trials", "2"]),
        ("psd", ["--span-days", "30"]),
        ("triplet", ["--span-days", "30"]),
        ("linewidth", ["--masses", "1"]),
        ("sensitivity", ["--preset", "current", "--gains", "all", "--mass-points", "10"]),
        ("sensitivity", ["--preset", "future", "--gains", "all", "--mass-points", "10"]),
    ],
}
# measured-data record: (days, dt in s); 240 days at 60 s is 345,600 rows
MEASURED = {"full": (240, 60.0), "tiny": (240, 1800.0)}
DEPTH_TOL = 0.03  # on epsilon_hat at the full size


def figures_setup(seed: int, size: str, workdir: Path) -> dict:
    """A stand-in for a measured record: the sidereal tone with a known
    annual depth and known phases, in white noise."""
    days, dt = MEASURED[size]
    n = int(days * 86400 / dt)
    rng = np.random.default_rng(seed)
    psi_daily, psi_annual = rng.uniform(0.0, 2.0 * np.pi, 2)
    depth = rng.uniform(0.1, 0.3)
    t = dt * np.arange(n)
    y = np.cos(OMEGA_SIDEREAL * t - psi_daily) * (
        1.0 + depth * np.cos(OMEGA_ANNUAL * t - psi_annual)
    ) + rng.normal(0.0, 1.0, n)
    record = TimeSeries(t0=0.0, dt=dt, samples=y, meta={"source": "perfbench", "seed": seed})
    n_full = int(MEASURED["full"][0] * 86400 / MEASURED["full"][1])
    return {
        "workdir": workdir,
        "size": size,
        "record": record,
        "psi": (psi_daily, psi_annual),
        "depth": depth,
        "depth_tol": _tolerance(DEPTH_TOL, n_full, n),
    }


def _measured_check(state, code) -> list:
    problems = _cli_check("07_triplet_data")(state, code)
    if problems:
        return problems
    record = json.loads((state["workdir"] / "07_triplet_data" / "triplet.json").read_text())
    error = abs(record["epsilon_hat"] - state["depth"])
    if not error <= state["depth_tol"]:
        problems.append(
            f"triplet --data: epsilon_hat {record['epsilon_hat']:.4f} vs injected "
            f"{state['depth']:.4f} (tolerance {state['depth_tol']:.3f})"
        )
    return problems


def _to_csv_check(state, _) -> list:
    path = state["workdir"] / "measured.csv"
    problems = _csv_problems(path)
    with open(path) as fh:
        rows = sum(1 for _ in fh) - 2
    if rows != state["record"].samples.size:
        problems.append(f"measured.csv: {rows} rows, expected {state['record'].samples.size}")
    return problems


def figures_ops(state: dict) -> list:
    ops = []
    for index, (sub, extra) in enumerate(FIGURE_RUNS[state["size"]]):
        outdir = f"{index:02d}_{sub}"
        argv = [sub, "--out", outdir, "--seed", str(FIGURE_SEED), *extra]
        ops.append((f"cli.{outdir}", lambda s, argv=argv: _run_cli(argv), _cli_check(outdir)))
    psi_daily, psi_annual = state["psi"]
    ops.append(("to_csv", lambda s: s["record"].to_csv("measured.csv"), _to_csv_check))
    argv = [
        "triplet", "--data", "measured.csv",
        "--psi-daily", repr(float(psi_daily)), "--psi-annual", repr(float(psi_annual)),
        "--out", "07_triplet_data", "--seed", str(FIGURE_SEED),
    ]
    ops.append(("cli.07_triplet_data", lambda s: _run_cli(argv), _measured_check))
    return ops


# ----------------------------------------------------------- year-search

YEAR_DT = {"full": 10.0, "tiny": 600.0}


def year_setup(seed: int, size: str, workdir: Path) -> dict:
    cfg = build_config({})
    dt = YEAR_DT[size]
    n = int(round(YEAR_S / dt))
    n_full = int(round(YEAR_S / YEAR_DT["full"]))
    return {
        "workdir": workdir,
        "cfg": cfg,
        "noise": dataclasses.replace(cfg.noise, seed=seed),
        "dt": dt,
        "t": dt * np.arange(n),
        "depth_tol": _tolerance(DEPTH_TOL, n_full, n),
    }


def _beta_check(state, beta) -> list:
    eph = state["cfg"].ephemeris
    limit = (eph.v_sun + eph.v_orbit) / state["cfg"].halo.v_ref
    problems = _finite_problems("beta_ratio", beta)
    if beta.shape != state["t"].shape:
        problems.append(f"beta_ratio: shape {beta.shape}")
    elif not problems and np.max(np.abs(beta)) > limit:
        problems.append(f"beta_ratio: |beta| {np.max(np.abs(beta))} above {limit}")
    return problems


def _synth(state):
    cfg = state["cfg"]
    state["ts"] = signals.synthesize_observable(
        cfg.geometry, cfg.ephemeris, cfg.axion, cfg.halo, cfg.qubit,
        state["noise"], YEAR_S, state["dt"], readout=True,
    )
    return state["ts"]


def _synth_check(state, ts) -> list:
    problems = _finite_problems("synthesis", ts.samples)
    if ts.samples.size != state["t"].size:
        problems.append(f"synthesis: {ts.samples.size} samples, expected {state['t'].size}")
    return problems


def _psd_check(state, spectrum) -> list:
    problems = _finite_problems("periodogram", spectrum.psd)
    if problems:
        return problems
    if np.min(spectrum.psd) < 0:
        problems.append("periodogram: negative density")
    # a one-segment rectangular periodogram integrates to the mean square
    power = float(np.sum(spectrum.psd) * spectrum.df)
    mean_square = float(np.mean(state["ts"].samples ** 2))
    if not abs(power - mean_square) <= 1e-9 * mean_square:
        problems.append(f"periodogram: integrates to {power}, mean square {mean_square}")
    return problems


def _triplet(state):
    coeffs = geometry.ModulationCoefficients(**state["ts"].meta["coefficients"])
    depth, psi_annual = coeffs.envelope_depth_and_phase
    state["depth"] = depth
    return spectral.triplet_statistic(
        state["ts"], state["cfg"].ephemeris, coeffs.phase_daily, psi_annual
    )


def _triplet_check(state, result) -> list:
    problems = _finite_problems("triplet", [result.epsilon_hat, result.x_star])
    if not problems and not abs(result.epsilon_hat - state["depth"]) <= state["depth_tol"]:
        problems.append(
            f"triplet: epsilon_hat {result.epsilon_hat:.4f} vs fitted depth "
            f"{state['depth']:.4f} (tolerance {state['depth_tol']:.3f})"
        )
    return problems


def _binary_check(state, back) -> list:
    ts = state["ts"]
    if back.t0 != ts.t0 or back.dt != ts.dt or back.meta != json.loads(json.dumps(ts.meta)):
        return ["binary round trip: header differs"]
    if not np.array_equal(back.samples, ts.samples):
        return ["binary round trip: samples differ"]
    return []


def year_ops(state: dict) -> list:
    cfg = state["cfg"]
    path = str(state["workdir"] / "year.bin")
    return [
        (
            "beta_ratio",
            lambda s: geometry.beta_ratio(s["t"], cfg.geometry, cfg.ephemeris, cfg.halo.v_ref),
            _beta_check,
        ),
        ("synthesize", _synth, _synth_check),
        (
            "periodogram",
            lambda s: spectral.periodogram(s["ts"], spectral.WindowSpec("rectangular", 0.0, 0.0)),
            _psd_check,
        ),
        ("triplet", _triplet, _triplet_check),
        ("to_binary", lambda s: s["ts"].to_binary(path), lambda s, r: []),
        ("from_binary", lambda s: TimeSeries.from_binary(path), _binary_check),
    ]


# ---------------------------------------------------------- carrier-scan

CARRIER = {  # samples, bands in Hz, mass-grid points
    "full": (400_000, (160.0, 80.0, 40.0), 5000),
    "tiny": (40_000, (640.0, 320.0, 160.0), 50),
}
CARRIER_FS = 10_000.0
AMPLITUDE_TOL = 0.03  # relative, at the full size
PHASE_TOL = 0.03  # rad, at the full size


def carrier_setup(seed: int, size: str, workdir: Path) -> dict:
    n, bands, points = CARRIER[size]
    rng = np.random.default_rng(seed)
    f_tone = rng.uniform(900.0, 1100.0)
    amplitude = rng.uniform(1.0, 2.0)
    phase = rng.uniform(-np.pi, np.pi)
    t = np.arange(n) / CARRIER_FS
    y = amplitude * np.cos(2.0 * np.pi * f_tone * t + phase) + rng.normal(0.0, 1.0, n)
    cfg = build_config({})
    gains = geometry.geometric_gains(cfg.geometry)
    n_full = CARRIER["full"][0]
    return {
        "workdir": workdir,
        "cfg": cfg,
        "record": TimeSeries(
            t0=0.0, dt=1.0 / CARRIER_FS, samples=y, meta={"source": "perfbench", "seed": seed}
        ),
        "tone": (f_tone, amplitude, phase),
        "tol": (_tolerance(AMPLITUDE_TOL, n_full, n), _tolerance(PHASE_TOL, n_full, n)),
        "bands": bands,
        "masses": np.geomspace(1.0, 10.0, points),
        "gains": {"none": None, "matched": gains.g_daily, "all": gains},
        "g_total": gains.g_total,
        "curves": {},
    }


def _heterodyne_check(state, out) -> list:
    _, amplitude, phase = state["tone"]
    amp_tol, phase_tol = state["tol"]
    z = out.samples
    problems = _finite_problems("heterodyne", z)
    if problems:
        return problems
    # the tone sits at the band centre, so the interior is A exp(i phase)
    interior = z[z.size // 10 : z.size - z.size // 10]
    estimate = complex(np.mean(interior))
    phase_error = abs(math.remainder(math.atan2(estimate.imag, estimate.real) - phase, 2 * math.pi))
    if not abs(abs(estimate) / amplitude - 1.0) <= amp_tol:
        problems.append(f"heterodyne: amplitude {abs(estimate):.4f} vs {amplitude:.4f}")
    if not phase_error <= phase_tol:
        problems.append(f"heterodyne: phase off by {phase_error:.4f} rad")
    return problems


def _g_min(mode):
    def run(state):
        cfg = state["cfg"]
        curve = sensitivity.g_min_curve(
            state["masses"], cfg.qubit, cfg.halo, cfg.search, gains=state["gains"][mode]
        )
        state["curves"][mode] = curve.g_min
        return curve

    return run


def _g_min_check(state, curve) -> list:
    problems = _finite_problems("g_min", curve.g_min)
    if not problems and np.min(curve.g_min) <= 0:
        problems.append("g_min: non-positive value")
    curves = state["curves"]
    if not problems and len(curves) == 3:
        # gains divide the curve uniformly
        ratio = curves["none"] / curves["all"]
        if not np.allclose(ratio, state["g_total"], rtol=1e-12, atol=0.0):
            problems.append("g_min: baseline/all-gains ratio is not the total gain")
    return problems


def _dfsz_check(state, band) -> list:
    lo, hi, bench = band
    problems = _finite_problems("dfsz_band", np.concatenate([lo, hi, bench]))
    if not problems and not (np.all(lo > 0) and np.all(lo <= bench) and np.all(bench <= hi)):
        problems.append("dfsz_band: band not ordered around the benchmark")
    return problems


def carrier_ops(state: dict) -> list:
    f_tone = state["tone"][0]
    ops = [
        (
            f"heterodyne_{band:g}hz",
            lambda s, band=band: signals.heterodyne(s["record"], f_tone, band),
            _heterodyne_check,
        )
        for band in state["bands"]
    ]
    ops += [(f"g_min_{mode}", _g_min(mode), _g_min_check) for mode in ("none", "matched", "all")]
    ops.append(("dfsz_band", lambda s: sensitivity.dfsz_band(s["masses"]), _dfsz_check))
    return ops


WORKLOADS = {
    "figures": (figures_setup, figures_ops),
    "year-search": (year_setup, year_ops),
    "carrier-scan": (carrier_setup, carrier_ops),
}


def artifact_digests(workdir: Path) -> dict:
    """sha256 of every file a pass left behind, keyed by relative path."""
    digests = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digests[str(path.relative_to(workdir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests

