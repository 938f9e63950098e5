"""Checks that need a fresh interpreter: what importing the CLI imports
and starts, a CLI run at numpy's baseline dispatch, the CLI's bytes and
the heterodyne's at one and two OpenBLAS threads, a spinning BLAS
worker, and peak RSS (ru_maxrss) against the byte budgets."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from axionkit import cli
from axionkit import signals as sig
from axionkit.constants import SIDEREAL_DAY_S, YEAR_S


def _python(blas_threads: int, *args: str, env: dict | None = None) -> str:
    """stdout of python run with args in a fresh process that imports
    axionkit from this tree, with OpenBLAS capped at blas_threads and
    env's variables set last, over this process's environment and
    those two."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(sig.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        **(env or {}),
    }
    run = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


_CLI_MAIN = "import sys; from axionkit.cli import main; sys.exit(main(sys.argv[1:]))"


def _cli_digests(out: Path, blas_threads: int) -> dict:
    """sha256 of every file that psd and triplet write, run in fresh
    processes with OpenBLAS capped at blas_threads."""
    # 1262.3 days at 864 s is 126,230 = 2 5 13 971 samples, a split length
    for argv in (["psd", "--span-days", "1262.3", "--dt", "864"],
                 ["triplet", "--span-days", "120"]):
        _python(blas_threads, "-c", _CLI_MAIN, *argv, "--out", str(out / argv[0]))
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def test_cli_import_skips_scipy_signal():
    # scipy.signal, which imports scipy.stats, costs about a second of
    # every process's start-up, and scipy.special and scipy.fft about 0.3 s
    # each; no subcommand needs any of them
    slow = ("scipy.signal", "scipy.stats", "scipy.special", "scipy.fft")
    code = f"import sys, axionkit.cli; print(sorted(m for m in {slow} if m in sys.modules))"
    assert _python(1, "-c", code).strip() == "[]"


def test_cli_import_starts_no_thread_pool(tmp_path):
    # the package starts no thread of its own, not even over a default psd
    # run's year-scale blocks; a thread pool would import concurrent.futures
    # (and with it logging) and leave its threads alive at exit
    code = (
        "import sys, threading, axionkit.cli; "
        "print('concurrent.futures' in sys.modules, threading.active_count()); "
        f"code = axionkit.cli.main(['psd', '--out', {str(tmp_path)!r}]); "
        "print(code, 'concurrent.futures' in sys.modules, threading.active_count())"
    )
    lines = _python(1, "-c", code).splitlines()
    assert lines[0] == "False 1"
    assert lines[-1] == "0 False 1"


def test_bessel_table_imports_scipy_special_when_called():
    code = (
        "import sys, axionkit.cli; from axionkit import signals; "
        "print('scipy.special' in sys.modules, signals.bessel_sideband_table(1.0, 1).tolist())"
    )
    assert _python(1, "-c", code).strip() == "False [0.7651976865579666, 0.44005058574493355]"


def test_cli_runs_at_baseline_dispatch(tmp_path):
    # with every dispatch target disabled numpy reports no "found" key,
    # and the manifest's numpy_simd is the baseline alone
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    disabled = [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *simd.get("found", [])]
    _python(1, "-c", _CLI_MAIN, "linewidth", "--masses", "1", "--out", str(tmp_path),
            env={"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["numpy_simd"] == simd["baseline"]


def test_same_bytes_at_any_blas_thread_count(tmp_path):
    # the kernels' blocks are fixed by the data, and so must be what BLAS
    # and LAPACK compute inside them: the fit's QR and the line sums' products
    one = _cli_digests(tmp_path / "one", 1)
    two = _cli_digests(tmp_path / "two", 2)
    assert len(one) == 7
    assert one == two


# a 400,000-sample, 10 kHz record of white noise, heterodyned at 1 kHz
_HETERODYNE = """
import hashlib, json, sys, time
import numpy as np
from axionkit import TimeSeries, signals
record = TimeSeries(0.0, 1e-4, np.random.default_rng(3).normal(size=400_000), {"kind": "noise"})
time.sleep(float(sys.argv[2]))
out = signals.heterodyne(record, 1000.0, float(sys.argv[1]))
before = time.process_time()
time.sleep(0.2)
print(json.dumps({
    "sha256": hashlib.sha256(out.samples.tobytes()).hexdigest(),
    "heterodyne": out.meta["heterodyne"],
    "spin_s": time.process_time() - before,
}))
"""


def _heterodyne(blas_threads: int, bandwidth: float, sleep_s: float = 0.0) -> dict:
    return json.loads(_python(blas_threads, "-c", _HETERODYNE, str(bandwidth), str(sleep_s)))


def test_heterodyne_same_bytes_at_any_blas_thread_count():
    # a 20 Hz band has 10,039 taps, so its zero-phase kernel has 20,077
    # points, past the length at which a BLAS dot product splits over threads
    one, two = (_heterodyne(count, 20.0) for count in (1, 2))
    assert one["heterodyne"]["numtaps"] == 10_039
    assert (one["sha256"], one["heterodyne"]) == (two["sha256"], two["heterodyne"])


def test_heterodyne_leaves_no_thread_spinning():
    # the sleep after import lets OpenBLAS's start-up spin end; a threaded
    # BLAS call in heterodyne left a worker busy-waiting for about 0.1 s
    spin_s = _heterodyne(2, 40.0, sleep_s=0.5)["spin_s"]
    assert spin_s < 0.02


# a 200,000-sample record of white noise through triplet_statistic, after
# a sleep that lets OpenBLAS's start-up spin end; the process CPU over
# the 0.2 s after it
_TRIPLET_SPIN = """
import json, time
import numpy as np
from axionkit import EphemerisConstants, TimeSeries, spectral
record = TimeSeries(0.0, 10.0, np.random.default_rng(3).normal(size=200_000), {"kind": "noise"})
time.sleep(0.5)
spectral.triplet_statistic(record, EphemerisConstants(), 0.0, 0.0)
before = time.process_time()
time.sleep(0.2)
print(json.dumps({"spin_s": time.process_time() - before}))
"""


def test_triplet_leaves_no_thread_spinning():
    # the line sums' product in one call, (49 x 4096) @ (4096 x 22) here,
    # woke OpenBLAS's second thread, which then spun for 0.115 s; in
    # slices of 8 blocks it stays on one thread
    spin_s = json.loads(_python(2, "-c", _TRIPLET_SPIN))["spin_s"]
    assert spin_s < 0.02


# the rise of peak RSS over one 1/f draw of n = argv[1] samples, in bytes
# (ru_maxrss counts KiB on Linux), after a small draw has loaded numpy.fft
_PINK_PEAK = """
import resource, sys
import numpy as np
from axionkit import signals
signals.pink_noise(np.random.default_rng(1), 1000, 10.0, 1e-3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
signals.pink_noise(np.random.default_rng(0), int(sys.argv[1]), 10.0, 1e-3)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
def test_pink_noise_peak_rss():
    # tracemalloc (test_memory_per_sample) cannot see pocketfft's buffers:
    # at this length np.fft.irfft held its own copy of the spectrum and a
    # work buffer on top of the spectrum and the output, a rise of 1.8 to
    # 2.25 times both (numpy 2.4.6); the blocked inverse's rise of 1.27
    # times both holds a few blocks and the draw's last half-record normal
    # temporary, which malloc may keep, within a headroom of 0.4 times both
    n = 1 << 21
    assert sig._fast_len(n, real=True) == n >= sig._BLOCKED_MIN
    spectrum, output = 16 * (n // 2 + 1), 8 * n
    rise = int(_python(1, "-c", _PINK_PEAK, str(n)))
    assert rise < 1.4 * (spectrum + output)


# peak RSS, in bytes, of `axionkit argv[1] --out argv[2] argv[3:]`
_CLI_PEAK = """
import contextlib, io, resource, sys
from axionkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main([sys.argv[1], "--out", *sys.argv[2:]])
if code:
    sys.exit(code)
print(1024 * resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _rss_slope(out: Path, subcommand: str, sizes, argv, units) -> float:
    """The slope of a fresh process's peak RSS per unit of a run's size,
    between the two sizes, each run as subcommand with argv(size), whose
    size guard counts units(size) units."""
    peaks = [
        int(_python(1, "-c", _CLI_PEAK, subcommand, str(out / str(size)), *argv(size)))
        for size in sizes
    ]
    return (peaks[1] - peaks[0]) / (units(sizes[1]) - units(sizes[0]))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
def test_linewidth_rss_slope_within_budget(tmp_path):
    # the size guard charges _BYTES_PER_SHAPE a line shape; the slope of
    # peak RSS was 168,800 B a shape from 50 to 200 masses and 154,000-
    # 158,000 B between 200, 400, 800 and 1,600 (numpy 2.4.6), headroom
    # of 18 % under 200,000 at the steepest
    def masses(n):
        return ["--masses", ",".join(f"{1 + k / n:g}" for k in range(n))]

    slope = _rss_slope(tmp_path, "linewidth", (50, 200), masses, lambda n: n)
    assert slope <= cli._BYTES_PER_SHAPE


# a record of span days at dt = 10 s (psd, triplet: days of 86,400 s;
# envelope: sidereal days) and its samples
def _record(span):
    return ["--span-days", str(span), "--dt", "10"]


_DAY_SAMPLES = {"psd": 8640, "triplet": 8640, "envelope": SIDEREAL_DAY_S / 10}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
@pytest.mark.parametrize("subcommand", ["sensitivity", "psd", "triplet", "envelope", "daily-rms"])
def test_rss_slope_within_budget(tmp_path, subcommand):
    # each size guard's bytes a unit against the slope of peak RSS between
    # two sizes (numpy 2.4.6, OpenBLAS on one thread):
    # - sensitivity, 20,000 to 100,000 mass points: 1,040 B a mass, 1,008-
    #   1,083 B between 20,000 and 400,000; _BYTES_PER_MASS 1,200 leaves
    #   11 % over the steepest;
    # - 12 and 46 days at dt = 10 s (103,680 and 397,440 samples, 103,397
    #   and 396,355 for envelope's sidereal days): triplet 40.6 B a
    #   sample, psd 28.8 and envelope 16, under BYTES_PER_SAMPLE 44,
    #   headroom 8 % for triplet; from 46 to 116 days triplet read 40.3 B
    # - daily-rms, 2 trials of a year at 96 and 960 samples a sidereal
    #   day, charged trials x YEAR_S / dt samples as its guard charges
    #   them: 23.4 B a sample, under BYTES_PER_SAMPLE 44
    if subcommand == "sensitivity":
        slope = _rss_slope(
            tmp_path, subcommand, (20_000, 100_000), lambda n: ["--mass-points", str(n)],
            lambda n: n,
        )
        assert slope <= cli._BYTES_PER_MASS
    elif subcommand == "daily-rms":
        slope = _rss_slope(
            tmp_path, subcommand, (96, 960),
            lambda per_day: ["--trials", "2", "--samples-per-day", str(per_day)],
            lambda per_day: 2 * YEAR_S * per_day / SIDEREAL_DAY_S,
        )
        assert slope <= sig.BYTES_PER_SAMPLE
    else:
        day = _DAY_SAMPLES[subcommand]
        slope = _rss_slope(tmp_path, subcommand, (12, 46), _record, lambda span: span * day)
        assert slope <= sig.BYTES_PER_SAMPLE
