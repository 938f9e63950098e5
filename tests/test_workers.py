import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from axionkit import TimeSeries, WindowSpec, workers
from axionkit import geometry as geo
from axionkit import signals as sig
from axionkit import spectral as spec


def force_workers(monkeypatch, count):
    """Run the pool with count workers, started afresh."""
    monkeypatch.setattr(workers, "_WORKERS", count)
    monkeypatch.setattr(workers, "_executor", None)


def pooled_outputs(site, eph):
    """The outputs of every pooled kernel, each over several of its blocks."""
    n = 3 * geo._CHUNK + 123
    t = 10.0 * np.arange(n)
    coeffs = geo.modulation_coefficients(site, eph, eph.v_sun)
    rng = np.random.default_rng(5)
    # 126,230 = 2 5 13 971 (one row block) and 730,500 = 2^2 3 5^3 487 (six)
    records = [rng.normal(size=n) for n in (126_230, 730_500)]
    analog = rng.normal(size=5 * sig._READOUT_BLOCK // 2)
    return [
        geo.beta_ratio(t, site, eph, 230.0),
        geo.modulation_model(-5e6, 10.0, n, coeffs),
        *(spec.periodogram(TimeSeries(0.0, 10.0, y, {"origin": "test"}),
                           WindowSpec("rectangular")).psd for y in records),
        sig.readout_channel(np.random.default_rng(6), analog, 10, 0.95, 0.9, 0.5),
    ]


class TestEach:
    def test_order_and_results(self, monkeypatch):
        force_workers(monkeypatch, 3)
        assert workers.each(lambda x: x * x, range(50)) == [x * x for x in range(50)]
        assert workers.each(lambda x: x, []) == []

    def test_raises_what_a_call_raised(self, monkeypatch):
        force_workers(monkeypatch, 2)

        def fail_on_three(x):
            if x == 3:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError):
            workers.each(fail_on_three, range(8))

    def test_nested_call_runs_inline(self, monkeypatch):
        force_workers(monkeypatch, 2)
        main = threading.get_ident()

        def outer(_):
            inner = workers.each(lambda _: threading.get_ident(), range(4))
            return threading.get_ident(), inner

        for ident, inner in workers.each(outer, range(6)):
            assert ident != main
            assert inner == [ident] * 4

    def test_one_worker_starts_no_pool(self, monkeypatch):
        force_workers(monkeypatch, 1)
        assert workers.each(lambda _: threading.get_ident(), range(4)) == [
            threading.get_ident()
        ] * 4
        assert workers._executor is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool(monkeypatch):
    # the child inherits no pool thread; mapping on the parent's pool hung
    force_workers(monkeypatch, 2)
    assert workers.each(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit, never back into pytest
        code = 1
        try:
            signal.alarm(20)
            code = 0 if workers.each(lambda x: x + 1, range(4)) == [1, 2, 3, 4] else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("count", [2, 3])
def test_same_bytes_at_any_worker_count(monkeypatch, site, eph, count):
    force_workers(monkeypatch, 1)
    serial = pooled_outputs(site, eph)
    force_workers(monkeypatch, count)
    pooled = pooled_outputs(site, eph)
    assert workers._executor._max_workers == count
    for one, many in zip(serial, pooled, strict=True):
        assert one.tobytes() == many.tobytes()


def _python(blas_threads: int, *args: str) -> str:
    """stdout of python run with args in a fresh process that imports
    axionkit from this tree, with OpenBLAS capped at blas_threads."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(workers.__file__).parents[1]),
        OPENBLAS_NUM_THREADS=str(blas_threads),
    )
    run = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _cli_digests(out: Path, blas_threads: int) -> dict:
    """sha256 of every file that psd and triplet write, run in fresh
    processes with OpenBLAS capped at blas_threads."""
    main = "import sys; from axionkit.cli import main; sys.exit(main(sys.argv[1:]))"
    # 1262.3 days at 864 s is 126,230 = 2 5 13 971 samples, a split length
    for argv in (["psd", "--span-days", "1262.3", "--dt", "864"],
                 ["triplet", "--span-days", "120"]):
        _python(blas_threads, "-c", main, *argv, "--out", str(out / argv[0]))
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def test_same_bytes_at_any_blas_thread_count(tmp_path):
    # the pool's blocks are fixed by the data, and so must be what BLAS and
    # LAPACK compute inside them: the fit's QR and the line sums' products
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
