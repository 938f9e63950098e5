"""Span tracer that wraps axionkit's public functions from outside the package.

Each traced layer is a public function.  It is replaced by a wrapper at
every place it is bound: module attributes such as ``geometry.beta_ratio``
(which ``signals`` calls through), names another module imported directly
(``cli`` binds ``shm_lineshape``), and methods on ``TimeSeries``.  Spans
(name, start, end, parent) and their counts stay in memory until
``dump``.  Functions called once per mass or per sample inside a layer,
such as ``sensitivity.trials_threshold``, are deliberately not wrapped,
so tracing adds only a few wrapper calls per layer call.

Layers listed in ``ALLOC_LAYERS`` also record the tracemalloc peak inside
the span.  tracemalloc runs only while such a span is open, so the
row-wise CSV code elsewhere is not slowed by allocation tracing.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

MIB = float(2**20)

# layer name -> (module, attribute path inside it)
LAYERS = {
    "cli.main": ("axionkit.cli", "main"),
    "timeseries.to_csv": ("axionkit.timeseries", "TimeSeries.to_csv"),
    "timeseries.from_csv": ("axionkit.timeseries", "TimeSeries.from_csv"),
    "timeseries.to_binary": ("axionkit.timeseries", "TimeSeries.to_binary"),
    "timeseries.from_binary": ("axionkit.timeseries", "TimeSeries.from_binary"),
    "svgplot.line_plot": ("axionkit.svgplot", "line_plot"),
    "halo.shm_lineshape": ("axionkit.halo", "shm_lineshape"),
    "geometry.daily_envelope": ("axionkit.geometry", "daily_envelope"),
    "geometry.daily_rms": ("axionkit.geometry", "daily_rms"),
    "geometry.beta_ratio": ("axionkit.geometry", "beta_ratio"),
    "geometry.fit_modulation_coefficients": ("axionkit.geometry", "fit_modulation_coefficients"),
    "signals.synthesize_observable": ("axionkit.signals", "synthesize_observable"),
    "signals.white_noise": ("axionkit.signals", "white_noise"),
    "signals.pink_noise": ("axionkit.signals", "pink_noise"),
    "signals.telegraph_noise": ("axionkit.signals", "telegraph_noise"),
    "signals.readout_channel": ("axionkit.signals", "readout_channel"),
    "signals.heterodyne": ("axionkit.signals", "heterodyne"),
    "spectral.periodogram": ("axionkit.spectral", "periodogram"),
    "spectral.triplet_statistic": ("axionkit.spectral", "triplet_statistic"),
    "sensitivity.g_min_curve": ("axionkit.sensitivity", "g_min_curve"),
    "sensitivity.dfsz_band": ("axionkit.sensitivity", "dfsz_band"),
}

ALLOC_LAYERS = {
    "geometry.beta_ratio",
    "signals.synthesize_observable",
    "spectral.triplet_statistic",
    "signals.heterodyne",
}


# layer name -> {count name: fn(args, result) -> int}; a count is summed
# over the layer's calls in one pass
def _samples_arg0(args, result):
    return int(np.size(args[0]))


COUNTERS = {
    "geometry.beta_ratio": {"samples": _samples_arg0},
    "signals.synthesize_observable": {"samples": lambda a, r: int(r.samples.size)},
    "signals.heterodyne": {
        "samples": lambda a, r: int(a[0].samples.size),
        "numtaps": lambda a, r: int(r.meta["heterodyne"]["numtaps"]),
    },
    "timeseries.to_csv": {"rows": lambda a, r: int(a[0].samples.size)},
    "timeseries.from_csv": {"rows": lambda a, r: int(r.samples.size)},
    "sensitivity.g_min_curve": {"masses": _samples_arg0},
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, alloc MiB or None, counts]
        self.spans = []
        self._open = []  # indices of spans still running
        self._alloc = []  # per open alloc span: [base bytes, peak bytes seen]

    def _alloc_enter(self):
        owner = not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc:
            # keep the enclosing span's peak before the reset discards it
            self._alloc[-1][1] = max(self._alloc[-1][1], peak)
        tracemalloc.reset_peak()
        self._alloc.append([current, current, owner])

    def _alloc_exit(self) -> float:
        base, seen, owner = self._alloc.pop()
        _, peak = tracemalloc.get_traced_memory()
        top = max(seen, peak)
        if self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], top)
        if owner:
            tracemalloc.stop()
        return (top - base) / MIB

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        track_alloc = name in ALLOC_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, None, {}]
            self.spans.append(span)
            self._open.append(index)
            if track_alloc:
                self._alloc_enter()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if track_alloc:
                    span[4] = self._alloc_exit()
                self._open.pop()
            for count, get in counters.items():
                span[5][count] = get(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "alloc_mb", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Replace every traced function at each place it is bound."""
    import axionkit.cli  # noqa: F401  (loads every module that binds a layer)

    modules = [m for n, m in sys.modules.items() if n == "axionkit" or n.startswith("axionkit.")]
    for name, (module_name, attr) in LAYERS.items():
        owner = sys.modules[module_name]
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, leaf, tracer.wrap(name, raw))
            continue
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(name, original)
        bound = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{name}: no binding found to wrap")


def layer_stats(spans) -> dict:
    """Per-layer self time, calls, alloc peak and counts of one pass.

    self_s is a span's duration minus the time its direct child spans
    cover; calls never overlap in this single-threaded program, so the
    children's durations simply add up.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    stats = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(
            span["name"], {"self_s": 0.0, "calls": 0, "alloc_mb": 0.0, "counts": {}}
        )
        entry["self_s"] += span["end"] - span["start"] - child_time[index]
        entry["calls"] += 1
        if span["alloc_mb"] is not None:
            entry["alloc_mb"] = max(entry["alloc_mb"], span["alloc_mb"])
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return stats
