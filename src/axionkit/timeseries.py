"""Uniformly sampled series with provenance metadata, plus file formats.

Two on-disk representations, both versioned:

* CSV, schema ``axionkit-timeseries/1``: one comment line holding the
  JSON metadata, a header row, then ``t,value`` rows (``t,re,im`` for
  complex data).
* binary, same schema tag: a single JSON header line followed by the raw
  little-endian sample bytes.

Readers check each file against its own header (``n``, ``t0``, ``dt``
and ``dtype`` fix the row count, the ``t`` column and the payload size)
and refuse NaN and infinite samples, as write_columns does.
"""

import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

TIMESERIES_SCHEMA = "axionkit-timeseries/1"

# largest |t_k - (t0 + k*dt)| a CSV time column may show, in units of dt
T_GRID_TOLERANCE = 1e-6


def canonical_json(obj) -> str:
    """Deterministic JSON text for hashing and manifests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def short_hash(obj) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


# rows per block of write_columns; a private constant that bounds the
# formatted text held at once
_BLOCK_ROWS = 16384


def _cells(column) -> list:
    values = np.asarray(column)
    if values.dtype.kind == "U":
        return values.tolist()
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return list(map(repr, values.astype(float, copy=False).tolist()))


def write_columns(path, header: str, columns, comment: str | None = None) -> None:
    """Write equal-length columns as CSV under a header row.

    Floats are written as their shortest round-trip ``repr``, integer
    arrays with ``str`` and strings unchanged, so a reader recovers every
    value exactly.  comment, when given, becomes a leading ``# `` line.
    Rows are formatted and written _BLOCK_ROWS at a time, so the text
    held in memory stays bounded whatever the table's length.

    A float column holding NaN or infinity, or columns of unequal
    length, raise ValueError naming the file, before the file is opened.
    """
    columns = [np.asarray(column) for column in columns]
    for name, values in zip(header.split(","), columns):
        if values.dtype.kind in "fc" and not np.all(np.isfinite(values)):
            bad = int(np.sum(~np.isfinite(values)))
            raise ValueError(f"{path}: column {name} has {bad} non-finite values")
    lengths = sorted({len(values) for values in columns})
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {lengths}")
    with open(path, "w") as fh:
        if comment is not None:
            fh.write("# " + comment + "\n")
        fh.write(header + "\n")
        for start in range(0, lengths[0], _BLOCK_ROWS):
            cells = [_cells(values[start : start + _BLOCK_ROWS]) for values in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def grid_phasor(omega, t0, dt, start, stop, phase=0.0, out=None) -> np.ndarray:
    """exp(i (omega t_k - phase)) on the grid t_k = t0 + k dt, start <= k < stop.

    The samples are taken in blocks of b = isqrt(size - 1) + 1: each is
    its block's phasor exp(i (omega (t0 + dt k_b) - phase)), for the
    block's first index k_b, times the in-block table exp(i omega dt j),
    0 <= j < b.  That is about 2 sqrt(size) complex exponentials and one
    complex multiply per sample, against a sine and a cosine per sample
    of the direct form.

    The block phases are formed in np.longdouble (64 significant bits on
    x86-64), so their rounding stays below double's resolution where the
    direct form's phase omega t_k is off by up to about |omega|
    ulp(max |t_k|).  The table's step omega dt adds at most |omega| dt b
    eps.  Where longdouble is double, the block phases round as the
    direct form does.

    out, when given, is a C-contiguous complex128 array of stop - start
    samples; the phasor is written into it and it is returned.
    """
    size = stop - start
    if out is None:
        out = np.empty(size, dtype=complex)
    if out.shape != (size,) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous complex128 array of {size} samples")
    if size == 0:
        return out
    b = math.isqrt(size - 1) + 1
    table = np.exp(1j * (omega * dt * np.arange(b, dtype=float)))
    first = start + b * np.arange(-(-size // b), dtype=np.longdouble)
    angle = omega * (t0 + dt * first) - phase
    # exp(i angle) as exp(i coarse) exp(i (angle - coarse)), both in double:
    # a longdouble exponential cost six times a double one
    coarse = angle.astype(float)
    blocks = np.exp(1j * coarse)
    blocks *= np.exp(1j * (angle - coarse).astype(float))
    whole = size // b
    np.multiply(blocks[:whole, None], table, out=out[: whole * b].reshape(whole, b))
    np.multiply(blocks[whole:], table[: size - whole * b], out=out[whole * b :])
    return out


def turns(r, d: int) -> np.ndarray:
    """exp(2 pi i r / d) for integers 0 <= r < d, r of d equal parts of a
    turn.  Each r is reduced exactly to r - d where 2 r > d, so the angle
    lies in [-pi, pi] and rounds once, whatever the size of r; a product
    of such phasors holds a twiddle factor exp(2 pi i k l / d) without a
    per-element sine of a large angle."""
    r = np.asarray(r, dtype=np.int64)
    angle = np.where(2 * r > d, r - d, r) * (2.0 * math.pi / d)
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _finite(value) -> bool:
    """A JSON number within the float range: NaN and the infinities fail."""
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


def _read_header(text: str) -> tuple[dict, np.dtype]:
    """The JSON header in text and its sample dtype; ValueError naming the
    key at fault unless it is an object holding every key, the schema, a
    dtype TimeSeries writes, a count n >= 0, a finite t0, a finite dt > 0
    and a meta object."""
    header = json.loads(text)
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    for key in ("schema", "t0", "dt", "n", "dtype", "meta"):
        if key not in header:
            raise ValueError(f"header has no {key!r} key")
    if header["schema"] != TIMESERIES_SCHEMA:
        raise ValueError(f"unsupported schema {header['schema']}")
    if header["dtype"] not in ("float64", "complex128"):
        raise ValueError(f"unsupported dtype {header['dtype']}")
    n, dt = header["n"], header["dt"]
    for key, valid, expected in (
        ("n", type(n) is int and n >= 0, "a non-negative integer"),
        ("t0", _finite(header["t0"]), "a finite number"),
        ("dt", _finite(dt) and dt > 0, "a finite positive number"),
        ("meta", isinstance(header["meta"], dict), "an object"),
    ):
        if not valid:
            raise ValueError(f"header key {key!r} must be {expected}, got {header[key]!r}")
    return header, np.dtype(header["dtype"])


def _checked_read(read):
    """Refuse a record holding NaN or infinity, naming its first such row,
    and prefix the path to every ValueError a reader meets: its own
    checks, JSON and UTF-8 decoding, np.loadtxt's cells and TimeSeries'
    rules."""

    @functools.wraps(read)
    def wrapper(cls, path):
        try:
            series = read(cls, path)
            parts = series.samples.view(np.float64)  # re, im interleaved if complex
            if not (np.isfinite(parts.min()) and np.isfinite(parts.max())):  # no temporaries
                row = np.argmin(np.isfinite(series.samples))
                raise ValueError(f"non-finite sample at row {row}")
            return series
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    return wrapper


@dataclass
class TimeSeries:
    """Uniform samples starting at epoch t0 with spacing dt (seconds).

    meta carries provenance (geometry hash, seeds, physics parameters)
    and must always be populated.
    """

    t0: float
    dt: float
    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 entries")
        if not self.meta:
            raise ValueError("meta must be populated")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size, dtype=float)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.samples)

    def _header(self) -> dict:
        return {
            "schema": TIMESERIES_SCHEMA,
            "t0": self.t0,
            "dt": self.dt,
            "n": int(self.samples.size),
            "dtype": "complex128" if self.is_complex else "float64",
            "meta": self.meta,
        }

    def to_csv(self, path) -> None:
        if self.is_complex:
            header, values = "t,re,im", (self.samples.real, self.samples.imag)
        else:
            header, values = "t,value", (self.samples.astype(float, copy=False),)
        write_columns(path, header, (self.times, *values), canonical_json(self._header()))

    @classmethod
    @_checked_read
    def from_csv(cls, path) -> "TimeSeries":
        with open(path) as fh:
            first = fh.readline()
            if not first.startswith("# "):
                raise ValueError("missing timeseries header line")
            header, dtype = _read_header(first[2:])
            fh.readline()  # column names
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        n, t0, dt = header["n"], header["t0"], header["dt"]
        width = 3 if dtype == np.complex128 else 2
        if data.shape != (n, width):
            raise ValueError(f"table of shape {data.shape}, header says ({n}, {width})")
        offset = np.abs(data[:, 0] - (t0 + dt * np.arange(n, dtype=float)))
        if not np.all(offset <= T_GRID_TOLERANCE * dt):  # a NaN time fails too
            raise ValueError(f"t column leaves t0 + k*dt at row {np.argmax(offset)}")
        samples = data[:, 1:].copy().view(np.complex128 if width == 3 else np.float64)[:, 0]
        return cls(t0=t0, dt=dt, samples=samples, meta=header["meta"])

    def to_binary(self, path) -> None:
        data = np.ascontiguousarray(
            self.samples, dtype=np.complex128 if self.is_complex else np.float64
        )
        with open(path, "wb") as fh:
            fh.write((canonical_json(self._header()) + "\n").encode())
            fh.write(data)

    @classmethod
    @_checked_read
    def from_binary(cls, path) -> "TimeSeries":
        with open(path, "rb") as fh:
            header, dtype = _read_header(fh.readline().decode())
            n = header["n"]
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != n * dtype.itemsize:
                raise ValueError(f"{size} payload bytes, header says {n} x {dtype}")
            samples = np.empty(n, dtype=dtype)
            read = fh.readinto(samples)
            if read != size:
                raise ValueError(f"read {read} of {size} payload bytes")
        return cls(t0=header["t0"], dt=header["dt"], samples=samples, meta=header["meta"])
