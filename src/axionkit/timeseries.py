"""Uniformly sampled series with provenance metadata, plus file formats.

Two on-disk representations, both versioned:

* CSV, schema ``axionkit-timeseries/1``: one comment line holding the
  JSON metadata, a header row, then ``t,value`` rows (``t,re,im`` for
  complex data).
* binary, same schema tag: a single JSON header line followed by the raw
  little-endian sample bytes.

Readers check each file against its own header: ``n``, ``t0``, ``dt``
and ``dtype`` fix the row count, the ``t`` column and the payload size.
"""

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


def _finite(value) -> bool:
    """A JSON number within the float range: NaN and the infinities fail."""
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


def _read_header(path, text: str) -> tuple[dict, np.dtype]:
    """The JSON header in text and its sample dtype; ValueError naming the
    file, and the key at fault, unless it is an object holding every key,
    the schema, a dtype TimeSeries writes, a count n >= 0, a finite t0, a
    finite dt > 0 and a meta object."""
    header = json.loads(text)
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key in ("schema", "t0", "dt", "n", "dtype", "meta"):
        if key not in header:
            raise ValueError(f"{path}: header has no {key!r} key")
    if header["schema"] != TIMESERIES_SCHEMA:
        raise ValueError(f"{path}: unsupported schema {header['schema']}")
    if header["dtype"] not in ("float64", "complex128"):
        raise ValueError(f"{path}: unsupported dtype {header['dtype']}")
    n, dt = header["n"], header["dt"]
    for key, valid, expected in (
        ("n", type(n) is int and n >= 0, "a non-negative integer"),
        ("t0", _finite(header["t0"]), "a finite number"),
        ("dt", _finite(dt) and dt > 0, "a finite positive number"),
        ("meta", isinstance(header["meta"], dict), "an object"),
    ):
        if not valid:
            raise ValueError(f"{path}: header key {key!r} must be {expected}, got {header[key]!r}")
    return header, np.dtype(header["dtype"])


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
    def from_csv(cls, path) -> "TimeSeries":
        with open(path) as fh:
            first = fh.readline()
            if not first.startswith("# "):
                raise ValueError(f"{path}: missing timeseries header line")
            header, dtype = _read_header(path, first[2:])
            fh.readline()  # column names
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        n, t0, dt = header["n"], header["t0"], header["dt"]
        width = 3 if dtype == np.complex128 else 2
        if data.shape != (n, width):
            raise ValueError(f"{path}: table of shape {data.shape}, header says ({n}, {width})")
        offset = np.abs(data[:, 0] - (t0 + dt * np.arange(n, dtype=float)))
        if np.any(offset > T_GRID_TOLERANCE * dt):
            raise ValueError(f"{path}: t column leaves t0 + k*dt at row {np.argmax(offset)}")
        samples = data[:, 1:].copy().view(np.complex128 if width == 3 else np.float64)[:, 0]
        return cls(t0=t0, dt=dt, samples=samples, meta=header["meta"])

    def to_binary(self, path) -> None:
        data = np.ascontiguousarray(
            self.samples, dtype=np.complex128 if self.is_complex else np.float64
        )
        with open(path, "wb") as fh:
            fh.write((canonical_json(self._header()) + "\n").encode())
            fh.write(data.tobytes())

    @classmethod
    def from_binary(cls, path) -> "TimeSeries":
        with open(path, "rb") as fh:
            header, dtype = _read_header(path, fh.readline().decode())
            n = header["n"]
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != n * dtype.itemsize:
                raise ValueError(f"{path}: {size} payload bytes, header says {n} x {dtype}")
            samples = np.empty(n, dtype=dtype)
            read = fh.readinto(samples)
            if read != size:
                raise ValueError(f"{path}: read {read} of {size} payload bytes")
        return cls(t0=header["t0"], dt=header["dt"], samples=samples, meta=header["meta"])
