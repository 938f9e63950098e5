import math
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from axionkit import TimeSeries, timeseries
from axionkit.timeseries import (
    _BLOCK_ROWS,
    canonical_json,
    grid_phasor,
    short_hash,
    write_columns,
)

# finite float64 values, with signed zero, subnormals and the range ends drawn often
FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
REAL = st.integers(2, 40).flatmap(lambda n: hnp.arrays(np.float64, n, elements=FLOATS))
# pairs of floats reinterpreted as complex keep both parts bit for bit
COMPLEX = st.integers(2, 40).flatmap(
    lambda n: hnp.arrays(np.float64, (n, 2), elements=FLOATS)
).map(lambda pairs: pairs.view(np.complex128)[:, 0])
TABLES = st.tuples(st.integers(0, 30), st.integers(1, 4)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=FLOATS)
)


@pytest.fixture
def real_series():
    return TimeSeries(
        t0=10.0, dt=0.5, samples=np.array([1.0, -2.5, 3.25, 0.0]),
        meta={"seed": 7, "kind": "unit"},
    )


@pytest.fixture
def complex_series():
    return TimeSeries(
        t0=0.0, dt=2.0, samples=np.array([1 + 2j, -0.5j, 3.0 + 0j]),
        meta={"kind": "baseband"},
    )


class TestConstruction:
    def test_times(self, real_series):
        np.testing.assert_allclose(real_series.times, [10.0, 10.5, 11.0, 11.5])

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, -1.0, np.arange(4.0), {"x": 1})

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_requires_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            TimeSeries(0.0, dt, np.arange(4.0), {"x": 1})

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, 1.0, np.array([1.0]), {"x": 1})

    def test_requires_meta(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, 1.0, np.arange(4.0), {})


class TestCsvFormat:
    def test_real_round_trip(self, real_series, tmp_path):
        path = tmp_path / "series.csv"
        real_series.to_csv(path)
        back = TimeSeries.from_csv(path)
        np.testing.assert_array_equal(back.samples, real_series.samples)
        assert back.t0 == real_series.t0 and back.dt == real_series.dt
        assert back.meta == real_series.meta

    def test_complex_round_trip(self, complex_series, tmp_path):
        path = tmp_path / "series.csv"
        complex_series.to_csv(path)
        back = TimeSeries.from_csv(path)
        np.testing.assert_array_equal(back.samples, complex_series.samples)

    def test_header_row_present(self, real_series, tmp_path):
        path = tmp_path / "series.csv"
        real_series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,value"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            TimeSeries.from_csv(path)

    @given(samples=st.one_of(REAL, COMPLEX))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_bit_exact(self, samples, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "series.csv"
        TimeSeries(-3.0, 0.25, samples, {"kind": "property"}).to_csv(path)
        back = TimeSeries.from_csv(path)
        assert back.samples.dtype == samples.dtype
        assert back.samples.tobytes() == samples.tobytes()

    @given(table=TABLES)
    # a table spanning several blocks of rows, the last one partial
    @example(table=np.linspace(-1.0, 1.0, 2 * (2 * _BLOCK_ROWS + 3)).reshape(-1, 2) / 3.0)
    @settings(max_examples=80, deadline=None)
    def test_write_columns_matches_row_formatter(self, table, tmp_path_factory):
        header = ",".join(f"c{j}" for j in range(table.shape[1]))
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        write_columns(path, header, table.T)
        rows = [",".join(repr(float(v)) for v in row) for row in table]
        assert path.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()

    def test_write_columns_memory_per_row(self, tmp_path):
        # the whole table as text would hold over 250 bytes a row
        rows = 16 * _BLOCK_ROWS
        table = np.random.default_rng(5).standard_normal((3, rows))
        tracemalloc.start()
        write_columns(tmp_path / "table.csv", "a,b,c", table)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak / rows < 40

    def test_write_columns_refuses_unequal_lengths(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=r"table\.csv: columns of unequal lengths \[2, 3\]"):
            write_columns(path, "a,b", (np.arange(3.0), np.arange(2.0)))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_columns_refuses_nonfinite(self, bad, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=r"table\.csv: column psd has 1 non-finite"):
            write_columns(path, "f_hz,psd", (np.arange(3.0), np.array([1.0, bad, 2.0])))
        assert not path.exists()


class TestHeaderChecks:
    def test_csv_row_count_must_match_n(self, real_series, tmp_path):
        path = tmp_path / "series.csv"
        real_series.to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="series.csv"):
            TimeSeries.from_csv(path)

    def test_csv_t_column_must_follow_grid(self, real_series, tmp_path):
        path = tmp_path / "series.csv"
        real_series.to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        # t grid is 10.0, 10.5, 11.0, 11.5 (dt = 0.5); tolerance is 1e-6 dt
        lines[-1] = "11.5000001,0.0\n"
        path.write_text("".join(lines))
        assert TimeSeries.from_csv(path).samples[-1] == 0.0
        lines[-1] = "12.0,0.0\n"  # one missing sample: the last row sits a step late
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="series.csv"):
            TimeSeries.from_csv(path)

    def test_binary_payload_must_match_n(self, complex_series, tmp_path):
        path = tmp_path / "series.bin"
        complex_series.to_binary(path)
        with open(path, "ab") as fh:
            fh.write(bytes(16))
        with pytest.raises(ValueError, match="series.bin"):
            TimeSeries.from_binary(path)

    @pytest.mark.parametrize("change", [3, -5], ids=["partial-trailing", "truncated"])
    def test_binary_payload_size_is_exact(self, real_series, tmp_path, change):
        path = tmp_path / "series.bin"
        real_series.to_binary(path)
        data = path.read_bytes()
        path.write_bytes(data + bytes(change) if change > 0 else data[:change])
        with pytest.raises(ValueError, match=f"{32 + change} payload bytes, header says 4 x"):
            TimeSeries.from_binary(path)

    def test_binary_dtype_must_be_one_written(self, real_series, tmp_path):
        # an object dtype has 8-byte items too: read as such, the payload
        # would become object pointers
        path = tmp_path / "series.bin"
        real_series.to_binary(path)
        path.write_bytes(path.read_bytes().replace(b'"dtype":"float64"', b'"dtype":"object"', 1))
        with pytest.raises(ValueError, match="series.bin: unsupported dtype object"):
            TimeSeries.from_binary(path)

    def test_csv_dtype_must_be_one_written(self, real_series, tmp_path):
        path = tmp_path / "series.csv"
        real_series.to_csv(path)
        path.write_text(path.read_text().replace('"dtype":"float64"', '"dtype":"int8"', 1))
        with pytest.raises(ValueError, match="series.csv: unsupported dtype int8"):
            TimeSeries.from_csv(path)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_header_key_must_be_present(self, real_series, tmp_path, fmt):
        path = tmp_path / f"series.{fmt}"
        getattr(real_series, f"to_{fmt}")(path)
        path.write_bytes(path.read_bytes().replace(b'"dt":0.5,', b"", 1))
        with pytest.raises(ValueError, match=f"series.{fmt}: header has no 'dt' key"):
            getattr(TimeSeries, f"from_{fmt}")(path)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize(
        "old, new, key",
        [
            (b'"n":4', b'"n":"4"', "n"),
            (b'"n":4', b'"n":4.0', "n"),
            (b'"n":4', b'"n":true', "n"),
            (b'"n":4', b'"n":-4', "n"),
            (b'"t0":10.0', b'"t0":NaN', "t0"),
            (b'"t0":10.0', b'"t0":"10"', "t0"),
            (b'"dt":0.5', b'"dt":NaN', "dt"),
            (b'"dt":0.5', b'"dt":Infinity', "dt"),
            (b'"dt":0.5', b'"dt":0', "dt"),
            (b'"meta":{"kind":"unit","seed":7}', b'"meta":[7]', "meta"),
        ],
        ids=["n-string", "n-float", "n-bool", "n-negative", "t0-nan", "t0-string",
             "dt-nan", "dt-infinite", "dt-zero", "meta-list"],
    )
    def test_header_value_types(self, real_series, tmp_path, fmt, old, new, key):
        path = tmp_path / f"series.{fmt}"
        getattr(real_series, f"to_{fmt}")(path)
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ValueError, match=f"series.{fmt}: header key '{key}' must be"):
            getattr(TimeSeries, f"from_{fmt}")(path)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_header_must_be_an_object(self, real_series, tmp_path, fmt):
        path = tmp_path / f"series.{fmt}"
        getattr(real_series, f"to_{fmt}")(path)
        prefix = b"# " if fmt == "csv" else b""
        path.write_bytes(prefix + b"5\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(ValueError, match=f"series.{fmt}: header is not a JSON object"):
            getattr(TimeSeries, f"from_{fmt}")(path)

    def test_binary_short_read_is_refused(self, real_series, tmp_path, monkeypatch):
        # the file loses 8 bytes between its size check and the read
        path = tmp_path / "series.bin"
        real_series.to_binary(path)
        path.write_bytes(path.read_bytes().replace(b'"n":4', b'"n":5', 1))
        fstat = os.fstat
        monkeypatch.setattr(
            timeseries, "os",
            SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8)),
        )
        with pytest.raises(ValueError, match="series.bin: read 32 of 40 payload bytes"):
            TimeSeries.from_binary(path)


def _replace(old, new):
    def edit(data):
        assert old in data
        return data.replace(old, new, 1)

    return edit


class TestReaderErrorsNameThePath:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: b"# {not json\n" + d.split(b"\n", 1)[1], "Expecting property name"),
            (lambda d: d.decode().encode("utf-16"), "'utf-8' codec can't decode"),
            (_replace(b"11.5,0.0", b"11.5,abc"), "could not convert string 'abc'"),
            (_replace(b"11.5,0.0", b"11.5"), "the number of columns changed"),
            (lambda d: b"".join(d.replace(b'"n":4', b'"n":1', 1).splitlines(keepends=True)[:3]),
             "samples must be a 1-D array with at least 2 entries"),
            (_replace(b'"meta":{"kind":"unit","seed":7}', b'"meta":{}'), "meta must be populated"),
            (_replace(b"11.0,3.25", b"11.0,nan"), "non-finite sample at row 2"),
            (_replace(b"11.0,3.25", b"nan,3.25"), "t column leaves t0 + k*dt at row 2"),
        ],
        ids=["header-not-json", "not-utf8", "non-numeric-cell", "short-row", "one-sample",
             "empty-meta", "nan-cell", "nan-time"],
    )
    def test_csv(self, real_series, tmp_path, edit, message):
        path = tmp_path / "series.csv"
        real_series.to_csv(path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=f"series\\.csv: {re.escape(message)}"):
            TimeSeries.from_csv(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: b"{not json\n" + d.split(b"\n", 1)[1], "Expecting property name"),
            (_replace(b'"kind":"unit"', b'"kind":"\xff"'), "'utf-8' codec can't decode"),
            (lambda d: d.replace(b'"n":4', b'"n":1', 1)[: d.index(b"\n") + 9],  # one float
             "samples must be a 1-D array with at least 2 entries"),
            (_replace(b'"meta":{"kind":"unit","seed":7}', b'"meta":{}'), "meta must be populated"),
            (_replace(np.float64(3.25).tobytes(), np.float64(np.nan).tobytes()),
             "non-finite sample at row 2"),
        ],
        ids=["header-not-json", "header-not-utf8", "one-sample", "empty-meta", "nan-payload"],
    )
    def test_binary(self, real_series, tmp_path, edit, message):
        path = tmp_path / "series.bin"
        real_series.to_binary(path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=f"series\\.bin: {re.escape(message)}"):
            TimeSeries.from_binary(path)


class TestBinaryFormat:
    def test_real_round_trip(self, real_series, tmp_path):
        path = tmp_path / "series.bin"
        real_series.to_binary(path)
        back = TimeSeries.from_binary(path)
        np.testing.assert_array_equal(back.samples, real_series.samples)
        assert back.meta == real_series.meta

    def test_complex_round_trip(self, complex_series, tmp_path):
        path = tmp_path / "series.bin"
        complex_series.to_binary(path)
        back = TimeSeries.from_binary(path)
        np.testing.assert_array_equal(back.samples, complex_series.samples)

    @pytest.mark.parametrize(
        "samples",
        [np.array([1.0, -2.5, 3.25, 0.0]), np.array([1 + 2j, -0.5j, 3.0 + 0j]),
         np.arange(12.0)[::3], np.arange(8.0).view(np.complex128)[::2]],
        ids=["real", "complex", "strided-real", "strided-complex"],
    )
    def test_bytes_are_header_line_then_samples(self, samples, tmp_path):
        # the payload is the array's buffer, written without a bytes copy:
        # the file is the header line followed by samples.tobytes()
        series = TimeSeries(3.0, 0.25, samples, {"kind": "layout"})
        path = tmp_path / "series.bin"
        series.to_binary(path)
        header = (canonical_json(series._header()) + "\n").encode()
        assert path.read_bytes() == header + samples.tobytes()

    def test_read_holds_one_record(self, tmp_path):
        samples = np.random.default_rng(3).standard_normal(1_000_000)
        path = tmp_path / "series.bin"
        TimeSeries(0.0, 1.0, samples, {"kind": "memory"}).to_binary(path)
        tracemalloc.start()
        back = TimeSeries.from_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.1 * samples.nbytes
        assert back.samples.tobytes() == samples.tobytes()


class TestHashing:
    def test_canonical_json_is_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_short_hash_stable(self):
        assert short_hash({"x": 1}) == short_hash({"x": 1})
        assert short_hash({"x": 1}) != short_hash({"x": 2})
        assert len(short_hash({"x": 1})) == 12


def direct_phasor(omega, t0, dt, start, stop, phase=0.0):
    """The phasor with one exponential per sample, in double."""
    k = np.arange(start, stop, dtype=float)
    return np.exp(1j * (omega * (t0 + dt * k) - phase))


def phasor_bound(omega, t0, dt, start, stop, phase=0.0):
    """Largest |grid_phasor - direct_phasor| rounding allows.  The direct
    form rounds t_k and omega t_k - phase, each by up to an ulp at
    T = |t0| + |dt| (stop - 1), which bounds every intermediate time;
    grid_phasor's block phases round at most as much, and its table's
    step omega dt at most |omega| dt eps per table entry, b entries."""
    eps = np.finfo(float).eps
    big_t = abs(t0) + abs(dt) * (stop - 1)
    b = math.isqrt(max(stop - start, 1) - 1) + 1
    rounding = abs(omega) * np.spacing(big_t) + np.spacing(abs(omega) * big_t + abs(phase))
    return 2.0 * rounding + abs(omega) * abs(dt) * b * eps + 8.0 * eps


class TestGridPhasor:
    @given(
        omega=st.floats(-1e4, 1e4),
        t0=st.floats(-1e6, 1e6),
        dt=st.floats(1e-5, 1e3),
        start=st.integers(0, 1000),
        size=st.integers(1, 5000),
        phase=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_direct_form(self, omega, t0, dt, start, size, phase):
        got = grid_phasor(omega, t0, dt, start, start + size, phase)
        expected = direct_phasor(omega, t0, dt, start, start + size, phase)
        assert got.shape == (size,) and got.dtype == np.complex128
        bound = phasor_bound(omega, t0, dt, start, start + size, phase)
        assert np.max(np.abs(got - expected)) <= bound

    # squares and their neighbours fill the last block exactly, by one or
    # leave one sample over; primes leave a partial last block
    @pytest.mark.parametrize(
        "size", [1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 97, 1023, 1024, 1025, 4099]
    )
    @pytest.mark.parametrize("start", [0, 1, 12_345])
    def test_sizes(self, size, start):
        omega, t0, dt, phase = 7.3, -41.5, 0.013, 0.7
        got = grid_phasor(omega, t0, dt, start, start + size, phase)
        expected = direct_phasor(omega, t0, dt, start, start + size, phase)
        bound = phasor_bound(omega, t0, dt, start, start + size, phase)
        assert got.shape == (size,)
        assert np.max(np.abs(got - expected)) <= bound

    def test_empty_range(self):
        assert grid_phasor(1.0, 0.0, 1.0, 5, 5).shape == (0,)

    def test_out_is_filled_and_returned(self):
        buffer = np.full(300, 9.0 + 9.0j)
        middle = buffer[100:200]
        got = grid_phasor(2.5, 3.0, 0.1, 40, 140, 0.2, out=middle)
        assert got is middle
        assert np.array_equal(middle, grid_phasor(2.5, 3.0, 0.1, 40, 140, 0.2))
        assert np.all(buffer[:100] == 9.0 + 9.0j) and np.all(buffer[200:] == 9.0 + 9.0j)

    @pytest.mark.parametrize(
        "out",
        [np.empty(99, complex), np.empty(100), np.empty(200, complex)[::2]],
        ids=["short", "real", "strided"],
    )
    def test_out_must_fit(self, out):
        with pytest.raises(ValueError, match="contiguous complex128 array of 100"):
            grid_phasor(1.0, 0.0, 1.0, 0, 100, out=out)
