import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from axionkit import TimeSeries, timeseries
from axionkit.timeseries import _BLOCK_ROWS, canonical_json, short_hash, write_columns

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
