import csv

import numpy as np
import pytest

from tce import csvio
from tce.aggregation import ZoneSeries
from tce.core import TimeGrid, TraceSet
from tce.errors import ConfigError, DataError, open_input
from tce.metrics import ErrorSeries
from tce.scenario import generate_scenario
from tce.zoning import Zoning

from conftest import CELLS, DEV_FULL, needs_dev_full
from test_scenario import THIRDS, simple_mobility


@pytest.fixture
def traces(festival_venue, grid_small):
    return generate_scenario(festival_venue, grid_small, 4, simple_mobility(), THIRDS, seed=11)


class TestTraceRoundTrip:
    def test_generate_write_load_identity(self, tmp_path, traces, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        loaded = csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)
        assert loaded.positions.tobytes() == traces.positions.tobytes()
        assert loaded.mean_traffic.tobytes() == traces.mean_traffic.tobytes()

    def test_missing_instant_names_user_and_instant(self, tmp_path, traces, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        del lines[1 + 3]  # header is line 0, so this is user 0, instant 3
        (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"user 0.*instant 3"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)

    def test_negative_traffic_rejected(self, tmp_path, traces, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1.0\n1,-1\n2,0\n3,0\n")
        with pytest.raises(DataError, match="mean_traffic"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)

    def test_duplicate_row_rejected(self, tmp_path, traces, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        with open(tmp_path / "trace.csv", "a") as fh:
            fh.write("0,0,1.0,1.0\n")
        with pytest.raises(DataError, match="duplicate"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)

    def test_traffic_past_range_rejected(self, tmp_path, traces, grid_small):
        # each rate lies below 2**42, so no zone series total can overflow
        csvio.write_trace(tmp_path / "trace.csv", traces)
        rows = "".join(f"{u},1e308\n" for u in range(4))
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n" + rows)
        with pytest.raises(DataError, match=r"traffic\.csv, row 2: mean_traffic must lie in \[0, 2\*\*42\), got 1e\+308"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)

    def test_bad_header_rejected(self, tmp_path, grid_small):
        (tmp_path / "trace.csv").write_text("uid,t,x,y\n0,0,1,1\n")
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        with pytest.raises(DataError, match="header"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)

    def test_error_cites_offending_row(self, tmp_path, grid_small):
        (tmp_path / "trace.csv").write_text("user_id,t,x,y\n0,0,1,1\n0,zero,2,2\n")
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        with pytest.raises(DataError, match="row 3"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)


class TestWaypointImport:
    def test_linear_interpolation_onto_grid(self, tmp_path):
        grid = TimeGrid(10.0, 5)  # samples at 0,10,20,30,40 s
        (tmp_path / "wp.txt").write_text(
            "0 0 0 40 40 80\n"
            "0 10 10 20 10 10 40 30 10\n"
        )
        positions = csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)
        assert positions.shape == (2, 5, 2)
        assert np.allclose(positions[0], [[0, 0], [10, 20], [20, 40], [30, 60], [40, 80]])
        # user 1 holds at (10,10) until 20 s, then moves to (30,10) at 40 s
        assert np.allclose(positions[1], [[10, 10], [10, 10], [10, 10], [20, 10], [30, 10]])

    def test_clamps_beyond_last_waypoint(self, tmp_path):
        grid = TimeGrid(10.0, 4)
        (tmp_path / "wp.txt").write_text("0 5 5 10 15 5\n")
        positions = csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)
        assert np.allclose(positions[0, 2], [15, 5])
        assert np.allclose(positions[0, 3], [15, 5])

    def test_rejects_ragged_triples(self, tmp_path):
        grid = TimeGrid(10.0, 3)
        (tmp_path / "wp.txt").write_text("0 1 2 3\n")
        with pytest.raises(DataError, match="triples"):
            csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)

    def test_rejects_decreasing_times(self, tmp_path):
        grid = TimeGrid(10.0, 3)
        (tmp_path / "wp.txt").write_text("10 1 1 0 2 2\n")
        with pytest.raises(DataError, match="non-decreasing"):
            csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309", "4398046511104"])
    def test_rejects_position_outside_range(self, tmp_path, value):
        grid = TimeGrid(10.0, 3)
        (tmp_path / "wp.txt").write_text(f"0 1 1 10 2 2\n0 1 1 10 {value} 2\n")
        with pytest.raises(DataError, match=r"wp.txt, line 2: waypoint x and y must lie in \(-2\*\*42, 2\*\*42\)"):
            csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_rejects_non_finite_time(self, tmp_path, value):
        grid = TimeGrid(10.0, 3)
        (tmp_path / "wp.txt").write_text(f"0 1 1 10 2 2\n0 1 1 {value} 2 2\n")
        with pytest.raises(DataError, match=r"wp.txt, line 2: non-finite waypoint time"):
            csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)

    def test_far_waypoint_time_is_accepted(self, tmp_path):
        # times are only required to be finite, not to lie within 2**42
        grid = TimeGrid(10.0, 3)
        (tmp_path / "wp.txt").write_text("0 1 1 1e300 3 1\n")
        assert csvio.load_waypoint_lines(tmp_path / "wp.txt", grid).tolist() == [[[1, 1], [1, 1], [1, 1]]]

    def test_load_trace_reads_waypoint_lines(self, tmp_path):
        # a first line without a comma makes load_trace read waypoint lines
        grid = TimeGrid(10.0, 5)
        (tmp_path / "wp.txt").write_text("0 0 0 40 40 80\n0 10 10 20 10 10 40 30 10\n")
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n1,2.5\n0,0\n")
        loaded = csvio.load_trace(tmp_path / "wp.txt", tmp_path / "traffic.csv", grid)
        expected = csvio.load_waypoint_lines(tmp_path / "wp.txt", grid)
        assert loaded.positions.tobytes() == expected.tobytes()
        assert loaded.mean_traffic.tolist() == [0.0, 2.5]


class TestWriteFailure:
    """A write that fails, here on a device that is always full, raises
    ConfigError naming the file instead of a bare OSError."""

    @needs_dev_full
    @pytest.mark.parametrize(
        "writer", [csvio.write_traffic, csvio.write_trace], ids=["csv_writer", "write_table"]
    )
    def test_full_device_names_the_file(self, traces, writer):
        with pytest.raises(ConfigError, match=f"^{DEV_FULL}: cannot write "):
            writer(DEV_FULL, traces)

    def test_missing_directory_is_a_write_failure(self, tmp_path, traces):
        path = tmp_path / "gone" / "traffic.csv"
        with pytest.raises(ConfigError, match=r"traffic\.csv: cannot write \("):
            csvio.write_traffic(path, traces)


class TestZoningRoundTrip:
    def test_write_load_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        zoning = Zoning(
            rng.uniform(0, 50, (3, 2)),
            rng.uniform(50, 60, (1, 2)),
            rng.integers(0, 4, (5, 7)).astype(np.int64),
        )
        csvio.write_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", zoning)
        loaded = csvio.load_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", 7)
        assert loaded.inside_centroids.tobytes() == zoning.inside_centroids.tobytes()
        assert loaded.outside_centroids.tobytes() == zoning.outside_centroids.tobytes()
        assert np.array_equal(loaded.labels, zoning.labels)


class TestPredictionsRoundTrip:
    def test_write_load_identity(self, tmp_path):
        rng = np.random.default_rng(43)
        real = rng.integers(0, 3, (4, 6)).astype(np.int64)
        pred = rng.integers(0, 3, (4, 6)).astype(np.int64)
        csvio.write_predictions(tmp_path / "p.csv", real, pred)
        r2, p2 = csvio.load_predictions(tmp_path / "p.csv", zone_count=3, instant_count=6)
        assert np.array_equal(real, r2)
        assert np.array_equal(pred, p2)


class TestShuffledRows:
    """Rows in any order load to the arrays of the sorted file tce writes."""

    @staticmethod
    def shuffled(path, seed):
        head, *rows = path.read_text().splitlines(keepends=True)
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled = path.with_name("shuffled_" + path.name)
        shuffled.write_text(head + "".join(rows[i] for i in order))
        return shuffled

    def test_trace(self, tmp_path, traces, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        loaded = csvio.load_trace(self.shuffled(tmp_path / "trace.csv", 1), tmp_path / "traffic.csv", grid_small)
        assert loaded.positions.tobytes() == traces.positions.tobytes()

    def test_labels(self, tmp_path):
        rng = np.random.default_rng(44)
        zoning = Zoning(rng.uniform(0, 50, (3, 2)), rng.uniform(50, 60, (1, 2)),
                        rng.integers(0, 4, (9, 7)).astype(np.int64))
        csvio.write_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", zoning)
        loaded = csvio.load_zoning(tmp_path / "zones.csv", self.shuffled(tmp_path / "labels.csv", 2), 7)
        assert loaded.labels.tobytes() == zoning.labels.tobytes()

    def test_predictions(self, tmp_path):
        rng = np.random.default_rng(45)
        real, pred = rng.integers(0, 3, (2, 8, 5)).astype(np.int64)
        csvio.write_predictions(tmp_path / "p.csv", real, pred)
        loaded = csvio.load_predictions(self.shuffled(tmp_path / "p.csv", 3), zone_count=3, instant_count=5)
        assert [a.tobytes() for a in loaded] == [real.tobytes(), pred.tobytes()]


class TestErrorExports:
    def test_errors_csv_carries_instants(self, tmp_path):
        es = ErrorSeries(np.array([[0.1, 0.2]]), first_instant=4)
        csvio.write_errors(tmp_path / "e.csv", es)
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0] == "user_id,t,error"
        assert lines[1].startswith("0,4,")
        assert lines[2].startswith("0,5,")

    def test_histogram_rows(self, tmp_path):
        edges = np.linspace(0, 1, 3)
        csvio.write_histogram(tmp_path / "h.csv", [[2, 1], [0, 3]], edges)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "run_id,bin_lo,bin_hi,count"
        assert len(lines) == 5
        assert lines[1] == "0,0.0,0.5,2"
        assert lines[4] == "1,0.5,1.0,3"


AWKWARD = [0.1, 1 / 3, 1e-7, 12345678.9, 0.0]


class TestByteContract:
    """Floats are written as their repr, rows end in CRLF, and loading the
    text back gives the same arrays bit for bit."""

    def test_trace_and_traffic_text(self, tmp_path):
        positions = np.array(AWKWARD[:4] + AWKWARD[::-1][:4]).reshape(2, 2, 2)
        traces = TraceSet(positions, [12345678.9, 1e-7])
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"user_id,t,x,y\r\n"
            b"0,0,0.1,0.3333333333333333\r\n"
            b"0,1,1e-07,12345678.9\r\n"
            b"1,0,0.0,12345678.9\r\n"
            b"1,1,1e-07,0.3333333333333333\r\n"
        )
        assert (tmp_path / "traffic.csv").read_bytes() == (
            b"user_id,mean_traffic_mbps\r\n0,12345678.9\r\n1,1e-07\r\n"
        )
        loaded = csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", TimeGrid(300.0, 2))
        assert loaded.positions.tobytes() == traces.positions.tobytes()
        assert loaded.mean_traffic.tobytes() == traces.mean_traffic.tobytes()

    def test_errors_text(self, tmp_path):
        e = np.array([[0.1, 1 / 3], [1e-7, 0.0]])
        csvio.write_errors(tmp_path / "e.csv", ErrorSeries(e, first_instant=3))
        text = (tmp_path / "e.csv").read_bytes()
        assert text == (
            b"user_id,t,error\r\n"
            b"0,3,0.1\r\n"
            b"0,4,0.3333333333333333\r\n"
            b"1,3,1e-07\r\n"
            b"1,4,0.0\r\n"
        )
        back = np.array([line.split(",")[2] for line in text.decode().splitlines()[1:]], float)
        assert back.tobytes() == e.ravel().tobytes()

    def test_zone_series_text(self, tmp_path):
        traffic_real = np.array([[12345678.9, 0.0], [0.1, 1 / 3]])
        traffic_pred = np.array([[1e-7, 0.1], [0.0, 12345678.9]])
        series = ZoneSeries(
            np.array([[2, 0], [1, 3]]), np.array([[1, 1], [2, 2]]), traffic_real, traffic_pred
        )
        csvio.write_zone_series(tmp_path / "z.csv", series)
        text = (tmp_path / "z.csv").read_bytes()
        assert text == (
            b"zone_id,t,users_real,users_pred,traffic_real,traffic_pred\r\n"
            b"0,0,2,1,12345678.9,1e-07\r\n"
            b"0,1,0,1,0.0,0.1\r\n"
            b"1,0,1,2,0.1,0.0\r\n"
            b"1,1,3,2,0.3333333333333333,12345678.9\r\n"
        )
        rows = np.array([line.split(",") for line in text.decode().splitlines()[1:]], float)
        assert rows[:, 4].tobytes() == traffic_real.ravel().tobytes()
        assert rows[:, 5].tobytes() == traffic_pred.ravel().tobytes()

    def test_labels_text(self, tmp_path):
        zoning = Zoning([[10.0, 20.0], [30.0, 40.0]], [[55.0, 40.0]], [[0, 2, 2], [1, 1, 0]])
        csvio.write_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", zoning)
        assert (tmp_path / "labels.csv").read_bytes() == (
            b"user_id,t,zone_id\r\n"
            b"0,0,0\r\n"
            b"0,1,2\r\n"
            b"0,2,2\r\n"
            b"1,0,1\r\n"
            b"1,1,1\r\n"
            b"1,2,0\r\n"
        )

    def test_predictions_text(self, tmp_path):
        real = np.array([[0, 2, 2], [1, 1, 0]])
        pred = np.array([[0, 2, 1], [1, 1, 0]])
        csvio.write_predictions(tmp_path / "p.csv", real, pred)
        assert (tmp_path / "p.csv").read_bytes() == (
            b"user_id,t,real_zone,predicted_zone\r\n"
            b"0,0,0,0\r\n"
            b"0,1,2,2\r\n"
            b"0,2,2,1\r\n"
            b"1,0,1,1\r\n"
            b"1,1,1,1\r\n"
            b"1,2,0,0\r\n"
        )


def write_table_reference(path, header, *tables, first=0):
    """The plain csv.writer form of ``csvio._write_table``: one Python row
    per (i, t), every cell formatted by the csv module."""
    outer, inner = tables[0].shape
    ids = np.repeat(np.arange(outer), inner).tolist()
    instants = np.tile(np.arange(first, first + inner), outer).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(ids, instants, *(table.ravel().tolist() for table in tables)))


INT64 = np.iinfo(np.int64)
FLOAT_POOL = np.array(
    [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.1, 1 / 3, 1e-7, 12345678.9, -2.5, 1e300]
)
INT_POOL = np.array([INT64.min, INT64.max, INT64.min + 1, -1, 0, 1, 7, 10**12])


class TestWriteTableOracle:
    """``_write_table`` formats each distinct row once; its bytes must equal
    the csv.writer reference on every input."""

    def assert_same_bytes(self, tmp_path, tables, first):
        header = ["user_id", "t"] + [f"c{j}" for j in range(len(tables))]
        csvio._write_table(tmp_path / "fast.csv", header, *tables, first=first)
        write_table_reference(tmp_path / "reference.csv", header, *tables, first=first)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tables_match_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(0, 6)), int(rng.integers(0, 8)))
        tables = []
        for _ in range(int(rng.integers(1, 5))):
            pool = FLOAT_POOL if rng.random() < 0.5 else INT_POOL
            # a few values, so rows repeat, or fresh floats, so they do not
            values = pool[rng.integers(0, int(rng.integers(1, pool.size + 1)), shape)]
            if pool is FLOAT_POOL and rng.random() < 0.3:
                values = rng.normal(0, 10, shape)
            tables.append(values)
        self.assert_same_bytes(tmp_path, tables, first=int(rng.integers(0, 12)))

    def test_negative_zero_and_nan_payloads_kept_apart(self, tmp_path):
        x = np.array([[-0.0, 0.0, np.nan, -np.nan], [0.0, -0.0, -np.nan, np.nan]])
        self.assert_same_bytes(tmp_path, [x, x[::-1].copy()], first=0)
        assert b"0,0,-0.0,0.0\r\n" in (tmp_path / "fast.csv").read_bytes()

    def test_all_distinct_rows_of_four_columns(self, tmp_path):
        # 70,000 distinct values per column. A row key built as the product of
        # the four column ranks, r0*N^3 + r1*N^2 + r2*N + r3, would pass 2**63,
        # and rows 0 and 1 are given ranks whose keys differ by exactly 2**64,
        # so a key that wraps would merge them. (Below 2**16 values per column
        # the product stays under 2**64 and cannot merge two rows.)
        n, shape = 70_000, (350, 200)
        gap, digits = 2**64, []
        for _ in range(4):
            gap, digit = divmod(gap, n)
            digits.insert(0, digit)
        assert gap == 0 and all(digits)
        rng = np.random.default_rng(3)
        tables = []
        for j, digit in enumerate(digits):
            # row 0 holds the smallest value, row 1 the one of rank `digit`
            rank = np.concatenate([[0, digit], rng.permutation(np.setdiff1d(np.arange(n), [0, digit]))])
            # positive floats: their bits sort as their values do
            ladder = np.arange(n) * 10**13 - 2**62 if j % 2 == 0 else np.sort(rng.uniform(1, 2, n))
            tables.append(ladder[rank].reshape(shape))
        assert all(np.unique(table).size == n for table in tables)
        self.assert_same_bytes(tmp_path, tables, first=5)

    # Two tables give 4 cells a line. With 64 instants an id holds 256 cells,
    # so a block holds _BLOCK_CELLS // 256 ids; one more instant than
    # _BLOCK_CELLS // 4 makes one id's lines wider than a block.
    @pytest.mark.parametrize("shape", [
        pytest.param(lambda ids: (3 * ids + 5, 64), id="several_blocks_and_a_remainder"),
        pytest.param(lambda ids: (2 * ids, 64), id="exact_multiple"),
        pytest.param(lambda ids: (3, csvio._BLOCK_CELLS // 4 + 1), id="id_wider_than_a_block"),
        pytest.param(lambda ids: (ids + 1, 0), id="no_instants"),
    ])
    def test_block_boundaries_match_reference(self, tmp_path, shape):
        ids = csvio._BLOCK_CELLS // (4 * 64)
        assert ids > 1
        shape = shape(ids)
        rng = np.random.default_rng(shape[0])
        tables = [rng.integers(-3, 40, shape), rng.normal(0, 10, shape).round(2)]
        self.assert_same_bytes(tmp_path, tables, first=2)
        lines = (tmp_path / "fast.csv").read_bytes().count(b"\r\n")
        assert lines == 1 + shape[0] * shape[1]


class TestRowNumbers:
    def load(self, tmp_path, trace_text, grid):
        (tmp_path / "trace.csv").write_text("user_id,t,x,y\n" + trace_text)
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        return csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid)

    def test_bad_float_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"trace\.csv, row 4: bad y '1\.2\.3'"):
            self.load(tmp_path, "0,0,1,1\n0,1,2,2\n0,2,3,1.2.3\n", TimeGrid(60.0, 3))

    def test_non_finite_position_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"trace\.csv, row 3: position \(inf, 2\.0\) must lie in \(-2\*\*42, 2\*\*42\)"):
            self.load(tmp_path, "0,0,1,1\n0,1,inf,2\n0,2,3,3\n", TimeGrid(60.0, 3))

    def test_integer_beyond_int64_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"row 3: t '99999999999999999999' out of range"):
            self.load(tmp_path, "0,0,1,1\n0,99999999999999999999,2,2\n", TimeGrid(60.0, 2))

    def test_instant_outside_grid_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"row 3: instant 2 outside \[0, 2\)"):
            self.load(tmp_path, "0,0,1,1\n0,2,2,2\n", TimeGrid(60.0, 2))

    # A cell past csv's field size limit (131072) ends in a DataError naming
    # its row: met by the csv scan where the text is not ASCII, or, where
    # numpy's reader takes the file, by the scan that looks up the row of the
    # non-finite position in row 4.
    @pytest.mark.parametrize("last", ["0,2,3,3é", "0,2,nan,3"])
    def test_oversized_field_names_its_row(self, tmp_path, last):
        rows = f"0,0,1,1\n0,1,{' ' * 140_000}2,2\n{last}\n"
        with pytest.raises(DataError, match=r"trace\.csv, row 3: field larger than field limit"):
            self.load(tmp_path, rows, TimeGrid(60.0, 3))

    def test_oversized_header_field_names_row_1(self, tmp_path):
        (tmp_path / "traffic.csv").write_text(f"user_id,{'m' * 140_000}\n0,1\n")
        with pytest.raises(DataError, match=r"traffic\.csv, row 1: field larger than field limit"):
            csvio.load_traffic(tmp_path / "traffic.csv", 1)

    @pytest.mark.parametrize(
        "traffic, message",
        [
            ("0,1\n1,2\n0,3\n", r"traffic\.csv, row 4: duplicate user id 0"),
            ("0,1\n2,2\n1,3\n", r"traffic\.csv, row 3: unknown user id 2"),
            ("0,1\n1,-2\n1,3\n", r"traffic\.csv, row 3: mean_traffic must lie in \[0, 2\*\*42\), got -2\.0"),
            ("0,1\n1,x\n", r"traffic\.csv, row 3: bad mean_traffic_mbps 'x'"),
            ("1,1\n", r"traffic\.csv: missing traffic for user 0"),
        ],
    )
    def test_traffic_fault_names_its_row(self, tmp_path, traffic, message):
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n" + traffic)
        with pytest.raises(DataError, match=message):
            csvio.load_traffic(tmp_path / "traffic.csv", 2)

    def test_out_of_range_zone_label_names_its_row(self, tmp_path):
        (tmp_path / "zones.csv").write_text("zone_id,region,cx,cy\n0,inside,1,1\n1,outside,9,9\n")
        (tmp_path / "labels.csv").write_text("user_id,t,zone_id\n0,0,0\n0,1,1\n0,2,2\n")
        with pytest.raises(DataError, match=r"labels\.csv, row 4: zone id 2 outside \[0, 2\)"):
            csvio.load_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", 3)

    def test_non_finite_centroid_names_its_row(self, tmp_path):
        (tmp_path / "zones.csv").write_text("zone_id,region,cx,cy\n0,inside,1,1\n1,outside,inf,68.1\n")
        (tmp_path / "labels.csv").write_text("user_id,t,zone_id\n0,0,0\n0,1,1\n")
        with pytest.raises(DataError, match=r"zones\.csv, row 3: centroid \(inf, 68\.1\) must lie in"):
            csvio.load_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", 2)

    # A blank record before the fault still counts as a row. All but the bad
    # zone_id and mean_traffic_mbps cells pass numpy's reader, so their row
    # numbers come from the csv scan made once the check fails.
    @pytest.mark.parametrize(
        "name, rows, message",
        [
            ("trace", "0,0,1,1\n\n0,1,inf,2\n0,2,3,3\n", r"trace\.csv, row 4: position \(inf, 2\.0\) must lie in"),
            ("trace", "0,0,1,1\n\n0,3,2,2\n", r"trace\.csv, row 4: instant 3 outside \[0, 3\)"),
            ("trace", "0,0,1,1\r\n\r\n0,1,2,2\r\n0,0,3,3\n", r"trace\.csv, row 5: duplicate entry for user 0, instant 0"),
            ("labels", "0,0,0\n\n0,1,1\n0,2,2\n", r"labels\.csv, row 5: zone id 2 outside \[0, 2\)"),
            ("labels", "0,0,0\n\n\n0,0,1\n", r"labels\.csv, row 5: duplicate label for user 0, instant 0"),
            ("zones", "0,inside,1,1\n\n1,middle,9,9\n", r"zones\.csv, row 4: region must be inside or outside"),
            ("zones", "0,inside,1,1\r\rI,outside,nan,9\r", r"zones\.csv, row 4: bad zone_id 'I'"),
            ("zones", "\n0,inside,1,1\n1,outside,nan,9\n", r"zones\.csv, row 4: centroid \(nan, 9\.0\) must lie in"),
            ("predictions", "0,0,1,1\n\n0,1,1,7\n", r"predictions\.csv, row 4: zone id 7 outside \[0, 2\)"),
            ("traffic", "0,1\n\n1,2\n0,3\n", r"traffic\.csv, row 5: duplicate user id 0"),
            ("traffic", "0,1\n\n2,2\n1,3\n", r"traffic\.csv, row 4: unknown user id 2"),
            ("traffic", "\n0,1\n1,-2\n", r"traffic\.csv, row 4: mean_traffic must lie in \[0, 2\*\*42\), got -2\.0"),
            ("traffic", "0,1\n\n1,x\n", r"traffic\.csv, row 4: bad mean_traffic_mbps 'x'"),
        ],
    )
    def test_blank_row_before_fault_counts(self, tmp_path, name, rows, message):
        files = {
            "trace": "".join(f"{u},{t},1,1\n" for u in (0, 1) for t in (0, 1, 2)),
            "traffic": "0,1\n1,1\n",
            "zones": "0,inside,1,1\n1,outside,9,9\n",
            "labels": "0,0,0\n0,1,1\n0,2,0\n",
            "predictions": "",
            name: rows,
        }
        for file, body in files.items():
            (tmp_path / f"{file}.csv").write_bytes((BASE[file].splitlines()[0] + "\n" + body).encode())
        with pytest.raises(DataError, match=message):
            if name in ("trace", "traffic"):
                csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", TimeGrid(60.0, 3))
            elif name in ("zones", "labels"):
                csvio.load_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", 3)
            else:
                csvio.load_predictions(tmp_path / "predictions.csv", 2, 2)


class TestPredictionsValidation:
    HEADER = "user_id,t,real_zone,predicted_zone\n"

    def test_non_contiguous_user_ids_rejected(self, tmp_path):
        (tmp_path / "p.csv").write_text(self.HEADER + "0,0,1,1\n0,1,1,0\n2,0,0,0\n2,1,0,1\n")
        with pytest.raises(DataError, match=r"p\.csv: user ids must be contiguous from 0, got \[0, 2"):
            csvio.load_predictions(tmp_path / "p.csv", zone_count=2, instant_count=2)

    def test_duplicate_row_names_file_and_row(self, tmp_path):
        (tmp_path / "p.csv").write_text(self.HEADER + "0,0,1,1\n0,1,1,0\n0,0,1,0\n")
        with pytest.raises(DataError, match=r"p\.csv, row 4: duplicate entry for user 0, instant 0"):
            csvio.load_predictions(tmp_path / "p.csv", zone_count=2, instant_count=2)

    def test_missing_instant_names_user_and_instant(self, tmp_path):
        (tmp_path / "p.csv").write_text(self.HEADER + "0,0,1,1\n0,1,1,0\n1,1,0,0\n")
        with pytest.raises(DataError, match=r"p\.csv: user 1 is missing instant 0"):
            csvio.load_predictions(tmp_path / "p.csv", zone_count=2, instant_count=2)

    def test_predicted_zone_out_of_range_names_its_row(self, tmp_path):
        (tmp_path / "p.csv").write_text(self.HEADER + "0,0,1,1\n0,1,1,4\n")
        with pytest.raises(DataError, match=r"p\.csv, row 3: zone id 4 outside \[0, 4\)"):
            csvio.load_predictions(tmp_path / "p.csv", zone_count=4, instant_count=2)

    def test_rows_in_any_order_fill_the_table(self, tmp_path):
        (tmp_path / "p.csv").write_text(self.HEADER + "1,1,3,4\n0,1,1,2\n1,0,2,2\n0,0,0,0\n")
        real, pred = csvio.load_predictions(tmp_path / "p.csv", zone_count=5, instant_count=2)
        assert real.tolist() == [[0, 1], [2, 3]]
        assert pred.tolist() == [[0, 2], [2, 4]]


def reference_columns(path, header, kinds):
    """``csvio._columns`` in plain Python: every CSV record read with
    csv.reader, blank records skipped but counted in the row numbers (the
    header is row 1), then each column converted cell by cell with
    int()/float(), the first bad cell of the first bad column named."""
    with open_input(path, DataError, newline="") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise DataError(f"{path}: empty file")
    if [c.strip() for c in records[0]] != header:
        raise DataError(f"{path}: expected header {','.join(header)}, got {','.join(records[0])}")
    rows = [(line, record) for line, record in enumerate(records[1:], 2) if record]
    for line, record in rows:
        if len(record) != len(header):
            raise DataError(f"{path}, row {line}: expected {len(header)} fields, got {len(record)}")
    columns = []
    for j, (name, kind) in enumerate(zip(header, kinds)):
        values = []
        for line, record in rows:
            if kind is str:
                values.append(record[j].strip())
                continue
            try:
                value = kind(record[j])
            except ValueError:
                raise DataError(f"{path}, row {line}: bad {name} {record[j]!r}") from None
            if kind is int and not -(2**63) <= value < 2**63:
                raise DataError(f"{path}, row {line}: {name} {record[j]!r} out of range")
            values.append(value)
        if kind is not str:
            values = np.array(values, np.int64 if kind is int else np.float64)
        columns.append(values)
    return (lambda i: rows[i][0]), columns


# two users, two instants, one inside and one outside zone
BASE = {
    "trace": "user_id,t,x,y\n0,0,1.5,2.5\n0,1,3.0,4.0\n1,0,5.0,6.0\n1,1,7.0,8.0\n",
    "traffic": "user_id,mean_traffic_mbps\n0,1.0\n1,2.0\n",
    "zones": "zone_id,region,cx,cy\n0,inside,10.0,20.0\n1,outside,55.0,40.0\n",
    "labels": "user_id,t,zone_id\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n",
    "predictions": "user_id,t,real_zone,predicted_zone\n0,0,0,0\n0,1,1,0\n1,0,1,1\n1,1,0,1\n",
}
LOADERS = {
    "load_trace": lambda d: csvio.load_trace(d / "trace.csv", d / "traffic.csv", TimeGrid(60.0, 2)),
    "load_traffic": lambda d: csvio.load_traffic(d / "traffic.csv", 2),
    "load_zoning": lambda d: csvio.load_zoning(d / "zones.csv", d / "labels.csv", 2),
    "load_predictions": lambda d: csvio.load_predictions(d / "predictions.csv", 2, 2),
}
READERS = {
    "trace": ["load_trace"],
    "traffic": ["load_trace", "load_traffic"],
    "zones": ["load_zoning"],
    "labels": ["load_zoning"],
    "predictions": ["load_predictions"],
}
# cells that numpy's reader parses unlike int()/float() or refuses, quoting
# and whitespace that csv.reader strips or keeps
ODD_CELLS = [
    " 1.5", '"1,5"', '"1""5"', '"1"5', '1"5"', '"2"', '"inside"', " inside ", "1_0", "０",
    "-nan", "1.0", "+1", "01", "Ǿ", "\x1c1", "1\x1f", "1\x00", "\ufeff1", " 1",
]


def arrays(result):
    if isinstance(result, TraceSet):
        return result.positions, result.mean_traffic
    if isinstance(result, Zoning):
        return result.inside_centroids, result.outside_centroids, result.labels
    return result if isinstance(result, tuple) else (result,)


def outcome(load, d):
    """A loader's arrays (dtype, shape and bytes), or its DataError text."""
    try:
        return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays(load(d))]
    except DataError as exc:
        return str(exc)


class TestLoaderOracle:
    """Every loader returns the arrays, or the DataError text, that it gives
    when the reference parses its files."""

    def check(self, tmp_path, monkeypatch, **files):
        """Write BASE with ``files`` in its place (text or bytes) and compare
        every loader reading a changed file; return their outcomes."""
        for name, content in {**BASE, **files}.items():
            data = content if isinstance(content, bytes) else content.encode()
            (tmp_path / f"{name}.csv").write_bytes(data)
        outcomes = {}
        for loader in sorted({loader for name in files for loader in READERS[name]}):
            fast = outcome(LOADERS[loader], tmp_path)
            with monkeypatch.context() as m:
                m.setattr(csvio, "_columns", reference_columns)
                assert outcome(LOADERS[loader], tmp_path) == fast, (loader, files)
            outcomes[loader] = fast
        return outcomes

    @pytest.mark.parametrize("token", CELLS + ODD_CELLS)
    def test_token_in_every_column(self, tmp_path, monkeypatch, token):
        for name, text in BASE.items():
            lines = text.splitlines()
            for j in range(lines[0].count(",") + 1):
                cells = lines[2].split(",")
                cells[j] = token
                text = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
                self.check(tmp_path, monkeypatch, **{name: text})

    @pytest.mark.parametrize("end", ["\r", "\n", "\r\n"])
    def test_line_ends(self, tmp_path, monkeypatch, end):
        files = {name: text.replace("\n", end) for name, text in BASE.items()}
        outcomes = self.check(tmp_path, monkeypatch, **files)
        assert not any(isinstance(o, str) for o in outcomes.values())

    def test_blank_and_whitespace_rows(self, tmp_path, monkeypatch):
        for filler in ["\n", "\r\n", " \n", ",\n", '""\n', "\n\n"]:
            for name, text in BASE.items():
                lines = text.splitlines(keepends=True)
                self.check(tmp_path, monkeypatch, **{name: "".join(lines[:2] + [filler] + lines[2:])})

    def test_byte_order_mark_and_nul(self, tmp_path, monkeypatch):
        for name, text in BASE.items():
            lines = text.splitlines(keepends=True)
            self.check(tmp_path, monkeypatch, **{name: "\ufeff" + text})
            lines[2] = "\ufeff" + lines[2]
            self.check(tmp_path, monkeypatch, **{name: "".join(lines)})
            self.check(tmp_path, monkeypatch, **{name: text.replace(",", ",\x00", 2)})

    def test_invalid_utf8(self, tmp_path, monkeypatch):
        for name, text in BASE.items():
            outcomes = self.check(tmp_path, monkeypatch, **{name: text.encode() + b"\xff\n"})
            assert all("cannot read" in o for o in outcomes.values())
        # past the first 8 KiB the header read has decoded, so the error
        # comes from reading the rows
        text = "user_id,t,zone_id\n" + "".join(f"0,{t},0\n" for t in range(3000))
        outcomes = self.check(tmp_path, monkeypatch, labels=text.encode() + b"\xff\n")
        assert "cannot read" in outcomes["load_zoning"]

    def test_header_only_file(self, tmp_path, monkeypatch):
        for name in ("trace", "labels", "predictions"):
            outcomes = self.check(tmp_path, monkeypatch, **{name: BASE[name].splitlines()[0] + "\n"})
            assert all(o.endswith(f"{name}.csv: no data rows") for o in outcomes.values())
        outcomes = self.check(tmp_path, monkeypatch, traffic="user_id,mean_traffic_mbps\n")
        assert outcomes["load_traffic"].endswith("traffic.csv: missing traffic for user 0")

    def test_random_doubles_bit_for_bit(self, tmp_path):
        # the codec keeps every finite double, far past the range TraceSet
        # accepts, so it is checked below the loaders
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2**64, (1500, 2, 2), dtype=np.uint64, endpoint=False)
        positions = bits.view(np.float64)
        positions[~np.isfinite(positions)] = 0.5
        path, kinds = tmp_path / "trace.csv", (int, int, float, float)
        csvio._write_table(path, csvio.TRACE_HEADER, positions[..., 0], positions[..., 1])
        for columns in (csvio._columns, reference_columns):
            _, (u, t, x, y) = columns(path, csvio.TRACE_HEADER, kinds)
            assert np.array_equal(u * 2 + t, np.arange(3000))
            assert np.stack([x, y], axis=-1).tobytes() == positions.tobytes()


class TestNumpyReader:
    """A file numpy's reader accepts is loaded without any csv scan."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("csv scan on an accepted file")

        monkeypatch.setattr(csvio, "_read_rows", refuse)
        monkeypatch.setattr(csvio, "_scan", refuse)

    def test_written_tables_load_without_scan(self, tmp_path, traces, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        loaded = csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", grid_small)
        assert loaded.positions.tobytes() == traces.positions.tobytes()

    def test_quotes_blank_rows_and_whitespace_load_without_scan(self, tmp_path):
        files = {
            **BASE,
            "trace": 'user_id,t,x,y\r\n0,0,"1.5", 2.5\r\n\r\n0,1,3.0 ,4.0\r\n1,0,5.0,6.0\r\n1,1,7.0,8.0',
            "zones": 'zone_id,region,cx,cy\n0," inside",10.0,20.0\n\n1,outside ,55.0,40.0\n',
            "labels": "user_id,t,zone_id\r0,0,0\r0,1,1\r1,0,1\r1,1,0\r",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_bytes(text.encode())
        trace = csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", TimeGrid(60.0, 2))
        assert trace.positions.ravel().tolist() == [1.5, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        zoning = csvio.load_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", 2)
        assert zoning.inside_centroids.tolist() == [[10.0, 20.0]]
        assert zoning.labels.tolist() == [[0, 1], [1, 0]]
        real, pred = csvio.load_predictions(tmp_path / "predictions.csv", 2, 2)
        assert pred.tolist() == [[0, 0], [1, 1]]
