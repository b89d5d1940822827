import numpy as np
import pytest

from tce import csvio
from tce.aggregation import ZoneSeries
from tce.core import TimeGrid, TraceSet
from tce.errors import DataError
from tce.metrics import ErrorSeries
from tce.scenario import generate_scenario
from tce.zoning import Zoning

from test_scenario import THIRDS, simple_mobility


@pytest.fixture
def traces(festival_venue, grid_small):
    return generate_scenario(festival_venue, grid_small, 4, simple_mobility(), THIRDS, seed=11)


class TestTraceRoundTrip:
    def test_generate_write_load_identity(self, tmp_path, traces, festival_venue, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        loaded = csvio.load_trace(
            tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, grid_small
        )
        assert loaded.positions.tobytes() == traces.positions.tobytes()
        assert loaded.mean_traffic.tobytes() == traces.mean_traffic.tobytes()

    def test_missing_instant_names_user_and_instant(self, tmp_path, traces, festival_venue, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        del lines[1 + 3]  # header is line 0, so this is user 0, instant 3
        (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"user 0.*instant 3"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, grid_small)

    def test_negative_traffic_rejected(self, tmp_path, traces, festival_venue, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1.0\n1,-1\n2,0\n3,0\n")
        with pytest.raises(DataError, match="mean_traffic"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, grid_small)

    def test_duplicate_row_rejected(self, tmp_path, traces, festival_venue, grid_small):
        csvio.write_trace(tmp_path / "trace.csv", traces)
        csvio.write_traffic(tmp_path / "traffic.csv", traces)
        with open(tmp_path / "trace.csv", "a") as fh:
            fh.write("0,0,1.0,1.0\n")
        with pytest.raises(DataError, match="duplicate"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, grid_small)

    def test_bad_header_rejected(self, tmp_path, festival_venue, grid_small):
        (tmp_path / "trace.csv").write_text("uid,t,x,y\n0,0,1,1\n")
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        with pytest.raises(DataError, match="header"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, grid_small)

    def test_error_cites_offending_row(self, tmp_path, festival_venue, grid_small):
        (tmp_path / "trace.csv").write_text("user_id,t,x,y\n0,0,1,1\n0,zero,2,2\n")
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        with pytest.raises(DataError, match="row 3"):
            csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, grid_small)


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
        csvio.write_histogram(tmp_path / "h.csv", [(0, [2, 1]), (1, [0, 3])], edges)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "run_id,bin_lo,bin_hi,count"
        assert len(lines) == 5
        assert lines[1] == "0,0.0,0.5,2"
        assert lines[4] == "1,0.5,1.0,3"


AWKWARD = [0.1, 1 / 3, 1e-7, 12345678.9, 0.0]


class TestByteContract:
    """Floats are written as their repr, rows end in CRLF, and loading the
    text back gives the same arrays bit for bit."""

    def test_trace_and_traffic_text(self, tmp_path, festival_venue):
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
        loaded = csvio.load_trace(
            tmp_path / "trace.csv", tmp_path / "traffic.csv", festival_venue, TimeGrid(300.0, 2)
        )
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


class TestRowNumbers:
    def load(self, tmp_path, trace_text, grid):
        (tmp_path / "trace.csv").write_text("user_id,t,x,y\n" + trace_text)
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        return csvio.load_trace(tmp_path / "trace.csv", tmp_path / "traffic.csv", None, grid)

    def test_bad_float_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"trace\.csv, row 4: bad y '1\.2\.3'"):
            self.load(tmp_path, "0,0,1,1\n0,1,2,2\n0,2,3,1.2.3\n", TimeGrid(60.0, 3))

    def test_non_finite_position_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"trace\.csv, row 3: non-finite position"):
            self.load(tmp_path, "0,0,1,1\n0,1,inf,2\n0,2,3,3\n", TimeGrid(60.0, 3))

    def test_integer_beyond_int64_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"row 3: t '99999999999999999999' out of range"):
            self.load(tmp_path, "0,0,1,1\n0,99999999999999999999,2,2\n", TimeGrid(60.0, 2))

    def test_instant_outside_grid_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"row 3: instant 2 outside \[0, 2\)"):
            self.load(tmp_path, "0,0,1,1\n0,2,2,2\n", TimeGrid(60.0, 2))

    @pytest.mark.parametrize(
        "traffic, message",
        [
            ("0,1\n1,2\n0,3\n", r"traffic\.csv, row 4: duplicate user id 0"),
            ("0,1\n2,2\n1,3\n", r"traffic\.csv, row 3: unknown user id 2"),
            ("0,1\n1,-2\n1,3\n", r"traffic\.csv, row 3: mean_traffic must be >= 0, got -2\.0"),
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
        with pytest.raises(DataError, match=r"zones\.csv, row 3: non-finite centroid"):
            csvio.load_zoning(tmp_path / "zones.csv", tmp_path / "labels.csv", 2)


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
