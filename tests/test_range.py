"""One value range for every coordinate and rate, checked once in ``core``.

Coordinates lie in (-2**42, 2**42) and mean traffic rates in [0, 2**42).
Every entry point accepts the largest double below 2**42 and refuses 2**42,
NaN and +-inf (and -2**42 for a coordinate): a library object with a
ValueError naming its field, a config with a ConfigError (exit 2) naming its
key, an input file with a DataError (exit 3) naming its row or line.
"""

import math
import re

import numpy as np
import pytest

from tce import csvio
from tce.cli import main
from tce.config import load_config
from tce.core import Rect, TimeGrid, TraceSet
from tce.errors import ConfigError, DataError
from tce.scenario import TrafficTiers
from tce.zoning import Zoning

from conftest import FESTIVAL_INI

NEAR = float(np.nextafter(2.0**42, 0))  # 4398046511103.9995, the largest accepted value
RATES_REFUSED = [2.0**42, math.nan, math.inf, -math.inf]
COORDINATES_REFUSED = RATES_REFUSED + [-(2.0**42)]
COORDINATES = r"must lie in \(-2\*\*42, 2\*\*42\)"
RATES = r"must lie in \[0, 2\*\*42\)"


class TestLibrary:
    def test_rect(self):
        rect = Rect((-NEAR, -NEAR), (NEAR, NEAR))
        assert rect.hi.tolist() == [NEAR, NEAR]
        for v in COORDINATES_REFUSED:
            with pytest.raises(ValueError, match=rf"Rect\.lo {COORDINATES}"):
                Rect((v, 0.0), (NEAR, 1.0))
            with pytest.raises(ValueError, match=rf"Rect\.hi {COORDINATES}"):
                Rect((-NEAR, 0.0), (1.0, v))

    def test_trace_set(self):
        traces = TraceSet([[[NEAR, -NEAR]], [[0.0, 0.0]]], [NEAR, 0.0])
        assert traces.positions.tolist() == [[[NEAR, -NEAR]], [[0.0, 0.0]]]
        for v in COORDINATES_REFUSED:
            with pytest.raises(ValueError, match=rf"positions {COORDINATES}"):
                TraceSet([[[0.0, 0.0]], [[1.0, v]]], [1.0, 1.0])
        for v in RATES_REFUSED:
            with pytest.raises(ValueError, match=rf"mean_traffic entries {RATES}"):
                TraceSet([[[0.0, 0.0]], [[1.0, 1.0]]], [1.0, v])

    def test_zoning(self):
        zoning = Zoning([[NEAR, -NEAR]], [[-NEAR, NEAR]], [[0, 1]])
        assert zoning.all_centroids().tolist() == [[NEAR, -NEAR], [-NEAR, NEAR]]
        for v in COORDINATES_REFUSED:
            with pytest.raises(ValueError, match=rf"inside_centroids {COORDINATES}"):
                Zoning([[v, 0.0]], np.empty((0, 2)), [[0]])
            with pytest.raises(ValueError, match=rf"outside_centroids {COORDINATES}"):
                Zoning([[0.0, 0.0]], [[0.0, v]], [[0]])

    def test_traffic_tiers(self):
        assert TrafficTiers(((0.5, NEAR), (0.5, 0.0))).tiers[0] == (0.5, NEAR)
        for v in RATES_REFUSED:
            with pytest.raises(ValueError, match=rf"tier rate {RATES}, got {re.escape(str(v))}"):
                TrafficTiers(((0.5, 1.0), (0.5, v)))


class TestConfig:
    """A value past the range is refused as the config loads, naming its key."""

    def load(self, tmp_path, old, new):
        text = FESTIVAL_INI.read_text()
        assert old in text
        (tmp_path / "run.ini").write_text(text.replace(old, new))
        return load_config(tmp_path / "run.ini")

    CASES = {
        "corner": ("precinct_min = 0 0", "precinct_min = 0 {}", r"\[venue\] precinct_min, precinct_max: Rect\.lo "),
        "attractor": ("stage         0.5  2 28 14 52", "stage 0.5 2 28 {} 52", r"\[scenario\] attractors: line must read .*Rect\.hi "),
        "tier": ("1/3 10\n    1/3 10", "1/3 10\n    1/3 {}", r"\[traffic\] tiers: tier rate "),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_largest_value_below_the_range_end_loads(self, tmp_path, case):
        old, new, _ = self.CASES[case]
        far = -NEAR if case == "corner" else NEAR
        cfg = self.load(tmp_path, old, new.format(far))
        assert far in (cfg.venue.precinct.lo[1], cfg.mobility.attractors[0].region.hi[0], cfg.traffic.tiers[2][1])

    @pytest.mark.parametrize("case", list(CASES))
    def test_value_past_the_range_exits_2(self, tmp_path, case):
        old, new, key = self.CASES[case]
        for value in RATES_REFUSED if case == "tier" else COORDINATES_REFUSED:
            with pytest.raises(ConfigError, match=key + (RATES if case == "tier" else COORDINATES)) as exc:
                self.load(tmp_path, old, new.format(value))
            assert exc.value.exit_code == 2


class TestInputFiles:
    """A value past the range in an input file is a data error naming its row or line."""

    GRID = TimeGrid(60.0, 2)

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def refused(self, load, message):
        with pytest.raises(DataError, match=message) as exc:
            load()
        assert exc.value.exit_code == 3

    def test_trace_csv(self, tmp_path):
        traffic = self.write(tmp_path, "traffic.csv", "user_id,mean_traffic_mbps\n0,1\n")
        rows = "user_id,t,x,y\n0,0,{},1\n0,1,2,{}\n"
        trace = self.write(tmp_path, "trace.csv", rows.format(NEAR, -NEAR))
        assert csvio.load_trace(trace, traffic, self.GRID).positions.tolist() == [[[NEAR, 1.0], [2.0, -NEAR]]]
        for v in COORDINATES_REFUSED:
            self.write(tmp_path, "trace.csv", rows.format(1, v))
            message = rf"trace\.csv, row 3: position \(2\.0, {re.escape(str(v))}\) {COORDINATES}"
            self.refused(lambda: csvio.load_trace(trace, traffic, self.GRID), message)

    def test_zones_csv(self, tmp_path):
        labels = self.write(tmp_path, "labels.csv", "user_id,t,zone_id\n0,0,0\n0,1,1\n")
        rows = "zone_id,region,cx,cy\n0,inside,1,1\n1,outside,{},{}\n"
        zones = self.write(tmp_path, "zones.csv", rows.format(NEAR, -NEAR))
        assert csvio.load_zoning(zones, labels, 2).outside_centroids.tolist() == [[NEAR, -NEAR]]
        for v in COORDINATES_REFUSED:
            self.write(tmp_path, "zones.csv", rows.format(v, 9))
            message = rf"zones\.csv, row 3: centroid \({re.escape(str(v))}, 9\.0\) {COORDINATES}"
            self.refused(lambda: csvio.load_zoning(zones, labels, 2), message)

    def test_traffic_csv(self, tmp_path):
        rows = "user_id,mean_traffic_mbps\n0,1\n1,{}\n"
        traffic = self.write(tmp_path, "traffic.csv", rows.format(NEAR))
        assert csvio.load_traffic(traffic, 2).tolist() == [1.0, NEAR]
        for v in RATES_REFUSED:
            self.write(tmp_path, "traffic.csv", rows.format(v))
            message = rf"traffic\.csv, row 3: mean_traffic {RATES}, got {re.escape(str(v))}"
            self.refused(lambda: csvio.load_traffic(traffic, 2), message)

    def test_waypoint_lines(self, tmp_path):
        lines = "0 1 1 60 2 2\n0 {} 1 60 2 {}\n"
        wp = self.write(tmp_path, "wp.txt", lines.format(NEAR, -NEAR))
        assert csvio.load_waypoint_lines(wp, self.GRID)[1].tolist() == [[NEAR, 1.0], [2.0, -NEAR]]
        for v in COORDINATES_REFUSED:
            self.write(tmp_path, "wp.txt", lines.format(1, v))
            self.refused(lambda: csvio.load_waypoint_lines(wp, self.GRID), rf"wp\.txt, line 2: waypoint x and y {COORDINATES}")


def test_run_at_the_range_end(tmp_path):
    """A load-mode run whose venue, positions and rates reach the largest
    values below 2**42: spans, squared distances, traffic totals and chart
    scales all stay finite, so no overflow guard is needed past ``core``."""
    rng = np.random.default_rng(42)
    users, instants = 6, 12
    positions = rng.uniform(-NEAR, NEAR, (users, instants, 2))
    positions[0, :4] = [[-NEAR, -NEAR], [NEAR, NEAR], [-NEAR, NEAR], [NEAR, -NEAR]]
    positions[1, 4:] = positions[1, 3]  # a pause
    trace = tmp_path / "trace.csv"
    trace.write_text("user_id,t,x,y\n" + "".join(
        f"{u},{t},{x},{y}\n" for u in range(users) for t, (x, y) in enumerate(positions[u].tolist())
    ))
    traffic = tmp_path / "traffic.csv"
    traffic.write_text("user_id,mean_traffic_mbps\n" + "".join(f"{u},{NEAR}\n" for u in range(users)))
    (tmp_path / "run.ini").write_text(f"""\
[venue]
precinct_min = -{NEAR} -{NEAR}
precinct_max = 0 {NEAR}
outside_regions =
    0 -{NEAR} {NEAR} {NEAR}

[time]
step_seconds = 300
instant_count = {instants}

[input]
trace_file = {trace}
traffic_file = {traffic}

[clustering]
k_inside = 3
k_outside = 2

[prediction]
window_size = 4
run_count = 2

[report]
plot_users = 0 1
""")
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 0
    errors = np.concatenate([
        np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2] for path in sorted(out.glob("errors_run*.csv"))
    ])
    assert errors.size == 2 * users * (instants - 4)
    assert errors.min() >= 0.0 and errors.max() <= 1.0
    written = sorted(out.rglob("*.csv")) + sorted(out.rglob("*.svg"))
    assert len(written) > 10
    for path in written:
        assert not re.search(r"\b(nan|inf)\b", path.read_text()), path.name
