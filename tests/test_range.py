"""One value range for every coordinate, rate and parameter, checked once
where each value is built.

Coordinates and extent ends lie in (-2**42, 2**42); mean traffic rates and
speeds in [0, 2**42); attractor weights and the time step in (0, 2**42);
index_scale in (2**-42, 2**42); instant_count in [2, 2**63). Every entry
point accepts the largest double below 2**42 and refuses 2**42, NaN and
+-inf (and -2**42 for a coordinate): a library object with a ValueError
naming its field, a config with a ConfigError (exit 2) naming its key, an
input file with a DataError (exit 3) naming its row or line.
"""

import math
import re

import numpy as np
import pytest

from tce import csvio
from tce.cli import main
from tce.config import load_config
from tce.core import Rect, TimeGrid, TraceSet, Venue
from tce.errors import ConfigError, DataError
from tce.markov import PredictionRun
from tce.metrics import error_series
from tce.scenario import Attractor, MobilityParams, TrafficTiers, generate_scenario
from tce.zoning import Zoning

from conftest import FESTIVAL_INI

NEAR = float(np.nextafter(2.0**42, 0))  # 4398046511103.9995, the largest accepted value
RATES_REFUSED = [2.0**42, math.nan, math.inf, -math.inf]
COORDINATES_REFUSED = RATES_REFUSED + [-(2.0**42)]
COORDINATES = r"must lie in \(-2\*\*42, 2\*\*42\)"
RATES = r"must lie in \[0, 2\*\*42\)"
SMALL = float(np.nextafter(2.0**-42, 1))  # 2.273736754432321e-13, the smallest index_scale accepted
SCALES_REFUSED = RATES_REFUSED + [2.0**-42, 0.0]
WEIGHT = r"attractor weight must be positive, in \(0, 2\*\*42\), got "
SPEEDS = r"need finite 0 <= speed_min <= speed_max < 2\*\*42, got "
STEP = r"step_seconds must be positive, in \(0, 2\*\*42\), got "
SCALE = r"index_scale must be positive, in \(2\*\*-42, 2\*\*42\), got "
COUNT = r"instant_count must be >= 2, in \[2, 2\*\*63\), got "
EXTENT = r"and both must be finite, in \(-2\*\*42, 2\*\*42\)$"
UNIT = Rect((0, 0), (1, 1))


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

    def test_attractor_weight(self):
        assert Attractor(UNIT, NEAR).weight == NEAR
        for v in RATES_REFUSED + [0.0]:
            with pytest.raises(ValueError, match=WEIGHT + re.escape(str(v))):
                Attractor(UNIT, v)

    def test_speeds(self):
        mobility = MobilityParams(NEAR, NEAR, (Attractor(UNIT, 1.0),))
        assert (mobility.speed_min, mobility.speed_max) == (NEAR, NEAR)
        for v in RATES_REFUSED:
            with pytest.raises(ValueError, match=SPEEDS + re.escape(f"0.0/{v}")):
                MobilityParams(0.0, v, (Attractor(UNIT, 1.0),))
            with pytest.raises(ValueError, match=SPEEDS + re.escape(f"{v}/{NEAR}")):
                MobilityParams(v, NEAR, (Attractor(UNIT, 1.0),))

    def test_step_seconds(self):
        assert TimeGrid(NEAR, 2).step_seconds == NEAR
        for v in RATES_REFUSED + [0.0]:
            with pytest.raises(ValueError, match=STEP + re.escape(str(v))):
                TimeGrid(v, 2)

    def test_instant_count(self):
        # checked without building the instants, which no memory holds
        assert TimeGrid(1.0, 2**63 - 1).instant_count == 2**63 - 1
        for n in (1, 2**63):
            with pytest.raises(ValueError, match=COUNT + f"{n}$"):
                TimeGrid(1.0, n)

    def test_index_scale(self):
        for v in (SMALL, NEAR):
            assert Venue(UNIT, (), v).index_scale == v
        for v in SCALES_REFUSED:
            with pytest.raises(ValueError, match=SCALE + re.escape(str(v))):
                Venue(UNIT, (), v)

    def test_error_series_extent(self):
        zoning = Zoning([[-NEAR, -NEAR], [NEAR, NEAR]], np.empty((0, 2)), [[0, 1]])
        run = PredictionRun([[0, 0]], 1)
        errors = error_series(zoning, run, [-NEAR, -NEAR], [NEAR, NEAR])
        assert errors.e.tolist() == [[1.0]]
        for v in COORDINATES_REFUSED:
            for lo, hi in (([v, 0.0], [NEAR, 1.0]), ([-NEAR, 0.0], [1.0, v])):
                with pytest.raises(ValueError, match=EXTENT):
                    error_series(zoning, run, lo, hi)


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

    # name -> (festival.ini text, its replacement, the loaded value, the refusal)
    PARAMETERS = {
        "weight": ("stage         0.5  2 28 14 52", "stage {} 2 28 14 52",
                   lambda cfg: cfg.mobility.attractors[0].weight, r"\[scenario\] attractors: line must read .*" + WEIGHT),
        "speed_max": ("speed_max = 0.08", "speed_max = {}", lambda cfg: cfg.mobility.speed_max,
                      r"\[scenario\] " + SPEEDS + r"0\.0/"),
        "step_seconds": ("step_seconds = 300", "step_seconds = {}", lambda cfg: cfg.grid.step_seconds, r"\[time\] " + STEP),
        "index_scale": ("index_scale = 1.0", "index_scale = {}", lambda cfg: cfg.venue.index_scale, r"\[venue\] " + SCALE),
    }

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_parameter_at_the_range_end_loads(self, tmp_path, name):
        old, new, read, _ = self.PARAMETERS[name]
        for value in (SMALL, NEAR) if name == "index_scale" else (NEAR,):
            assert read(self.load(tmp_path, old, new.format(value))) == value

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_parameter_past_the_range_exits_2(self, tmp_path, name):
        old, new, _, key = self.PARAMETERS[name]
        for value in SCALES_REFUSED if name == "index_scale" else RATES_REFUSED:
            with pytest.raises(ConfigError, match=key + re.escape(str(value))) as exc:
                self.load(tmp_path, old, new.format(value))
            assert exc.value.exit_code == 2


class TestPastFloat64:
    """Inputs whose last instant, weight total or lattice budget per instant
    overflows float64 (each value finite) lie outside the range, so each is
    refused where it is built, not by a guard in a later stage."""

    @pytest.mark.parametrize("step, count", [(1e308, 4), (1.7976931348623157e308, 3), (1e300, 10**9)])
    def test_last_instant_inputs_refused(self, step, count):
        with pytest.raises(ValueError, match=STEP + re.escape(str(step))):
            TimeGrid(step, count)

    def test_instant_count_no_float64_holds_refused(self):
        with pytest.raises(ValueError, match=COUNT + f"{2**1100}$"):
            TimeGrid(1.0, 2**1100)

    def test_largest_last_instant_of_two(self):
        # the largest step makes the largest last instant of a two-instant
        # grid; the largest double, accepted while only the last instant was
        # checked, is now past the range
        assert TimeGrid(NEAR, 2).instants_seconds().tolist() == [0.0, NEAR]
        with pytest.raises(ValueError, match=STEP):
            TimeGrid(1.7976931348623157e308, 2)

    def test_weights_whose_sum_overflows_refused(self):
        with pytest.raises(ValueError, match=WEIGHT + r"1e\+308$"):
            Attractor(Rect((2, 28), (14, 52)), 1e308, "stage")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: MobilityParams(0.0, 1e308, (Attractor(UNIT, 1.0),)), SPEEDS + r"0\.0/1e\+308$"),
            (lambda: Venue(Rect((0, 0), (50, 80)), (Rect((50, 15), (60, 65)),), 1e-320), SCALE + "1e-320$"),
        ],
        ids=["speed", "index_scale"],
    )
    def test_lattice_budget_inputs_refused(self, build, message):
        # speed_max * step_seconds / index_scale * 1000 was inf, or 0 * inf
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "speed_max, index_scale, message",
        [
            ("1e308", "1.0", r"\[scenario\] " + SPEEDS + r"0\.0/1e\+308"),
            ("0", "1e-320", r"\[venue\] " + SCALE + "1e-320"),
        ],
        ids=["speed", "index_scale"],
    )
    def test_lattice_budget_exit_code(self, tmp_path, capsys, speed_max, index_scale, message):
        text = FESTIVAL_INI.read_text().replace("speed_max = 0.08", f"speed_max = {speed_max}")
        (tmp_path / "run.ini").write_text(text.replace("index_scale = 1.0", f"index_scale = {index_scale}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 2
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_last_instant_exit_code(self, tmp_path, capsys):
        # a load-mode run is refused before the waypoint lines are resampled
        wp = tmp_path / "wp.txt"
        wp.write_text("0 5 40 3300 5 60\n")
        traffic = tmp_path / "rates.csv"
        traffic.write_text("user_id,mean_traffic_mbps\n0,1.0\n")
        text = FESTIVAL_INI.read_text().replace("step_seconds = 300", "step_seconds = 1e308")
        (tmp_path / "run.ini").write_text(text + f"\n[input]\ntrace_file = {wp}\ntraffic_file = {traffic}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: [time] step_seconds must be positive, in (0, 2**42), got 1e+308\n"
        )
        assert not out.exists()


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


def test_generated_run_at_the_range_end(tmp_path):
    """A generate-mode run with the fastest speed, the longest step, the
    finest index scale and the heaviest weights: the lattice budget per
    instant and the weight total stay finite, with no guard."""
    text = FESTIVAL_INI.read_text()
    for old, new in (
        ("speed_max = 0.08", f"speed_max = {NEAR}"),
        ("step_seconds = 300", f"step_seconds = {NEAR}"),
        ("index_scale = 1.0", f"index_scale = {SMALL}"),
    ):
        assert old in text
        text = text.replace(old, new)
    text, weights = re.subn(r"(?m)^(    [a-z_]+ +)0\.[15] ", rf"\g<1>{NEAR} ", text)
    assert weights == 6
    (tmp_path / "run.ini").write_text(text)
    cfg = load_config(tmp_path / "run.ini")
    assert {a.weight for a in cfg.mobility.attractors} == {NEAR}
    traces = generate_scenario(cfg.venue, cfg.grid, cfg.user_count, cfg.mobility, cfg.traffic, seed=1)
    assert np.isfinite(traces.positions).all()
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 0
    written = sorted(out.rglob("*.csv")) + sorted(out.rglob("*.svg"))
    assert len(written) > 10
    for path in written:
        assert not re.search(r"\b(nan|inf)\b", path.read_text()), path.name
