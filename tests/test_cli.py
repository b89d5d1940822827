import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tce
from tce import csvio, pipeline
from tce.cli import _EPILOG, main
from tce.config import SECTIONS

from conftest import DEV_FULL, FESTIVAL_INI, needs_dev_full

CONFIG = """\
[venue]
precinct_min = 0 0
precinct_max = 50 80
outside_regions =
    50 15 60 65

[time]
step_seconds = 300
instant_count = 12

[scenario]
user_count = 6
speed_min = 0
speed_max = 0.08
pause_instants = 1
attractors =
    stage 0.5  2 28 14 52
    food  0.3  8 70 30 78
    exit  0.2 51 30 59 50

[traffic]
tiers =
    1/3  0
    1/3 10
    1/3 10

[clustering]
k_inside = 3
k_outside = 1

[prediction]
window_size = 4
scope = per_user
run_count = 2
base_seed = 5

[report]
plot_users = 0 1
bin_count = 10
"""

MINIMAL_PIPELINE = """\
[venue]
precinct_min = 0 0
precinct_max = 10 10

[time]
step_seconds = 60
instant_count = 2

[scenario]
user_count = 1
speed_min = 0
speed_max = 0.01
attractors =
    a 1.0 1 1 9 9

[traffic]
tiers =
    1.0 5

[clustering]
k_inside = 1

[prediction]
window_size = 1
base_seed = 3
"""


def write_cfg(tmp_path, text=CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


class TestRun:
    def test_full_pipeline_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in [
            "trace.csv", "traffic.csv", "zones.csv", "labels.csv",
            "general_matrix_probs.csv", "general_matrix_counts.csv",
            "predictions_run0.csv", "predictions_run1.csv",
            "zone_series_run0.csv", "errors_run0.csv", "histogram.csv",
            "plots/positions_scatter.svg",
            "plots/histogram.svg", "plots/user0_run0_zones.svg",
            "plots/user1_run1_zones.svg", "plots/zone_users_run0.svg",
            "plots/zone_traffic_run1.svg", "manifest.json",
        ]:
            assert (out / name).exists(), name
        assert "mean error" in capsys.readouterr().out

    def test_manifest_lists_every_file_with_hash(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        manifest = read_manifest(out)
        disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest["files"]) == disk
        for rel, digest in manifest["files"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
        assert manifest["run_seeds"] == [5, 6]

    def test_manifest_top_level_keys(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)])
        assert set(read_manifest(out)) == {
            "config_digest", "base_seed", "run_seeds", "python", "numpy",
            "summary", "elapsed_seconds", "created_at", "files",
        }

    def test_manifest_records_python_and_numpy_versions(self, tmp_path):
        # the bytes of a seed rest on numpy's Generator streams, which are not
        # promised across numpy versions; the manifest says which ran
        out = tmp_path / "out"
        main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_scatter_rows_equal_users_times_instants(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        # trace.csv is the scatter plot's data: one row per user x instant
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) - 1 == 6 * 12

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "manifest.json":
                m1, m2 = read_manifest(out1), read_manifest(out2)
                for volatile in ("created_at", "elapsed_seconds"):
                    m1.pop(volatile), m2.pop(volatile)
                assert m1 == m2
            else:
                assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    @pytest.mark.parametrize(
        "scope, digest",
        [
            ("per_user", "7b80523b2fdd2c2a027ee03296024bd5a0e0310479aa51930dc314499c206e38"),
            ("general", "3d565d4cd05ac76a69492683ad51546c9d30defc8bfbf2207aa8ca6d6c5e7152"),
        ],
        ids=["per_user", "general"],
    )
    def test_festival_run_pins_output_bytes(self, tmp_path, scope, digest):
        # every output file of the demo run at seed 7, in each scope, fixed across versions
        text = FESTIVAL_INI.read_text().replace("scope = per_user", f"scope = {scope}")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        files = json.dumps(read_manifest(out)["files"], sort_keys=True)
        assert hashlib.sha256(files.encode()).hexdigest() == digest

    def test_festival_summary_and_histogram_follow_from_error_files(self, tmp_path):
        # the manifest summary and histogram.csv, recomputed from the
        # per-user errors_run<r>.csv files alone, match to the last bit
        out = tmp_path / "out"
        assert main(["run", "--config", str(FESTIVAL_INI), "--seed", "7", "--out", str(out)]) == 0
        summary = read_manifest(out)["summary"]
        run_count = len(summary["per_run_mean_error"])
        tables = []
        for r in range(run_count):
            rows = np.loadtxt(out / f"errors_run{r}.csv", delimiter=",", skiprows=1)
            rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]  # user-major, as the runs hold them
            tables.append(rows[:, 2].reshape(summary["user_count"], -1))
        assert summary["per_run_mean_error"] == [float(e.mean()) for e in tables]
        assert summary["per_run_median_error"] == [float(np.median(e)) for e in tables]
        pooled = np.concatenate([e.ravel() for e in tables])
        assert summary["mean_error"] == float(pooled.mean())
        assert summary["median_error"] == float(np.median(pooled))

        hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1).reshape(run_count, -1, 4)
        bins = hist.shape[1]
        edges = np.linspace(0.0, 1.0, bins + 1)
        # [bin_lo, bin_hi) holds an error; the last bin takes everything from its bin_lo up
        lo, hi = edges[:-1], np.append(edges[1:-1], np.inf)
        for r, e in enumerate(tables):
            assert hist[r, :, :3].tolist() == np.column_stack(([r] * bins, edges[:-1], edges[1:])).tolist()
            v = e.ravel()[:, None]
            inside = (v >= lo) & (v < hi)
            assert inside.sum(axis=1).tolist() == [1] * e.size
            assert hist[r, :, 3].tolist() == inside.sum(axis=0).tolist()

    def test_fine_zones_run_pins_output_bytes(self, tmp_path):
        # 24 + 2 zones: each zone_*_run<r>.svg draws 52 polylines of 60
        # points, so the palette wraps and y values repeat across zones
        text = FESTIVAL_INI.read_text().replace("user_count = 200\n", "user_count = 150\n")
        text = text.replace("k_inside = 5\n", "k_inside = 24\n").replace("k_outside = 1\n", "k_outside = 2\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        assert (out / "plots" / "zone_users_run0.svg").read_text().count("<polyline ") == 52
        files = json.dumps(read_manifest(out)["files"], sort_keys=True)
        assert hashlib.sha256(files.encode()).hexdigest() == "4ce5741816839145a30a1502707ff9c043e9d99176a8983b523231a7a6861b31"

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (7, "ad71b56a941d74340e31f30cee48d75273dabcd2b92884230e70dad2dc917f79"),
            (3, "d23fc7df7754583ca10f9a7781018a6a879617d0d0d304d9432fde3ef8c3e1cc"),
        ],
    )
    def test_paper_scale_run_pins_output_bytes(self, tmp_path, seed, digest):
        # every output file of the demo at the paper's 2000 users, fixed across versions
        text = FESTIVAL_INI.read_text().replace("user_count = 200\n", "user_count = 2000\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
        assert read_manifest(out)["summary"]["user_count"] == 2000
        files = json.dumps(read_manifest(out)["files"], sort_keys=True)
        assert hashlib.sha256(files.encode()).hexdigest() == digest

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_minimal_pipeline_single_prediction(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_PIPELINE)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        pred_rows = (out / "predictions_run0.csv").read_text().splitlines()
        assert len(pred_rows) - 1 == 2  # 1 user x 2 instants
        err_rows = (out / "errors_run0.csv").read_text().splitlines()
        assert len(err_rows) - 1 == 1  # exactly one predicted instant
        assert read_manifest(out)["summary"]["mean_error"] == 0.0

    def test_empty_plot_selection_still_succeeds(self, tmp_path):
        text = CONFIG.replace("plot_users = 0 1", "plot_users =")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert not list((out / "plots").glob("user*"))

    def test_unknown_plot_user_is_config_error(self, tmp_path):
        text = CONFIG.replace("plot_users = 0 1", "plot_users = 0 99")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        text = CONFIG.replace("plot_users = 0 1", "plot_users = 0 99")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_empty_out_dir_refused(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("hands off")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert (out / "keep.txt").read_text() == "hands off"

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIG.replace("[time]", "[tim]"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_out_dir_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "old, new, extra, message",
        [
            ("user_count = 6", "user_count = 0", [], "[scenario] user_count"),
            ("base_seed = 5", "base_seed = -1", [], "[prediction] base_seed"),
            ("", "", ["--seed", "-1"], "--seed"),
        ],
        ids=["user_count_zero", "base_seed_negative", "seed_flag_negative"],
    )
    def test_seed_and_user_count_are_config_errors(self, tmp_path, capsys, old, new, extra, message):
        cfg = write_cfg(tmp_path, CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("bin_count = 10", "bin_cont = 20", "[report] bin_cont: unknown key"),
            ("[prediction]", "[predicton]", "unknown section [predicton]"),
            ("[scenario]", "[input]\nmode = generate\n\n[scenario]", "[input] mode: unknown key"),
            ("bin_count = 10", "bin_count = 10\n\n[output]\ndirectory = out", "unknown section [output]"),
        ],
        ids=["misspelled_key", "misspelled_section", "mode_key", "output_section"],
    )
    def test_unknown_config_name_exit_code(self, tmp_path, capsys, old, new, message):
        cfg = write_cfg(tmp_path, CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_plot_user_fails_before_clustering(self, tmp_path, monkeypatch, capsys):
        def no_clustering(*args):
            raise AssertionError("clustering ran before plot_users was checked")

        monkeypatch.setattr(pipeline, "cluster", no_clustering)
        cfg = write_cfg(tmp_path, CONFIG.replace("plot_users = 0 1", "plot_users = 0 999"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "[report] plot user id 999 out of range [0, 6)" in capsys.readouterr().err
        assert not out.exists()

    def test_pause_past_int64_exit_code(self, tmp_path, capsys):
        # the walk counts pauses in int64, so the config refuses a longer one
        text = FESTIVAL_INI.read_text().replace("pause_instants = 8", "pause_instants = 10000000000000000000")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: [scenario] pause_instants must be below 2**63, got 10000000000000000000\n"
        )
        assert not out.exists()

    def test_traffic_total_past_float64_exit_code(self, tmp_path, capsys):
        # every tier rate is finite, the 200 users' total traffic is not
        text = re.sub(r"tiers =\n(    .*\n)+", "tiers =\n    1 1e308\n", FESTIVAL_INI.read_text())
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: [input] mean_traffic entries must be >= 0 with a finite total, got total inf\n"
        )
        assert not out.exists()

    def test_traffic_total_near_float64_max_plots_finite(self, tmp_path):
        # one user at 1.7e308 Mbit/s: a 5% pad around its traffic chart's
        # span would overflow, and the canvas would scale by 0 into nan
        text = re.sub(r"tiers =\n(    .*\n)+", "tiers =\n    1 1.7e308\n", FESTIVAL_INI.read_text())
        text = text.replace("user_count = 200", "user_count = 1").replace("plot_users = 0 1 2", "plot_users = 0")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out), "--seed", "7"]) == 0
        charts = sorted((out / "plots").glob("*.svg"))
        assert charts
        for chart in charts:
            assert not re.search(r"\b(nan|inf)\b", chart.read_text()), chart.name

    @pytest.mark.parametrize(
        "speed_max, index_scale, got",
        [("1e308", "1.0", "1e+308 * 300.0 / 1.0"), ("0", "1e-320", "0.0 * 300.0 / 1e-320")],
        ids=["speed", "index_scale"],
    )
    def test_lattice_budget_past_float64_exit_code(self, tmp_path, capsys, speed_max, index_scale, got):
        # every value is finite, the fastest user's lattice steps per instant are not
        text = FESTIVAL_INI.read_text().replace("speed_max = 0.08", f"speed_max = {speed_max}")
        text = text.replace("index_scale = 1.0", f"index_scale = {index_scale}")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: [input] speed_max * step_seconds / index_scale * 1000, the fastest user's lattice "
            f"steps per instant, must be finite, got {got}\n"
        )
        assert not out.exists()

    def test_oversized_grid_exit_code(self, tmp_path, capsys):
        # numpy refuses the (1, 10**15, 2) position array outright
        text = FESTIVAL_INI.read_text().replace("user_count = 200", "user_count = 1")
        text = text.replace("instant_count = 60", "instant_count = 1000000000000000")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        assert "[input]" in capsys.readouterr().err
        assert not out.exists()
        assert hidden_siblings(out) == []

    def test_boundary_off_the_position_lattice_exit_code(self, tmp_path, capsys):
        # the precinct and the exit strip meet at x = 50.0005, between two
        # points of the 10**-3 index-unit lattice, so no gate can be placed
        text = FESTIVAL_INI.read_text().replace("precinct_max = 50 80", "precinct_max = 50.0005 80")
        cfg = write_cfg(tmp_path, text.replace("    50 15 60 65", "    50.0005 15 60 65"))
        for command in ("run", "generate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert "[input]" in err and "outside region 0 and the precinct" in err
            assert "holds no point of the 1/1000 index-unit position lattice" in err
            assert not out.exists()

    def test_stage_tag_in_error_message(self, tmp_path, capsys):
        text = CONFIG.replace("plot_users = 0 1", "plot_users = 0 99")
        cfg = write_cfg(tmp_path, text)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert "[report]" in capsys.readouterr().err

    def test_infeasible_clustering_exit_code(self, tmp_path, capsys):
        # a single frozen user gives one distinct point, too few for k=3
        text = CONFIG.replace("user_count = 6", "user_count = 1")
        text = text.replace("speed_max = 0.08", "speed_max = 0")
        text = text.replace("plot_users = 0 1", "plot_users = 0")  # user 1 is checked first
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "[clustering]" in capsys.readouterr().err


def load_config_text(trace, traffic):
    """CONFIG loading the given trace and traffic files."""
    return CONFIG + f"\n[input]\ntrace_file = {trace}\ntraffic_file = {traffic}\n"


class TestLoadMode:
    def test_generate_subcommand_in_load_mode_exit_code(self, tmp_path, capsys):
        text = load_config_text(tmp_path / "trace.csv", tmp_path / "traffic.csv")
        out = tmp_path / "out"
        assert main(["generate", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: generate subcommand needs a config without [input] trace_file\n"
        assert not out.exists()

    def test_load_csv_reproduces_generate_run(self, tmp_path):
        gen_cfg = write_cfg(tmp_path)
        full = tmp_path / "full"
        main(["run", "--config", str(gen_cfg), "--out", str(full)])

        text = load_config_text(full / "trace.csv", full / "traffic.csv")
        load_cfg = write_cfg(tmp_path, text, name="load.ini")
        out = tmp_path / "loaded"
        assert main(["run", "--config", str(load_cfg), "--out", str(out)]) == 0
        for name in ("trace.csv", "labels.csv", "errors_run0.csv", "histogram.csv"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_load_waypoint_lines(self, tmp_path):
        # two users: one parked at the stage, one walking along the bottom
        wp = tmp_path / "wp.txt"
        wp.write_text(
            "0 5 40 3300 5 40\n"
            "0 10 5 3300 20 5\n"
        )
        traffic = tmp_path / "rates.csv"
        traffic.write_text("user_id,mean_traffic_mbps\n0,1.0\n1,2.0\n")
        text = load_config_text(wp, traffic)
        text = text.replace("k_inside = 3", "k_inside = 2")
        cfg = write_cfg(tmp_path, text, name="wp.ini")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) - 1 == 2 * 12
        assert rows[1] == "0,0,5.0,40.0"


    def test_negative_zero_coordinates_written_back(self, tmp_path):
        # -0.0 lies on the precinct edge; its sign survives load and write
        rows = [(0, t, -0.0, 5.0 + t) for t in range(12)] + [(1, t, 10.0 + t, -0.0) for t in range(12)]
        text = "user_id,t,x,y\r\n" + "".join(f"{u},{t},{x!r},{y!r}\r\n" for u, t, x, y in rows)
        trace = tmp_path / "in_trace.csv"
        trace.write_bytes(text.encode())
        traffic = tmp_path / "rates.csv"
        traffic.write_text("user_id,mean_traffic_mbps\n0,1.0\n1,2.0\n")
        cfg = write_cfg(tmp_path, load_config_text(trace, traffic), name="load.ini")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").read_bytes() == trace.read_bytes()
        assert b"0,0,-0.0,5.0\r\n" in trace.read_bytes()

    def test_positions_beyond_overflow_exit_code(self, tmp_path, capsys):
        # two users walk at x = +-1e200: their squared distances overflow
        wp = tmp_path / "wp.txt"
        wp.write_text(
            "0 1e200 40 3300 1e200 40\n"
            "0 -1e200 40 3300 -1e200 40\n"
            "0 5 40 3300 5 60\n"
            "0 10 5 3300 20 5\n"
        )
        traffic = tmp_path / "rates.csv"
        traffic.write_text("user_id,mean_traffic_mbps\n0,1.0\n1,2.0\n2,1.0\n3,1.0\n")
        text = load_config_text(wp, traffic)
        text = text.replace("k_inside = 3", "k_inside = 2").replace("k_outside = 1", "k_outside = 2")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 4
        assert caught == []
        assert capsys.readouterr().err == (
            "error: [clustering] cannot cluster outside positions: "
            "|coordinate| up to 1e+200 overflows their squared distances\n"
        )
        assert not out.exists()

    def test_venue_span_past_float64_plots_finite(self, tmp_path):
        # a generated festival trace loaded into a venue from x = -1e308 to
        # 1e308: the position chart's span passes float64
        inputs = tmp_path / "inputs"
        assert main(["generate", "--config", str(FESTIVAL_INI), "--out", str(inputs)]) == 0
        text = FESTIVAL_INI.read_text().replace("precinct_min = 0 0", "precinct_min = -1e308 0")
        text = text.replace("    50 15 60 65\n", "    50 15 1e308 65\n")
        text += f"\n[input]\ntrace_file = {inputs / 'trace.csv'}\ntraffic_file = {inputs / 'traffic.csv'}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        charts = sorted((out / "plots").glob("*.svg"))
        assert (out / "plots" / "positions_scatter.svg") in charts
        for chart in charts:
            assert not re.search(r"\b(nan|inf)\b", chart.read_text()), chart.name

    @pytest.mark.parametrize("trace_format", ["csv", "waypoint"])
    def test_directory_as_trace_file_exit_code(self, tmp_path, capsys, trace_format):
        # a directory named like either kind of trace file is refused before its format is sniffed
        folder = tmp_path / {"csv": "trace.csv", "waypoint": "wp.txt"}[trace_format]
        folder.mkdir()
        traffic = tmp_path / "rates.csv"
        traffic.write_text("user_id,mean_traffic_mbps\n0,1.0\n")
        text = load_config_text(folder, traffic)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 3
        assert f"{folder}: cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "trace_text",
        ["user_id,t,x,y\n" + "".join(f"0,{t},5.0,40.0\n" for t in range(12)), "0 5 40 3300 5 40\n"],
        ids=["csv", "waypoint"],
    )
    def test_directory_as_traffic_file_exit_code(self, tmp_path, capsys, trace_text):
        # either trace reader refuses a directory named as the traffic file
        trace = tmp_path / "trace.txt"
        trace.write_text(trace_text)
        folder = tmp_path / "folder"
        folder.mkdir()
        cfg = write_cfg(tmp_path, load_config_text(trace, folder))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"{folder}: cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_reads_waypoint_lines_as_run_does(self, tmp_path):
        # tce run and tce cluster --trace read a trace file through one loader
        wp = tmp_path / "wp.txt"
        wp.write_text("0 5 40 3300 5 40\n0 10 5 3300 20 5\n0 30 70 3300 40 75\n0 55 20 3300 55 60\n")
        traffic = tmp_path / "rates.csv"
        traffic.write_text("user_id,mean_traffic_mbps\n0,1.0\n1,2.0\n2,0.0\n3,5.0\n")
        cfg = write_cfg(tmp_path, load_config_text(wp, traffic))
        full, clus = tmp_path / "full", tmp_path / "clus"
        assert main(["run", "--config", str(cfg), "--out", str(full)]) == 0
        assert main([
            "cluster", "--config", str(cfg), "--out", str(clus), "--trace", str(wp), "--traffic", str(traffic),
        ]) == 0
        for name in ("zones.csv", "labels.csv"):
            assert (clus / name).read_bytes() == (full / name).read_bytes(), name
        assert b"\r\n3,outside," in (full / "zones.csv").read_bytes()  # the walk outside has a zone

    @pytest.mark.parametrize("command", ["run", "cluster", "report"])
    def test_empty_trace_file_exit_code(self, tmp_path, capsys, full, command):
        # an empty first line has no comma, so the waypoint reader refuses the file
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        cfg = write_cfg(tmp_path, load_config_text(empty, full / "traffic.csv"))
        out = tmp_path / "out"
        assert main(command_argv(command, cfg, full, out, trace=empty)) == 3
        assert capsys.readouterr().err == f"error: [input] {empty}: no waypoint lines\n"
        assert not out.exists()


class TestStageSubcommands:
    def test_stagewise_matches_run(self, tmp_path):
        cfg = write_cfg(tmp_path)
        full = tmp_path / "full"
        main(["run", "--config", str(cfg), "--out", str(full)])

        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg), "--out", str(gen)]) == 0

        clus = tmp_path / "clus"
        assert main([
            "cluster", "--config", str(cfg), "--out", str(clus),
            "--trace", str(gen / "trace.csv"), "--traffic", str(gen / "traffic.csv"),
        ]) == 0

        pred = tmp_path / "pred"
        assert main([
            "predict", "--config", str(cfg), "--out", str(pred),
            "--zones", str(clus / "zones.csv"), "--labels", str(clus / "labels.csv"),
        ]) == 0

        rep = tmp_path / "rep"
        assert main([
            "report", "--config", str(cfg), "--out", str(rep),
            "--trace", str(gen / "trace.csv"), "--traffic", str(gen / "traffic.csv"),
            "--zones", str(clus / "zones.csv"), "--labels", str(clus / "labels.csv"),
            "--predictions", str(pred / "predictions_run0.csv"), str(pred / "predictions_run1.csv"),
        ]) == 0

        # every file a stage writes equals the same file of tce run, and the
        # stages together write all of run's files but the general matrix
        written = set()
        for stage_dir in (gen, clus, pred, rep):
            for path in stage_dir.rglob("*"):
                if path.is_file():
                    rel = str(path.relative_to(stage_dir))
                    assert path.read_bytes() == (full / rel).read_bytes(), rel
                    written.add(rel)
        run_only = {"general_matrix_probs.csv", "general_matrix_counts.csv"}
        assert written == set(read_manifest(full)["files"]) - run_only

    def test_malformed_predictions_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        full = tmp_path / "full"
        main(["run", "--config", str(cfg), "--out", str(full)])
        lines = (full / "predictions_run0.csv").read_text().splitlines()
        gap = [line for line in lines if not line.startswith("1,")]  # user ids 0, 2, 3, ...
        cases = {
            "gap.csv": (gap, "gap.csv: user ids must be contiguous from 0"),
            # header plus 6 users x 12 instants, so the repeated row is row 74
            "dup.csv": (lines + [lines[1]], "dup.csv, row 74: duplicate entry for user 0"),
            # four zones, so a predicted zone id 4 is out of range
            "zone.csv": (
                lines[:2] + [lines[2].rsplit(",", 1)[0] + ",4"] + lines[3:],
                "zone.csv, row 3: zone id 4 outside [0, 4)",
            ),
        }
        for name, (rows, message) in cases.items():
            (tmp_path / name).write_text("\n".join(rows) + "\n")
            code = main([
                "report", "--config", str(cfg), "--out", str(tmp_path / f"rep_{name}"),
                "--trace", str(full / "trace.csv"), "--traffic", str(full / "traffic.csv"),
                "--zones", str(full / "zones.csv"), "--labels", str(full / "labels.csv"),
                "--predictions", str(tmp_path / name),
            ])
            assert code == 3, name
            assert message in capsys.readouterr().err

    def test_huge_user_id_exit_code_without_a_count_array(self, tmp_path, capsys, monkeypatch):
        # ids 0 and 10**12 in two rows: refused as non-contiguous before any
        # per-id count array, which would need 8 TB, is allocated
        cfg = write_cfg(tmp_path)
        (tmp_path / "huge.csv").write_text("user_id,t,x,y\n0,0,1,1\n1000000000000,0,2,2\n")
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n")
        bincount = np.bincount

        def bounded_bincount(x, *args, **kwargs):
            assert np.max(x) < 10**6, "a per-id count array was sized by the largest id"
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", bounded_bincount)
        code = main([
            "cluster", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--trace", str(tmp_path / "huge.csv"), "--traffic", str(tmp_path / "traffic.csv"),
        ])
        assert code == 3
        assert "huge.csv: user ids must be contiguous from 0, got [0, 1000000000000]" in capsys.readouterr().err

    def test_empty_zones_file_exit_code(self, tmp_path, capsys, full):
        empty = tmp_path / "zones.csv"
        empty.write_text("")
        out = tmp_path / "out"
        assert main(command_argv("predict", write_cfg(tmp_path), full, out, zones=empty)) == 3
        assert capsys.readouterr().err == f"error: [input] {empty}: empty file\n"
        assert not out.exists()

    def test_missing_data_file_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path)
        code = main([
            "cluster", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--trace", str(tmp_path / "missing.csv"), "--traffic", str(tmp_path / "missing2.csv"),
        ])
        assert code == 3

    def test_unreadable_trace_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"user_id,t,x,y\n0,0,1\xff,2\n")
        for trace in (folder, binary):
            code = main([
                "cluster", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--trace", str(trace), "--traffic", str(trace),
            ])
            assert code == 3
            assert f"{trace}: cannot read" in capsys.readouterr().err

    def test_general_matrix_export_row(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        probs = (out / "general_matrix_probs.csv").read_text().splitlines()
        counts = (out / "general_matrix_counts.csv").read_text().splitlines()
        assert probs[0] == "zone,0,1,2,3"
        assert len(probs) == 5
        # probs rows divide the count rows by their sums
        crow = np.array(counts[1].split(",")[1:], dtype=float)
        prow = np.array(probs[1].split(",")[1:], dtype=float)
        if crow.sum():
            assert np.allclose(prow, crow / crow.sum())


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    """The outputs of one ``tce run`` of CONFIG, the inputs of the stage subcommands."""
    tmp = tmp_path_factory.mktemp("full")
    out = tmp / "full"
    assert main(["run", "--config", str(write_cfg(tmp)), "--out", str(out)]) == 0
    return out


def command_argv(command, cfg, full, out, **files):
    """argv of ``command`` over the files of ``full``; ``files`` replaces
    some of them by name, e.g. ``trace="missing.csv"``."""
    def f(name):
        return files.get(name, full / f"{name}.csv")

    inputs = {
        "run": [],
        "generate": [],
        "cluster": ["--trace", f("trace"), "--traffic", f("traffic")],
        "predict": ["--zones", f("zones"), "--labels", f("labels")],
        "report": [
            "--trace", f("trace"), "--traffic", f("traffic"),
            "--zones", f("zones"), "--labels", f("labels"),
            "--predictions", f("predictions_run0"), f("predictions_run1"),
        ],
    }[command]
    return [str(a) for a in [command, "--config", cfg, "--out", out, *inputs]]


def hidden_siblings(out):
    return sorted(p.name for p in out.parent.iterdir() if p.name.startswith(f".{out.name}."))


def write_then_fail(real):
    def writer(path, *args):
        real(path, *args)
        raise ValueError(f"injected failure after writing {Path(path).name}")

    return writer


COMMANDS = ["run", "generate", "cluster", "predict", "report"]


class TestOutputDirectory:
    """Every command builds its output in a hidden sibling of --out and
    renames it into place only when it succeeds."""

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_failure_leaves_no_output(self, tmp_path, full, monkeypatch, command, existing):
        cfg = write_cfg(tmp_path, CONFIG.replace("plot_users = 0 1", "plot_users = 0 999"))
        files = {"trace": tmp_path / "missing.csv"} if command == "cluster" else {}
        if command == "generate":
            monkeypatch.setattr(csvio, "write_trace", write_then_fail(csvio.write_trace))
        if command == "predict":
            monkeypatch.setattr(csvio, "write_predictions", write_then_fail(csvio.write_predictions))
        out = tmp_path / "out"
        if existing:
            out.mkdir()
        code = main(command_argv(command, cfg, full, out, **files))
        assert code == {"cluster": 3, "generate": 4, "predict": 4}.get(command, 2)
        if existing:
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()
        assert hidden_siblings(out) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_empty_out_refused(self, tmp_path, full, command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("hands off")
        assert main(command_argv(command, write_cfg(tmp_path), full, out)) == 2
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "hands off"
        assert hidden_siblings(out) == []

    def test_out_below_a_file_is_config_error(self, tmp_path, full):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(command_argv("run", write_cfg(tmp_path), full, out)) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_symlink_to_empty_out_is_filled(self, tmp_path, full, command):
        real = tmp_path / "real"
        real.mkdir()
        out = tmp_path / "out"
        out.symlink_to(real, target_is_directory=True)
        assert main(command_argv(command, write_cfg(tmp_path), full, out)) == 0
        assert out.is_symlink() and out.resolve() == real
        assert any(real.iterdir())
        assert hidden_siblings(out) == hidden_siblings(real) == []

    def test_out_filled_before_rename_is_config_error(self, tmp_path, full, monkeypatch, capsys):
        # another process writes into the empty --out while the stage runs
        out = tmp_path / "out"
        out.mkdir()
        real = csvio.write_traffic

        def write_and_intrude(path, *args):
            real(path, *args)
            (out / "other.txt").write_text("not ours")

        monkeypatch.setattr(csvio, "write_traffic", write_and_intrude)
        assert main(command_argv("generate", write_cfg(tmp_path), full, out)) == 2
        assert "cannot move the output onto" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["other.txt"]
        assert hidden_siblings(out) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_publishes_with_mkdir_mode(self, tmp_path, full, command):
        out = tmp_path / "nested" / "out"
        assert main(command_argv(command, write_cfg(tmp_path), full, out)) == 0
        (tmp_path / "made").mkdir()
        assert out.stat().st_mode == (tmp_path / "made").stat().st_mode
        assert hidden_siblings(out) == []

    @pytest.mark.parametrize("command", ["run", "predict"])
    def test_sigkill_mid_write_leaves_no_out(self, tmp_path, full, command):
        # the stage kills its own process right after the first predictions file
        driver = (
            "import os, signal, sys\n"
            "from tce import cli, csvio\n"
            "real = csvio.write_predictions\n"
            "def write_then_die(*args):\n"
            "    real(*args)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "csvio.write_predictions = write_then_die\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        pythonpath = [str(Path(tce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        out = tmp_path / "out"
        argv = command_argv(command, write_cfg(tmp_path), full, out)
        proc = subprocess.run([sys.executable, "-c", driver, *argv], env=env, capture_output=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert not out.exists()
        # what a killed process leaves is one hidden sibling holding the partial files
        (left,) = hidden_siblings(out)
        assert (tmp_path / left / "predictions_run0.csv").exists()

    @needs_dev_full
    def test_manifest_write_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # manifest.json is made a link to a full device once the files are hashed
        out = tmp_path / "out"
        real = pipeline._sha256

        def hash_then_link(path):
            (tmp,) = out.parent.glob(f".{out.name}.*")
            if not (tmp / "manifest.json").is_symlink():
                (tmp / "manifest.json").symlink_to(DEV_FULL)
            return real(path)

        monkeypatch.setattr(pipeline, "_sha256", hash_then_link)
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the message names --out's own file, not the removed hidden sibling
        manifest = re.escape(os.path.join(os.path.realpath(out), "manifest.json"))
        assert re.fullmatch(rf"error: {manifest}: cannot write \(.+\)\n", err)
        assert f".{out.name}." not in err
        assert not out.exists()
        assert hidden_siblings(out) == []

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no RLIMIT_FSIZE")  # POSIX only
    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
    @pytest.mark.parametrize(
        "command, stage, name", [("run", "input", "trace.csv"), ("report", "error", "errors_run0.csv")]
    )
    def test_file_size_limit_exit_code(self, tmp_path, command, stage, name, existing):
        # under a file size limit one byte below the size of ``name``, the
        # files written before it fit and writing it fails; with 40 users the
        # errors files outgrow the zone series the report writes first
        import resource

        cfg = write_cfg(tmp_path, CONFIG.replace("user_count = 6", "user_count = 40"))
        full = tmp_path / "full"
        assert main(["run", "--config", str(cfg), "--out", str(full)]) == 0
        limit = (full / name).stat().st_size - 1
        assert (full / "zone_series_run1.csv").stat().st_size <= limit

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        pythonpath = [str(Path(tce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        out = tmp_path / "out"
        if existing:
            out.mkdir()
        argv = command_argv(command, cfg, full, out)
        proc = subprocess.run(
            [sys.executable, "-m", "tce.cli", *argv], env=env, capture_output=True, text=True,
            preexec_fn=limit_file_size, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        path = re.escape(os.path.join(os.path.realpath(out), name))
        assert re.fullmatch(rf"error: \[{stage}\] {path}: cannot write \(.+\)\n", proc.stderr)
        assert f".{out.name}." not in proc.stderr
        if existing:
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()
        assert hidden_siblings(out) == []

    def test_non_finite_centroid_exit_code(self, tmp_path, full, capsys):
        zones = (full / "zones.csv").read_text().splitlines()
        zone_id, region, _, cy = zones[1].split(",")
        zones[1] = ",".join([zone_id, region, "inf", cy])
        (tmp_path / "zones.csv").write_text("\n".join(zones) + "\n")
        out = tmp_path / "out"
        argv = command_argv("report", write_cfg(tmp_path), full, out, zones=tmp_path / "zones.csv")
        assert main(argv) == 3
        assert "zones.csv, row 2: non-finite centroid" in capsys.readouterr().err
        assert not out.exists()


class TestInputsAgainstLabels:
    """Labels are read on the config's time grid, must cover the trace's users,
    and predictions must repeat them; each fault is a data error (exit 3)."""

    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_short_labels_exit_code(self, tmp_path, full, command, capsys):
        # CONFIG has 12 instants; keep instants 0..5 of every user
        lines = (full / "labels.csv").read_text().splitlines()
        short = lines[:1] + [line for line in lines[1:] if int(line.split(",")[1]) < 6]
        (tmp_path / "labels.csv").write_text("\n".join(short) + "\n")
        out = tmp_path / "out"
        argv = command_argv(command, write_cfg(tmp_path), full, out, labels=tmp_path / "labels.csv")
        assert main(argv) == 3
        assert "labels.csv: user 0 is missing instant 6" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_short_of_trace_users_exit_code(self, tmp_path, full, capsys):
        # drop the last of CONFIG's 6 users from labels.csv and both predictions files
        cut = {}
        for name in ("labels", "predictions_run0", "predictions_run1"):
            lines = (full / f"{name}.csv").read_text().splitlines()
            cut[name] = tmp_path / f"{name}.csv"
            cut[name].write_text("\n".join(line for line in lines if not line.startswith("5,")) + "\n")
        out = tmp_path / "out"
        assert main(command_argv("report", write_cfg(tmp_path), full, out, **cut)) == 3
        err = capsys.readouterr().err
        assert f"[input] {cut['labels']} has 5 users, {full / 'trace.csv'} has 6" in err
        assert not out.exists()

    def test_truncated_predictions_exit_code(self, tmp_path, full, capsys):
        # header plus the 12 rows of each of the first 5 of 6 users
        lines = (full / "predictions_run0.csv").read_text().splitlines()
        (tmp_path / "p.csv").write_text("\n".join(lines[: 1 + 5 * 12]) + "\n")
        argv = command_argv(
            "report", write_cfg(tmp_path), full, tmp_path / "out", predictions_run0=tmp_path / "p.csv"
        )
        assert main(argv) == 3
        assert "p.csv: 5 users, the labels file has 6" in capsys.readouterr().err

    def test_edited_real_zone_exit_code(self, tmp_path, full, capsys):
        lines = (full / "predictions_run0.csv").read_text().splitlines()
        row = 1 + 2 * 12 + 3  # user 2, instant 3
        u, t, real, pred = lines[row].split(",")
        lines[row] = ",".join([u, t, str((int(real) + 1) % 4), pred])
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        argv = command_argv(
            "report", write_cfg(tmp_path), full, tmp_path / "out", predictions_run0=tmp_path / "p.csv"
        )
        assert main(argv) == 3
        assert "p.csv: real zone of user 2 at instant 3 differs from the labels file" in (
            capsys.readouterr().err
        )

    def test_edited_forecast_before_boundary_exit_code(self, tmp_path, full, capsys):
        # CONFIG's window is 4, so instant 3 must still carry the true label
        lines = (full / "predictions_run0.csv").read_text().splitlines()
        row = 1 + 2 * 12 + 3  # user 2, instant 3
        u, t, real, pred = lines[row].split(",")
        lines[row] = ",".join([u, t, real, str((int(pred) + 1) % 4)])
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = command_argv("report", write_cfg(tmp_path), full, out, predictions_run0=tmp_path / "p.csv")
        assert main(argv) == 3
        assert (
            "p.csv: predicted zone of user 2 at instant 3 differs from the labels file "
            "before the learning/prediction boundary at instant 4"
        ) in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "cause, message",
    [(MemoryError(), "[prediction] MemoryError"), (MemoryError("out of memory"), "[prediction] out of memory")],
    ids=["no_text", "text"],
)
def test_stage_error_names_a_cause_without_text(cause, message):
    with pytest.raises(pipeline.StageError) as failure:
        with pipeline._stage("prediction"):
            raise cause
    assert (str(failure.value), failure.value.exit_code) == (message, 4)


def test_help_epilog_names_exactly_the_accepted_keys():
    # each "[section]  key, key (remark), key = choices" entry of the epilog,
    # remarks and choices dropped, lists the keys config.SECTIONS accepts
    table = _EPILOG.split("\n\n")[0].split("\n", 1)[1]
    named = {}
    for section, text in re.findall(r"^  \[(\w+)\](.*?)(?=^  \[|\Z)", table, re.M | re.S):
        text = re.sub(r"=[^,(]*", "", re.sub(r"\([^)]*\)", "", " ".join(text.split())))
        named[section] = [key.strip() for key in text.split(",")]
    assert named == {section: list(keys) for section, keys in SECTIONS.items()}


def test_report_help_says_seed_is_unused(capsys):
    with pytest.raises(SystemExit):
        main(["report", "--help"])
    assert re.search(r"--seed SEED\s+accepted and unused", capsys.readouterr().out)
