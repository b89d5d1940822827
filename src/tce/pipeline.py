"""End-to-end pipeline: input -> zoning -> general matrix -> seeded prediction
runs -> aggregation -> errors -> exports, with a manifest hashing every file.

Stage failures are tagged with the stage name and any partially written
output is removed.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import csvio, svgplot
from ._kernels import backend
from .aggregation import aggregate
from .config import MODE_GENERATE, RunConfig, config_digest
from .core import TraceSet
from .errors import ConfigError, ToolError
from .markov import build_general_matrix, run_prediction
from .metrics import error_histogram, error_series, histogram_edges, position_extent
from .scenario import generate_scenario
from .zoning import cluster


class StageError(ToolError):
    """Wraps a failure with the pipeline stage it happened in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
        self.exit_code = cause.exit_code if isinstance(cause, ToolError) else 4


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except (ToolError, ValueError) as exc:
        raise StageError(name, exc) from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _prepare_out_dir(out_dir: Path) -> bool:
    """Create the output directory; refuse to clobber existing content.
    Returns True when this call created it."""
    if out_dir.exists():
        if any(out_dir.iterdir()):
            raise ConfigError(f"output directory {out_dir} is not empty")
        return False
    out_dir.mkdir(parents=True)
    return True


def _load_input(cfg: RunConfig, seed: int) -> TraceSet:
    if cfg.mode == MODE_GENERATE:
        return generate_scenario(
            cfg.venue, cfg.grid, cfg.user_count, cfg.mobility, cfg.traffic, seed
        )
    if cfg.trace_format == "waypoint":
        positions = csvio.load_waypoint_lines(cfg.trace_file, cfg.grid)
        traffic = csvio.load_traffic(cfg.traffic_file, positions.shape[0])
        return TraceSet(positions, traffic)
    return csvio.load_trace(cfg.trace_file, cfg.traffic_file, cfg.venue, cfg.grid)


def run(cfg: RunConfig, out_dir, base_seed: int | None = None) -> dict:
    """Execute the full pipeline into ``out_dir`` and return the manifest.

    Generation and clustering use the base seed; prediction run r uses
    base_seed + r. Outputs are byte-stable for a fixed config and seed
    (the manifest carries the only timestamp).
    """
    out_dir = Path(out_dir)
    base_seed = cfg.base_seed if base_seed is None else int(base_seed)
    created = _prepare_out_dir(out_dir)
    started = time.perf_counter()
    try:
        with _stage("input"):
            traces = _load_input(cfg, base_seed)
            csvio.write_trace(out_dir / "trace.csv", traces)
            csvio.write_traffic(out_dir / "traffic.csv", traces)

        with _stage("clustering"):
            zoning = cluster(traces, cfg.venue, cfg.k_inside, cfg.k_outside, base_seed)
            csvio.write_zoning(out_dir / "zones.csv", out_dir / "labels.csv", zoning)

        with _stage("general-matrix"):
            general = build_general_matrix(zoning.labels, zoning.zone_count)
            csvio.write_matrix(out_dir / "general_matrix_probs.csv", general.probs)
            csvio.write_matrix(out_dir / "general_matrix_counts.csv", general.counts)

        runs = []
        with _stage("prediction"):
            for r in range(cfg.run_count):
                pred = run_prediction(traces, zoning, cfg.window, base_seed + r)
                csvio.write_predictions(
                    out_dir / f"predictions_run{r}.csv", zoning.labels, pred.labels_pred
                )
                runs.append(pred)

        series = []
        with _stage("aggregation"):
            for r, pred in enumerate(runs):
                series.append(aggregate(traces, zoning.labels, pred.labels_pred, zoning.zone_count))
                csvio.write_zone_series(out_dir / f"zone_series_run{r}.csv", series[-1])

        errors = []
        with _stage("error"):
            extent_min, extent_max = position_extent(traces)
            for r, pred in enumerate(runs):
                es = error_series(zoning, pred, extent_min, extent_max)
                csvio.write_errors(out_dir / f"errors_run{r}.csv", es)
                errors.append(es)
            edges = histogram_edges(cfg.bin_count)
            hist = [(r, error_histogram(es, cfg.bin_count)) for r, es in enumerate(errors)]
            csvio.write_histogram(out_dir / "histogram.csv", hist, edges)

        with _stage("report"):
            emit_plots(out_dir, cfg, traces, zoning, runs, series, hist)

        manifest = {
            "config_digest": config_digest(cfg),
            "base_seed": base_seed,
            "run_seeds": [base_seed + r for r in range(cfg.run_count)],
            "backend": backend(),
            "summary": _summary(errors, zoning, traces),
            "elapsed_seconds": round(time.perf_counter() - started, 3),
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        files = sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json")
        manifest["files"] = {str(p.relative_to(out_dir)): _sha256(p) for p in files}
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        return manifest
    except BaseException:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            for child in out_dir.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                else:
                    child.unlink(missing_ok=True)
        raise


def _summary(errors, zoning, traces) -> dict:
    per_run_mean = [float(es.e.mean()) for es in errors]
    per_run_median = [float(np.median(es.e)) for es in errors]
    pooled = np.concatenate([es.e.ravel() for es in errors])
    return {
        "user_count": traces.user_count,
        "instant_count": traces.instant_count,
        "zone_count": zoning.zone_count,
        "mean_error": float(pooled.mean()),
        "median_error": float(np.median(pooled)),
        "per_run_mean_error": per_run_mean,
        "per_run_median_error": per_run_median,
    }


def emit_plots(out_dir, cfg: RunConfig, traces, zoning, runs, series, hist) -> list[Path]:
    """Write the plot-data CSVs and their SVG renderings under ``out_dir``/plots.

    Emits the all-positions scatter, per-run overlaid error histograms,
    per-zone user and traffic series, and a real-vs-predicted step series for
    each selected user and run (with the learning/prediction boundary marked).
    ``series`` holds each run's ZoneSeries and ``hist`` its (run, counts)
    error histogram, as the aggregation and error stages computed them.
    """
    out_dir = Path(out_dir)
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    written: list[Path] = []

    for uid in cfg.plot_users:
        if not 0 <= uid < traces.user_count:
            raise ConfigError(f"plot user id {uid} out of range [0, {traces.user_count})")

    # scatter of every observed position
    scatter_csv = plots / "positions_scatter.csv"
    csvio.write_trace(scatter_csv, traces)
    rects = [(cfg.venue.precinct_min, cfg.venue.precinct_max, "precinct")]
    rects += [(r.lo, r.hi, "outside") for r in cfg.venue.outside_regions]
    svgplot.scatter_chart(plots / "positions_scatter.svg", traces.all_points(), rects, "Observed positions, all users and instants")
    written += [scatter_csv, plots / "positions_scatter.svg"]

    # per-run error histograms, overlaid
    svgplot.histogram_chart(
        plots / "histogram.svg", hist, histogram_edges(cfg.bin_count), "Prediction error by run"
    )
    written.append(plots / "histogram.svg")

    instants = np.arange(traces.instant_count)
    boundary = cfg.window.window_size
    for uid in cfg.plot_users:
        for r, pred in enumerate(runs):
            path_csv = plots / f"user{uid}_run{r}_zones.csv"
            csvio.write_predictions(
                path_csv,
                zoning.labels[uid : uid + 1],
                pred.labels_pred[uid : uid + 1],
            )
            svgplot.step_chart(
                plots / f"user{uid}_run{r}_zones.svg",
                instants,
                [
                    ("real", zoning.labels[uid], ""),
                    ("predicted", pred.labels_pred[uid], "5 3"),
                ],
                f"User {uid} zone, run {r}",
                "instant",
                "zone id",
                vline_at=boundary,
            )
            written += [path_csv, plots / f"user{uid}_run{r}_zones.svg"]

    for r, zs in enumerate(series):
        users_series = []
        traffic_series = []
        for z in range(zoning.zone_count):
            users_series.append((f"zone {z} real", zs.users_real[z], ""))
            users_series.append((f"zone {z} pred", zs.users_pred[z], "5 3"))
            traffic_series.append((f"zone {z} real", zs.traffic_real[z], ""))
            traffic_series.append((f"zone {z} pred", zs.traffic_pred[z], "5 3"))
        svgplot.line_chart(
            plots / f"zone_users_run{r}.svg", instants, users_series,
            f"Users per zone, run {r}", "instant", "users", vline_at=boundary,
        )
        svgplot.line_chart(
            plots / f"zone_traffic_run{r}.svg", instants, traffic_series,
            f"Traffic per zone, run {r}", "instant", "traffic (Mbit/s)", vline_at=boundary,
        )
        written += [plots / f"zone_users_run{r}.svg", plots / f"zone_traffic_run{r}.svg"]
    return written
