"""End-to-end pipeline: input -> zoning -> general matrix -> seeded prediction
runs -> report (aggregation, errors, histogram, plots), with a manifest hashing
every file.

Each stage is a function from artefacts to artefacts that writes its own
files. ``run`` chains them; each ``tce`` stage subcommand calls one of them
on artefacts loaded from CSV. Stage failures are tagged with the stage name.
Every command writes through ``atomic_dir``, so an output directory appears
only complete.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import csvio, svgplot
from .aggregation import aggregate_runs
from .config import RunConfig, config_digest
from .core import TraceSet
from .errors import ConfigError, DataError, ToolError
from .markov import PredictionRun, build_general_matrix, predict_labels
from .metrics import error_histogram, error_series, histogram_edges, position_extent
from .scenario import generate_scenario
from .zoning import Zoning, cluster


class StageError(ToolError):
    """Wraps a failure with the pipeline stage it happened in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {str(cause) or type(cause).__name__}")
        self.exit_code = cause.exit_code if isinstance(cause, ToolError) else 4


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ToolError, ValueError, MemoryError) as exc:
        raise StageError(name, exc) from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_dir(target):
    """Yield a new hidden sibling of ``target`` to write into, and rename it
    onto ``target`` when the body succeeds; on any failure remove it and leave
    ``target`` untouched. ``target`` must be absent or an empty directory, which
    the rename replaces (a symlink is resolved first; a mount point cannot be)."""
    target = Path(os.path.realpath(target))
    if target.exists() and (not target.is_dir() or any(target.iterdir())):
        raise ConfigError(f"output directory {target} is not an empty directory")
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp.mkdir()  # not mkdtemp: the published directory keeps mkdir's mode
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {target}: {exc}") from None
    try:
        yield tmp
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise ConfigError(f"cannot move the output onto {target}: {exc.strerror}") from None
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def input_stage(cfg: RunConfig, seed: int, out_dir: Path) -> TraceSet:
    """Generate the scenario, or load the configured trace files, and write
    trace.csv and traffic.csv."""
    with _stage("input"):
        if cfg.trace_file is None:
            traces = generate_scenario(
                cfg.venue, cfg.grid, cfg.user_count, cfg.mobility, cfg.traffic, seed
            )
        else:
            traces = csvio.load_trace(cfg.trace_file, cfg.traffic_file, cfg.grid)
        csvio.write_trace(out_dir / "trace.csv", traces)
        csvio.write_traffic(out_dir / "traffic.csv", traces)
    return traces


def clustering_stage(cfg: RunConfig, traces: TraceSet, seed: int, out_dir: Path) -> Zoning:
    """Fit the zones and write zones.csv and labels.csv."""
    with _stage("clustering"):
        zoning = cluster(traces, cfg.venue, cfg.k_inside, cfg.k_outside, seed)
        csvio.write_zoning(out_dir / "zones.csv", out_dir / "labels.csv", zoning)
    return zoning


def general_matrix_stage(zoning: Zoning, out_dir: Path) -> None:
    """Write the descriptive all-users, all-instants transition matrix."""
    with _stage("general-matrix"):
        general = build_general_matrix(zoning.labels, zoning.zone_count)
        csvio.write_matrix(out_dir / "general_matrix_probs.csv", general.probs)
        csvio.write_matrix(out_dir / "general_matrix_counts.csv", general.counts)


def prediction_stage(
    cfg: RunConfig, zoning: Zoning, base_seed: int, out_dir: Path
) -> list[PredictionRun]:
    """Forecast ``cfg.run_count`` runs, run r seeded with base_seed + r, in
    one ``predict_labels`` call, then write predictions_run<r>.csv for each."""
    with _stage("prediction"):
        seeds = [base_seed + r for r in range(cfg.run_count)]
        runs = predict_labels(zoning.labels, zoning.zone_count, cfg.window, seeds)
        for r, run in enumerate(runs):
            csvio.write_predictions(out_dir / f"predictions_run{r}.csv", zoning.labels, run.labels_pred)
    return runs


def report_stage(cfg: RunConfig, traces: TraceSet, zoning: Zoning, runs, out_dir: Path) -> dict:
    """Aggregate users and traffic per zone and score every run; write the
    zone series, errors, histogram and plots. Returns the error summary the
    manifest records; ``check_plot_users`` must have accepted ``traces``."""
    with _stage("aggregation"):
        preds = [p.labels_pred for p in runs]
        series = aggregate_runs(traces, zoning.labels, preds, zoning.zone_count)
        for r, zs in enumerate(series):
            csvio.write_zone_series(out_dir / f"zone_series_run{r}.csv", zs)

    with _stage("error"):
        extent_min, extent_max = position_extent(traces)
        errors = [error_series(zoning, p, extent_min, extent_max) for p in runs]
        for r, es in enumerate(errors):
            csvio.write_errors(out_dir / f"errors_run{r}.csv", es)
        edges = histogram_edges(cfg.bin_count)
        hist = np.array([error_histogram(es.e, edges) for es in errors])
        csvio.write_histogram(out_dir / "histogram.csv", hist, edges)

    with _stage("report"):
        emit_plots(out_dir, cfg, traces, zoning, runs, series, hist, edges)
    return _summary(errors, zoning, traces)


def check_plot_users(cfg: RunConfig, traces: TraceSet) -> None:
    """Require every ``[report] plot_users`` id to be a user of ``traces``,
    before any stage spends time on them."""
    with _stage("report"):
        for uid in cfg.plot_users:
            if not 0 <= uid < traces.user_count:
                raise ConfigError(f"plot user id {uid} out of range [0, {traces.user_count})")


def load_traces(cfg: RunConfig, trace_file, traffic_file) -> TraceSet:
    """Read a trace file (CSV or waypoint lines, as ``input_stage`` reads
    them) and its traffic CSV as the input of a stage subcommand."""
    with _stage("input"):
        return csvio.load_trace(trace_file, traffic_file, cfg.grid)


def load_zoning(cfg: RunConfig, zones_file, labels_file) -> Zoning:
    """Read the zones/labels CSV pair on the config's time grid as the input
    of a stage subcommand."""
    with _stage("input"):
        return csvio.load_zoning(zones_file, labels_file, cfg.grid.instant_count)


def check_same_users(trace_file, traces: TraceSet, labels_file, zoning: Zoning) -> None:
    """Require the labels of a stage subcommand to cover the trace's users."""
    with _stage("input"):
        if zoning.labels.shape[0] != traces.user_count:
            raise DataError(
                f"{labels_file} has {zoning.labels.shape[0]} users, "
                f"{trace_file} has {traces.user_count}"
            )


def load_runs(cfg: RunConfig, zoning: Zoning, paths) -> list[PredictionRun]:
    """Read predictions CSVs whose real zones must equal ``zoning``'s labels,
    and whose predicted zones must equal them before the window boundary."""
    runs = []
    w = cfg.window.window_size
    with _stage("input"):
        for path in paths:
            real, pred = csvio.load_predictions(path, zoning.zone_count, cfg.grid.instant_count)
            if real.shape != zoning.labels.shape:
                raise DataError(
                    f"{path}: {real.shape[0]} users, the labels file has {zoning.labels.shape[0]}"
                )
            differ = np.argwhere(real != zoning.labels)
            if differ.size:
                u, t = differ[0]
                raise DataError(
                    f"{path}: real zone of user {u} at instant {t} differs from the labels file"
                )
            differ = np.argwhere(pred[:, :w] != zoning.labels[:, :w])
            if differ.size:
                u, t = differ[0]
                raise DataError(
                    f"{path}: predicted zone of user {u} at instant {t} differs from the labels "
                    f"file before the learning/prediction boundary at instant {w}"
                )
            runs.append(PredictionRun(pred, w))
    return runs


def run(cfg: RunConfig, out_dir, base_seed: int | None = None) -> dict:
    """Execute the full pipeline into ``out_dir`` and return the manifest.

    Generation and clustering use the base seed; prediction run r uses
    base_seed + r. Outputs are byte-stable for a fixed config and seed
    (the manifest carries the only timestamp).
    """
    base_seed = cfg.base_seed if base_seed is None else int(base_seed)
    started = time.perf_counter()
    with atomic_dir(out_dir) as tmp:
        traces = input_stage(cfg, base_seed, tmp)
        check_plot_users(cfg, traces)
        zoning = clustering_stage(cfg, traces, base_seed, tmp)
        general_matrix_stage(zoning, tmp)
        runs = prediction_stage(cfg, zoning, base_seed, tmp)
        summary = report_stage(cfg, traces, zoning, runs, tmp)

        manifest = {
            "config_digest": config_digest(cfg),
            "base_seed": base_seed,
            "run_seeds": [base_seed + r for r in range(cfg.run_count)],
            # the output bytes rest on numpy's Generator streams, which NEP 19
            # does not freeze across versions
            "python": platform.python_version(),
            "numpy": np.__version__,
            "summary": summary,
            "elapsed_seconds": round(time.perf_counter() - started, 3),
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        files = sorted(p for p in tmp.rglob("*") if p.is_file())
        manifest["files"] = {str(p.relative_to(tmp)): _sha256(p) for p in files}
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


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


def emit_plots(out_dir: Path, cfg: RunConfig, traces, zoning, runs, series, hist, edges) -> None:
    """Write the plots under ``out_dir``/plots as dependency-free SVG; the
    data of each selected user's step series is predictions_run<r>.csv.

    Emits the density map of all positions under the venue outlines
    (positions_scatter.svg), per-run overlaid error histograms, per-zone user
    and traffic series, and a real-vs-predicted step series for each selected
    user and run (with the learning/prediction boundary marked).
    ``series`` holds each run's ZoneSeries and ``hist`` the (runs, bins)
    error histogram table over ``edges``, as the aggregation and error
    stages computed them.
    """
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)

    # density map of every observed position; its data is trace.csv
    rects = [(r.lo, r.hi) for r in (cfg.venue.precinct, *cfg.venue.outside_regions)]
    svgplot.scatter_chart(plots / "positions_scatter.svg", traces.all_points(), rects, "Observed positions, all users and instants")

    # per-run error histograms, overlaid
    svgplot.histogram_chart(plots / "histogram.svg", hist, edges, "Prediction error by run")

    instants = np.arange(traces.instant_count)
    boundary = cfg.window.window_size
    for uid in cfg.plot_users:
        for r, pred in enumerate(runs):
            svgplot.line_chart(
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
                step=True,
            )

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
