"""The benchmark workloads: how each makes its inputs, what one operation is,
and how its outputs are checked.

Operations drive tce only from outside, through ``tce.cli.main(argv)`` (the
``tce`` script's entry point) or the public names in ``tce.__all__``.
Module attributes are looked up at call time so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tce
import tce.cli
from tce.config import load_config

from checks import check_forecast, check_run_files, digest_of, dup_share, hash_tree

ROOT = Path(__file__).resolve().parents[1]
FESTIVAL = ROOT / "configs" / "festival.ini"


@dataclass(frozen=True)
class Spec:
    """``inputs`` distinct seeds per run; operations cycle over them, so a
    run that reaches ``inputs + 1`` operations repeats one seed."""

    users: int
    tiny_users: int
    inputs: int
    k_inside: int = 5
    k_outside: int = 1


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Operations are kept under about a second so that a run times a few dozen
# of them and reports their median. fine_zones cycles over 16 inputs because
# its Lloyd pass count, and so its run time, varies by a factor of two or
# more from one input to the next.
SPECS = {
    "paper_run": Spec(users=200, tiny_users=60, inputs=3),
    "fine_zones": Spec(users=150, tiny_users=40, inputs=16, k_inside=24, k_outside=2),
    "stage_chain": Spec(users=200, tiny_users=60, inputs=3),
    "forecast_event": Spec(users=10000, tiny_users=500, inputs=3, k_inside=6, k_outside=1),
}


def write_config(path: Path, spec: Spec, tiny: bool) -> None:
    """``configs/festival.ini`` with the workload's user count and zone counts."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(FESTIVAL)
    parser["scenario"]["user_count"] = str(spec.tiny_users if tiny else spec.users)
    parser["clustering"]["k_inside"] = str(spec.k_inside)
    parser["clustering"]["k_outside"] = str(spec.k_outside)
    with open(path, "w") as fh:
        parser.write(fh)


def sub_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tce.cli.main([str(a) for a in argv])


def prepare_chain(config: Path, seeds: list[int], work: Path) -> dict:
    """Untimed inputs of stage_chain, for each seed: ``tce generate`` writes
    the trace pair, and a reference ``tce run`` with the same config and seed
    gives the hash of every file the chain must reproduce byte for byte."""
    return {"chains": {str(seed): _prepare_one_chain(config, seed, work / f"chain-{seed}") for seed in seeds}}


def _prepare_one_chain(config: Path, seed: int, work: Path) -> dict:
    inputs, reference = work / "inputs", work / "reference"
    for argv in (
        ["generate", "--config", config, "--seed", seed, "--out", inputs],
        ["run", "--config", config, "--seed", seed, "--out", reference],
    ):
        if _main(argv) != 0:
            raise RuntimeError(f"stage_chain preparation failed: tce {argv[0]}")
    files = json.loads((reference / "manifest.json").read_text())["files"]
    shutil.rmtree(reference)
    return {"inputs": str(inputs), "reference": files}


class RunOp:
    """paper_run and fine_zones: one ``tce run``."""

    def __init__(self, config: Path, extra: dict):
        self.config = config
        cfg = load_config(config)
        self.users, self.window = cfg.user_count, cfg.window.window_size

    def call(self, seed: int, out: Path) -> list[int]:
        return [_main(["run", "--config", self.config, "--seed", seed, "--out", out])]

    def check(self, seed: int, out: Path) -> dict:
        tree = hash_tree(out)
        manifest = json.loads((out / "manifest.json").read_text())["files"]
        problems = [
            f"{name} does not match its manifest hash"
            for name, (_, sha) in tree.items()
            if name != "manifest.json" and manifest.get(name) != sha
        ]
        problems += [f"{name} listed in the manifest but missing" for name in manifest if name not in tree]
        content, mean_error = check_run_files({n: out / n for n in tree}, self.users, self.window)
        return _outcome(problems + content, digest_of(manifest), tree, mean_error)


class ChainOp:
    """stage_chain: ``tce cluster`` -> ``tce predict`` -> ``tce report``."""

    def __init__(self, config: Path, extra: dict):
        self.config = config
        cfg = load_config(config)
        self.users, self.window, self.runs = cfg.user_count, cfg.window.window_size, cfg.run_count
        self.inputs = {int(seed): Path(chain["inputs"]) for seed, chain in extra["chains"].items()}
        self.input_shas = {
            seed: {name: sha for name, (_, sha) in hash_tree(inputs).items()}
            for seed, inputs in self.inputs.items()
        }
        self.reference = {int(seed): chain["reference"] for seed, chain in extra["chains"].items()}

    def call(self, seed: int, out: Path) -> list[int]:
        trace, traffic = self.inputs[seed] / "trace.csv", self.inputs[seed] / "traffic.csv"
        zones, preds = out / "zones", out / "preds"
        common = ["--config", self.config, "--seed", seed]
        return [
            _main(["cluster", *common, "--trace", trace, "--traffic", traffic, "--out", zones]),
            _main(["predict", *common, "--zones", zones / "zones.csv", "--labels", zones / "labels.csv", "--out", preds]),
            _main([
                "report", *common, "--trace", trace, "--traffic", traffic,
                "--zones", zones / "zones.csv", "--labels", zones / "labels.csv",
                "--predictions", *(preds / f"predictions_run{r}.csv" for r in range(self.runs)),
                "--out", out / "report",
            ]),
        ]

    def check(self, seed: int, out: Path) -> dict:
        tree = hash_tree(out)
        # chain outputs take the name tce run gives them: drop the stage directory
        files = {name.split("/", 1)[1]: out / name for name in tree}
        shas = {name.split("/", 1)[1]: sha for name, (_, sha) in tree.items()}
        files.update({name: self.inputs[seed] / name for name in self.input_shas[seed]})
        shas.update(self.input_shas[seed])
        problems = [
            f"{name} differs from the same file of tce run"
            for name, sha in sorted(shas.items())
            if self.reference[seed].get(name) != sha
        ]
        content, mean_error = check_run_files(files, self.users, self.window)
        return _outcome(problems + content, digest_of(shas), tree, mean_error)


def _outcome(problems, digest, tree, mean_error) -> dict:
    return {
        "problems": problems,
        "digest": digest,
        "output_bytes": sum(size for size, _ in tree.values()),
        "mean_error": mean_error,
        "dup_share": dup_share(tree),
    }


# ---------------------------------------------------------------------------
# forecast_event: an in-memory library forecast at event scale

# six inside zones (the festival's five inside attractors and the precinct
# centre) and one outside zone (the entrance/exit strip)
INSIDE_CENTROIDS = [(8, 40), (19, 74), (40, 74), (16, 6), (38, 7), (25, 40)]
OUTSIDE_CENTROIDS = [(55, 40)]
STAY = 0.85  # chance a user stays in its zone from one instant to the next


def forecast(traces, zoning, scope: str, seed: int, window: int):
    """The one place that calls the library's forecast API."""
    run = tce.run_prediction(traces, zoning, tce.WindowConfig(window, scope), seed)
    series = tce.aggregate(traces, zoning.labels, run.labels_pred, zoning.zone_count)
    extent_min, extent_max = tce.position_extent(traces)
    errors = tce.error_series(zoning, run, extent_min, extent_max)
    return run, series, errors


def synthesize_event(users: int, instants: int, seed: int):
    """A sticky per-user label table (most steps stay in place, so some
    window rows are empty) with positions at the zone centroid plus jitter."""
    rng = np.random.default_rng(seed)
    centroids = np.array(INSIDE_CENTROIDS + OUTSIDE_CENTROIDS, np.float64)
    zones = centroids.shape[0]
    labels = np.empty((users, instants), np.int64)
    labels[:, 0] = rng.integers(0, zones, users)
    moves = rng.random((users, instants - 1)) >= STAY
    targets = rng.integers(0, zones, (users, instants - 1))
    for t in range(1, instants):
        labels[:, t] = np.where(moves[:, t - 1], targets[:, t - 1], labels[:, t - 1])
    positions = centroids[labels] + rng.uniform(-1.0, 1.0, (users, instants, 2))
    traffic = rng.choice([0.0, 10.0, 10.0], users)
    traces = tce.TraceSet(positions, traffic)
    zoning = tce.Zoning(INSIDE_CENTROIDS, OUTSIDE_CENTROIDS, labels)
    return traces, zoning


class ForecastOp:
    """forecast_event: one label table from the workload seed; an operation
    forecasts it with one prediction seed in both scopes (per_user, general),
    each a prediction run, its zone aggregates and its error series. No files
    are written."""

    def __init__(self, config: Path, extra: dict):
        cfg = load_config(config)
        self.window = cfg.window.window_size
        self.traces, self.zoning = synthesize_event(cfg.user_count, cfg.grid.instant_count, extra["seed"])
        self.results = []

    def call(self, seed: int, out: Path) -> list[int]:
        self.results = [
            forecast(self.traces, self.zoning, scope, seed, self.window)
            for scope in (tce.PER_USER, tce.GENERAL)
        ]
        return [0]

    def check(self, seed: int, out: Path) -> dict:
        problems = check_forecast(
            self.zoning.labels, self.window, self.traces.user_count,
            self.traces.mean_traffic.sum(), self.results,
        )
        arrays = [
            a
            for run, series, errors in self.results
            for a in (run.labels_pred, series.users_real, series.users_pred,
                      series.traffic_real, series.traffic_pred, errors.e)
        ]
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
        pooled = np.concatenate([errors.e.ravel() for _, _, errors in self.results])
        self.results = []
        return {
            "problems": problems,
            "digest": digest.hexdigest(),
            "output_bytes": sum(a.nbytes for a in arrays),
            "mean_error": float(pooled.mean()),
            "dup_share": 0.0,
        }


OPS = {
    "paper_run": RunOp,
    "fine_zones": RunOp,
    "stage_chain": ChainOp,
    "forecast_event": ForecastOp,
}
