"""Output checks for one benchmark operation.

Every check returns a list of problems; an operation with any problem counts
as failed. The contracts come from the repo: outputs are hashed in
``manifest.json``, zone series conserve users and traffic at every instant,
errors lie in [0, 1], and predictions equal the true labels before the
first predicted instant (the window size).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

_RUN_FILE = re.compile(r"predictions_run(\d+)\.csv")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digest_of(files: dict[str, str]) -> str:
    """One sha256 over a {relative path: sha256} map."""
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def hash_tree(root: Path) -> dict[str, tuple[int, str]]:
    """{path relative to root: (size, sha256)} for every file under root."""
    return {
        str(p.relative_to(root)): (p.stat().st_size, sha256_file(p))
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def dup_share(tree: dict[str, tuple[int, str]]) -> float:
    """Bytes in files whose content equals another file's, over all bytes."""
    seen: dict[str, int] = {}
    for _, sha in tree.values():
        seen[sha] = seen.get(sha, 0) + 1
    total = sum(size for size, _ in tree.values())
    dup = sum(size for size, sha in tree.values() if seen[sha] > 1)
    return dup / total if total else 0.0


def read_table(path: Path) -> np.ndarray:
    """A numeric CSV with a header row as a (rows, columns) float array."""
    lines = path.read_bytes().splitlines()
    columns = lines[0].count(b",") + 1
    cells = b",".join(line for line in lines[1:] if line).split(b",")
    return np.array(cells).astype(np.float64).reshape(-1, columns)


def check_run_files(files: dict[str, Path], users: int, window: int) -> tuple[list[str], float]:
    """Content checks over run-layout files (``predictions_run<r>.csv``,
    ``zone_series_run<r>.csv``, ``errors_run<r>.csv``, ``traffic.csv``).
    Returns the problems and the pooled mean error over all runs."""
    runs = sorted(int(m.group(1)) for name in files if (m := _RUN_FILE.fullmatch(name)))
    if not runs:
        return ["no predictions_run<r>.csv written"], float("nan")
    problems = []
    total_traffic = read_table(files["traffic.csv"])[:, 1].sum()
    errors = []
    for r in runs:
        try:
            pred = read_table(files[f"predictions_run{r}.csv"])
            series = read_table(files[f"zone_series_run{r}.csv"])
            e = read_table(files[f"errors_run{r}.csv"])[:, 2]
        except KeyError as exc:
            problems.append(f"run {r}: missing {exc.args[0]}")
            continue
        early = pred[:, 1] < window
        if not np.array_equal(pred[early, 2], pred[early, 3]):
            problems.append(f"run {r}: predicted labels differ from true labels before instant {window}")
        t = series[:, 1].astype(np.int64)
        for col, what in ((2, "users_real"), (3, "users_pred")):
            if not np.array_equal(np.bincount(t, weights=series[:, col]), np.full(t.max() + 1, users)):
                problems.append(f"run {r}: {what} does not sum to {users} users at every instant")
        for col, what in ((4, "traffic_real"), (5, "traffic_pred")):
            sums = np.bincount(t, weights=series[:, col])
            if not np.allclose(sums, total_traffic, rtol=1e-9, atol=1e-9):
                problems.append(f"run {r}: {what} does not sum to the total traffic at every instant")
        if e.size == 0 or e.min() < 0.0 or e.max() > 1.0:
            problems.append(f"run {r}: errors outside [0, 1]")
        errors.append(e)
    mean_error = float(np.concatenate(errors).mean()) if errors else float("nan")
    return problems, mean_error


def check_forecast(labels, window, users, total_traffic, results) -> list[str]:
    """Checks over in-memory (PredictionRun, ZoneSeries, ErrorSeries) triples."""
    problems = []
    for i, (run, series, errors) in enumerate(results):
        if not np.array_equal(run.labels_pred[:, :window], labels[:, :window]):
            problems.append(f"forecast {i}: predicted labels differ from true labels before instant {window}")
        for what in ("users_real", "users_pred"):
            if not np.all(getattr(series, what).sum(axis=0) == users):
                problems.append(f"forecast {i}: {what} does not sum to {users} users at every instant")
        for what in ("traffic_real", "traffic_pred"):
            if not np.allclose(getattr(series, what).sum(axis=0), total_traffic, rtol=1e-9):
                problems.append(f"forecast {i}: {what} does not sum to the total traffic")
        if errors.e.min() < 0.0 or errors.e.max() > 1.0:
            problems.append(f"forecast {i}: errors outside [0, 1]")
    return problems
