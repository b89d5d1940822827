"""Transition matrices over zones and the sliding-window prediction chain.

The general matrix (all users, all instants) is descriptive only; forecasting
uses window matrices rebuilt each step from true labels. ``predict_labels`` is
the one forecast entry point: ``run_prediction`` (one seed) and
``pipeline.prediction_stage`` (every run of a config) both call it. It never
accepts a matrix argument: it derives every window matrix internally, so the
general matrix cannot leak into the forecast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kern
from .core import TraceSet, _frozen, _whole
from .errors import InfeasibleError
from .zoning import Zoning, _zone_table

GENERAL = "general"
PER_USER = "per_user"


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic zone transition matrix derived from raw counts.

    ``counts`` must have an integer dtype and is copied as int64; ``probs``
    is each row over its sum, and rows with no observed transition stay
    all-zero. Both are read-only.
    """

    counts: np.ndarray
    probs: np.ndarray = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu" or (counts.size and int(counts.max()) > np.iinfo(np.int64).max):
            raise ValueError(f"counts must be integers below 2**63, got dtype {counts.dtype}")
        counts = np.array(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        row_sums = counts.sum(axis=1)
        safe = np.where(row_sums == 0, 1, row_sums)
        object.__setattr__(self, "counts", _frozen(counts))
        object.__setattr__(self, "probs", _frozen(counts / safe[:, None]))


@dataclass(frozen=True)
class WindowConfig:
    """Sliding window size (in instants) and matrix scope."""

    window_size: int
    scope: str = PER_USER

    def __post_init__(self):
        object.__setattr__(self, "window_size", _whole(self.window_size, "window_size"))
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if self.scope not in (GENERAL, PER_USER):
            raise ValueError(f"scope must be '{GENERAL}' or '{PER_USER}', got {self.scope!r}")


def build_general_matrix(labels, zone_count: int) -> TransitionMatrix:
    """Tally every (user, t -> t+1) transition over all users and instants."""
    counts = kern.count_transitions(_zone_table(labels, zone_count, "labels"), zone_count)
    return TransitionMatrix(counts)


@dataclass(frozen=True)
class PredictionRun:
    """Predicted zone table for one run.

    ``labels_pred`` covers every instant; instants before the first predicted
    one, ``window_size`` (1 <= window_size < instants), carry the true labels,
    so real and predicted series coincide up to the learning/prediction
    boundary.
    """

    labels_pred: np.ndarray
    window_size: int

    def __post_init__(self):
        labels = _frozen(np.array(_zone_table(self.labels_pred, None, "labels_pred"), order="C"))
        object.__setattr__(self, "window_size", _whole(self.window_size, "window_size"))
        if not 1 <= self.window_size < labels.shape[1]:
            raise ValueError(f"window_size must lie in [1, {labels.shape[1]}), got {self.window_size}")
        object.__setattr__(self, "labels_pred", labels)


def predict_labels(labels, zone_count: int, cfg: WindowConfig, seeds) -> list[PredictionRun]:
    """Forecast every user's zone at each instant from ``window_size`` on,
    once per seed in ``seeds``; run r is seeded with ``seeds[r]``.

    Each step builds the window matrix ending at t-1 from true labels only,
    then samples the next zone from the row of the previous predicted zone
    (the true zone at t-1 for the first prediction). One seeded generator
    drives each run; its draws are made in (user, instant) order and stored
    instant-major, as the chain reads them. All runs go through one chain
    pass, stacked side by side, so the window matrices are counted once
    whatever the number of runs.
    """
    labels = _zone_table(labels, zone_count, "labels")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one run")
    users, instants = labels.shape
    w = cfg.window_size
    if instants <= w:
        raise InfeasibleError(
            f"not enough history: {instants} instants cannot support a window of {w}"
        )
    draws = np.empty((instants - w, len(seeds) * users))
    for r, seed in enumerate(seeds):
        draws[:, r * users : (r + 1) * users] = np.random.default_rng(seed).random((users, instants - w)).T
    pred = kern.predict_series(labels, zone_count, w, cfg.scope == PER_USER, draws)
    return [PredictionRun(pred[r * users : (r + 1) * users], w) for r in range(len(seeds))]


def run_prediction(traces: TraceSet, zoning: Zoning, cfg: WindowConfig, seed: int) -> PredictionRun:
    """``predict_labels`` over ``zoning``'s labels for the one seed ``seed``,
    after checking that they cover the users and instants of ``traces``."""
    labels = _zone_table(zoning.labels, None, "labels", (traces.user_count, traces.instant_count))
    return predict_labels(labels, zoning.zone_count, cfg, [seed])[0]
