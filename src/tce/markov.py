"""Transition matrices over zones and the sliding-window prediction chain.

The general matrix (all users, all instants) is descriptive only; forecasting
uses window matrices rebuilt each step from true labels. ``run_prediction``
therefore never accepts a matrix argument: it derives every window matrix
internally, so the general matrix cannot leak into the forecast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .core import TraceSet, _frozen
from .errors import InfeasibleError
from .zoning import Zoning

GENERAL = "general"
PER_USER = "per_user"


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic zone transition matrix with its raw-count backing store.

    Rows with no observed transition stay all-zero in ``probs``.
    """

    counts: np.ndarray
    probs: np.ndarray
    zone_count: int

    @classmethod
    def from_counts(cls, counts) -> "TransitionMatrix":
        counts = np.array(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        row_sums = counts.sum(axis=1)
        safe = np.where(row_sums == 0, 1, row_sums)
        probs = counts / safe[:, None]
        return cls(_frozen(counts), _frozen(probs), counts.shape[0])

    def row(self, zone: int) -> np.ndarray:
        return self.probs[zone]


@dataclass(frozen=True)
class WindowConfig:
    """Sliding window size (in instants) and matrix scope."""

    window_size: int
    scope: str = PER_USER

    def __post_init__(self):
        object.__setattr__(self, "window_size", int(self.window_size))
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if self.scope not in (GENERAL, PER_USER):
            raise ValueError(f"scope must be '{GENERAL}' or '{PER_USER}', got {self.scope!r}")


def _check_labels(labels, zone_count: int) -> np.ndarray:
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.ndim != 2 or labels.size == 0:
        raise ValueError(f"labels must be a non-empty (users, instants) table, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= zone_count:
        raise ValueError(f"zone ids must lie in [0, {zone_count})")
    return labels


def build_general_matrix(labels, zone_count: int) -> TransitionMatrix:
    """Tally every (user, t -> t+1) transition over all users and instants."""
    labels = _check_labels(labels, zone_count)
    counts = kern.count_transitions(labels, 0, labels.shape[1] - 1, zone_count)
    return TransitionMatrix.from_counts(counts)


def build_window_matrix(
    labels,
    zone_count: int,
    cfg: WindowConfig,
    end_instant: int,
    user: int | None = None,
) -> TransitionMatrix:
    """Transition matrix over the window of true labels ending at ``end_instant``.

    The window holds the last ``window_size`` instants, {end-W+1 .. end}, i.e.
    W-1 transitions per covered user. Scope ``general`` pools all users; scope
    ``per_user`` requires ``user`` and uses only that user's labels.
    """
    labels = _check_labels(labels, zone_count)
    w = cfg.window_size
    if cfg.scope == PER_USER:
        if user is None:
            raise ValueError("per_user scope requires a user id")
        if not 0 <= user < labels.shape[0]:
            raise ValueError(f"user id {user} out of range")
        labels = labels[user : user + 1]
    elif user is not None:
        raise ValueError("general scope does not take a user id")
    if end_instant >= labels.shape[1]:
        raise ValueError(f"end_instant {end_instant} beyond last instant {labels.shape[1] - 1}")
    if end_instant < w - 1:
        raise InfeasibleError(
            f"not enough history: window of {w} instants is not full at instant {end_instant}"
        )
    counts = kern.count_transitions(labels, end_instant - w + 1, end_instant, zone_count)
    return TransitionMatrix.from_counts(counts)


def predict_next(current_zone: int, matrix: TransitionMatrix, u: float) -> int:
    """Next zone by cumulative-interval lookup of ``u`` in the current row.

    Intervals are left-closed right-open in column order; the last interval
    with positive probability absorbs any residual float mass up to 1.0. A row
    with no observed transitions predicts "stay in the current zone".
    """
    k = matrix.zone_count
    if not 0 <= current_zone < k:
        raise ValueError(f"zone id {current_zone} out of range [0, {k})")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    if matrix.counts[current_zone].sum() == 0:
        return int(current_zone)
    row = matrix.probs[current_zone]
    cum = np.cumsum(row)
    j = int(np.searchsorted(cum, u, side="right"))
    last_pos = int(np.flatnonzero(row > 0)[-1])
    return min(j, last_pos)


@dataclass(frozen=True)
class PredictionRun:
    """Predicted zone table for one seeded run.

    ``labels_pred`` covers every instant; instants before the first predicted
    one carry the true labels, so real and predicted series coincide up to the
    learning/prediction boundary.
    """

    labels_pred: np.ndarray
    window_size: int
    scope: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "labels_pred", _frozen(np.array(self.labels_pred, np.int64)))

    @property
    def first_predicted_instant(self) -> int:
        return self.window_size

    @property
    def predicted_count(self) -> int:
        """Predictions per user: instants window_size .. n."""
        return self.labels_pred.shape[1] - self.window_size


def predict_labels(labels, zone_count: int, cfg: WindowConfig, seed: int) -> PredictionRun:
    """Forecast every user's zone at each instant from ``window_size`` on.

    Each step builds the window matrix ending at t-1 from true labels only,
    then samples the next zone from the row of the previous predicted zone
    (the true zone at t-1 for the first prediction). One seeded generator
    drives the whole run; draws are laid out in (user, instant) order.
    """
    labels = _check_labels(labels, zone_count)
    users, instants = labels.shape
    w = cfg.window_size
    if instants <= w:
        raise InfeasibleError(
            f"not enough history: {instants} instants cannot support a window of {w}"
        )
    rng = np.random.default_rng(seed)
    uniforms = rng.random((users, instants - w))
    pred = kern.predict_series(labels, zone_count, w, cfg.scope == PER_USER, uniforms)
    return PredictionRun(pred, w, cfg.scope, seed)


def run_prediction(traces: TraceSet, zoning: Zoning, cfg: WindowConfig, seed: int) -> PredictionRun:
    """``predict_labels`` over ``zoning``'s labels, after checking that they
    cover the users and instants of ``traces``."""
    labels = zoning.labels
    if labels.shape != (traces.user_count, traces.instant_count):
        raise ValueError(
            f"zoning labels shape {labels.shape} does not match traces "
            f"({traces.user_count} users x {traces.instant_count} instants)"
        )
    return predict_labels(labels, zoning.zone_count, cfg, seed)
