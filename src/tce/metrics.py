"""Normalized prediction error and histogram binning.

The error for one (user, instant) is the distance between the real and
predicted zone centroids divided by the diagonal of the observed position
extent, which keeps it in [0, 1] whenever the extent covers the centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TraceSet, _frozen
from .markov import PredictionRun
from .zoning import Zoning


@dataclass(frozen=True)
class ErrorSeries:
    """Per-user error at each predicted instant from ``first_instant`` on."""

    e: np.ndarray
    first_instant: int

    def __post_init__(self):
        object.__setattr__(self, "e", _frozen(np.asarray(self.e, np.float64)))
        if self.e.size and (self.e.min() < 0.0 or self.e.max() > 1.0 + 1e-12):
            raise ValueError("error values must lie in [0, 1]")


def position_extent(traces: TraceSet) -> tuple[np.ndarray, np.ndarray]:
    """Component-wise min and max over every observed position, outside
    points included."""
    pts = traces.all_points()
    return pts.min(axis=0), pts.max(axis=0)


def error_series(zoning: Zoning, run: PredictionRun, extent_min, extent_max) -> ErrorSeries:
    """Errors for every user at every predicted instant of one run."""
    extent_min = np.asarray(extent_min, np.float64)
    extent_max = np.asarray(extent_max, np.float64)
    if not np.all(extent_max > extent_min):
        raise ValueError(
            f"degenerate extent: max {extent_max} must exceed min {extent_min} component-wise"
        )
    first = run.first_predicted_instant
    real = zoning.labels[:, first:]
    pred = run.labels_pred[:, first:]
    centroids = zoning.all_centroids()
    diff = centroids[real] - centroids[pred]
    e = np.linalg.norm(diff, axis=2) / np.linalg.norm(extent_max - extent_min)
    return ErrorSeries(e, first)


def error_histogram(errors, bin_count: int) -> np.ndarray:
    """Counts of an array of errors over ``bin_count`` equal-width bins
    spanning [0, 1].

    The last bin is closed on the right, so an error of exactly 1 is counted.
    """
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    values = np.asarray(errors, np.float64).ravel()
    idx = np.minimum((values * bin_count).astype(np.int64), bin_count - 1)
    return np.bincount(idx, minlength=bin_count)


def histogram_edges(bin_count: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, bin_count + 1)
