"""Normalized prediction error and histogram binning.

The error for one (user, instant) is the distance between the real and
predicted zone centroids divided by the diagonal of the observed position
extent, which ``TraceSet`` reduces once, in its range check; the error lies
in [0, 1] whenever the extent covers the centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TraceSet, _frozen, _in_range, _whole
from .markov import PredictionRun
from .zoning import Zoning, _zone_table


_ERROR_MAX = 1.0 + 1e-12  # the largest error accepted: 1 and rounding slack


@dataclass(frozen=True)
class ErrorSeries:
    """Per-user error at each predicted instant from ``first_instant`` on."""

    e: np.ndarray
    first_instant: int

    def __post_init__(self):
        object.__setattr__(self, "e", _frozen(np.asarray(self.e, np.float64)))
        object.__setattr__(self, "first_instant", _whole(self.first_instant, "first_instant"))
        if self.e.size and not (self.e.min() >= 0.0 and self.e.max() <= _ERROR_MAX):
            raise ValueError("error values must lie in [0, 1]")


def position_extent(traces: TraceSet) -> tuple[np.ndarray, np.ndarray]:
    """Component-wise min and max over every observed position, outside
    points included: fresh copies of the pair ``TraceSet`` reduced once."""
    return tuple(end.copy() for end in traces._extent)


def error_series(zoning: Zoning, run: PredictionRun, extent_min, extent_max) -> ErrorSeries:
    """Errors for every user at every predicted instant of one run.

    Each error is a lookup of the flat (real, predicted) zone-pair table at
    ``real * k + pred``, an index computed in the narrowest unsigned type
    that holds k*k - 1 (uint8 for k <= 16). Each extent end is a 2-vector
    in (-2**42, 2**42), as every coordinate is, so the diagonal is finite."""
    for name, end in (("extent_min", extent_min), ("extent_max", extent_max)):
        if np.shape(end) != (2,):
            raise ValueError(f"{name} must be a 2-vector, got shape {np.shape(end)}")
    extent_min, extent_max = np.asarray(extent_min, np.float64), np.asarray(extent_max, np.float64)
    if not (_in_range(np.concatenate((extent_min, extent_max))) and np.all(extent_max > extent_min)):
        raise ValueError(
            f"degenerate extent: max {extent_max} must exceed min {extent_min} component-wise, "
            "and both must be finite, in (-2**42, 2**42)"
        )
    k = zoning.zone_count
    pred = _zone_table(run.labels_pred, k, "labels_pred", zoning.labels.shape)
    first = run.window_size
    c = zoning.all_centroids()
    # one cell per (real, predicted) zone pair, from the same operands as a
    # per-(user, instant) difference would use, so the bits are the same
    table = np.linalg.norm(c[:, None] - c[None], axis=2) / np.linalg.norm(extent_max - extent_min)
    # built in place: an int64 index table raised the benchmark's peak RSS
    cell = np.multiply(zoning.labels[:, first:], k, dtype=np.min_scalar_type(k * k - 1), casting="unsafe")
    np.add(cell, pred[:, first:], out=cell, casting="unsafe")
    return ErrorSeries(table.reshape(-1)[cell], first)


def error_histogram(errors, edges) -> np.ndarray:
    """Counts of an array of errors over the bins between consecutive
    ``edges`` (``histogram_edges(bin_count)``, built once per report), each
    value in the bin whose edges hold it.

    The last bin is closed on the right, so an error of exactly 1 is counted.
    Fewer than two edges, edges not strictly increasing, not covering [0, 1]
    or outside (-2**42, 2**42), a value outside [0, 1], with the tolerance
    ``ErrorSeries`` allows, or NaN is refused.
    """
    edges = np.asarray(edges, np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError(f"edges must be one row of at least two values, got shape {edges.shape}")
    if not (_in_range(edges) and np.all(np.diff(edges) > 0) and edges[0] <= 0.0 and edges[-1] >= 1.0):
        raise ValueError(f"edges must be finite, strictly increasing and cover [0, 1] in (-2**42, 2**42), got {edges}")
    bin_count = edges.size - 1
    values = np.asarray(errors, np.float64).ravel()
    if values.size and not (values.min() >= 0.0 and values.max() <= _ERROR_MAX):
        raise ValueError("error values must lie in [0, 1]")
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.bincount(np.minimum(idx, bin_count - 1), minlength=bin_count)


def histogram_edges(bin_count: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, bin_count + 1)
