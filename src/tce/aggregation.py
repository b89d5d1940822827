"""Per-zone time series of user counts and summed traffic.

Real and predicted series live side by side; the predicted table is expected
to carry true labels before the first predicted instant, so both series
conserve totals at every instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TraceSet, _frozen


@dataclass(frozen=True)
class ZoneSeries:
    """(zones x instants) matrices: user counts and traffic, real and predicted."""

    users_real: np.ndarray
    users_pred: np.ndarray
    traffic_real: np.ndarray
    traffic_pred: np.ndarray

    def __post_init__(self):
        for name in ("users_real", "users_pred", "traffic_real", "traffic_pred"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name))))


def _tally(labels: np.ndarray, traffic: np.ndarray, zone_count: int):
    """User counts and traffic sums per (zone, instant), from one flat index."""
    instants = labels.shape[1]
    flat = (labels * instants + np.arange(instants)).ravel()
    size = zone_count * instants
    users = np.bincount(flat, minlength=size).reshape(zone_count, instants)
    sums = np.bincount(flat, weights=np.repeat(traffic, instants), minlength=size)
    return users, sums.reshape(zone_count, instants)


def aggregate(traces: TraceSet, labels_real, labels_pred, zone_count: int) -> ZoneSeries:
    """Count users and sum their mean traffic per (zone, instant).

    ``traffic[z, t]`` adds up the constant mean rate of every user whose label
    at t is z; predicted aggregates use the predicted labels.
    """
    labels_real = np.asarray(labels_real, dtype=np.int64)
    labels_pred = np.asarray(labels_pred, dtype=np.int64)
    shape = (traces.user_count, traces.instant_count)
    for name, table in (("labels_real", labels_real), ("labels_pred", labels_pred)):
        if table.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
        if table.min() < 0 or table.max() >= zone_count:
            raise ValueError(f"{name} contains zone ids outside [0, {zone_count})")
    users_real, traffic_real = _tally(labels_real, traces.mean_traffic, zone_count)
    users_pred, traffic_pred = _tally(labels_pred, traces.mean_traffic, zone_count)
    return ZoneSeries(users_real, users_pred, traffic_real, traffic_pred)
