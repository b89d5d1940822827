"""Per-zone time series of user counts and summed traffic.

Real and predicted series live side by side; the predicted table is expected
to carry true labels before the first predicted instant, so both series
conserve totals at every instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TraceSet, _frozen
from .zoning import _zone_table


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


def _tally(labels: np.ndarray, weights: np.ndarray, zone_count: int):
    """User counts and traffic sums per (zone, instant), from one flat index;
    ``weights`` holds each user's traffic once per instant."""
    instants = labels.shape[1]
    flat = labels * instants
    flat += np.arange(instants)  # in place: ``weights`` is held meanwhile
    flat = flat.ravel()
    size = zone_count * instants
    users = np.bincount(flat, minlength=size).reshape(zone_count, instants)
    sums = np.bincount(flat, weights=weights, minlength=size)
    return users, sums.reshape(zone_count, instants)


def aggregate_runs(traces: TraceSet, labels_real, runs_pred, zone_count: int) -> list[ZoneSeries]:
    """``aggregate`` for each predicted label table of ``runs_pred``; the
    real series is counted once and shared by every run's ZoneSeries."""
    shape = (traces.user_count, traces.instant_count)
    weights = np.repeat(traces.mean_traffic, traces.instant_count)

    def tally(name, table):
        return _tally(_zone_table(table, zone_count, name, shape), weights, zone_count)

    users_real, traffic_real = tally("labels_real", labels_real)
    return [
        ZoneSeries(users_real, users_pred, traffic_real, traffic_pred)
        for users_pred, traffic_pred in (tally("labels_pred", pred) for pred in runs_pred)
    ]


def aggregate(traces: TraceSet, labels_real, labels_pred, zone_count: int) -> ZoneSeries:
    """Count users and sum their mean traffic per (zone, instant).

    ``traffic[z, t]`` adds up the constant mean rate of every user whose label
    at t is z; predicted aggregates use the predicted labels.
    """
    return aggregate_runs(traces, labels_real, [labels_pred], zone_count)[0]
