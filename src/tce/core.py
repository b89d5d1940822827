"""Geometry, time grid, and trace containers shared by all other modules.

Positions are stored in index units throughout; meters only appear through
``real_distance``. Every container is immutable after construction (arrays
are marked read-only), so instances can be shared across workers freely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Every coordinate (Rect corner, position, centroid) lies in (-_BOUND, _BOUND) and every rate in
# [0, _BOUND): spans and squared-distance totals stay finite, 1/1000 lattice counts below 2**52.
_BOUND = 2.0**42


def _in_range(values: np.ndarray, rates: bool = False) -> bool:
    """All ``values`` in (-_BOUND, _BOUND), or in [0, _BOUND) for ``rates``; NaN fails via min/max."""
    lo, hi = values.min(initial=0.0), values.max(initial=0.0)
    return bool((lo >= 0 if rates else lo > -_BOUND) and hi < _BOUND)


def _vec2(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64).reshape(-1)
    if arr.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {arr.shape}")
    if not _in_range(arr):
        raise ValueError(f"{name} must lie in (-2**42, 2**42), got {arr}")
    arr.setflags(write=False)
    return arr


def _whole(value, name: str) -> int:
    """``value`` as an int when it is integral (a Python or numpy integer, or
    a float with no fraction); anything else is a ValueError naming ``name``."""
    try:
        whole = int(value)
        if whole == value:
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle in index units."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _vec2(self.lo, "Rect.lo"))
        object.__setattr__(self, "hi", _vec2(self.hi, "Rect.hi"))
        if not np.all(self.lo < self.hi):
            raise ValueError(f"Rect.lo must be < Rect.hi component-wise, got {self.lo} / {self.hi}")

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask over an (n, 2) array, boundary counted as inside."""
        return np.all(pts >= self.lo, axis=-1) & np.all(pts <= self.hi, axis=-1)

    def overlaps_interior(self, other: "Rect") -> bool:
        """True when the two open interiors intersect (touching edges do not count)."""
        return bool(np.all(np.maximum(self.lo, other.lo) < np.minimum(self.hi, other.hi)))


@dataclass(frozen=True)
class Venue:
    """Rectangular event precinct plus optional outside regions.

    ``index_scale`` is the length of one index unit in meters.
    """

    precinct: Rect
    outside_regions: tuple[Rect, ...] = ()
    index_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "outside_regions", tuple(self.outside_regions))
        object.__setattr__(self, "index_scale", float(self.index_scale))
        if not isinstance(self.precinct, Rect):
            raise ValueError("precinct must be a Rect")
        if not (np.isfinite(self.index_scale) and self.index_scale > 0):
            raise ValueError(f"index_scale must be positive, got {self.index_scale}")
        for i, region in enumerate(self.outside_regions):
            if not isinstance(region, Rect):
                raise ValueError(f"outside_regions[{i}] must be a Rect")
            if region.overlaps_interior(self.precinct):
                raise ValueError(f"outside_regions[{i}] overlaps the precinct")


@dataclass(frozen=True)
class TimeGrid:
    """Regular instants 0..n at ``step_seconds`` spacing (instant_count = n+1)."""

    step_seconds: float
    instant_count: int

    def __post_init__(self):
        object.__setattr__(self, "step_seconds", float(self.step_seconds))
        object.__setattr__(self, "instant_count", _whole(self.instant_count, "instant_count"))
        if not (np.isfinite(self.step_seconds) and self.step_seconds > 0):
            raise ValueError(f"step_seconds must be positive, got {self.step_seconds}")
        if self.instant_count < 2:
            raise ValueError(f"instant_count must be >= 2, got {self.instant_count}")
        last = self.instant_count - 1  # a count past float64 would raise OverflowError in the product
        if last > sys.float_info.max or not math.isfinite(self.step_seconds * last):
            raise ValueError(f"step_seconds * (instant_count - 1) must be finite, got {self.step_seconds} * {last}")

    def instants_seconds(self) -> np.ndarray:
        return np.arange(self.instant_count, dtype=np.float64) * self.step_seconds


@dataclass(frozen=True)
class TraceSet:
    """Per-user position sequences plus constant per-user mean traffic rates.

    ``positions`` has shape (users, instants, 2) in index units; ``mean_traffic``
    has shape (users,) in Mbit/s.
    """

    positions: np.ndarray
    mean_traffic: np.ndarray
    _extent: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        traffic = np.array(self.mean_traffic, dtype=np.float64)
        if pos.ndim != 3 or pos.shape[2] != 2:
            raise ValueError(f"positions must have shape (users, instants, 2), got {pos.shape}")
        if pos.shape[0] < 1 or pos.shape[1] < 1:
            raise ValueError("positions must contain at least one user and one instant")
        rows = pos.reshape(pos.shape[0], -1)  # users first over contiguous rows, then (instants, 2)
        extent = rows.min(axis=0).reshape(-1, 2).min(axis=0), rows.max(axis=0).reshape(-1, 2).max(axis=0)
        if not _in_range(np.concatenate(extent)):
            raise ValueError("positions must lie in (-2**42, 2**42)")
        if traffic.shape != (pos.shape[0],):
            raise ValueError(
                f"mean_traffic must have one entry per user, got {traffic.shape} for {pos.shape[0]} users"
            )
        if not _in_range(traffic, rates=True):
            raise ValueError("mean_traffic entries must lie in [0, 2**42)")
        object.__setattr__(self, "positions", _frozen(pos))
        object.__setattr__(self, "mean_traffic", _frozen(traffic))
        object.__setattr__(self, "_extent", tuple(map(_frozen, extent)))

    @property
    def user_count(self) -> int:
        return self.positions.shape[0]

    @property
    def instant_count(self) -> int:
        return self.positions.shape[1]

    def all_points(self) -> np.ndarray:
        """All observed positions pooled, shape (users * instants, 2)."""
        return self.positions.reshape(-1, 2)


def real_distance(system_distance: float, venue: Venue) -> float:
    """Convert a distance in index units to meters via the venue scale."""
    return venue.index_scale * float(system_distance)
