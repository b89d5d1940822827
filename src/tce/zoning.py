"""Fixed spatial zones from two independent K-Means passes.

In-precinct samples and out-of-precinct samples are clustered separately
over the pooled positions of all users at all instants. Outside zone ids
follow the inside ids contiguously, and centroids never change once fitted.

Users pause, so about half of the pooled positions repeat the one before.
K-Means finds these runs of equal adjacent points once per input and does
its per-point work (the k-means++ D^2 update, each Lloyd assignment) once
per run, gathering the result back to every point. The draws, update sums
and objective still run over all points in index order, so the result is
the same, bit for bit, as assigning every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .core import TraceSet, Venue, _frozen
from .errors import InfeasibleError

MAX_ITER = 300


def _zone_table(table, zone_count, name: str, shape=None) -> np.ndarray:
    """``table`` as an int64 (users, instants) table of zone ids in
    [0, ``zone_count``) (unchecked when ``zone_count`` is None) that fit in
    int64, of ``shape`` when one is given; anything else is a ValueError
    naming ``name``."""
    table = np.asarray(table)
    if table.ndim != 2 or table.size == 0:
        raise ValueError(f"{name} must be a non-empty (users, instants) table, got shape {table.shape}")
    if shape is not None and table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    if table.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer zone ids, got dtype {table.dtype}")
    table = table.astype(np.int64, copy=False)
    # a negative id reads as at least 2**63 through the uint64 view, so one max checks [0, min(k, 2**63))
    if zone_count is not None and int(table.view(np.uint64).max()) >= min(zone_count, 1 << 63):
        raise ValueError(f"{name} contains zone ids outside [0, {zone_count})")
    return table


@dataclass(frozen=True)
class Zoning:
    """Fitted centroids plus the per-user per-instant zone labels.

    Zone ids 0..len(inside_centroids)-1 are in-precinct; outside ids follow.
    """

    inside_centroids: np.ndarray
    outside_centroids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        for name in ("inside_centroids", "outside_centroids"):
            centroids = np.array(getattr(self, name), np.float64).reshape(-1, 2)
            if not np.all(np.isfinite(centroids)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, _frozen(centroids))
        object.__setattr__(self, "labels", _frozen(np.array(_zone_table(self.labels, self.zone_count, "labels"))))

    @property
    def inside_count(self) -> int:
        return self.inside_centroids.shape[0]

    @property
    def zone_count(self) -> int:
        return self.inside_centroids.shape[0] + self.outside_centroids.shape[0]

    def all_centroids(self) -> np.ndarray:
        return np.vstack([self.inside_centroids, self.outside_centroids])


def _runs(points: np.ndarray):
    """The runs of equal adjacent points (a user's pause): each run's first
    point, as a contiguous array, and each point's run index. A run holds
    points that compare equal, so +0.0 and -0.0 may share one; every
    per-point result used here is a squared difference, which is the same
    for both."""
    start = np.ones(points.shape[0], bool)
    np.any(points[1:] != points[:-1], axis=1, out=start[1:])
    return points[start], np.cumsum(start) - 1


def _kmeans_pp_init(points, firsts, back, k: int, region: str, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: a uniform first pick, then D^2-weighted draws over
    all points; each D^2 update is computed once per run (``_runs``).

    A draw never lands on a position an earlier pick holds, so the D^2 total
    reaches 0 before pick j exactly when the points hold j < k distinct
    positions (j = 0 for no points): that count is the infeasibility error.
    A squared distance is at most (2 max|coordinate|)^2, so positions too far
    out for the D^2 total of n of them to stay finite are refused first.
    """
    n = points.shape[0]
    big = float(np.abs(points).max(initial=0.0))
    if big > np.sqrt(np.finfo(np.float64).max / (4 * max(n, 1))):
        raise InfeasibleError(
            f"cannot cluster {region} positions: |coordinate| up to {big:g} overflows their squared distances"
        )
    fx, fy = np.ascontiguousarray(firsts[:, 0]), np.ascontiguousarray(firsts[:, 1])
    centroids = np.empty((k, 2), np.float64)
    d2 = np.full(n, np.inf)
    for j in range(k):
        total = d2.sum()
        if total == 0:
            raise InfeasibleError(f"cannot form {k} {region} zones from {j} distinct {region} positions")
        idx = rng.integers(n) if j == 0 else rng.choice(n, p=d2 / total)
        centroids[j] = points[idx]
        cx, cy = centroids[j]  # column form: the bits of ((p - c) ** 2).sum(axis=1)
        np.minimum(d2, ((fx - cx) ** 2 + (fy - cy) ** 2)[back], out=d2)
    return centroids


def _repair_empty(points, labels, dist2, centroids, counts):
    """Reseed each empty cluster at the farthest point (from its own centroid)
    among the largest cluster's members."""
    counts = counts.copy()
    d2 = dist2.copy()
    for j in np.flatnonzero(counts == 0):
        largest = int(np.argmax(counts))
        members = np.flatnonzero(labels == largest)
        far = members[int(np.argmax(d2[members]))]
        centroids[j] = points[far]
        counts[largest] -= 1
        d2[far] = -1.0  # a point seeds at most one empty cluster
    return centroids


def _lloyd(points: np.ndarray, k: int, region: str, rng: np.random.Generator):
    """Lloyd iterations until the assignment is stable. Returns centroids,
    labels, and the within-cluster sum of squares after each assignment.

    Each pass assigns every run of equal adjacent points once and gathers the
    result back; the update sums and the objective still add all points in
    index order."""
    firsts, back = _runs(points)
    centroids = _kmeans_pp_init(points, firsts, back, k, region, rng)

    def assign(centroids):
        labels, dist2 = kern.nearest_labels(firsts, centroids)
        return labels[back], dist2[back]

    labels, dist2 = assign(centroids)
    objective = [dist2.sum()]
    for _ in range(MAX_ITER):
        sums, counts = kern.accumulate_points(points, labels, k)
        nonempty = counts > 0
        centroids = np.where(nonempty[:, None], sums / np.where(nonempty, counts, 1)[:, None], centroids)
        if not np.all(nonempty):
            centroids = _repair_empty(points, labels, dist2, centroids, counts)
        new_labels, dist2 = assign(centroids)
        objective.append(dist2.sum())
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels, np.array(objective)


def cluster(traces: TraceSet, venue: Venue, k_inside: int, k_outside: int, seed: int) -> Zoning:
    """Fit the zoning over all positions of all users at all instants.

    Runs one K-Means over in-precinct points and, when any point falls outside
    the precinct, an independent K-Means over the outside points. Every
    (user, instant) is labeled with its nearest centroid of its region class.
    """
    if k_inside < 1 or k_outside < 1:
        raise ValueError("k_inside and k_outside must be >= 1")
    points = traces.all_points()
    mask = venue.precinct.contains_many(points)
    in_pts = np.ascontiguousarray(points[mask])
    out_pts = np.ascontiguousarray(points[~mask])

    rng = np.random.default_rng(seed)
    in_centroids, in_labels, _ = _lloyd(in_pts, k_inside, "in-precinct", rng)

    flat = np.empty(points.shape[0], np.int64)
    flat[mask] = in_labels
    if out_pts.shape[0] > 0:
        out_centroids, out_labels, _ = _lloyd(out_pts, k_outside, "outside", rng)
        flat[~mask] = k_inside + out_labels
    else:
        out_centroids = np.empty((0, 2), np.float64)
    labels = flat.reshape(traces.user_count, traces.instant_count)
    return Zoning(in_centroids, out_centroids, labels)
