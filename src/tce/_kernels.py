"""Hot numeric kernels, vectorized with numpy.

One implementation per kernel: nearest-centroid assignment, the K-Means
update sums, transition counting and the sliding-window prediction chain.
Float results are fixed bit for bit, so a seed fixes every output byte:
``nearest_labels`` makes one pass per centroid, in index order, over the x
and y columns, computing ``dx*dx + dy*dy``; a label moves only on a strictly
smaller distance (ties go to the lowest index), and the running best is kept
with ``np.minimum``, which for finite inputs holds the same bits (every
distance is at least +0, and on a tie both sides are equal);
``accumulate_points`` sums with ``np.bincount(labels, weights=...)``, which
adds the points in ascending index order. ``predict_series`` forecasts every
run of one label table in one pass over one sliding count table, one
instant at a time; its pair keys, draws and predictions are instant-major
tables, so every step reads and writes contiguous rows. It draws each zone
from the integer window counts, in the narrowest unsigned type that holds a
full column (w-1 pairs per user, or users*(w-1) in general), so the only
rounding is one product per draw; the drawn zone is a byte count of the
cumulative counts at or below the draw. ``tests/test_kernels.py`` checks each
kernel against a plain-Python loop, and the stacked runs against one loop
per run.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, which the benchmark
    (``perfbench/run.py``) writes into each bench point."""
    return "numpy"


def nearest_labels(points, centroids):
    """For each point, index of the nearest centroid (ties to the lowest index)
    and the squared distance to it. Memory is O(points), whatever the number
    of centroids.

    The label moves only where a distance is strictly smaller than the best
    so far, and the best is kept with ``np.minimum``. Points and centroids
    must be finite; the coordinates ``zoning`` passes lie within 2**42 of 0
    (``core._BOUND``), so no squared distance overflows."""
    x = np.ascontiguousarray(points[:, 0], np.float64)
    y = np.ascontiguousarray(points[:, 1], np.float64)
    labels = np.zeros(x.shape, np.int64)
    best, d2, dy = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    closer = np.empty(x.shape, bool)
    for j, (cx, cy) in enumerate(np.asarray(centroids, np.float64).tolist()):
        np.subtract(x, cx, out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(y, cy, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(d2, dy, out=d2)
        if j == 0:
            np.copyto(best, d2)
            continue
        np.less(d2, best, out=closer)
        np.minimum(best, d2, out=best)
        np.copyto(labels, j, where=closer)
    return labels, best


def accumulate_points(points, labels, k):
    """Per-cluster coordinate sums and point counts (K-Means update step)."""
    sums = np.empty((k, 2), np.float64)
    sums[:, 0] = np.bincount(labels, weights=points[:, 0], minlength=k)
    sums[:, 1] = np.bincount(labels, weights=points[:, 1], minlength=k)
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    return sums, counts


def count_transitions(labels, k):
    """Tally every zone transition (t -> t+1) of every user."""
    frm = labels[:, :-1].ravel()
    to = labels[:, 1:].ravel()
    return np.bincount(frm * k + to, minlength=k * k).reshape(k, k)


# ---------------------------------------------------------------------------
# sliding-window prediction chain
#
# For each instant t in [w, T): count the window pairs of the true labels at
# instants {t-w..t-1}, then sample the next zone from the row of the current
# state by cumulative interval lookup. The state is the previous prediction
# except at t=w, where it is the true label at w-1. Rows with no observed
# transition predict "stay".
#
# The R runs of one forecast share the true labels, so they are stacked as
# columns of one chain: draws is a (T-w, R*U) table whose column r*U + u is
# user u in run r, with draws[t-w, r*U + u] its draw at instant t. The
# (R*U, T) output has the same runs as rows; R = 1 is a single run.
#
# Both scopes are one grouped count: a user's group is its own index when
# per_user, else 0, and the counts of every group sit in one (k to,
# groups*k from) table, so a row in state s reads column group*k + s. The
# table index of every user's pair (t -> t+1) is laid out once as row t of
# pairs. The table is counted over pairs[:w-1], the first window, then
# slides: after instant t the pair (t-1 -> t) enters and the pair (t-w ->
# t-w+1) leaves. np.add.at counts the general scope's repeated keys, and for
# w = 1 the two updates cancel.
#
# Every table the steps read or write (pairs, draws and the predictions) is
# instant-major, so a step reads and writes contiguous rows; reading a
# column of a (user, instant) table costs about one cache miss per element
# at event scale. The keys are computed straight into their int64 table
# after the predictions are allocated: allocating the keys first left a
# heap hole that raised the benchmark's peak RSS by 2.8 MB.
#
# A window holds w-1 pairs per user, so no cell and no column total passes
# (1 if per_user else U) * (w-1), and the table holds its counts in the
# narrowest unsigned type that does: uint8 per user for w <= 256, which at
# event scale makes the gather read one byte per count instead of eight.
# The first window is counted straight into it, so no int64 table (3.9 MB
# at event scale) is ever made. Increments are scalars of the table's type:
# with a Python int, np.add.at on a uint8 table took 1.3 ms a call at event
# scale, against 34 us. The pair that enters is added before the one that
# leaves is dropped, so a full cell may wrap for a moment; unsigned
# arithmetic is modular, and the drop brings it back before the next score.
#
# Each step gathers the rows' columns, sums them in place into cumulative
# counts C (k-1 row adds, exact in the table's type) and draws zone j where
# C[j-1] <= floor(u*total) < C[j], total = C[k-1]. Only the product rounds:
# for u <= 1 - 2**-53 and total < 2**53, fl(u*total) < total, so a draw
# never passes the last zone with a count.
#
# j is the number of zones with C[i] <= floor(u*total). The comparison goes
# into one preallocated bool table, whose bytes are summed down the zones in
# the narrowest unsigned type that holds k (uint8 for k <= 255): an int64
# count of a fresh bool table took 51 us a step at event scale, against 11.


def predict_series(labels, k, w, per_user, draws):
    U, T = labels.shape
    runs = draws.shape[1] // U
    width = (U if per_user else 1) * k
    user_row = (np.arange(U) if per_user else np.zeros(U, np.int64)) * k
    first_row = np.tile(user_row, runs)
    pred = np.empty((T, runs * U), np.int64)
    pred[:w] = np.tile(labels[:, :w].T, runs)
    pairs = np.empty((T - 1, U), np.int64)  # row t: each user's pair (t -> t+1)
    np.multiply(labels[:, 1:].T, width, out=pairs)
    np.add(pairs, labels[:, :-1].T, out=pairs)
    pairs += user_row
    dtype = np.min_scalar_type((1 if per_user else U) * (w - 1))  # a full column's total
    one = dtype.type(1)
    table = np.zeros((k, width), dtype)
    np.add.at(table.reshape(-1), pairs[: w - 1].ravel(), one)
    below = np.empty((k, runs * U), bool)  # C[i] <= target, one byte per (zone, row)
    zone_dtype = np.min_scalar_type(k)  # a count of zones, 0..k
    for t in range(w, T):
        state = pred[t - 1]
        cum = np.take(table, first_row + state, axis=1)
        for r in range(1, k):
            np.add(cum[r - 1], cum[r], out=cum[r])
        total = cum[k - 1]
        target = (draws[t - w] * total).astype(dtype)
        np.less_equal(cum, target, out=below)
        j = below.view(np.uint8).sum(axis=0, dtype=zone_dtype)
        pred[t] = np.where(total == 0, state, j)
        np.add.at(table.reshape(-1), pairs[t - 1], one)
        np.subtract.at(table.reshape(-1), pairs[t - w], one)
    return pred.T
