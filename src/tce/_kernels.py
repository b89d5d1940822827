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
adds the points in ascending index order, and ``predict_series`` adds each
row's probabilities in zone order, one in-place row add at a time, which is
the sequential order of ``np.cumsum``. ``predict_series`` forecasts every
run of one label table in one pass over one sliding count table, one
instant at a time; its pair keys, draws and predictions are instant-major
tables, so every step reads and writes contiguous rows. A count table with
fewer columns than the chain has rows is scored once per column, and each
row looks its column's cumulative probabilities up. Both ways of scoring do
the same divisions and adds per column, so they give the same bits. The
table holds its counts in the narrowest unsigned type that holds a full
column, w-1 pairs per user or users*(w-1) in general; each step casts the
counts it scores to float64 once and divides float64 by float64, the
operation numpy's integer true division performs, so the bits are those of
an int64 table. ``tests/test_kernels.py`` checks each kernel against a
plain-Python loop, and the stacked runs against one loop per run.
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
    must be finite; ``zoning`` refuses coordinates whose squared distances
    would overflow."""
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
# Scoring works on (k, columns) float64 arrays whose probabilities are summed by k-1
# in-place row adds, the sequential order of np.cumsum. A narrow table, with
# fewer columns than the chain has rows (the general table, or per_user with
# more runs than zones), is scored whole, once per column, and each row
# takes its column's cumulative sums; a wider one has the rows' columns
# gathered first. Either way each column sees the same division and adds,
# so the bits do not depend on the route.
#
# A window holds w-1 pairs per user, so no cell and no column total passes
# (1 if per_user else U) * (w-1), and the table holds its counts in the
# narrowest unsigned type that does: uint8 per user for w <= 256, which at
# event scale makes the gather read one byte per count instead of eight.
# The first window is counted straight into it, so no int64 table (3.9 MB
# at event scale) is ever made. Increments are scalars of the table's type: with a Python int, np.add.at
# on a uint8 table took 1.3 ms a call at event scale, against 34 us. The
# pair that enters is added before the one that leaves is dropped, so a
# full cell may wrap for a moment; unsigned arithmetic is modular, and the
# drop brings it back before the next score. Each step copies the scored
# counts into cum (an exact cast) and sums the column totals
# there, exactly, as every count is an integer far below 2**53; it then
# divides by the totals, 0 read as 1. numpy's int/int true division casts
# both sides to float64 and divides, so the bits are the same as an int64
# table's. Summing in the table's type, or casting the totals inside
# np.maximum, left numpy's 64 KB cast buffers on the heap and raised the
# benchmark's peak RSS by 0.1-0.25 MB.


def predict_series(labels, k, w, per_user, draws):
    U, T = labels.shape
    runs = draws.shape[1] // U
    width = (U if per_user else 1) * k
    narrow = width < runs * U
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
    cum = np.empty((k, width if narrow else runs * U))
    for t in range(w, T):
        state = pred[t - 1]
        cols = first_row + state
        rows = table if narrow else np.take(table, cols, axis=1)
        np.copyto(cum, rows)
        total = cum.sum(axis=0)
        np.divide(cum, np.maximum(total, 1), out=cum)
        for r in range(1, k):
            np.add(cum[r - 1], cum[r], out=cum[r])
        if narrow:
            j = (np.take(cum, cols, axis=1) <= draws[t - w]).sum(axis=0)
            total = total[cols]
        else:
            j = (cum <= draws[t - w]).sum(axis=0)
        # cum is nondecreasing, so j passes the last positive-probability zone
        # only by reaching k; there the residual float mass lands in that zone
        over = np.flatnonzero((j == k) & (total > 0))
        j[over] = (k - 1) - np.argmax(table[::-1, cols[over]] > 0, axis=0)
        pred[t] = np.where(total == 0, state, j)
        np.add.at(table.reshape(-1), pairs[t - 1], one)
        np.subtract.at(table.reshape(-1), pairs[t - w], one)
    return pred.T
