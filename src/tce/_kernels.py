"""Hot numeric kernels, vectorized with numpy.

One implementation per kernel: nearest-centroid assignment, the K-Means
update sums, transition counting and the sliding-window prediction chain.
Float accumulations run in a fixed scalar order (``np.add.at`` and
``np.cumsum`` add sequentially), so a seed fixes every output bit;
``tests/test_kernels.py`` checks each kernel against a plain-Python loop.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, recorded in the run manifest."""
    return "numpy"


def nearest_labels(points, centroids):
    """For each point, index of the nearest centroid (ties to the lowest index)
    and the squared distance to it."""
    d = points[:, None, :] - centroids[None, :, :]
    d2 = (d * d).sum(axis=2)
    labels = np.argmin(d2, axis=1).astype(np.int64)
    return labels, d2[np.arange(points.shape[0]), labels]


def accumulate_points(points, labels, k):
    """Per-cluster coordinate sums and point counts (K-Means update step)."""
    sums = np.zeros((k, 2), np.float64)
    np.add.at(sums, labels, points)  # unbuffered, ascending-index adds
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    return sums, counts


def count_transitions(labels, t0, t1, k):
    """Tally zone transitions (t -> t+1) for pair starts t in [t0, t1)."""
    frm = labels[:, t0:t1].ravel()
    to = labels[:, t0 + 1 : t1 + 1].ravel()
    return np.bincount(frm * k + to, minlength=k * k).reshape(k, k)


# ---------------------------------------------------------------------------
# sliding-window prediction chain
#
# For each instant t in [w, T): build the transition matrix over the true
# labels of instants {t-w..t-1} (all users, or the one user when per_user),
# then sample the next zone from the row of the current state by cumulative
# interval lookup. The state is the previous prediction except at t=w, where
# it is the true label at w-1. Rows with no observed transition predict
# "stay". uniforms[u, t-w] is the draw for user u at instant t.


def predict_series(labels, k, w, per_user, uniforms):
    U, T = labels.shape
    out = labels.copy()
    state = labels[:, w - 1].copy()
    users = np.arange(U)
    for t in range(w, T):
        if per_user:
            frm = labels[:, t - w : t - 1]
            to = labels[:, t - w + 1 : t]
            flat = (users[:, None] * k * k + frm * k + to).ravel()
            counts = np.bincount(flat, minlength=U * k * k).reshape(U, k, k)
            rows = counts[users, state]
        else:
            frm = labels[:, t - w : t - 1].ravel()
            to = labels[:, t - w + 1 : t].ravel()
            counts = np.bincount(frm * k + to, minlength=k * k).reshape(k, k)
            rows = counts[state]
        rowsum = rows.sum(axis=1)
        safe = np.where(rowsum == 0, 1, rowsum)
        cum = np.cumsum(rows / safe[:, None], axis=1)
        u = uniforms[:, t - w]
        j = (cum <= u[:, None]).sum(axis=1)
        # residual float mass lands in the last positive-probability interval
        last_pos = (k - 1) - np.argmax(rows[:, ::-1] > 0, axis=1)
        j = np.minimum(j, last_pos)
        state = np.where(rowsum == 0, state, j)
        out[:, t] = state
    return out
