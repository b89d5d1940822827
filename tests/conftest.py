from pathlib import Path

import numpy as np
import pytest

from tce import _kernels as kern
from tce.core import Rect, TimeGrid, TraceSet, Venue

ROOT = Path(__file__).resolve().parents[1]
FESTIVAL_INI = ROOT / "configs" / "festival.ini"  # the demo scenario

# One user's zones over 9 instants. The window of the first forecast (instant 8)
# holds the transitions 0->0, 0->1, 0->2, 0->2 out of zone 0, i.e. counts
# [1, 1, 2], and ends in zone 0, so that forecast samples [0.25, 0.25, 0.5].
WORKED_ROW = (0, 0, 1, 0, 2, 0, 2, 0, 0)
WORKED_WINDOW = 8

# cell values the input-file property tests and the loader oracle write into
# every column: blanks, non-numbers, non-finite and out-of-range numbers
CELLS = [
    "", " ", "x", "nan", "inf", "-inf", "-1", "0", "1", "2", "5", "11", "12", "999",
    "2.5", "-0.0", "1e309", "99999999999999999999", "inside", "outside", "1,2",
]


@pytest.fixture
def festival_venue():
    """50x80 precinct with a 10x50 strip outside the right edge."""
    return Venue((0, 0), (50, 80), (Rect((50, 15), (60, 65)),), 1.0)


@pytest.fixture
def grid_small():
    return TimeGrid(300.0, 6)


def make_traces(positions, traffic=None):
    positions = np.asarray(positions, float)
    if traffic is None:
        traffic = np.zeros(positions.shape[0])
    return TraceSet(positions, traffic)


def random_labels(rng, users, instants, zones):
    return rng.integers(0, zones, size=(users, instants)).astype(np.int64)


def interval_lookup(counts_row, state, u):
    """Zone drawn by ``u`` from one row of transition counts, as a plain loop:
    the first interval of the cumulative probabilities whose right end lies
    above ``u``, never past the last zone with a positive count; a row with no
    count stays in ``state``."""
    total = sum(int(c) for c in counts_row)
    if total == 0:
        return state
    last_pos = max(j for j, c in enumerate(counts_row) if c > 0)
    acc = 0.0
    for j, c in enumerate(counts_row):
        acc += int(c) / total
        if u < acc:
            return min(j, last_pos)
    return last_pos


def first_forecasts(row, k, w, us):
    """Forecast at instant ``w`` of one user with zones ``row``, once per
    uniform in ``us``, in one general-scope ``predict_series`` call: the
    identical users pool to that user's own window counts."""
    labels = np.tile(np.array(row[: w + 1], np.int64), (len(us), 1))
    uniforms = np.reshape(np.asarray(us, np.float64), (-1, 1))
    return kern.predict_series(labels, k, w, False, uniforms.T)[:, w]


def nearest_zone_loop(zoning, venue, p):
    """Zone of position ``p`` by a plain loop: the nearest centroid of its
    region class (the precinct, boundary included, or outside it), ties
    going to the lowest zone id."""
    x, y = float(p[0]), float(p[1])
    (x0, y0), (x1, y1) = venue.precinct_min.tolist(), venue.precinct_max.tolist()
    inside = x0 <= x <= x1 and y0 <= y <= y1
    ids = range(zoning.inside_count) if inside else range(zoning.inside_count, zoning.zone_count)
    centroids = zoning.all_centroids().tolist()

    def d2(z):
        dx, dy = x - centroids[z][0], y - centroids[z][1]
        return dx * dx + dy * dy

    return min(ids, key=lambda z: (d2(z), z))
