from pathlib import Path

import numpy as np
import pytest

from tce.core import Rect, TimeGrid, TraceSet, Venue

ROOT = Path(__file__).resolve().parents[1]
FESTIVAL_INI = ROOT / "configs" / "festival.ini"  # the demo scenario


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
