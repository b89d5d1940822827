import math

import numpy as np
import pytest

from tce.core import TraceSet
from tce.markov import PredictionRun
from tce.metrics import (
    ErrorSeries,
    error_histogram,
    error_series,
    position_extent,
)
from tce.zoning import Zoning


def zoning_with(centroids, labels=((0,),)):
    return Zoning(np.asarray(centroids, float), np.empty((0, 2)), np.array(labels, np.int64))


def error_of(centroids, real, pred, lo, hi):
    """``error_series`` of one user in zone ``real``, forecast in ``pred`` at instant 1."""
    run = PredictionRun([[real, pred]], 1)
    return float(error_series(zoning_with(centroids, [[real, real]]), run, lo, hi).e[0, 0])


class TestPredictionError:
    def test_same_zone_is_zero(self):
        assert error_of([[3.0, 4.0], [10.0, 10.0]], 1, 1, (0, 0), (50, 80)) == 0.0

    def test_three_four_five_over_extent_diagonal(self):
        # centroids (0,0) and (3,4): distance 5; extent (0,0)-(50,80)
        expected = 5.0 / np.hypot(50.0, 80.0)
        got = error_of([[0.0, 0.0], [3.0, 4.0]], 0, 1, (0, 0), (50, 80))
        assert got == pytest.approx(expected, abs=1e-12)
        assert f"{got:.4f}" == "0.0530"

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        cents = rng.uniform(0, 50, size=(5, 2))
        for _ in range(200):
            a, b = (int(z) for z in rng.integers(0, 5, size=2))
            assert error_of(cents, a, b, (0, 0), (50, 80)) == pytest.approx(
                error_of(cents, b, a, (0, 0), (50, 80))
            )

    def test_bounded_when_extent_covers_centroids(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            cents = rng.uniform(0, 50, size=(4, 2))
            lo = cents.min(axis=0)
            hi = cents.max(axis=0) + rng.uniform(0.1, 5, size=2)
            a, b = (int(z) for z in rng.integers(0, 4, size=2))
            assert 0.0 <= error_of(cents, a, b, lo, hi) <= 1.0

    def test_zero_iff_shared_centroid(self):
        cents = [[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]
        assert error_of(cents, 0, 1, (0, 0), (10, 10)) == 0.0
        assert error_of(cents, 0, 2, (0, 0), (10, 10)) > 0.0

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            error_of([[0.0, 0.0], [1.0, 1.0]], 0, 1, (5, 0), (5, 80))


class TestPositionExtent:
    def test_covers_outside_points(self):
        positions = np.array([[[1.0, 2.0], [55.0, 40.0]], [[10.0, 70.0], [0.0, 15.0]]])
        traces = TraceSet(positions, np.zeros(2))
        lo, hi = position_extent(traces)
        assert np.array_equal(lo, [0.0, 2.0])
        assert np.array_equal(hi, [55.0, 70.0])


class TestErrorSeries:
    def test_matches_scalar_op(self):
        rng = np.random.default_rng(35)
        cents = rng.uniform(0, 50, size=(3, 2))
        labels = rng.integers(0, 3, size=(4, 10)).astype(np.int64)
        zoning = Zoning(cents, np.empty((0, 2)), labels)
        pred_labels = labels.copy()
        pred_labels[:, 6:] = rng.integers(0, 3, size=(4, 4))
        run = PredictionRun(pred_labels, 6)
        lo, hi = cents.min(axis=0) - 1, cents.max(axis=0) + 1
        es = error_series(zoning, run, lo, hi)
        assert es.e.shape == (4, 4)
        assert es.first_instant == 6
        diagonal = math.hypot(*(hi - lo))
        for u in range(4):
            for i in range(4):
                (rx, ry), (px, py) = cents[labels[u, 6 + i]], cents[pred_labels[u, 6 + i]]
                expected = math.hypot(rx - px, ry - py) / diagonal
                assert es.e[u, i] == pytest.approx(expected, abs=1e-12)

    def test_rejects_out_of_bound_errors(self):
        with pytest.raises(ValueError):
            ErrorSeries(np.array([[0.5, 1.5]]), 1)


class TestErrorHistogram:
    def test_point_mass_in_first_bin(self):
        counts = error_histogram(np.zeros(25), 10)
        assert counts[0] == 25
        assert counts[1:].sum() == 0

    def test_hand_binned_examples(self):
        counts = error_histogram(np.array([0.05, 0.15, 0.95]), 10)
        expected = np.zeros(10, np.int64)
        expected[[0, 1, 9]] = 1
        assert np.array_equal(counts, expected)

    def test_last_bin_right_closed(self):
        counts = error_histogram(np.array([1.0, 0.999999]), 10)
        assert counts[9] == 2

    def test_total_count_conserved(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            values = rng.random(int(rng.integers(1, 200)))
            bins = int(rng.integers(1, 20))
            assert error_histogram(values, bins).sum() == len(values)

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            error_histogram(np.zeros(3), 0)
