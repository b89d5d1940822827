import math

import numpy as np
import pytest

from tce import csvio
from tce.config import load_config
from tce.core import TimeGrid, TraceSet
from tce.markov import PredictionRun
from tce.metrics import (
    ErrorSeries,
    error_histogram,
    error_series,
    histogram_edges,
    position_extent,
)
from tce.scenario import generate_scenario
from tce.zoning import Zoning

from conftest import FESTIVAL_INI


def zoning_with(centroids, labels=((0,),)):
    return Zoning(np.asarray(centroids, float), np.empty((0, 2)), np.array(labels, np.int64))


def error_series_norm(zoning, run, lo, hi):
    """The per-(user, instant) form of ``error_series``: the norm of a
    (U, T-w, 2) centroid difference over the extent diagonal."""
    first = run.window_size
    c = zoning.all_centroids()
    diff = c[zoning.labels[:, first:]] - c[run.labels_pred[:, first:]]
    return np.linalg.norm(diff, axis=2) / np.linalg.norm(np.subtract(hi, lo, dtype=float))


def row_wise_extent(positions):
    """The per-call reduction ``position_extent`` ran before ``TraceSet``
    kept its extent: users first over the (users, instants * 2) rows, then
    the (instants, 2) result."""
    rows = positions.reshape(positions.shape[0], -1)
    return rows.min(axis=0).reshape(-1, 2).min(axis=0), rows.max(axis=0).reshape(-1, 2).max(axis=0)


def assert_row_wise_extent(traces):
    lo, hi = position_extent(traces)
    want_lo, want_hi = row_wise_extent(traces.positions)
    assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


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

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ((0, 0), (math.inf, 6)),
            ((0, 0), (5, math.nan)),
            ((-math.inf, 0), (5, 6)),
            ((-1e308, 0), (1e308, 6)),  # finite ends, the span overflows
            ((0, 0), (1e200, 1e200)),  # a finite span, the diagonal overflows
        ],
    )
    def test_non_finite_extent_rejected(self, lo, hi):
        # an infinite diagonal would score every forecast 0
        with pytest.raises(ValueError, match="must be finite"):
            error_of([[0.0, 0.0], [1.0, 1.0]], 0, 1, lo, hi)

    @pytest.mark.parametrize("end", [[0, 0, 0], [[0, 0]], 0.0, [0.0]])
    @pytest.mark.parametrize("name", ["extent_min", "extent_max"])
    def test_extent_that_is_not_a_2_vector_rejected(self, name, end):
        # (0, 0, 0) to (1, 1, 1) used to be scored over its 3-D diagonal
        ends = {"extent_min": [0, 0], "extent_max": [1, 1], name: end}
        with pytest.raises(ValueError, match=rf"^{name} must be a 2-vector, got shape"):
            error_of([[0.0, 0.0], [1.0, 1.0]], 0, 1, ends["extent_min"], ends["extent_max"])


class TestPositionExtent:
    def test_covers_outside_points(self):
        positions = np.array([[[1.0, 2.0], [55.0, 40.0]], [[10.0, 70.0], [0.0, 15.0]]])
        traces = TraceSet(positions, np.zeros(2))
        lo, hi = position_extent(traces)
        assert np.array_equal(lo, [0.0, 2.0])
        assert np.array_equal(hi, [55.0, 70.0])


    @pytest.mark.parametrize("users, instants", [(1, 1), (1, 9), (8, 1), (13, 17)])
    def test_matches_strided_column_reductions(self, users, instants):
        # the extreme values sit anywhere, the last user's last instant included
        rng = np.random.default_rng([users, instants])
        for trial in range(6):
            positions = rng.uniform(-100.0, 100.0, size=(users, instants, 2))
            if trial % 2:
                positions[-1, -1] = (-1e3, 1e3) if trial % 4 == 1 else (1e3, -1e3)
            lo, hi = position_extent(TraceSet(positions, np.zeros(users)))
            x, y = positions[..., 0], positions[..., 1]
            assert lo.tobytes() == np.array([x.min(), y.min()]).tobytes()
            assert hi.tobytes() == np.array([x.max(), y.max()]).tobytes()
            assert lo.shape == hi.shape == (2,)
            assert_row_wise_extent(TraceSet(positions, np.zeros(users)))

    def test_matches_row_wise_reduction_for_generated_traces(self):
        cfg = load_config(FESTIVAL_INI)
        for seed in range(3):
            assert_row_wise_extent(generate_scenario(cfg.venue, cfg.grid, 12, cfg.mobility, cfg.traffic, seed))

    def test_matches_row_wise_reduction_for_loaded_traces(self, tmp_path):
        grid = TimeGrid(10.0, 3)
        (tmp_path / "traffic.csv").write_text("user_id,mean_traffic_mbps\n0,1\n1,2\n")
        (tmp_path / "trace.csv").write_text(
            "user_id,t,x,y\n1,2,-3.5,0.25\n0,0,4,-0.0\n0,1,2.5,7\n1,0,0.0,9\n0,2,-1e3,0.0\n1,1,8,-2\n"
        )
        (tmp_path / "wp.txt").write_text("0 0 0 20 40 -5\n5 -0.0 3 15 6 0.0\n")
        for name in ("trace.csv", "wp.txt"):
            traces = csvio.load_trace(tmp_path / name, tmp_path / "traffic.csv", grid)
            assert_row_wise_extent(traces)

    @pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_signed_zeros_in_one_column_keep_their_bits(self, first, second, axis):
        # zeros of both signs across users, then across instants of one user
        for shape in ((2, 1, 2), (1, 2, 2)):
            positions = np.ones(shape)
            positions.reshape(-1, 2)[:, axis] = first, second
            traces = TraceSet(positions, np.zeros(shape[0]))
            assert_row_wise_extent(traces)
            lo, hi = position_extent(traces)
            assert lo[1 - axis] == hi[1 - axis] == 1.0 and lo[axis] == hi[axis] == 0.0

    def test_returns_fresh_writable_arrays(self):
        traces = TraceSet([[[1.0, 2.0], [3.0, -4.0]]], [0.0])
        lo, hi = position_extent(traces)
        lo[:] = hi[:] = np.nan
        again_lo, again_hi = position_extent(traces)
        assert again_lo.tolist() == [1.0, -4.0] and again_hi.tolist() == [3.0, 2.0]
        assert again_lo.flags.writeable and again_hi.flags.writeable
        assert not np.shares_memory(again_lo, lo) and not np.shares_memory(again_hi, hi)


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

    def test_matches_norm_form_bit_for_bit(self):
        # five inside zones, zone 3 a copy of zone 1, and one outside zone
        rng = np.random.default_rng(36)
        inside = rng.uniform(0, 50, size=(5, 2))
        inside[3] = inside[1]
        outside = np.array([[55.0, 40.0]])
        for _ in range(20):
            labels = rng.integers(0, 6, size=(int(rng.integers(1, 60)), 12)).astype(np.int64)
            zoning = Zoning(inside, outside, labels)
            w = int(rng.integers(1, 12))
            pred = labels.copy()
            pred[:, w:] = rng.integers(0, 6, size=(labels.shape[0], 12 - w))
            run = PredictionRun(pred, w)
            lo, hi = rng.uniform(-5, 0, size=2), rng.uniform(60, 90, size=2)
            expected = error_series_norm(zoning, run, lo, hi)
            assert error_series(zoning, run, lo, hi).e.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [16, 17])
    def test_matches_norm_form_at_the_cell_index_width_edge(self, k):
        # the flat (real, predicted) cell index real*k + pred has its largest
        # value k*k - 1 at 255 for k = 16 (uint8) and 288 for k = 17 (uint16);
        # user u forecasts the pair (u // k, u % k), so every cell is read
        rng = np.random.default_rng(k)
        inside, outside = rng.uniform(0, 50, size=(k - 1, 2)), np.array([[55.0, 40.0]])
        w, pairs = 3, np.arange(k * k)
        labels = rng.integers(0, k, size=(k * k, w + 4)).astype(np.int64)
        pred = labels.copy()
        pred[:, w:] = rng.integers(0, k, size=(k * k, 4))
        labels[:, w], pred[:, w] = pairs // k, pairs % k
        zoning, run = Zoning(inside, outside, labels), PredictionRun(pred, w)
        lo, hi = np.array([-5.0, 0.0]), np.array([60.0, 90.0])
        expected = error_series_norm(zoning, run, lo, hi)
        assert error_series(zoning, run, lo, hi).e.tobytes() == expected.tobytes()

    def test_rejects_out_of_bound_errors(self):
        with pytest.raises(ValueError):
            ErrorSeries(np.array([[0.5, 1.5]]), 1)

    def test_rejects_nan_errors(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            ErrorSeries(np.array([[0.5, math.nan]]), 1)


class TestErrorHistogram:
    def test_point_mass_in_first_bin(self):
        counts = error_histogram(np.zeros(25), histogram_edges(10))
        assert counts[0] == 25
        assert counts[1:].sum() == 0

    def test_hand_binned_examples(self):
        counts = error_histogram(np.array([0.05, 0.15, 0.95]), histogram_edges(10))
        expected = np.zeros(10, np.int64)
        expected[[0, 1, 9]] = 1
        assert np.array_equal(counts, expected)

    def test_last_bin_right_closed(self):
        counts = error_histogram(np.array([1.0, 0.999999]), histogram_edges(10))
        assert counts[9] == 2

    def test_total_count_conserved(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            values = rng.random(int(rng.integers(1, 200)))
            bins = int(rng.integers(1, 20))
            assert error_histogram(values, histogram_edges(bins)).sum() == len(values)

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            error_histogram(np.zeros(3), histogram_edges(0))

    @pytest.mark.parametrize("edges", [[], [0.5], [[0.0, 1.0]]])
    def test_rejects_fewer_than_two_edges(self, edges):
        with pytest.raises(ValueError, match="at least two values"):
            error_histogram(np.zeros(3), edges)

    @pytest.mark.parametrize("bins", range(1, 51))
    def test_counts_each_value_in_the_bin_whose_edges_hold_it(self, bins):
        # histogram.csv reports bin b as [edges[b], edges[b + 1]); at 10 bins
        # 0.3 lies below edges[3] = 0.30000000000000004, so it belongs to bin 2
        edges = histogram_edges(bins)
        for b in range(bins):
            for value in (edges[b], np.nextafter(edges[b + 1], 0.0)):
                assert np.flatnonzero(error_histogram(np.array([value]), edges)).tolist() == [b], (value, b)

    @pytest.mark.parametrize("value", [np.nan, -1e-300, -0.05, 1.0 + 1e-11, np.inf])
    def test_rejects_values_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            error_histogram(np.array([0.5, value]), histogram_edges(10))

    def test_tolerance_of_error_series_lands_in_last_bin(self):
        assert error_histogram(np.array([1.0 + 1e-13, -0.0]), histogram_edges(4)).tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize(
        "edges",
        [
            [0.0, 0.5],  # 0.9 used to be counted in [0, 0.5)
            [0.1, 1.0],  # numpy used to fail on a negative bin index
            [0.0, 0.5, 0.2, 1.0],  # [0.1, 0.3] used to count as [1, 0, 1]
            [0.0, 0.5, 0.5, 1.0],
            [0.0, np.nan, 1.0],
            [0.0, np.inf],
            [-np.inf, 1.0],
        ],
    )
    def test_rejects_edges_that_are_not_increasing_or_miss_the_unit_interval(self, edges):
        with pytest.raises(ValueError, match="^edges must be finite, strictly increasing and cover"):
            error_histogram(np.array([0.1, 0.3, 0.9]), edges)

    def test_edges_past_the_unit_interval_count_every_value(self):
        assert error_histogram(np.array([0.0, 0.3, 0.6, 1.0]), [-1.0, 0.5, 2.0]).tolist() == [2, 2]

    @pytest.mark.parametrize("edges", [[-1e308, 0.5, 1e308], [-(2.0**42), 1.0], [0.0, 2.0**42]])
    def test_rejects_edges_outside_the_coordinate_range(self, edges):
        # [-1e308, 0.5, 1e308] used to be accepted and charted as nan
        with pytest.raises(ValueError, match=r"^edges must .* in \(-2\*\*42, 2\*\*42\), got"):
            error_histogram(np.array([0.2, 0.7]), edges)

    def test_edges_at_the_range_end_count_every_value(self):
        near = np.nextafter(2.0**42, 0)
        assert error_histogram(np.array([0.2, 0.7]), [-near, 0.5, near]).tolist() == [1, 1]
