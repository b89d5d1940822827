import numpy as np
import pytest

from tce import _kernels as kern
from tce.core import TraceSet
from tce.errors import InfeasibleError
from tce.markov import (
    GENERAL,
    PER_USER,
    PredictionRun,
    TransitionMatrix,
    WindowConfig,
    build_general_matrix,
    predict_labels,
    run_prediction,
)
from tce.metrics import error_series
from tce.zoning import Zoning

from conftest import WORKED_ROW, WORKED_WINDOW, first_forecasts, interval_lookup, random_labels
from test_kernels import predict_series_loop


def zoning_for(labels, zone_count):
    """Zoning stub with distinct centroids placed on a line."""
    centroids = np.column_stack([np.arange(zone_count, dtype=float) * 10, np.zeros(zone_count)])
    return Zoning(centroids, np.empty((0, 2)), labels)


def traces_for(labels):
    users, instants = labels.shape
    return TraceSet(np.zeros((users, instants, 2)), np.zeros(users))


def naive_counts(labels, zone_count, t0, t1):
    counts = np.zeros((zone_count, zone_count), np.int64)
    for u in range(labels.shape[0]):
        for t in range(t0, t1):
            counts[labels[u, t], labels[u, t + 1]] += 1
    return counts


class TestTransitionMatrix:
    def test_count_row_normalization_worked_example(self):
        # raw counts [1, 1, 2] over a row sum of 4 -> [0.25, 0.25, 0.5]
        m = TransitionMatrix([[1, 1, 2], [0, 0, 0], [0, 0, 0]])
        assert list(m.probs[0]) == [0.25, 0.25, 0.5]

    def test_zero_rows_stay_zero(self):
        m = TransitionMatrix([[0, 0], [3, 1]])
        assert list(m.probs[0]) == [0.0, 0.0]
        assert list(m.probs[1]) == [0.75, 0.25]

    def test_rejects_non_square_or_negative(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            TransitionMatrix([[1, -1], [0, 0]])

    @pytest.mark.parametrize(
        "counts",
        [
            [[0.6, 0.4], [1, 0]],  # row 0 used to truncate to zeros
            [[1.0, 2.0], [0.0, 0.0]],
            [[2**64, 0], [0, 0]],  # used to raise OverflowError
            [[1e30, 0], [0, 0]],
            np.array([[2**63, 0], [0, 0]], np.uint64),  # used to wrap to a negative count
            [[True, False], [False, True]],
        ],
    )
    def test_rejects_counts_that_are_not_int64_integers(self, counts):
        with pytest.raises(ValueError, match=r"^counts must be integers below 2\*\*63, got dtype "):
            TransitionMatrix(counts)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, ">i8"])
    def test_accepts_counts_of_any_integer_dtype(self, dtype):
        m = TransitionMatrix(np.array([[1, 3], [0, 0]], dtype))
        assert m.counts.dtype == np.int64 and m.probs.tolist() == [[0.25, 0.75], [0.0, 0.0]]

    def test_probs_derived_from_counts_alone_and_read_only(self):
        counts = np.array([[2, 6], [0, 0]])
        m = TransitionMatrix(counts)
        assert m.probs.tolist() == [[0.25, 0.75], [0.0, 0.0]]
        assert m.counts.dtype == np.int64 and m.counts.tolist() == [[2, 6], [0, 0]]
        assert not m.counts.flags.writeable and not m.probs.flags.writeable
        counts[0, 0] = 5  # the caller's array stays writable and is not shared
        assert m.counts[0, 0] == 2
        with pytest.raises(TypeError):
            TransitionMatrix(counts, np.eye(2))  # probs cannot contradict counts


class TestBuildGeneralMatrix:
    def test_absorbing_single_state(self):
        labels = np.full((1, 5), 2, np.int64)
        m = build_general_matrix(labels, 4)
        assert m.probs[2, 2] == 1.0
        assert m.counts.sum() == 4
        for z in (0, 1, 3):
            assert m.counts[z].sum() == 0

    def test_matches_double_loop_tally(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            labels = random_labels(rng, 5, 10, 3)
            m = build_general_matrix(labels, 3)
            assert np.array_equal(m.counts, naive_counts(labels, 3, 0, 9))

    def test_row_stochastic(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            labels = random_labels(rng, 4, 8, 4)
            m = build_general_matrix(labels, 4)
            sums = m.probs.sum(axis=1)
            occupied = m.counts.sum(axis=1) > 0
            assert np.all(np.abs(sums[occupied] - 1.0) < 1e-9)
            assert np.all(sums[~occupied] == 0.0)


class TestPredictionRun:
    """A run holds a (users, instants) table and a boundary with at least one
    true and one predicted instant on either side."""

    def test_rejects_window_zero(self):
        with pytest.raises(ValueError, match=r"window_size must lie in \[1, 4\), got 0"):
            PredictionRun(np.zeros((3, 4), np.int64), 0)

    def test_rejects_window_past_last_instant(self):
        with pytest.raises(ValueError, match=r"window_size must lie in \[1, 4\), got 9"):
            PredictionRun(np.zeros((3, 4), np.int64), 9)

    def test_rejects_3d_table(self):
        with pytest.raises(ValueError, match=r"labels_pred must be a non-empty \(users, instants\) table"):
            PredictionRun(np.zeros((1, 1, 1), np.int64), 1)


class TestBuildWindowMatrix:
    """The window matrix exists only inside ``predict_series``; each case reads
    it back from the forecasts it drives."""

    def test_window_covers_w_instants(self):
        # W=3: the forecast at instant 3 learns from instants 0,1,2, where zone
        # 2 has no successor, so it stays in 2; the forecast at 4 learns from
        # 1,2,3, and instant 3's real label adds the transition 2 -> 0
        labels = np.array([[0, 1, 2, 0, 1]], np.int64)
        for u in (0.0, 0.5, 0.999):
            out = kern.predict_series(labels, 3, 3, False, np.full((1, 2), u).T)
            assert out.tolist() == [[0, 1, 2, 2, 0]]

    def test_constant_window_is_absorbing(self):
        # the window of the forecast at instant 4 is all zone 0; the real zone
        # at 4 is 1, outside that window
        labels = np.zeros((2, 6), np.int64)
        labels[:, 4:] = 1
        for u in (0.0, 0.5, 0.999):
            out = kern.predict_series(labels, 2, 4, False, np.full((2, 2), u).T)
            assert np.all(out[:, 4] == 0)

    def test_sliding_equals_rebuild_from_scratch(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            labels = random_labels(rng, 3, 10, 3)
            w = int(rng.integers(2, 6))
            uniforms = rng.random((3, 10 - w))
            out = kern.predict_series(labels, 3, w, False, uniforms.T)
            for t in range(w, labels.shape[1]):
                counts = naive_counts(labels, 3, t - w, t - 1)
                for u in range(3):
                    state = int(out[u, t - 1])
                    assert out[u, t] == interval_lookup(counts[state], state, uniforms[u, t - w])

    def test_per_user_scope_uses_one_user(self):
        # at instant 4, user 1's own window has only 0 -> 0; pooled with user
        # 0's 0 -> 1 transitions, zone 0's row becomes [3, 2] and u = 0.9 leaves
        labels = np.array([[0, 1, 0, 1, 0], [0, 0, 0, 0, 0]], np.int64)
        uniforms = np.full((2, 1), 0.9)
        assert kern.predict_series(labels, 2, 4, True, uniforms.T)[1, 4] == 0
        assert kern.predict_series(labels, 2, 4, False, uniforms.T)[1, 4] == 1


class TestPredictNext:
    """Next-zone sampling by cumulative-interval lookup, driven through
    ``predict_series`` on one-user rows whose first forecast reads a known row."""

    def test_worked_example_0_49(self):
        # WORKED_ROW's window counts [1, 1, 2] out of zone 0, where it ends
        assert first_forecasts(WORKED_ROW, 3, WORKED_WINDOW, [0.49]).tolist() == [1]

    def test_interval_edges(self):
        us = [0.0, 0.25, 0.5, 0.999999]  # left-closed intervals
        assert first_forecasts(WORKED_ROW, 3, WORKED_WINDOW, us).tolist() == [0, 1, 2, 2]

    def test_deterministic_row(self):
        # zone 0's row counts [0, 2, 0]
        row = [0, 1, 0, 1, 0, 0]
        assert first_forecasts(row, 3, 5, [0.0, 0.3, 0.7, 0.9999]).tolist() == [1, 1, 1, 1]

    def test_all_zero_row_stays(self):
        # the window ends in zone 0, which it never leaves; zone 1's row is [1, 2]
        row = [1, 1, 1, 0, 1]
        assert first_forecasts(row, 2, 4, [0.9]).tolist() == [0]

    def test_never_returns_zero_probability_zone(self):
        # zone 0's row counts [1, 1, 0]
        row = [0, 0, 1, 0, 2]
        us = np.append(np.random.default_rng(24).random(2000), np.nextafter(1.0, 0.0))
        assert set(first_forecasts(row, 3, 4, us).tolist()) <= {0, 1}

    @pytest.mark.parametrize("per_user", [False, True])
    def test_residual_mass_lands_in_last_positive_zone(self, per_user):
        # zone 0's row counts one transition to each of zones 0-9 out of 11;
        # the draw just below 1 times the total 10 rounds to just below 10,
        # inside zone 9's interval, the last one with a count
        row = [0, 0] + [z for zone in range(1, 10) for z in (zone, 0)] + [0]
        w = len(row) - 1
        u = np.nextafter(1.0, 0.0)
        labels = np.array([row], np.int64)
        out = kern.predict_series(labels, 11, w, per_user, np.full((1, 1), u).T)
        assert out[0, w] == 9
        assert interval_lookup([1] * 10 + [0], 0, u) == 9

    @pytest.mark.parametrize("per_user", [False, True])
    def test_product_rounding_onto_an_interval_end(self, per_user):
        # zone 0's row counts [1, 5, 3]: the draw 2/3 times the total 9 rounds
        # onto 6.0, the end of zone 1's interval, so the draw picks zone 2
        row = [0, 0] + [1, 0] * 5 + [2, 0] * 3 + [0]
        w = len(row) - 1
        labels = np.array([row], np.int64)
        out = kern.predict_series(labels, 3, w, per_user, np.full((1, 1), 2 / 3))
        assert out[0, w] == 2

    def test_monte_carlo_frequencies(self):
        # 10^6 draws on [0.25, 0.25, 0.5] stay within 3 binomial sigmas
        n = 10**6
        us = np.random.default_rng(25).random(n)
        row = np.array([0.25, 0.25, 0.5])
        drawn = first_forecasts(WORKED_ROW, 3, WORKED_WINDOW, us)
        counts = np.bincount(drawn, minlength=3)
        sample = [interval_lookup([1, 1, 2], 0, u) for u in us[:2000]]
        assert drawn[:2000].tolist() == sample
        for j in range(3):
            sigma = np.sqrt(n * row[j] * (1 - row[j]))
            assert abs(counts[j] - n * row[j]) <= 3 * sigma


class TestRunPrediction:
    def test_real_and_predicted_coincide_before_boundary(self):
        rng = np.random.default_rng(26)
        labels = random_labels(rng, 5, 40, 3)
        zoning = zoning_for(labels, 3)
        run = run_prediction(traces_for(labels), zoning, WindowConfig(20, PER_USER), seed=0)
        assert run.window_size == 20
        assert np.array_equal(run.labels_pred[:, :20], labels[:, :20])
        errors = error_series(zoning, run, (-1, -1), (30, 1))
        assert errors.first_instant == 20
        assert errors.e.shape == (5, 20)

    def test_frozen_user_predicts_exactly(self):
        labels = np.full((3, 12), 1, np.int64)
        zoning = zoning_for(labels, 2)
        run = run_prediction(traces_for(labels), zoning, WindowConfig(4, PER_USER), seed=1)
        assert np.array_equal(run.labels_pred, labels)

    def test_window_equal_to_n_gives_one_prediction(self):
        # instants 0..n with W=n leaves exactly the final instant to predict
        rng = np.random.default_rng(27)
        labels = random_labels(rng, 4, 8, 3)
        zoning = zoning_for(labels, 3)
        run = run_prediction(traces_for(labels), zoning, WindowConfig(7, GENERAL), seed=2)
        assert run.window_size == 7
        assert np.array_equal(run.labels_pred[:, :7], labels[:, :7])
        errors = error_series(zoning, run, (-1, -1), (30, 1))
        assert errors.first_instant == 7
        assert errors.e.shape == (4, 1)

    def test_not_enough_history(self):
        labels = np.zeros((2, 5), np.int64)
        zoning = zoning_for(labels, 1)
        with pytest.raises(InfeasibleError):
            run_prediction(traces_for(labels), zoning, WindowConfig(5, GENERAL), seed=0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(28)
        labels = random_labels(rng, 6, 15, 4)
        zoning = zoning_for(labels, 4)
        cfg = WindowConfig(5, GENERAL)
        a = run_prediction(traces_for(labels), zoning, cfg, seed=9)
        b = run_prediction(traces_for(labels), zoning, cfg, seed=9)
        assert a.labels_pred.tobytes() == b.labels_pred.tobytes()

    def test_matches_stepwise_predict_next(self):
        # the seeded run equals the plain-loop chain fed with the same uniforms
        rng = np.random.default_rng(29)
        for trial in range(30):
            users = int(rng.integers(1, 5))
            instants = int(rng.integers(4, 10))
            zones = int(rng.integers(2, 4))
            labels = random_labels(rng, users, instants, zones)
            w = int(rng.integers(1, instants - 1))
            scope = PER_USER if trial % 2 else GENERAL
            seed = int(rng.integers(0, 1000))
            zoning = zoning_for(labels, zones)
            run = run_prediction(traces_for(labels), zoning, WindowConfig(w, scope), seed=seed)

            uniforms = np.random.default_rng(seed).random((users, instants - w))
            expected = predict_series_loop(labels, zones, w, scope == PER_USER, uniforms)
            assert np.array_equal(run.labels_pred, expected)

    def test_state_chains_on_predictions_not_truth(self):
        # a variant that chains on the true previous zone must diverge from
        # run_prediction on some instances; the stepwise oracle above already
        # pins run_prediction to the predicted-state chain
        rng = np.random.default_rng(30)
        diverged = 0
        for trial in range(50):
            labels = random_labels(rng, 3, 8, 3)
            cfg = WindowConfig(3, GENERAL)
            seed = int(rng.integers(0, 10000))
            zoning = zoning_for(labels, 3)
            run = run_prediction(traces_for(labels), zoning, cfg, seed=seed)

            uniforms = np.random.default_rng(seed).random((3, 5))
            cheat = labels.copy()
            for t in range(3, 8):
                counts = naive_counts(labels, 3, t - 3, t - 1)
                for u in range(3):
                    real = int(labels[u, t - 1])
                    cheat[u, t] = interval_lookup(counts[real], real, uniforms[u, t - 3])
            if not np.array_equal(run.labels_pred, cheat):
                diverged += 1
        assert diverged > 0


class TestPredictLabelsSeeds:
    def test_each_run_equals_its_own_one_seed_forecast(self):
        rng = np.random.default_rng(31)
        seeds = [3, 14, 15, 92, 65]
        for scope in (PER_USER, GENERAL):
            for _ in range(10):
                labels = random_labels(rng, int(rng.integers(1, 8)), int(rng.integers(3, 12)), 4)
                cfg = WindowConfig(int(rng.integers(1, labels.shape[1])), scope)
                runs = predict_labels(labels, 4, cfg, seeds)
                assert len(runs) == len(seeds)
                for run, seed in zip(runs, seeds):
                    alone = predict_labels(labels, 4, cfg, [seed])[0]
                    assert run.labels_pred.tobytes() == alone.labels_pred.tobytes()
                    assert run.labels_pred.flags.c_contiguous
                    assert run.window_size == cfg.window_size

    def test_repeated_seeds_give_equal_runs(self):
        labels = random_labels(np.random.default_rng(32), 6, 15, 4)
        for scope in (PER_USER, GENERAL):
            a, b, c = predict_labels(labels, 4, WindowConfig(5, scope), [7, 8, 7])
            assert a.labels_pred.tobytes() == c.labels_pred.tobytes()
            assert a.labels_pred.tobytes() != b.labels_pred.tobytes()

    def test_empty_seed_list_refused(self):
        labels = np.zeros((2, 5), np.int64)
        with pytest.raises(ValueError, match="seeds"):
            predict_labels(labels, 1, WindowConfig(2, GENERAL), [])

    def test_filled_draws_equal_shaped_draws(self):
        # predict_labels writes each run's draws transposed into its columns
        # of one instant-major table; the bits must be those of
        # rng.random((users, instants - w))
        for seed in (0, 1, 2**40):
            for users, steps in ((1, 1), (7, 13), (2000, 50)):
                buf = np.empty((steps, 3 * users))
                buf[:, users : 2 * users] = np.random.default_rng(seed).random((users, steps)).T
                shaped = np.random.default_rng(seed).random((users, steps))
                assert np.ascontiguousarray(buf[:, users : 2 * users].T).tobytes() == shaped.tobytes()
