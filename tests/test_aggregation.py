import numpy as np
import pytest

from tce.aggregation import aggregate, aggregate_runs
from tce.core import TraceSet

from conftest import random_labels


def traces_with_traffic(traffic, instants=4):
    traffic = np.asarray(traffic, float)
    return TraceSet(np.zeros((len(traffic), instants, 2)), traffic)


def test_two_users_one_and_two_mbps_sum_to_three():
    traces = traces_with_traffic([1.0, 2.0], instants=2)
    labels = np.zeros((2, 2), np.int64)
    series = aggregate(traces, labels, labels, zone_count=2)
    assert series.users_real[0, 0] == 2
    assert series.traffic_real[0, 0] == 3.0
    assert series.users_real[1, 0] == 0
    assert series.traffic_real[1, 0] == 0.0


def test_all_users_in_one_zone():
    traces = traces_with_traffic([2.0, 3.0, 4.0], instants=3)
    labels = np.full((3, 3), 1, np.int64)
    series = aggregate(traces, labels, labels, zone_count=3)
    assert np.all(series.users_real[1] == 3)
    assert np.allclose(series.traffic_real[1], 9.0)
    assert np.all(series.users_real[[0, 2]] == 0)
    assert np.all(series.traffic_real[[0, 2]] == 0.0)


def test_matches_per_cell_recount():
    rng = np.random.default_rng(31)
    for _ in range(100):
        users, instants, zones = 6, int(rng.integers(2, 8)), int(rng.integers(1, 4))
        traffic = rng.uniform(0, 5, size=users)
        traces = traces_with_traffic(traffic, instants)
        real = random_labels(rng, users, instants, zones)
        pred = random_labels(rng, users, instants, zones)
        series = aggregate(traces, real, pred, zones)
        for z in range(zones):
            for t in range(instants):
                assert series.users_real[z, t] == int(np.sum(real[:, t] == z))
                assert series.users_pred[z, t] == int(np.sum(pred[:, t] == z))
                assert series.traffic_real[z, t] == pytest.approx(
                    traffic[real[:, t] == z].sum(), abs=1e-9
                )
                assert series.traffic_pred[z, t] == pytest.approx(
                    traffic[pred[:, t] == z].sum(), abs=1e-9
                )


def test_conservation_and_non_negativity():
    rng = np.random.default_rng(32)
    for _ in range(200):
        users = int(rng.integers(1, 9))
        instants = int(rng.integers(1, 7))
        zones = int(rng.integers(1, 5))
        traffic = rng.uniform(0, 10, size=users)
        traces = traces_with_traffic(traffic, instants)
        real = random_labels(rng, users, instants, zones)
        pred = random_labels(rng, users, instants, zones)
        series = aggregate(traces, real, pred, zones)
        assert np.all(series.users_real.sum(axis=0) == users)
        assert np.all(series.users_pred.sum(axis=0) == users)
        assert np.allclose(series.traffic_real.sum(axis=0), traffic.sum(), atol=1e-9)
        assert np.allclose(series.traffic_pred.sum(axis=0), traffic.sum(), atol=1e-9)
        for table in (series.users_real, series.users_pred, series.traffic_real, series.traffic_pred):
            assert np.all(table >= 0)


def test_runs_share_one_real_series():
    rng = np.random.default_rng(16)
    traces = traces_with_traffic(rng.uniform(0, 10, size=5), instants=6)
    real = random_labels(rng, 5, 6, 3)
    preds = [random_labels(rng, 5, 6, 3) for _ in range(3)]
    series = aggregate_runs(traces, real, preds, 3)
    for zs, pred in zip(series, preds):
        one = aggregate(traces, real, pred, 3)
        for name in ("users_real", "users_pred", "traffic_real", "traffic_pred"):
            assert getattr(zs, name).tobytes() == getattr(one, name).tobytes()
        assert zs.users_real is series[0].users_real
        assert zs.traffic_real is series[0].traffic_real
    with pytest.raises(ValueError, match="labels_pred contains zone ids"):
        aggregate_runs(traces, real, preds[:1] + [np.full((5, 6), 3)], 3)
