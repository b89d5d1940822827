"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with ``pytest tests/test_acceptance.py -v -s``; the full-scale
variant of criterion 1 is behind ``-m slow``.
"""

import dataclasses
import time

import numpy as np
import pytest

import tce
from tce.config import load_config
from tce.core import Rect, TimeGrid, TraceSet, Venue
from tce.markov import (
    GENERAL,
    PER_USER,
    PredictionRun,
    WindowConfig,
    build_general_matrix,
    predict_labels,
    run_prediction,
)
from tce.pipeline import run as pipeline_run
from tce.scenario import Attractor, MobilityParams, TrafficTiers, generate_scenario
from tce.zoning import Zoning, cluster

from conftest import (
    FESTIVAL_INI,
    WORKED_ROW,
    WORKED_WINDOW,
    first_forecasts,
    interval_lookup,
    nearest_zone_loop,
)

ERROR_BAND = (0.05, 0.20)
RUN_TIME_LIMIT_S = 30.0
CASES = 1000


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _reproduction_run(tmp_path, user_count):
    cfg = dataclasses.replace(load_config(FESTIVAL_INI), user_count=user_count)
    durations = []
    t0 = time.perf_counter()
    manifest = pipeline_run(cfg, tmp_path / "out", cfg.base_seed)
    total = time.perf_counter() - t0
    mean_error = manifest["summary"]["mean_error"]

    # measure the alternative matrix scope alongside; only the configured
    # default is asserted against the band
    other = dataclasses.replace(cfg, window=WindowConfig(cfg.window.window_size, GENERAL))
    traces = generate_scenario(cfg.venue, cfg.grid, user_count, cfg.mobility, cfg.traffic, cfg.base_seed)
    zoning = cluster(traces, cfg.venue, cfg.k_inside, cfg.k_outside, cfg.base_seed)
    emin, emax = tce.position_extent(traces)
    per_run = []
    for r in range(cfg.run_count):
        t1 = time.perf_counter()
        pred = run_prediction(traces, zoning, other.window, cfg.base_seed + r)
        es = tce.error_series(zoning, pred, emin, emax)
        durations.append(time.perf_counter() - t1)
        per_run.append(float(es.e.mean()))
    general_mean = float(np.mean(per_run))
    return manifest, mean_error, general_mean, total, durations


def test_criterion_1_scenario_reproduction(tmp_path):
    manifest, mean_error, general_mean, total, durations = _reproduction_run(tmp_path, 200)
    detail = (
        f"mean error {mean_error:.4f} (per_user scope; general scope {general_mean:.4f}), "
        f"pipeline {total:.1f}s, slowest single run {max(durations):.2f}s"
    )
    ok = (
        ERROR_BAND[0] <= mean_error <= ERROR_BAND[1]
        and total < RUN_TIME_LIMIT_S
        and max(durations) < RUN_TIME_LIMIT_S
    )
    report("criterion 1: scenario reproduction, 200 users, 5 runs", ok, detail)


@pytest.mark.slow
def test_criterion_1_full_scale(tmp_path):
    manifest, mean_error, general_mean, total, durations = _reproduction_run(tmp_path, 2000)
    detail = f"mean error {mean_error:.4f} (general {general_mean:.4f}), pipeline {total:.1f}s"
    ok = ERROR_BAND[0] <= mean_error <= ERROR_BAND[1] and max(durations) < RUN_TIME_LIMIT_S
    report("criterion 1 (full scale): 2000 users, 5 runs", ok, detail)


def test_criterion_2_worked_examples():
    # WORKED_ROW's first window counts [1, 1, 2] out of zone 0, where it ends
    m = build_general_matrix([WORKED_ROW[:WORKED_WINDOW]], 3)
    normalization = list(m.counts[0]) == [1, 1, 2] and list(m.probs[0]) == [0.25, 0.25, 0.5]
    drawn = int(first_forecasts(WORKED_ROW, 3, WORKED_WINDOW, [0.49])[0])
    sampling = drawn == 1

    traces = TraceSet(np.zeros((2, 2, 2)), np.array([1.0, 2.0]))
    series = tce.aggregate(traces, np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64), 1)
    traffic_sum = series.users_real[0, 0] == 2 and series.traffic_real[0, 0] == 3.0

    venue = Venue(Rect((0, 0), (10, 10)), (), index_scale=2.0)
    coordinates = tce.real_distance(1.0, venue) == 2.0

    ok = normalization and sampling and traffic_sum and coordinates
    detail = (
        f"[1,1,2] -> {list(m.probs[0])}; u=0.49 -> zone {drawn}; "
        f"1+2 Mbit/s -> {series.traffic_real[0, 0]} Mbit/s; scale 2 x distance 1 -> "
        f"{tce.real_distance(1.0, venue)} m"
    )
    report("criterion 2: worked-example exactness", ok, detail)


def test_criterion_3a_row_stochasticity():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(CASES):
        users, instants, zones = rng.integers(1, 6), rng.integers(2, 9), rng.integers(1, 5)
        labels = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
        m = build_general_matrix(labels, int(zones))
        occupied = m.counts.sum(axis=1) > 0
        if occupied.any():
            worst = max(worst, float(np.abs(m.probs[occupied].sum(axis=1) - 1).max()))
        if (~occupied).any():
            assert np.all(m.probs[~occupied] == 0)
    report("criterion 3a: row-stochasticity", worst < 1e-9, f"{CASES} cases, worst |sum-1| {worst:.2e}")


def test_criterion_3b_window_equals_restricted_general():
    # each general-scope forecast at t draws from the general matrix of the
    # true labels at t-w..t-1, looked up at the previous forecast
    rng = np.random.default_rng(101)
    for case in range(CASES):
        users, instants, zones = rng.integers(1, 6), rng.integers(3, 10), rng.integers(2, 5)
        labels = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
        w = int(rng.integers(2, instants))
        pred = predict_labels(labels, int(zones), WindowConfig(w, GENERAL), [case])[0].labels_pred
        uniforms = np.random.default_rng(case).random((users, instants - w))
        for t in range(w, instants):
            restricted = build_general_matrix(labels[:, t - w : t], int(zones))
            for u in range(users):
                state = int(pred[u, t - 1])
                assert pred[u, t] == interval_lookup(restricted.counts[state], state, uniforms[u, t - w])
    report("criterion 3b: window matrix = general matrix on the window", True, f"{CASES} cases")


def test_criterion_3c_aggregation_conservation():
    rng = np.random.default_rng(102)
    for _ in range(CASES):
        users, instants, zones = int(rng.integers(1, 8)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
        traffic = rng.uniform(0, 8, size=users)
        traces = TraceSet(np.zeros((users, instants, 2)), traffic)
        real = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
        pred = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
        series = tce.aggregate(traces, real, pred, zones)
        assert np.all(series.users_real.sum(axis=0) == users)
        assert np.all(series.users_pred.sum(axis=0) == users)
        assert np.allclose(series.traffic_real.sum(axis=0), traffic.sum(), atol=1e-9)
        assert np.allclose(series.traffic_pred.sum(axis=0), traffic.sum(), atol=1e-9)
    report("criterion 3c: aggregation conservation", True, f"{CASES} cases")


def test_criterion_3d_error_bounded_and_symmetric():
    rng = np.random.default_rng(103)
    for _ in range(CASES):
        zones = int(rng.integers(1, 6))
        cents = rng.uniform(0, 50, size=(zones, 2))
        pad = rng.uniform(0.1, 5, size=2)
        lo, hi = cents.min(axis=0) - pad, cents.max(axis=0) + pad
        a, b = int(rng.integers(0, zones)), int(rng.integers(0, zones))
        # user 0 is in zone a, forecast in b at instant 1; user 1 the reverse
        zoning = Zoning(cents, np.empty((0, 2)), np.array([[a, a], [b, b]]))
        run = PredictionRun(np.array([[a, b], [b, a]]), 1)
        e_ab, e_ba = tce.error_series(zoning, run, lo, hi).e[:, 0]
        assert 0.0 <= e_ab <= 1.0
        assert e_ab == e_ba
    report("criterion 3d: error in [0,1] and symmetric", True, f"{CASES} cases")


def _tiny_mobility(rng):
    return MobilityParams(
        speed_min=0.0,
        speed_max=float(rng.uniform(0.01, 0.1)),
        attractors=(
            Attractor(tce.Rect((1, 1), (4, 4)), 0.6, "a"),
            Attractor(tce.Rect((6, 6), (9, 9)), 0.4, "b"),
        ),
        pause_instants=int(rng.integers(0, 2)),
    )


def test_criterion_3e_kinematic_bound():
    rng = np.random.default_rng(104)
    venue = Venue(Rect((0, 0), (10, 10)), ())
    tiers = TrafficTiers(((1.0, 1.0),))
    for case in range(CASES):
        grid = TimeGrid(float(rng.uniform(10, 400)), int(rng.integers(2, 6)))
        mobility = _tiny_mobility(rng)
        traces = generate_scenario(venue, grid, int(rng.integers(1, 4)), mobility, tiers, seed=case)
        steps = np.linalg.norm(np.diff(traces.positions, axis=1), axis=2)
        bound = mobility.speed_max * grid.step_seconds / venue.index_scale
        assert steps.max() <= bound + 1e-9
    report("criterion 3e: kinematic speed bound", True, f"{CASES} generated scenarios")


def test_criterion_3f_determinism():
    rng = np.random.default_rng(105)
    venue = Venue(Rect((0, 0), (10, 10)), ())
    tiers = TrafficTiers(((0.5, 1.0), (0.5, 3.0)))
    for case in range(CASES):
        grid = TimeGrid(60.0, int(rng.integers(3, 6)))
        users = int(rng.integers(2, 5))
        mobility = _tiny_mobility(rng)
        seed = int(rng.integers(0, 2**32))
        a = generate_scenario(venue, grid, users, mobility, tiers, seed)
        b = generate_scenario(venue, grid, users, mobility, tiers, seed)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.mean_traffic.tobytes() == b.mean_traffic.tobytes()
        za = cluster(a, venue, 2, 1, seed)
        zb = cluster(b, venue, 2, 1, seed)
        assert za.inside_centroids.tobytes() == zb.inside_centroids.tobytes()
        assert np.array_equal(za.labels, zb.labels)
        cfg = WindowConfig(1, PER_USER if case % 2 else GENERAL)
        pa = run_prediction(a, za, cfg, seed)
        pb = run_prediction(b, zb, cfg, seed)
        assert pa.labels_pred.tobytes() == pb.labels_pred.tobytes()
    report("criterion 3f: determinism, same seed -> byte-identical", True, f"{CASES} cases")


def test_criterion_4_monte_carlo_sampling():
    n = 10**6
    us = np.random.default_rng(106).random(n)
    counts = np.bincount(first_forecasts(WORKED_ROW, 3, WORKED_WINDOW, us), minlength=3)
    row = np.array([0.25, 0.25, 0.5])
    deviations = []
    ok = True
    for j in range(3):
        sigma = np.sqrt(n * row[j] * (1 - row[j]))
        dev = abs(counts[j] - n * row[j]) / sigma
        deviations.append(dev)
        ok &= dev <= 3.0
    report(
        "criterion 4: Monte-Carlo frequencies within 3 sigma",
        bool(ok),
        f"counts {counts.tolist()}, deviations {[f'{d:.2f}' for d in deviations]} sigma",
    )


def test_criterion_5_brute_force_oracles(festival_venue):
    rng = np.random.default_rng(107)
    for _ in range(200):
        users, instants, zones = int(rng.integers(1, 7)), int(rng.integers(2, 11)), int(rng.integers(1, 4))
        labels = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
        naive = np.zeros((zones, zones), np.int64)
        for u in range(users):
            for t in range(instants - 1):
                naive[labels[u, t], labels[u, t + 1]] += 1
        assert np.array_equal(build_general_matrix(labels, zones).counts, naive)

        traffic = rng.uniform(0, 5, size=users)
        traces = TraceSet(np.zeros((users, instants, 2)), traffic)
        pred = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
        series = tce.aggregate(traces, labels, pred, zones)
        for z in range(zones):
            for t in range(instants):
                assert series.users_real[z, t] == np.sum(labels[:, t] == z)
                assert series.traffic_pred[z, t] == traffic[pred[:, t] == z].sum()

    for case in range(20):
        users, instants = int(rng.integers(2, 5)), int(rng.integers(3, 6))
        outside = rng.random((users, instants)) < 0.3
        outside.flat[:3], outside.flat[3:5] = False, True
        positions = np.where(
            outside[..., None],
            rng.uniform((51, 15), (60, 65), size=(users, instants, 2)),
            rng.uniform((0, 0), (50, 80), size=(users, instants, 2)),
        )
        zoning = cluster(TraceSet(positions, np.zeros(users)), festival_venue, 3, 2, seed=case)
        for u, t in np.ndindex(users, instants):
            assert zoning.labels[u, t] == nearest_zone_loop(zoning, festival_venue, positions[u, t])
    report("criterion 5: brute-force oracles on tiny instances", True, "counts, aggregation, nearest centroid")


def test_criterion_6_learning_prediction_boundary():
    rng = np.random.default_rng(108)
    venue = Venue(Rect((0, 0), (10, 10)), ())
    tiers = TrafficTiers(((1.0, 1.0),))
    mobility = _tiny_mobility(rng)
    grid = TimeGrid(120.0, 40)
    traces = generate_scenario(venue, grid, 8, mobility, tiers, seed=6)
    zoning = cluster(traces, venue, 3, 1, seed=6)
    run = run_prediction(traces, zoning, WindowConfig(20, PER_USER), seed=6)
    identical_before = np.array_equal(run.labels_pred[:, :20], zoning.labels[:, :20])
    errors = tce.error_series(zoning, run, *tce.position_extent(traces))
    first = errors.first_instant
    ok = identical_before and run.window_size == first == 20 and errors.e.shape == (8, 20)
    report(
        "criterion 6: series identical before instant 20, first prediction at 20",
        ok,
        f"first predicted instant {first}, {errors.e.shape[1]} predictions per user",
    )
