import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from tce import _kernels as kern
from tce import zoning as zoning_module
from tce.config import load_config
from tce.core import Venue
from tce.errors import InfeasibleError
from tce.scenario import generate_scenario
from tce.zoning import Zoning, _lloyd, cluster

from conftest import FESTIVAL_INI, make_traces, nearest_zone_loop


def brute_force_best_partition(points, k):
    """Exhaustive search over all k^n labelings for the minimum
    within-cluster sum of squares; returns the partition as frozensets."""
    n = len(points)
    labelings = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int8)
    sq = (points**2).sum(axis=1)
    objective = np.zeros(len(labelings))
    for c in range(k):
        mask = labelings == c
        counts = mask.sum(axis=1)
        sums = mask @ points
        safe = np.maximum(counts, 1)
        # sum ||p - mu||^2 over members = sum ||p||^2 - n * ||mu||^2
        objective += mask @ sq - ((sums / safe[:, None]) ** 2).sum(axis=1) * counts
    best = labelings[int(np.argmin(objective))]
    return partition_of(best), float(objective.min())


def partition_of(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


class TestCluster:
    def test_exact_degenerate_clustering(self, festival_venue):
        # points at exactly k locations: centroids equal them, assignment exact
        spots = np.array([[5.0, 5.0], [40.0, 70.0], [25.0, 40.0]])
        positions = spots[np.array([[0, 1, 2], [2, 1, 0]])]  # 2 users x 3 instants
        traces = make_traces(positions)
        zoning = cluster(traces, festival_venue, k_inside=3, k_outside=1, seed=3)
        assert sorted(map(tuple, zoning.inside_centroids)) == sorted(map(tuple, spots))
        for u in range(2):
            for t in range(3):
                c = zoning.inside_centroids[zoning.labels[u, t]]
                assert np.array_equal(c, positions[u, t])

    def test_all_inside_gives_no_outside_zones(self, festival_venue):
        rng = np.random.default_rng(4)
        positions = rng.uniform(5, 45, size=(4, 5, 2))
        traces = make_traces(positions)
        zoning = cluster(traces, festival_venue, k_inside=2, k_outside=1, seed=0)
        assert zoning.outside_centroids.shape == (0, 2)
        assert zoning.labels.max() < zoning.inside_count

    @pytest.mark.parametrize("k_inside, k_outside", [(0, 1), (2, 0), (-1, -1)])
    def test_rejects_fewer_than_one_zone(self, festival_venue, k_inside, k_outside):
        traces = make_traces(np.random.default_rng(4).uniform(5, 45, size=(4, 5, 2)))
        with pytest.raises(ValueError, match="k_inside and k_outside must be >= 1"):
            cluster(traces, festival_venue, k_inside=k_inside, k_outside=k_outside, seed=0)

    def test_three_blobs_match_exhaustive_partition(self, festival_venue):
        # 12 points in 3 well-separated blobs; oracle enumerates all 3^12 labelings
        rng = np.random.default_rng(5)
        blobs = np.array([[8.0, 10.0], [40.0, 12.0], [25.0, 70.0]])
        points = np.concatenate([c + rng.uniform(-2, 2, size=(4, 2)) for c in blobs])
        expected, _ = brute_force_best_partition(points, 3)
        blob_partition = frozenset(
            frozenset(range(i * 4, i * 4 + 4)) for i in range(3)
        )
        assert expected == blob_partition
        traces = make_traces(points.reshape(6, 2, 2))
        zoning = cluster(traces, festival_venue, k_inside=3, k_outside=1, seed=9)
        assert partition_of(zoning.labels.ravel()) == blob_partition

    def test_region_purity(self, festival_venue):
        rng = np.random.default_rng(6)
        inside = rng.uniform(0, 50, size=(30, 2)) * [1, 1.6]
        outside = rng.uniform((50, 15), (60, 65), size=(10, 2))
        positions = np.concatenate([inside, outside]).reshape(8, 5, 2)
        traces = make_traces(positions)
        zoning = cluster(traces, festival_venue, k_inside=3, k_outside=2, seed=1)
        mask = festival_venue.precinct.contains_many(traces.all_points())
        labels = zoning.labels.ravel()
        assert np.all(labels[mask] < zoning.inside_count)
        assert np.all(labels[~mask] >= zoning.inside_count)

    def test_same_position_same_label(self, festival_venue):
        rng = np.random.default_rng(7)
        pool = rng.uniform(0, 50, size=(6, 2)) * [1, 1.6]
        positions = pool[rng.integers(0, 6, size=(5, 4))]
        traces = make_traces(positions)
        zoning = cluster(traces, festival_venue, k_inside=3, k_outside=1, seed=2)
        seen = {}
        for u in range(5):
            for t in range(4):
                key = tuple(traces.positions[u, t])
                label = zoning.labels[u, t]
                assert seen.setdefault(key, label) == label

    def test_determinism(self, festival_venue):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 50, size=(6, 8, 2)) * [1, 1.6]
        traces = make_traces(positions)
        a = cluster(traces, festival_venue, 4, 1, seed=77)
        b = cluster(traces, festival_venue, 4, 1, seed=77)
        assert a.inside_centroids.tobytes() == b.inside_centroids.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_infeasible_when_too_few_distinct_points(self, festival_venue):
        positions = np.tile([[10.0, 10.0]], (3, 4, 1))
        traces = make_traces(positions)
        with pytest.raises(InfeasibleError):
            cluster(traces, festival_venue, k_inside=2, k_outside=1, seed=0)

    @pytest.mark.parametrize(
        "positions, k_inside, k_outside, message",
        [
            (
                np.tile([[10.0, 10.0]], (3, 4, 1)), 3, 1,
                "cannot form 3 in-precinct zones from 1 distinct in-precinct positions",
            ),
            (
                np.tile([[55.0, 40.0], [52.0, 20.0]], (2, 2, 1)), 2, 1,
                "cannot form 2 in-precinct zones from 0 distinct in-precinct positions",
            ),
            (
                np.array([[[5.0, 5.0], [40.0, 70.0], [55.0, 40.0]], [[25.0, 40.0], [52.0, 20.0], [55.0, 40.0]]]),
                2, 3,
                "cannot form 3 outside zones from 2 distinct outside positions",
            ),
            # (1e-200)^2 underflows to 0: seeding cannot tell the two apart
            (
                np.array([[[0.0, 0.0], [1e-200, 0.0]]]), 2, 1,
                "cannot form 2 in-precinct zones from 1 distinct in-precinct positions",
            ),
            # (2e200)^2 overflows: refused before seeding, even for one zone
            (
                np.array([[[1e200, 40.0], [-1e200, 40.0]], [[5.0, 40.0], [10.0, 5.0]]]), 2, 1,
                "cannot cluster outside positions: |coordinate| up to 1e+200 overflows their squared distances",
            ),
        ],
        ids=["one_inside", "none_inside", "two_outside", "underflow", "overflow"],
    )
    def test_infeasible_message_names_distinct_count(self, festival_venue, positions, k_inside, k_outside, message):
        traces = make_traces(positions)
        with pytest.raises(InfeasibleError) as exc:
            cluster(traces, festival_venue, k_inside=k_inside, k_outside=k_outside, seed=0)
        assert str(exc.value) == message

    def test_far_positions_within_range_still_cluster(self, festival_venue):
        positions = np.array([[[1e150, 40.0], [-1e150, 40.0]], [[5.0, 40.0], [10.0, 5.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zoning = cluster(make_traces(positions), festival_venue, k_inside=2, k_outside=2, seed=0)
        assert sorted(zoning.outside_centroids[:, 0]) == [-1e150, 1e150]

    def test_centroid_within_member_bounding_box(self, festival_venue):
        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 50, size=(10, 6, 2)) * [1, 1.6]
        traces = make_traces(positions)
        zoning = cluster(traces, festival_venue, 4, 1, seed=5)
        labels = zoning.labels.ravel()
        pts = traces.all_points()
        for z in range(zoning.inside_count):
            members = pts[labels == z]
            if len(members):
                assert np.all(zoning.inside_centroids[z] >= members.min(axis=0) - 1e-12)
                assert np.all(zoning.inside_centroids[z] <= members.max(axis=0) + 1e-12)


class TestLloyd:
    def test_empty_cluster_reseeded_at_farthest_member_of_largest(self):
        from tce.zoning import _repair_empty

        points = np.array([[0.0, 0.0], [1.0, 0.0], [8.0, 0.0], [2.0, 2.0]])
        labels = np.array([0, 0, 0, 1], np.int64)
        centroids = np.array([[1.0, 0.0], [2.0, 2.0], [99.0, 99.0]])
        dist2 = ((points - centroids[labels]) ** 2).sum(axis=1)
        counts = np.array([3, 1, 0], np.int64)
        repaired = _repair_empty(points, labels, dist2, centroids.copy(), counts)
        # cluster 2 is empty; cluster 0 is largest; its farthest member is (8,0)
        assert np.array_equal(repaired[2], [8.0, 0.0])
        assert np.array_equal(repaired[0], centroids[0])

    def test_two_empty_clusters_take_distinct_points(self):
        from tce.zoning import _repair_empty

        points = np.array([[0.0, 0.0], [1.0, 0.0], [8.0, 0.0], [6.0, 0.0]])
        labels = np.array([0, 0, 0, 0], np.int64)
        centroids = np.array([[1.0, 0.0], [50.0, 50.0], [60.0, 60.0]])
        dist2 = ((points - centroids[labels]) ** 2).sum(axis=1)
        counts = np.array([4, 0, 0], np.int64)
        repaired = _repair_empty(points, labels, dist2, centroids.copy(), counts)
        assert np.array_equal(repaired[1], [8.0, 0.0])
        assert np.array_equal(repaired[2], [6.0, 0.0])

    def test_cluster_repairs_an_emptied_cluster(self):
        # 28 users at one instant, most near the origin: with these seeds
        # cluster 5 of 6 loses every member once and is reseeded
        points = [
            [-1.79, -0.1], [0, 0], [169.73, -153.37], [-0.01, -0.01], [0, -0.0], [-71.06, -163.7],
            [-2.06, -2.12], [0.01, -0.0], [-80.53, 84.21], [77.28, 3.46], [83.5, -83.89],
            [-94.1, -37.56], [-0.45, -71.05], [-0.0, -0.02], [1.57, 0.08], [0.77, 1.68],
            [-143.5, 13.0], [-0.0, 0.0], [-1.28, -1.65], [-38.73, 78.15], [0.79, -0.54],
            [7.08, -42.08], [-0.0, 0.01], [106.91, -36.23], [0.01, -0.01], [0.01, -0.01],
            [2.68, -24.13], [-19.13, 19.96],
        ]
        venue = Venue((-200, -200), (200, 200), (), 1.0)
        spy = mock.patch.object(zoning_module, "_repair_empty", wraps=zoning_module._repair_empty)
        with spy as repair:
            zoning = cluster(make_traces(np.reshape(points, (28, 1, 2))), venue, 6, 1, seed=17666)
        assert [call.args[4].tolist() for call in repair.call_args_list] == [[3, 3, 4, 1, 17, 0]]
        assert np.bincount(zoning.labels.ravel(), minlength=6).tolist() == [3, 2, 4, 1, 16, 2]
        assert zoning.labels[:, 0].tolist() == [nearest_zone_loop(zoning, venue, p) for p in points]

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            points = rng.uniform(0, 10, size=(int(rng.integers(5, 40)), 2))
            k = int(rng.integers(1, 5))
            if np.unique(points, axis=0).shape[0] < k:
                continue
            _, _, objective = _lloyd(points, k, "in-precinct", np.random.default_rng(0))
            assert np.all(np.diff(objective) <= 1e-9)


# The former K-Means, which assigned every point on every pass: the reference
# that the run-deduplicated ``_lloyd`` must equal bit for bit.


def reference_nearest_labels(points, centroids):
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
        np.putmask(best, closer, d2)
        np.putmask(labels, closer, j)
    return labels, best


def reference_kmeans_pp_init(points, k, region, rng):
    n = points.shape[0]
    big = float(np.abs(points).max(initial=0.0))
    if big > np.sqrt(np.finfo(np.float64).max / (4 * max(n, 1))):
        raise InfeasibleError(
            f"cannot cluster {region} positions: |coordinate| up to {big:g} overflows their squared distances"
        )
    centroids = np.empty((k, 2), np.float64)
    d2 = np.full(n, np.inf)
    for j in range(k):
        total = d2.sum()
        if total == 0:
            raise InfeasibleError(f"cannot form {k} {region} zones from {j} distinct {region} positions")
        idx = rng.integers(n) if j == 0 else rng.choice(n, p=d2 / total)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def reference_lloyd(points, k, region, rng):
    centroids = reference_kmeans_pp_init(points, k, region, rng)
    labels, dist2 = reference_nearest_labels(points, centroids)
    objective = [dist2.sum()]
    for _ in range(zoning_module.MAX_ITER):
        sums, counts = kern.accumulate_points(points, labels, k)
        nonempty = counts > 0
        centroids = np.where(nonempty[:, None], sums / np.where(nonempty, counts, 1)[:, None], centroids)
        if not np.all(nonempty):
            centroids = zoning_module._repair_empty(points, labels, dist2, centroids, counts)
        new_labels, dist2 = reference_nearest_labels(points, centroids)
        objective.append(dist2.sum())
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels, np.array(objective)


def festival_points(seed, users=80):
    cfg = load_config(FESTIVAL_INI)
    traces = generate_scenario(cfg.venue, cfg.grid, users, cfg.mobility, cfg.traffic, seed)
    return traces, cfg.venue


def assert_lloyd_matches_reference(points, k, seed):
    points = np.ascontiguousarray(points, np.float64)
    got = _lloyd(points, k, "in-precinct", np.random.default_rng(seed))
    want = reference_lloyd(points, k, "in-precinct", np.random.default_rng(seed))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_cluster_matches_reference(traces, venue, k_inside, k_outside, seed):
    got = cluster(traces, venue, k_inside, k_outside, seed)
    with mock.patch.object(zoning_module, "_lloyd", reference_lloyd):
        want = cluster(traces, venue, k_inside, k_outside, seed)
    for name in ("inside_centroids", "outside_centroids", "labels"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def spots_in_runs(rng, spots, runs):
    """Positions on ``spots``, in ``runs`` runs of 1 to 40 repeats each."""
    which = rng.integers(0, len(spots), size=runs)
    return np.repeat(np.asarray(spots, np.float64)[which], rng.integers(1, 41, size=runs), axis=0)


class TestLloydOracle:
    """``_lloyd`` assigns each run of equal adjacent points once; its
    centroids, labels and objective equal the all-points reference's."""

    @pytest.mark.parametrize("seed", [1, 7, 1000, 1013])
    @pytest.mark.parametrize("k", [24, 5])
    def test_festival_traces(self, seed, k):
        traces, venue = festival_points(seed)
        points = traces.all_points()
        mask = venue.precinct.contains_many(points)
        assert_lloyd_matches_reference(points[mask], k, seed)
        assert_cluster_matches_reference(traces, venue, k, 2, seed)

    def test_festival_points_repeat(self):
        # the case the change is for: about half of the points repeat the one before
        points = festival_points(7)[0].all_points()
        share = np.mean(np.all(points[1:] == points[:-1], axis=1))
        assert 0.3 < share < 0.8

    @pytest.mark.parametrize("seed", range(6))
    def test_points_without_repeats(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-50, 50, size=(400, 2))
        assert np.all(np.any(points[1:] != points[:-1], axis=1))
        assert_lloyd_matches_reference(points, 6, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_points_on_k_spots_in_long_runs(self, seed):
        # spots share x or y coordinates, so a run boundary where only one
        # coordinate changes is one too
        spots = [[5.0, 5.0], [5.0, 40.0], [30.0, 40.0], [30.0, 5.0], [17.5, 70.0]]
        points = spots_in_runs(np.random.default_rng(seed), spots, 60)
        for k in (5, 3, 1):
            assert_lloyd_matches_reference(points, k, seed)
        centroids, labels, objective = _lloyd(points, 5, "in-precinct", np.random.default_rng(seed))
        assert sorted(map(tuple, centroids.tolist())) == sorted(map(tuple, spots))
        assert np.array_equal(centroids[labels], points)
        assert objective[-1] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_signed_zero_pairs(self, seed):
        # +0.0 and -0.0 compare equal, so an adjacent pair is one run; the
        # centroids keep whichever zero the reference draws
        rng = np.random.default_rng(seed)
        zeros = [[0.0, 3.0], [-0.0, 3.0], [2.0, 0.0], [2.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]
        points = np.concatenate([spots_in_runs(rng, zeros, 30), rng.uniform(-4, 4, size=(10, 2))])
        points = points[np.argsort(rng.random(len(points)) < 0.9, kind="stable")]
        for k in (4, 2):
            assert_lloyd_matches_reference(points, k, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_across_users_and_the_mask_gap(self, festival_venue, seed):
        # user u ends where user u+1 starts, and a user's inside run is split
        # by an outside stay, so in-precinct points repeat across both gaps
        inside = [[10.0, 10.0], [10.0, 60.0], [40.0, 60.0], [25.0, 30.0]]
        outside = [[55.0, 20.0], [58.0, 60.0]]
        rng = np.random.default_rng(seed)
        rows = []
        for u in range(6):
            a, b = inside[u % 4], inside[(u + 1) % 4]
            rows.append([a, a, outside[u % 2], a, b, b, outside[(u + 1) % 2], b])
            rows[-1][0] = rows[-2][-1] if u else a
        positions = np.array(rows) + (rng.random((6, 8, 1)) < 0.2) * rng.uniform(-1, 1, size=(6, 8, 2))
        traces = make_traces(positions)
        in_pts = traces.all_points()[festival_venue.precinct.contains_many(traces.all_points())]
        assert np.any(np.all(in_pts[1:] == in_pts[:-1], axis=1))
        for k_inside in (4, 2):
            assert_cluster_matches_reference(traces, festival_venue, k_inside, 2, seed)

    def test_repair_empty_case(self):
        # the 28-point case of TestLloyd::test_cluster_repairs_an_emptied_cluster
        points = np.array([
            [-1.79, -0.1], [0, 0], [169.73, -153.37], [-0.01, -0.01], [0, -0.0], [-71.06, -163.7],
            [-2.06, -2.12], [0.01, -0.0], [-80.53, 84.21], [77.28, 3.46], [83.5, -83.89],
            [-94.1, -37.56], [-0.45, -71.05], [-0.0, -0.02], [1.57, 0.08], [0.77, 1.68],
            [-143.5, 13.0], [-0.0, 0.0], [-1.28, -1.65], [-38.73, 78.15], [0.79, -0.54],
            [7.08, -42.08], [-0.0, 0.01], [106.91, -36.23], [0.01, -0.01], [0.01, -0.01],
            [2.68, -24.13], [-19.13, 19.96],
        ])
        assert_lloyd_matches_reference(points, 6, 17666)
        venue = Venue((-200, -200), (200, 200), (), 1.0)
        assert_cluster_matches_reference(make_traces(points.reshape(28, 1, 2)), venue, 6, 1, 17666)

    @pytest.mark.parametrize(
        "points, k",
        [
            (np.tile([[10.0, 10.0]], (12, 1)), 2),
            (np.empty((0, 2)), 3),
            (np.repeat([[1.0, 2.0], [1.0, 5.0], [1.0, 2.0]], 4, axis=0), 3),
            (np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]), 2),
            (np.array([[1e200, 40.0], [1e200, 40.0], [-1e200, 40.0]]), 1),
        ],
        ids=["one_spot", "no_points", "two_spots_three_runs", "signed_zeros", "overflow"],
    )
    def test_same_infeasible_messages(self, points, k):
        with pytest.raises(InfeasibleError) as got:
            _lloyd(points, k, "in-precinct", np.random.default_rng(0))
        with pytest.raises(InfeasibleError) as want:
            reference_lloyd(points, k, "in-precinct", np.random.default_rng(0))
        assert str(got.value) == str(want.value)
        assert "distinct" in str(got.value) or "overflows" in str(got.value)


class TestAssign:
    """``cluster``'s own labels: each (user, instant) takes the nearest fitted
    centroid of its region class, ties going to the lowest zone id."""

    def test_centroid_maps_to_itself(self, festival_venue):
        # positions at exactly k spots per region: each fitted centroid is a
        # spot, and every position is labeled with the centroid it sits on
        spots = np.array([[5.0, 5.0], [40.0, 70.0], [25.0, 40.0], [52.0, 20.0], [58.0, 60.0]])
        positions = spots[np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 2, 4, 0, 1]])]
        zoning = cluster(make_traces(positions), festival_venue, k_inside=3, k_outside=2, seed=3)
        assert np.array_equal(zoning.all_centroids()[zoning.labels], positions)

    def test_tie_breaks_to_lowest_id(self, festival_venue):
        # (10,10) lies 2 from the centroids (8,10) and (12,10) of
        # {(7,11), (7,9), (10,10)} and {(12,11), (12,9)}; that fit is stable
        # only when (10,10) goes to the lower id, which seeds 1 and 19 reach
        points = [[7, 11], [7, 9], [10, 10], [12, 11], [12, 9], [55, 30], [55, 50], [56, 40]]
        traces = make_traces(np.reshape(points, (4, 2, 2)))
        for seed in (1, 19):
            zoning = cluster(traces, festival_venue, k_inside=2, k_outside=1, seed=seed)
            assert zoning.inside_centroids.tolist() == [[8.0, 10.0], [12.0, 10.0]]
            assert zoning.labels.ravel().tolist() == [0, 0, 0, 1, 1, 2, 2, 2]

    def test_outside_point_uses_outside_zone(self, festival_venue):
        # (51, 40) is 3 from the inside centroid and about 19 from the outside
        # one, yet it is outside the precinct, so it takes the outside zone
        points = [[48, 39], [48, 41], [47, 40], [49, 40], [51, 40], [59, 64], [59, 64], [59, 64]]
        traces = make_traces(np.reshape(points, (2, 4, 2)))
        zoning = cluster(traces, festival_venue, k_inside=1, k_outside=1, seed=0)
        assert zoning.all_centroids().tolist() == [[48.0, 40.0], [57.0, 58.0]]
        assert zoning.labels.tolist() == [[0, 0, 0, 0], [1, 1, 1, 1]]

    def test_matches_linear_scan(self, festival_venue):
        rng = np.random.default_rng(20)
        for case in range(40):
            users, instants = int(rng.integers(2, 6)), int(rng.integers(3, 8))
            outside = rng.random((users, instants)) < 0.3
            outside.flat[:3] = False
            outside.flat[3:5] = True
            positions = np.where(
                outside[..., None],
                rng.uniform((51, 15), (60, 65), size=(users, instants, 2)),
                rng.uniform((0, 0), (50, 80), size=(users, instants, 2)),
            )
            zoning = cluster(make_traces(positions), festival_venue, k_inside=3, k_outside=2, seed=case)
            for u in range(users):
                for t in range(instants):
                    assert zoning.labels[u, t] == nearest_zone_loop(zoning, festival_venue, positions[u, t])


class TestZoning:
    @pytest.mark.parametrize("inside, outside", [
        ([[math.nan, 1.0]], np.empty((0, 2))),
        ([[1.0, 1.0]], [[math.inf, 2.0]]),
    ])
    def test_rejects_non_finite_centroids(self, inside, outside):
        with pytest.raises(ValueError, match="centroids must be finite"):
            Zoning(inside, outside, [[0]])
