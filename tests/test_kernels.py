"""Each numpy kernel must equal a plain-Python reference loop bit for bit, so
the float accumulation order of the K-Means kernels and the integer draw rule
of the prediction chain (and with them every output byte) are pinned."""

import numpy as np

from tce import _kernels as kern

from conftest import interval_lookup


def nearest_labels_loop(points, centroids):
    n = points.shape[0]
    k = centroids.shape[0]
    labels = np.empty(n, np.int64)
    dist2 = np.empty(n, np.float64)
    for i in range(n):
        dx = points[i, 0] - centroids[0, 0]
        dy = points[i, 1] - centroids[0, 1]
        best = 0
        bd = dx * dx + dy * dy
        for j in range(1, k):
            dx = points[i, 0] - centroids[j, 0]
            dy = points[i, 1] - centroids[j, 1]
            d = dx * dx + dy * dy
            if d < bd:  # strict: first minimum wins, same as np.argmin
                bd = d
                best = j
        labels[i] = best
        dist2[i] = bd
    return labels, dist2


def accumulate_points_loop(points, labels, k):
    sums = np.zeros((k, 2), np.float64)
    counts = np.zeros(k, np.int64)
    for i in range(points.shape[0]):
        j = labels[i]
        sums[j, 0] += points[i, 0]
        sums[j, 1] += points[i, 1]
        counts[j] += 1
    return sums, counts


def count_transitions_loop(labels, k):
    counts = np.zeros((k, k), np.int64)
    for u in range(labels.shape[0]):
        for s in range(labels.shape[1] - 1):
            counts[labels[u, s], labels[u, s + 1]] += 1
    return counts


def predict_series_loop(labels, k, w, per_user, uniforms):
    U, T = labels.shape
    out = labels.copy()
    state = labels[:, w - 1].copy()
    counts = np.zeros((k, k), np.int64)
    for t in range(w, T):
        if not per_user:
            counts[:, :] = 0
            for u in range(U):
                for s in range(t - w, t - 1):
                    counts[labels[u, s], labels[u, s + 1]] += 1
        for u in range(U):
            if per_user:
                counts[:, :] = 0
                for s in range(t - w, t - 1):
                    counts[labels[u, s], labels[u, s + 1]] += 1
            state[u] = interval_lookup(counts[state[u]], state[u], uniforms[u, t - w])
            out[u, t] = state[u]
    return out


def random_case(rng, users=None, instants=None, zones=None):
    users = users or int(rng.integers(1, 7))
    instants = instants or int(rng.integers(2, 12))
    zones = zones or int(rng.integers(1, 5))
    labels = rng.integers(0, zones, size=(users, instants)).astype(np.int64)
    return labels, zones


def test_nearest_labels_matches_reference_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, 8))
        points = rng.uniform(-5, 5, size=(n, 2))
        centroids = rng.uniform(-5, 5, size=(k, 2))
        ln, dn = kern.nearest_labels(points, centroids)
        lr, dr = nearest_labels_loop(points, centroids)
        assert np.array_equal(ln, lr)
        assert dn.tobytes() == dr.tobytes()
    # up to 30 centroids over thousands of points; each duplicated centroid
    # ties with its lower-index twin, and on grid values points tie exactly
    for case in range(12):
        n = int(rng.integers(500, 3000))
        k = int(rng.integers(8, 31))
        if case % 2:
            points = rng.integers(-4, 5, size=(n, 2)).astype(np.float64)
            centroids = rng.integers(-4, 5, size=(k, 2)).astype(np.float64)
        else:
            points = rng.uniform(-5, 5, size=(n, 2))
            centroids = rng.uniform(-5, 5, size=(k, 2))
        twins = np.sort(rng.choice(np.arange(2, k), size=k // 4, replace=False))
        for t in twins:
            centroids[t] = centroids[t - 1]
        ln, dn = kern.nearest_labels(points, centroids)
        lr, dr = nearest_labels_loop(points, centroids)
        assert np.array_equal(ln, lr)
        assert dn.tobytes() == dr.tobytes()
        assert not np.isin(ln, twins).any()  # the lower index won every tie


def test_nearest_labels_tie_goes_to_lowest_index():
    points = np.array([[0.0, 0.0]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    for fn in (kern.nearest_labels, nearest_labels_loop):
        labels, _ = fn(points, centroids)
        assert labels[0] == 0


def assert_nearest_labels_match_loop(points, centroids):
    ln, dn = kern.nearest_labels(points, centroids)
    lr, dr = nearest_labels_loop(points, centroids)
    assert ln.tobytes() == lr.tobytes()
    assert dn.tobytes() == dr.tobytes()
    return ln, dn


def test_nearest_labels_keeps_the_loops_bytes_on_edge_values():
    # the running best is kept with np.minimum, and the label moves only
    # where the new distance is strictly smaller: on ties, on +0 distances
    # and on signed zeros the bytes must still be the loop's
    rng = np.random.default_rng(23)
    zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    for case in range(40):
        k = int(rng.integers(2, 9))
        centroids = rng.integers(-3, 4, size=(k, 2)).astype(np.float64)
        centroids[rng.random((k, 2)) < 0.3] *= 0.0  # some become +0.0 or -0.0
        centroids[rng.random((k, 2)) < 0.2] = -0.0
        if k > 2:
            centroids[k - 1] = centroids[int(rng.integers(0, k - 1))]  # a twin
        on = centroids[rng.integers(0, k, size=30)]  # +0 distance to a centroid
        points = np.concatenate([on, zeros, -on, rng.integers(-3, 4, size=(30, 2)).astype(np.float64)])
        labels, dist2 = assert_nearest_labels_match_loop(points, centroids)
        assert np.all(dist2[:30] == 0) and not np.signbit(dist2).any()
        assert np.array_equal(centroids[labels[:30]], on)


def test_nearest_labels_near_the_clustering_overflow_bound():
    # zoning refuses |coordinate| above sqrt(max / (4 n)); up to there every
    # squared distance, and the D^2 total of n points, stays finite
    rng = np.random.default_rng(29)
    for n in (2, 50, 1000):
        big = np.sqrt(np.finfo(np.float64).max / (4 * n))
        points = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, 2)) * big
        points[0] = [big, -big]
        centroids = np.array([[-big, big], [big, big], [0.0, 0.0], [-big, -big], [big, -big]])
        labels, dist2 = assert_nearest_labels_match_loop(points, centroids)
        assert np.all(np.isfinite(dist2)) and labels[0] == 4 and dist2[0] == 0


def test_accumulate_points_matches_reference_loop():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        k = int(rng.integers(1, 6))
        points = rng.uniform(-3, 3, size=(n, 2))
        labels = rng.integers(0, k, size=n).astype(np.int64)
        sn, cn = kern.accumulate_points(points, labels, k)
        sr, cr = accumulate_points_loop(points, labels, k)
        assert sn.tobytes() == sr.tobytes()
        assert np.array_equal(cn, cr)


# draws on interval ends: 0, fractions m/n whose products with small row
# totals n land on an interval end or one rounding off it, and the largest
# double below 1; then the doubles either side of each, clipped below 1
EDGES = np.array([0.0, 0.125, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.875, np.nextafter(1.0, 0.0)])
EDGES = np.unique(np.minimum(np.concatenate([EDGES, np.nextafter(EDGES, 0), np.nextafter(EDGES, 1)]), EDGES[-1]))


def test_predict_series_matches_reference_loop():
    rng = np.random.default_rng(14)
    cases = [random_case(rng, instants=int(rng.integers(3, 12))) for _ in range(200)]
    # more users and zones than the small cases, so many groups share a count
    cases += [
        random_case(
            rng, int(rng.integers(10, 41)), int(rng.integers(3, 14)), int(rng.integers(5, 9))
        )
        for _ in range(20)
    ]
    runs = [(labels, zones, int(rng.integers(1, labels.shape[1]))) for labels, zones in cases]
    # event-sized cases, 100-300 users over up to 30 zones, at the shortest
    # windows and at the longest, which leaves one forecast
    for _ in range(4):
        labels, zones = random_case(
            rng, int(rng.integers(100, 301)), int(rng.integers(6, 11)), int(rng.integers(10, 31))
        )
        runs += [(labels, zones, w) for w in (1, 2, labels.shape[1] - 1)]
    for labels, zones, w in runs:
        shape = (labels.shape[0], labels.shape[1] - w)
        for uniforms in (rng.random(shape), rng.choice(EDGES, shape)):
            for per_user in (False, True):
                a = kern.predict_series(labels, zones, w, per_user, uniforms.T)
                b = predict_series_loop(labels, zones, w, per_user, uniforms)
                assert np.array_equal(a, b), (per_user, labels.shape, zones, w)


def test_predict_series_stacked_runs_match_one_loop_per_run():
    # R runs stacked as rows r*U + u of one call equal R separate loops
    rng = np.random.default_rng(15)
    cases = [random_case(rng, instants=int(rng.integers(3, 12))) for _ in range(40)]
    cases += [random_case(rng, int(rng.integers(20, 41)), 10, int(rng.integers(5, 13))) for _ in range(2)]
    for labels, zones in cases:
        U, T = labels.shape
        for runs in (2, 3, 5):
            for w in sorted({1, 2, T - 1}):
                shape = (runs * U, T - w)
                for uniforms in (rng.random(shape), rng.choice(EDGES, shape)):
                    for per_user in (False, True):
                        stacked = kern.predict_series(labels, zones, w, per_user, uniforms.T)
                        assert stacked.shape == (runs * U, T)
                        for r in range(runs):
                            rows = slice(r * U, (r + 1) * U)
                            b = predict_series_loop(labels, zones, w, per_user, uniforms[rows])
                            assert np.array_equal(stacked[rows], b), (runs, r, per_user, labels.shape, zones, w)


def test_predict_series_blocks_match_one_loop_per_run():
    # forecasts of 1 to 37 steps, of 1 to 11 stacked runs of (users, zones,
    # runs) shapes, must equal one loop per run
    rng = np.random.default_rng(16)
    shapes = [(7, 3, 1), (1, 4, 1), (5, 2, 3), (4, 3, 3), (9, 4, 5), (3, 2, 11)]
    for users, zones, runs in shapes:
        for steps in (1, 13, 16, 32, 37):
            for w in (1, 2, 6):
                T = w + steps
                # sticky labels, so some window rows are empty and some not
                labels = rng.integers(0, zones, size=(users, T)).astype(np.int64)
                for t in range(1, T):
                    stay = rng.random(users) < 0.6
                    labels[stay, t] = labels[stay, t - 1]
                shape = (runs * users, steps)
                for uniforms in (rng.random(shape), rng.choice(EDGES, shape)):
                    for per_user in (False, True):
                        out = kern.predict_series(labels, zones, w, per_user, uniforms.T)
                        assert out.shape == (runs * users, T)
                        for r in range(runs):
                            rows = slice(r * users, (r + 1) * users)
                            b = predict_series_loop(labels, zones, w, per_user, uniforms[rows])
                            case = (users, zones, runs, steps, w, per_user, r)
                            assert np.array_equal(out[rows], b), case


def test_predict_series_residual_mass_lands_in_last_zone_on_both_routes():
    # zone 10's window row counts one move to each of zones 0..9, so the
    # largest draw below 1 times the total 10 rounds to just below 10, and it
    # must land in zone 9, the last one with a count, in both scopes for one
    # run and for 12 stacked runs
    zones, stay = 11, 10
    row = [z for move in range(10) for z in (stay, move)] + [stay, stay]
    labels = np.array([row], np.int64)
    w = labels.shape[1] - 1
    for runs in (1, zones + 1):
        uniforms = np.full((runs, 1), EDGES[-1])
        for per_user in (False, True):
            out = kern.predict_series(labels, zones, w, per_user, uniforms.T)
            b = predict_series_loop(labels, zones, w, per_user, uniforms[:1])
            assert np.array_equal(out, np.tile(b, (runs, 1))), (runs, per_user)
            assert np.all(out[:, w] == 9)


def test_predict_series_count_dtype_edges_match_loop():
    # the window table holds its counts in the narrowest unsigned type that
    # holds a full column: w-1 per user, users*(w-1) in general. Every user
    # sits in the last zone up to instant w-1, and about half move to zone 0
    # at w, so at t = w+1 the last zone's column is full and mixes stays with
    # moves. The (users, zones, w, scopes) cases put a full column at 255 and
    # 256 per user, at 255 and 260 in general, and at 65 535 and 65 792 in
    # general (257 users), where the per_user columns also cross 255.
    # A stay in the last zone reaches k*width - 1, the largest table index,
    # for the last user. The last four cases put it at 255 and 288 in
    # general (k = 16 and 17) and at 65 535 and 65 599 per user (k = 8,
    # 1024 and 1025 users), either side of a one- and a two-byte index.
    rng = np.random.default_rng(18)
    steps, runs = 3, 2
    cases = [(3, 3, 256, (True,)), (3, 3, 257, (True,)), (5, 3, 52, (False,)), (5, 3, 53, (False,))]
    cases += [(257, 3, 256, (False, True)), (257, 3, 257, (False, True))]
    cases += [(40, 16, 4, (False,)), (40, 17, 4, (False,)), (1024, 8, 4, (True,)), (1025, 8, 4, (True,))]
    for users, zones, w, scopes in cases:
        T = w + steps
        labels = np.full((users, T), zones - 1, np.int64)
        labels[rng.permutation(users)[: users // 2 + 1], w] = 0
        for t in range(w + 1, T):
            moves = rng.random(users) < 0.5
            labels[:, t] = np.where(moves, rng.integers(0, zones, users), labels[:, t - 1])
        shape = (runs * users, steps)
        for uniforms in (rng.random(shape), rng.choice(EDGES, shape)):
            for per_user in scopes:
                out = kern.predict_series(labels, zones, w, per_user, uniforms.T)
                for r in range(runs):
                    rows = slice(r * users, (r + 1) * users)
                    b = predict_series_loop(labels, zones, w, per_user, uniforms[rows])
                    assert np.array_equal(out[rows], b), (users, w, per_user, r)


def test_predict_series_zone_counter_width_edge_matches_loop():
    # the drawn zone is a byte count of the cumulative counts at or below
    # the draw, summed in the narrowest unsigned type that holds k: uint8 at
    # k = 255, uint16 at k = 256. Every user starts in the last zone, and its
    # window moves from the last zone to the last, the one before it or zone
    # 0, so the first draws land at both ends of a 255- or 256-zone row.
    rng = np.random.default_rng(19)
    users, w, steps, runs = 40, 7, 3, 2
    T = w + steps
    for zones in (255, 256):
        top = zones - 1
        labels = rng.integers(0, zones, size=(users, T)).astype(np.int64)
        labels[:, 0:w:2] = top
        labels[:, 1:w:2] = rng.choice([top, top - 1, 0], size=(users, len(range(1, w, 2))))
        shape = (runs * users, steps)
        for uniforms in (rng.random(shape), rng.choice(EDGES, shape)):
            for per_user in (False, True):
                out = kern.predict_series(labels, zones, w, per_user, uniforms.T)
                assert {0, top - 1, top} <= set(out[:, w].tolist()), (zones, per_user)
                for r in range(runs):
                    rows = slice(r * users, (r + 1) * users)
                    b = predict_series_loop(labels, zones, w, per_user, uniforms[rows])
                    assert np.array_equal(out[rows], b), (zones, per_user, r)


def test_count_transitions_matches_double_loop():
    rng = np.random.default_rng(13)
    for _ in range(500):
        labels, zones = random_case(rng)
        assert np.array_equal(kern.count_transitions(labels, zones), count_transitions_loop(labels, zones))


def test_backend_flag_reported():
    assert kern.backend() == "numpy"
