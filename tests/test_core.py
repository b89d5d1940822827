import numpy as np
import pytest

from tce.core import Rect, TimeGrid, TraceSet, Venue, real_distance


class TestRealDistance:
    def test_worked_example(self, festival_venue):
        # system distance 1 with a 2 m index unit is 2 m of real distance
        venue = Venue(Rect((0, 0), (50, 80)), (), index_scale=2.0)
        assert real_distance(1.0, venue) == 2.0

    def test_zero_distance(self, festival_venue):
        assert real_distance(0.0, festival_venue) == 0.0

    def test_direct_evaluation(self):
        venue = Venue(Rect((0, 0), (1, 1)), (), index_scale=2.0)
        assert real_distance(3.5, venue) == pytest.approx(7.0)

    def test_linearity(self, festival_venue):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0, 100, size=2)
            assert real_distance(a + b, festival_venue) == pytest.approx(
                real_distance(a, festival_venue) + real_distance(b, festival_venue), rel=1e-12
            )


class TestClassifyPosition:
    """Precinct membership, through ``venue.precinct.contains_many``."""

    def test_boundary_is_inside(self, festival_venue):
        corners = np.array([festival_venue.precinct.lo, festival_venue.precinct.hi])
        assert festival_venue.precinct.contains_many(corners).tolist() == [True, True]

    def test_beyond_max_is_outside(self, festival_venue):
        p = festival_venue.precinct.hi + np.array([1.0, 1.0])
        assert festival_venue.precinct.contains_many(p[None, :]).tolist() == [False]

    def test_point_in_outside_strip(self, festival_venue):
        assert festival_venue.precinct.contains_many(np.array([[55.0, 40.0]])).tolist() == [False]

    def test_deterministic_and_total(self, festival_venue):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-20, 100, size=(500, 2))
        mask = festival_venue.precinct.contains_many(pts)
        assert mask.dtype == bool and mask.shape == (500,)
        assert np.array_equal(mask, festival_venue.precinct.contains_many(pts))
        expected = [0 <= x <= 50 and 0 <= y <= 80 for x, y in pts.tolist()]
        assert mask.tolist() == expected


class TestVenue:
    def test_rejects_inverted_precinct(self):
        with pytest.raises(ValueError):
            Venue(Rect((10, 10), (0, 20)))

    def test_rejects_overlapping_outside_region(self):
        with pytest.raises(ValueError):
            Venue(Rect((0, 0), (50, 80)), (Rect((40, 10), (55, 20)),))

    def test_touching_region_allowed(self, festival_venue):
        assert len(festival_venue.outside_regions) == 1

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            Venue(Rect((0, 0), (1, 1)), (), index_scale=0.0)

    def test_rejects_outside_region_that_is_not_a_rect(self):
        # a corner pair is not a region; only a Rect is
        with pytest.raises(ValueError, match=r"outside_regions\[1\] must be a Rect"):
            Venue(Rect((0, 0), (50, 80)), (Rect((50, 15), (60, 65)), ((60, 15), (70, 65))))

    def test_rejects_precinct_that_is_not_a_rect(self):
        # a corner pair is not a precinct; only a Rect is
        with pytest.raises(ValueError, match="precinct must be a Rect"):
            Venue(((0, 0), (50, 80)))

    def test_precinct_built_once(self, festival_venue):
        # the precinct is a field, the same Rect at every access
        assert festival_venue.precinct is festival_venue.precinct
        assert np.array_equal(festival_venue.precinct.hi, [50, 80])


class TestTimeGrid:
    def test_requires_two_instants(self):
        with pytest.raises(ValueError):
            TimeGrid(300.0, 1)

    def test_instants_seconds(self):
        grid = TimeGrid(300.0, 4)
        assert list(grid.instants_seconds()) == [0.0, 300.0, 600.0, 900.0]

    @pytest.mark.parametrize("step, count", [(1e308, 4), (1.7976931348623157e308, 3), (1e300, 10**9)])
    def test_rejects_last_instant_past_float64(self, step, count):
        # every step is finite, the last instant step * (count - 1) is not
        with pytest.raises(ValueError, match=r"step_seconds \* \(instant_count - 1\) must be finite"):
            TimeGrid(step, count)

    def test_rejects_instant_count_past_float64(self):
        # an instant count no float64 holds is refused, not an OverflowError
        with pytest.raises(ValueError, match=rf"step_seconds \* \(instant_count - 1\) must be finite, got 1\.0 \* {2**1100 - 1}$"):
            TimeGrid(1.0, 2**1100)

    def test_largest_finite_last_instant(self):
        grid = TimeGrid(1.7976931348623157e308, 2)
        assert grid.instants_seconds().tolist() == [0.0, 1.7976931348623157e308]


class TestTraceSet:
    def test_immutable_after_construction(self):
        traces = TraceSet(np.zeros((2, 3, 2)), np.ones(2))
        with pytest.raises(ValueError):
            traces.positions[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            traces.mean_traffic[0] = 2.0

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            TraceSet(np.zeros((2, 3, 2)), np.array([1.0, -0.5]))

    def test_rejects_traffic_past_range(self):
        # each rate is finite, but past 2**42, where the float64 sum could overflow
        with pytest.raises(ValueError, match=r"mean_traffic entries must lie in \[0, 2\*\*42\)"):
            TraceSet(np.zeros((2, 3, 2)), np.full(2, 1e308))

    def test_rejects_traffic_shape_mismatch(self):
        with pytest.raises(ValueError):
            TraceSet(np.zeros((2, 3, 2)), np.ones(3))

    def test_rejects_non_finite_positions(self):
        pos = np.zeros((1, 2, 2))
        pos[0, 1, 0] = np.nan
        with pytest.raises(ValueError):
            TraceSet(pos, np.zeros(1))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 3), (2, 3, 2, 1)])
    def test_rejects_positions_not_users_by_instants_by_two(self, shape):
        with pytest.raises(ValueError, match=r"positions must have shape \(users, instants, 2\)"):
            TraceSet(np.zeros(shape), np.zeros(2))

    @pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 2)])
    def test_rejects_positions_without_a_user_or_an_instant(self, shape):
        with pytest.raises(ValueError, match="at least one user and one instant"):
            TraceSet(np.zeros(shape), np.zeros(shape[0]))
