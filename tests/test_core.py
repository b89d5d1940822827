import numpy as np
import pytest

from tce.core import Rect, TimeGrid, TraceSet, Venue, inside_mask, real_distance


class TestRealDistance:
    def test_worked_example(self, festival_venue):
        # system distance 1 with a 2 m index unit is 2 m of real distance
        venue = Venue((0, 0), (50, 80), (), index_scale=2.0)
        assert real_distance(1.0, venue) == 2.0

    def test_zero_distance(self, festival_venue):
        assert real_distance(0.0, festival_venue) == 0.0

    def test_direct_evaluation(self):
        venue = Venue((0, 0), (1, 1), (), index_scale=2.0)
        assert real_distance(3.5, venue) == pytest.approx(7.0)

    def test_linearity(self, festival_venue):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0, 100, size=2)
            assert real_distance(a + b, festival_venue) == pytest.approx(
                real_distance(a, festival_venue) + real_distance(b, festival_venue), rel=1e-12
            )


class TestClassifyPosition:
    """Precinct membership, through ``inside_mask``."""

    def test_boundary_is_inside(self, festival_venue):
        corners = np.array([festival_venue.precinct_min, festival_venue.precinct_max])
        assert inside_mask(corners, festival_venue).tolist() == [True, True]

    def test_beyond_max_is_outside(self, festival_venue):
        p = festival_venue.precinct_max + np.array([1.0, 1.0])
        assert inside_mask(p[None, :], festival_venue).tolist() == [False]

    def test_point_in_outside_strip(self, festival_venue):
        assert inside_mask(np.array([[55.0, 40.0]]), festival_venue).tolist() == [False]

    def test_non_finite_rejected(self, festival_venue):
        with pytest.raises(ValueError):
            inside_mask(np.array([[np.nan, 1.0]]), festival_venue)
        with pytest.raises(ValueError):
            inside_mask(np.array([[1.0, 2.0], [np.inf, 1.0]]), festival_venue)

    def test_deterministic_and_total(self, festival_venue):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-20, 100, size=(500, 2))
        mask = inside_mask(pts, festival_venue)
        assert mask.dtype == bool and mask.shape == (500,)
        assert np.array_equal(mask, inside_mask(pts, festival_venue))
        expected = [0 <= x <= 50 and 0 <= y <= 80 for x, y in pts.tolist()]
        assert mask.tolist() == expected


class TestVenue:
    def test_rejects_inverted_precinct(self):
        with pytest.raises(ValueError):
            Venue((10, 10), (0, 20))

    def test_rejects_overlapping_outside_region(self):
        with pytest.raises(ValueError):
            Venue((0, 0), (50, 80), (Rect((40, 10), (55, 20)),))

    def test_touching_region_allowed(self, festival_venue):
        assert len(festival_venue.outside_regions) == 1

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            Venue((0, 0), (1, 1), (), index_scale=0.0)

    def test_precinct_built_once(self, festival_venue):
        # the generator asks for it once per waypoint
        assert festival_venue.precinct is festival_venue.precinct
        assert np.array_equal(festival_venue.precinct.hi, festival_venue.precinct_max)


class TestTimeGrid:
    def test_requires_two_instants(self):
        with pytest.raises(ValueError):
            TimeGrid(300.0, 1)

    def test_instants_seconds(self):
        grid = TimeGrid(300.0, 4)
        assert list(grid.instants_seconds()) == [0.0, 300.0, 600.0, 900.0]


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

    def test_rejects_traffic_shape_mismatch(self):
        with pytest.raises(ValueError):
            TraceSet(np.zeros((2, 3, 2)), np.ones(3))

    def test_rejects_non_finite_positions(self):
        pos = np.zeros((1, 2, 2))
        pos[0, 1, 0] = np.nan
        with pytest.raises(ValueError):
            TraceSet(pos, np.zeros(1))
