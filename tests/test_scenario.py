import hashlib

import numpy as np
import pytest

from tce.config import load_config
from tce.core import Rect, TimeGrid, Venue, inside_mask
from tce.scenario import (
    Attractor,
    MobilityParams,
    TrafficTiers,
    apportion,
    assign_tiers,
    generate_scenario,
)

from conftest import FESTIVAL_INI


def simple_mobility(**overrides):
    params = dict(
        speed_min=0.0,
        speed_max=0.08,
        attractors=(
            Attractor(Rect((2, 28), (14, 52)), 0.5, "stage"),
            Attractor(Rect((8, 70), (30, 78)), 0.25, "food"),
            Attractor(Rect((51, 30), (59, 50)), 0.25, "exit"),
        ),
        pause_instants=0,
    )
    params.update(overrides)
    return MobilityParams(**params)


THIRDS = TrafficTiers(((1 / 3, 0.0), (1 / 3, 5.0), (1 / 3, 10.0)))


class TestApportionment:
    def test_three_users_three_thirds(self):
        assert list(apportion(3, [1 / 3, 1 / 3, 1 / 3])) == [1, 1, 1]

    def test_largest_remainder_by_hand(self):
        # 7 * [0.4, 0.35, 0.25] = [2.8, 2.45, 1.75]; floors [2,2,1], two left
        # over go to the remainders 0.8 and 0.75
        assert list(apportion(7, [0.4, 0.35, 0.25])) == [3, 2, 2]

    def test_ties_resolve_to_lower_tier(self):
        # 1 * [0.5, 0.5]: equal remainders, the single extra goes to tier 0
        assert list(apportion(1, [0.5, 0.5])) == [1, 0]

    def test_sizes_always_sum_to_user_count(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            parts = rng.uniform(0.1, 1, size=int(rng.integers(1, 6)))
            fractions = parts / parts.sum()
            assert apportion(n, fractions).sum() == n

    def test_assign_tiers_matches_quotas(self):
        rng = np.random.default_rng(41)
        rates = assign_tiers(9, THIRDS, rng)
        assert sorted(rates) == [0.0] * 3 + [5.0] * 3 + [10.0] * 3


class TestGenerateScenario:
    def test_deterministic_for_fixed_seed(self, festival_venue):
        grid = TimeGrid(300.0, 8)
        a = generate_scenario(festival_venue, grid, 5, simple_mobility(), THIRDS, seed=1)
        b = generate_scenario(festival_venue, grid, 5, simple_mobility(), THIRDS, seed=1)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.mean_traffic.tobytes() == b.mean_traffic.tobytes()
        c = generate_scenario(festival_venue, grid, 5, simple_mobility(), THIRDS, seed=2)
        assert not np.array_equal(a.positions, c.positions)

    def test_zero_speed_keeps_users_at_start(self, festival_venue):
        grid = TimeGrid(300.0, 6)
        mobility = simple_mobility(speed_max=0.0)
        traces = generate_scenario(festival_venue, grid, 4, mobility, THIRDS, seed=3)
        for t in range(1, 6):
            assert np.array_equal(traces.positions[:, t], traces.positions[:, 0])

    def test_kinematic_speed_bound(self, festival_venue):
        grid = TimeGrid(300.0, 20)
        mobility = simple_mobility()
        traces = generate_scenario(festival_venue, grid, 20, mobility, THIRDS, seed=4)
        steps = np.linalg.norm(np.diff(traces.positions, axis=1), axis=2)
        bound = mobility.speed_max * grid.step_seconds / festival_venue.index_scale
        assert steps.max() <= bound + 1e-9

    def test_containment(self, festival_venue):
        grid = TimeGrid(300.0, 30)
        traces = generate_scenario(festival_venue, grid, 30, simple_mobility(), THIRDS, seed=5)
        pts = traces.all_points()
        inside = inside_mask(pts, festival_venue)
        in_strip = festival_venue.outside_regions[0].contains_many(pts)
        assert np.all(inside | in_strip)

    def test_two_outside_regions_contain_every_step(self):
        # east and west strips on either side of the precinct, one attractor in
        # each, plus a background share: users route outside -> outside
        east, west = Rect((50, 15), (60, 65)), Rect((-10, 20), (0, 60))
        venue = Venue((0, 0), (50, 80), (east, west), 1.0)
        grid = TimeGrid(300.0, 40)
        mobility = simple_mobility(
            speed_max=0.1,
            attractors=(
                Attractor(Rect((2, 28), (14, 52)), 0.4, "stage"),
                Attractor(Rect((51, 30), (59, 50)), 0.3, "east"),
                Attractor(Rect((-9, 25), (-1, 55)), 0.3, "west"),
            ),
            background_weight=0.2,
        )
        traces = generate_scenario(venue, grid, 30, mobility, THIRDS, seed=8)
        pts = traces.all_points()
        in_east, in_west = east.contains_many(pts), west.contains_many(pts)
        assert np.all(inside_mask(pts, venue) | in_east | in_west)
        assert in_east.any() and in_west.any()
        steps = np.linalg.norm(np.diff(traces.positions, axis=1), axis=2)
        assert steps.max() <= mobility.speed_max * grid.step_seconds + 1e-9

    def test_seed_pins_festival_bytes(self):
        # the bytes of a seeded festival scenario, fixed across versions
        cfg = load_config(FESTIVAL_INI)
        traces = generate_scenario(cfg.venue, cfg.grid, 20, cfg.mobility, cfg.traffic, seed=7)
        assert hashlib.sha256(traces.positions.tobytes()).hexdigest() == (
            "d9101e29b3e3a3099f729cb1de9a62cf12c1539f7b2a52c837088b7f892e2818"
        )

    def test_stage_attracts_occupancy(self, festival_venue):
        grid = TimeGrid(300.0, 60)
        traces = generate_scenario(festival_venue, grid, 100, simple_mobility(pause_instants=3), THIRDS, seed=6)
        pts = traces.all_points()
        stage = Rect((2, 28), (14, 52))
        food = Rect((8, 70), (30, 78))
        stage_share = stage.contains_many(pts).mean()
        food_share = food.contains_many(pts).mean()
        assert stage_share > food_share > 0

    def test_rejects_zero_users(self, festival_venue):
        grid = TimeGrid(300.0, 4)
        with pytest.raises(ValueError):
            generate_scenario(festival_venue, grid, 0, simple_mobility(), THIRDS, seed=0)

    def test_rejects_empty_attractors(self, festival_venue):
        grid = TimeGrid(300.0, 4)
        with pytest.raises(ValueError):
            generate_scenario(
                festival_venue, grid, 3,
                MobilityParams(0.0, 0.1, (), background_weight=1.0),
                THIRDS, seed=0,
            )

    def test_rejects_attractor_outside_venue(self, festival_venue):
        grid = TimeGrid(300.0, 4)
        stray = simple_mobility(attractors=(Attractor(Rect((200, 200), (210, 210)), 1.0, "x"),))
        with pytest.raises(ValueError):
            generate_scenario(festival_venue, grid, 3, stray, THIRDS, seed=0)

    def test_rejects_detached_outside_attractor(self):
        # outside region not touching the precinct cannot host waypoints
        venue = Venue((0, 0), (50, 80), (Rect((60, 15), (70, 65)),))
        grid = TimeGrid(300.0, 4)
        mobility = simple_mobility(
            attractors=(
                Attractor(Rect((2, 28), (14, 52)), 0.5, "stage"),
                Attractor(Rect((61, 30), (69, 50)), 0.5, "island"),
            )
        )
        with pytest.raises(ValueError):
            generate_scenario(venue, grid, 3, mobility, THIRDS, seed=0)


class TestValidation:
    def test_tier_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrafficTiers(((0.5, 1.0), (0.4, 2.0)))

    def test_tier_rates_non_negative(self):
        with pytest.raises(ValueError):
            TrafficTiers(((1.0, -1.0),))

    def test_speed_ordering(self):
        with pytest.raises(ValueError):
            MobilityParams(0.5, 0.1, (Attractor(Rect((0, 0), (1, 1)), 1.0),))

    def test_attractor_weight_positive(self):
        with pytest.raises(ValueError):
            Attractor(Rect((0, 0), (1, 1)), 0.0)
