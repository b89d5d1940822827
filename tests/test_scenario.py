import hashlib
import warnings

import numpy as np
import pytest

from tce import scenario
from tce.config import load_config
from tce.core import Rect, TimeGrid, Venue, inside_mask
from tce.scenario import (
    Attractor,
    MobilityParams,
    TrafficTiers,
    _WaypointDraw,
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

EAST, WEST = Rect((50, 15), (60, 65)), Rect((-10, 20), (0, 60))


def two_outside_scenario():
    """East and west strips on either side of the precinct, one attractor in
    each, plus a background share: users route outside -> outside."""
    venue = Venue((0, 0), (50, 80), (EAST, WEST), 1.0)
    mobility = simple_mobility(
        speed_max=0.1,
        attractors=(
            Attractor(Rect((2, 28), (14, 52)), 0.4, "stage"),
            Attractor(Rect((51, 30), (59, 50)), 0.3, "east"),
            Attractor(Rect((-9, 25), (-1, 55)), 0.3, "west"),
        ),
        background_weight=0.2,
    )
    return venue, TimeGrid(300.0, 40), mobility


def trace_digest(traces):
    return hashlib.sha256(traces.positions.tobytes() + traces.mean_traffic.tobytes()).hexdigest()


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
        venue, grid, mobility = two_outside_scenario()
        traces = generate_scenario(venue, grid, 30, mobility, THIRDS, seed=8)
        pts = traces.all_points()
        in_east, in_west = EAST.contains_many(pts), WEST.contains_many(pts)
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

    def test_seed_pins_two_outside_regions_bytes(self):
        # gate-to-gate routing between two outside hosts, with a background share
        venue, grid, mobility = two_outside_scenario()
        traces = generate_scenario(venue, grid, 30, mobility, THIRDS, seed=8)
        assert trace_digest(traces) == (
            "a3075f9c2a313e6500aed4b43e65e42e91144026ac9b7d8623b1971edb808316"
        )

    def test_seed_pins_scaled_speed_floor_bytes(self, festival_venue):
        # speed_min > 0, no dwell at waypoints and index units of 0.37 m
        venue = Venue(festival_venue.precinct_min, festival_venue.precinct_max,
                      festival_venue.outside_regions, 0.37)
        mobility = simple_mobility(speed_min=0.02, speed_max=0.09, background_weight=0.1)
        traces = generate_scenario(venue, TimeGrid(300.0, 30), 25, mobility, THIRDS, seed=11)
        assert trace_digest(traces) == (
            "7bbabe7ca172f75d402775cfc0b11d27b9c7344640d0cd26e0db6e5b8b60ea4a"
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

    def test_rejects_weights_with_infinite_sum(self, festival_venue):
        heavy = simple_mobility(attractors=(
            Attractor(Rect((2, 28), (14, 52)), 1e308, "stage"),
            Attractor(Rect((8, 70), (30, 78)), 1e308, "food"),
        ))
        with pytest.raises(ValueError, match="finite in float64"):
            generate_scenario(festival_venue, TimeGrid(300.0, 4), 3, heavy, THIRDS, seed=0)

    def test_rejects_region_wider_than_float64(self):
        # hi - lo overflows, so a uniform point in it would be inf or nan
        venue = Venue((-1e308, 0), (1e308, 80))
        mobility = simple_mobility(attractors=(Attractor(Rect((2, 28), (14, 52)), 1.0),),
                                   background_weight=0.5)
        with pytest.raises(ValueError, match="finite in float64"):
            generate_scenario(venue, TimeGrid(300.0, 4), 3, mobility, THIRDS, seed=0)

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


# The numpy calls the generator drew through before it used Generator.random
# alone, kept as the reference its draws must equal bit for bit.
def reference_pick(rng, probs):
    return int(rng.choice(len(probs), p=probs))


def reference_cdf(probs):
    # what Generator.choice builds from p before its searchsorted(side="right")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def reference_point(rng, rect):
    return rng.uniform(rect.lo, rect.hi)


def reference_speed(rng, speed_min, speed_max):
    return rng.uniform(speed_min, speed_max)


ORACLE_SEEDS, ORACLE_DRAWS = range(200), 50


def festival_draw(weights, background_weight=0.0):
    cfg = load_config(FESTIVAL_INI)
    attractors = tuple(
        Attractor(a.region, w, a.label) for a, w in zip(cfg.mobility.attractors, weights)
    )
    mobility = MobilityParams(0.0, 0.08, attractors, background_weight=background_weight)
    draw = _WaypointDraw(cfg.venue, mobility)
    rects = [a.region for a in attractors] + [cfg.venue.precinct] * (background_weight > 0)
    w = np.array(list(weights) + [background_weight] * (background_weight > 0))
    return draw, rects, w / w.sum()  # probs exactly as choice(p=...) was given them


WEIGHT_SETS = {
    "festival": ((0.5, 0.1, 0.1, 0.1, 0.1, 0.1), 0.0),
    "festival_background": ((0.5, 0.1, 0.1, 0.1, 0.1, 0.1), 0.3),
    "uneven": ((1 / 3, 1 / 7, 2 / 9, 5.5, 1e-9, 0.07), 0.0),
    "background_heavy": ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 40.0),
}


class TestDrawOracle:
    """``_WaypointDraw`` and the speed draw against the numpy calls they
    replace, on twin generators: same seed, same draws, same bits."""

    @pytest.mark.parametrize("name", list(WEIGHT_SETS))
    def test_pick_equals_choice(self, name):
        draw, _, probs = festival_draw(*WEIGHT_SETS[name])
        # two of the sets have cumsum(p)[-1] != 1, where the division shows
        assert draw.cdf.tobytes() == reference_cdf(probs).tobytes()
        for seed in ORACLE_SEEDS:
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(ORACLE_DRAWS):
                assert int(draw.cdf.searchsorted(new.random(), side="right")) == reference_pick(old, probs)

    @pytest.mark.parametrize("name", list(WEIGHT_SETS))
    def test_point_equals_uniform(self, name):
        draw, rects, probs = festival_draw(*WEIGHT_SETS[name])
        for seed in ORACLE_SEEDS:
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(ORACLE_DRAWS):
                point, host = draw.draw(new)
                i = reference_pick(old, probs)
                assert host == draw.hosts[i]
                assert np.array(point).tobytes() == reference_point(old, rects[i]).tobytes()

    def test_draw_on_a_cdf_step_picks_the_next_rect(self):
        # a random() equal to cdf[k] is past rect k, as choice's side="right" has it
        draw, rects, _ = festival_draw(*WEIGHT_SETS["festival"])

        class StepRng:
            def random(self, size=None):
                return draw.cdf[1] if size is None else np.zeros(size)

        point, _ = draw.draw(StepRng())
        assert point == rects[2].lo.tolist()

    @pytest.mark.parametrize("speed_min, speed_max", [(0.0, 0.08), (0.02, 0.09), (0.3, 0.3), (0.1, 7.0)])
    def test_speed_equals_uniform(self, speed_min, speed_max):
        span = speed_max - speed_min
        for seed in ORACLE_SEEDS:
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(ORACLE_DRAWS):
                speed = speed_min + span * new.random()  # the form generate_scenario uses
                assert np.float64(speed).tobytes() == np.float64(
                    reference_speed(old, speed_min, speed_max)
                ).tobytes()


def reference_generate(venue, grid, user_count, mobility, traffic, seed):
    """``generate_scenario`` as it was before its uniforms were buffered: one
    ``rng.random()`` or ``rng.random(2)`` call per draw, ``np.hypot`` per leg
    step and positions stored one instant at a time. Also returns how many
    uniforms it drew."""
    draw = _WaypointDraw(venue, mobility)
    los, spans = np.array(draw.los), np.array(draw.spans)
    rng = np.random.default_rng(seed)
    drawn = 0

    def pick():
        nonlocal drawn
        drawn += 3
        i = int(draw.cdf.searchsorted(rng.random(), side="right"))
        return (los[i] + spans[i] * rng.random(2)).tolist(), draw.hosts[i]

    rates = assign_tiers(user_count, traffic, rng)
    step_budget = grid.step_seconds / venue.index_scale
    speed_span = mobility.speed_max - mobility.speed_min
    positions = np.empty((user_count, grid.instant_count, 2), np.float64)
    for u in range(user_count):
        (x, y), region = pick()
        positions[u, 0] = x, y
        legs, pause_left = [], 0
        for t in range(1, grid.instant_count):
            if pause_left > 0:
                pause_left -= 1
            else:
                if not legs:
                    target, dst = pick()
                    legs = draw.route(region, target, dst)
                    region = dst
                    speed = mobility.speed_min + speed_span * rng.random()
                    drawn += 1
                budget = speed * step_budget
                while budget > 0 and legs:
                    px, py, lox, loy, hix, hiy = legs[0]
                    dx, dy = px - x, py - y
                    with np.errstate(over="ignore"):
                        dist = float(np.hypot(dx, dy))
                    if dist <= budget:
                        x, y = px, py
                        budget -= dist
                        legs.pop(0)
                        if not legs:
                            pause_left = mobility.pause_instants
                            budget = 0.0
                    else:
                        step = budget / dist
                        x = min(hix, max(lox, x + dx * step))
                        y = min(hiy, max(loy, y + dy * step))
                        budget = 0.0
            positions[u, t, 0] = x
            positions[u, t, 1] = y
    return positions, rates, drawn


def festival_case(pause_instants=None):
    cfg = load_config(FESTIVAL_INI)
    mobility = cfg.mobility
    if pause_instants is not None:
        mobility = MobilityParams(mobility.speed_min, mobility.speed_max, mobility.attractors,
                                  pause_instants, mobility.background_weight)
    return cfg.venue, cfg.grid, 200, mobility, cfg.traffic, 7


def two_outside_case():
    venue, grid, mobility = two_outside_scenario()
    return venue, grid, 90, mobility, THIRDS, 8


def scaled_speed_floor_case():
    festival = Venue((0, 0), (50, 80), (Rect((50, 15), (60, 65)),), 1.0)
    venue = Venue(festival.precinct_min, festival.precinct_max, festival.outside_regions, 0.37)
    mobility = simple_mobility(speed_min=0.02, speed_max=0.09, background_weight=0.1)
    return venue, TimeGrid(300.0, 30), 60, mobility, THIRDS, 11


def zero_speed_case():
    venue = Venue((0, 0), (50, 80), (Rect((50, 15), (60, 65)),), 1.0)
    return venue, TimeGrid(300.0, 12), 600, simple_mobility(speed_max=0.0), THIRDS, 3


GENERATOR_CASES = {
    "festival": festival_case,
    "two_outside_background": two_outside_case,
    "scaled_speed_floor": scaled_speed_floor_case,
    "zero_speed": zero_speed_case,
    "festival_no_pause": lambda: festival_case(pause_instants=0),
}


class TestGeneratorOracle:
    """``generate_scenario`` against ``reference_generate``: buffered uniforms
    and complex ``abs`` must give the bits of one ``random()`` per value and
    ``np.hypot``."""

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("name", list(GENERATOR_CASES))
    def test_positions_and_traffic_equal_reference(self, name, block, monkeypatch):
        if block is not None:  # a refill may fall between a point's two coordinates
            monkeypatch.setattr(scenario, "_UNIFORM_BLOCK", block)
        args = GENERATOR_CASES[name]()
        positions, rates, drawn = reference_generate(*args)
        assert drawn > 3 * 1024  # the default block is refilled several times
        traces = generate_scenario(*args)
        assert traces.positions.tobytes() == positions.tobytes()
        assert traces.mean_traffic.tobytes() == rates.tobytes()

    def test_leg_longer_than_float64_stays_put_without_warning(self):
        # far-corner attractors of a finite precinct whose diagonal overflows:
        # np.hypot gives inf (and warns), so a user never leaves its first point
        venue = Venue((-8e307, -8e307), (8e307, 8e307))
        mobility = simple_mobility(speed_min=0.05, speed_max=0.08, attractors=(
            Attractor(Rect((-8e307, -8e307), (-7e307, -7e307)), 1.0, "south_west"),
            Attractor(Rect((7e307, 7e307), (8e307, 8e307)), 1.0, "north_east"),
        ))
        args = venue, TimeGrid(300.0, 20), 30, mobility, THIRDS, 5
        positions, rates, _ = reference_generate(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = generate_scenario(*args)
        assert traces.positions.tobytes() == positions.tobytes()
        assert traces.mean_traffic.tobytes() == rates.tobytes()
        assert np.isfinite(traces.positions).all()

    def test_complex_abs_equals_np_hypot(self):
        rng = np.random.default_rng(22)
        # magnitudes from subnormal to near the float64 maximum, either sign,
        # and a share near the maximum, where the length overflows
        exponents = np.concatenate(
            [rng.integers(-1075, 1024, (2, 200_000)), rng.integers(1022, 1024, (2, 20_000))], axis=1
        )
        mags = np.ldexp(rng.random(exponents.shape) + 1.0, exponents)  # finite: below 2**1024
        dx, dy = mags * rng.choice([-1.0, 1.0], mags.shape)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1.7e308, 3.0]
        sx, sy = np.array([(a, b) for a in specials for b in specials]).T
        dx, dy = np.concatenate([dx, sx]), np.concatenate([dy, sy])
        with np.errstate(over="ignore"):
            expected = np.hypot(dx, dy)
        got = []
        for a, b in zip(dx.tolist(), dy.tolist()):
            try:
                got.append(abs(complex(a, b)))
            except OverflowError:
                got.append(np.inf)
        got = np.array(got)
        assert np.isinf(expected).sum() > 1000  # overflows are covered
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()
