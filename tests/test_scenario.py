import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from tce import csvio, scenario
from tce.config import load_config
from tce.core import Rect, TimeGrid, Venue
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


def with_background(mobility, venue, weight):
    """``mobility`` plus a uniform background share of weight ``weight``: an
    attractor whose rectangle is the precinct, listed last."""
    background = Attractor(venue.precinct, weight, "background")
    return dataclasses.replace(mobility, attractors=(*mobility.attractors, background))


THIRDS = TrafficTiers(((1 / 3, 0.0), (1 / 3, 5.0), (1 / 3, 10.0)))

EAST, WEST = Rect((50, 15), (60, 65)), Rect((-10, 20), (0, 60))


def two_outside_scenario():
    """East and west strips on either side of the precinct, one attractor in
    each, plus a background share: users route outside -> outside."""
    venue = Venue(Rect((0, 0), (50, 80)), (EAST, WEST), 1.0)
    mobility = simple_mobility(
        speed_max=0.1,
        attractors=(
            Attractor(Rect((2, 28), (14, 52)), 0.4, "stage"),
            Attractor(Rect((51, 30), (59, 50)), 0.3, "east"),
            Attractor(Rect((-9, 25), (-1, 55)), 0.3, "west"),
        ),
    )
    return venue, TimeGrid(300.0, 40), with_background(mobility, venue, 0.2)


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
        inside = festival_venue.precinct.contains_many(pts)
        in_strip = festival_venue.outside_regions[0].contains_many(pts)
        assert np.all(inside | in_strip)

    def test_two_outside_regions_contain_every_step(self):
        venue, grid, mobility = two_outside_scenario()
        traces = generate_scenario(venue, grid, 30, mobility, THIRDS, seed=8)
        pts = traces.all_points()
        in_east, in_west = EAST.contains_many(pts), WEST.contains_many(pts)
        assert np.all(venue.precinct.contains_many(pts) | in_east | in_west)
        assert in_east.any() and in_west.any()
        steps = np.linalg.norm(np.diff(traces.positions, axis=1), axis=2)
        assert steps.max() <= mobility.speed_max * grid.step_seconds + 1e-9

    def test_seed_pins_festival_bytes(self):
        # the bytes of a seeded festival scenario, fixed across versions
        cfg = load_config(FESTIVAL_INI)
        traces = generate_scenario(cfg.venue, cfg.grid, 20, cfg.mobility, cfg.traffic, seed=7)
        assert hashlib.sha256(traces.positions.tobytes()).hexdigest() == (
            "65220abd1c9a9bcd9d7c66487d4f064416022f0ba6c02488778ef1a4702bfdaa"
        )

    def test_seed_pins_two_outside_regions_bytes(self):
        # gate-to-gate routing between two outside hosts, with a background share
        venue, grid, mobility = two_outside_scenario()
        traces = generate_scenario(venue, grid, 30, mobility, THIRDS, seed=8)
        assert trace_digest(traces) == (
            "0fc59d14e004ee744408c033bf98837adcebff5b5afd9d351bbec557c451c44f"
        )

    def test_seed_pins_scaled_speed_floor_bytes(self, festival_venue):
        # speed_min > 0, no dwell at waypoints and index units of 0.37 m
        venue = Venue(festival_venue.precinct, festival_venue.outside_regions, 0.37)
        mobility = with_background(simple_mobility(speed_min=0.02, speed_max=0.09), venue, 0.1)
        traces = generate_scenario(venue, TimeGrid(300.0, 30), 25, mobility, THIRDS, seed=11)
        assert trace_digest(traces) == (
            "8e65e1cf0bfa33c942edf312879edef11e3d249bbcbf1cbbdb35d500566ecd8a"
        )

    def test_first_users_do_not_depend_on_user_count(self):
        # user u reads only its own rows of the uniform block
        cfg = load_config(FESTIVAL_INI)
        few = generate_scenario(cfg.venue, cfg.grid, 12, cfg.mobility, cfg.traffic, seed=7)
        many = generate_scenario(cfg.venue, cfg.grid, 45, cfg.mobility, cfg.traffic, seed=7)
        assert many.positions[:12].tobytes() == few.positions.tobytes()

    def test_fast_users_pick_a_waypoint_every_instant(self):
        # no dwell and a speed that finishes any route, gate legs included,
        # within one instant: user u stands at instant t on the point of row [u, t]
        venue, grid, mobility = two_outside_scenario()
        fast = dataclasses.replace(mobility, speed_min=10.0, speed_max=10.0)
        traces = generate_scenario(venue, grid, 40, fast, THIRDS, seed=9)
        _, move_seed = np.random.SeedSequence(9).spawn(2)
        uniforms = np.random.default_rng(move_seed).random((40, grid.instant_count, 4))
        counts, hosts = _WaypointDraw(venue, fast).counts(uniforms.reshape(-1, 4))
        points = counts / scenario._LATTICE
        assert traces.positions.tobytes() == points.tobytes()
        hosts = hosts.reshape(40, grid.instant_count)
        gate_to_gate = (hosts[:, :-1] != hosts[:, 1:]) & (hosts[:, :-1] >= 0) & (hosts[:, 1:] >= 0)
        assert gate_to_gate.any()  # some routes run east <-> west through both gates
        pts = traces.all_points()
        assert np.all(venue.precinct.contains_many(pts) | EAST.contains_many(pts) | WEST.contains_many(pts))
        steps = np.linalg.norm(np.diff(traces.positions, axis=1), axis=2)
        assert steps.max() <= fast.speed_max * grid.step_seconds / venue.index_scale + 1e-9

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
                MobilityParams(0.0, 0.1, ()),
                THIRDS, seed=0,
            )

    def test_rejects_attractor_outside_venue(self, festival_venue):
        grid = TimeGrid(300.0, 4)
        stray = simple_mobility(attractors=(Attractor(Rect((200, 200), (210, 210)), 1.0, "x"),))
        with pytest.raises(ValueError):
            generate_scenario(festival_venue, grid, 3, stray, THIRDS, seed=0)

    def test_rejects_detached_outside_attractor(self):
        # outside region not touching the precinct cannot host waypoints
        venue = Venue(Rect((0, 0), (50, 80)), (Rect((60, 15), (70, 65)),))
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

    def test_pause_must_fit_int64(self, festival_venue):
        # the walk counts a user's pause down in int64
        with pytest.raises(ValueError, match=r"pause_instants must be below 2\*\*63, got 9223372036854775808"):
            simple_mobility(pause_instants=2**63)
        longest = simple_mobility(pause_instants=2**63 - 1)
        traces = generate_scenario(festival_venue, TimeGrid(300.0, 6), 4, longest, THIRDS, seed=0)
        # a user that reaches a waypoint dwells there for the rest of the grid
        steps = np.abs(np.diff(traces.positions, axis=1)).sum(axis=2) > 0
        moved_after_stop = steps[:, 1:] & ~steps[:, :-1]
        assert not moved_after_stop.any()


# The numpy call the generator's pick replaces, kept as the reference its
# picks must equal.
def reference_pick(rng, probs):
    return int(rng.choice(len(probs), p=probs))


def reference_cdf(probs):
    # what Generator.choice builds from p before its searchsorted(side="right")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


ORACLE_SEEDS, ORACLE_DRAWS = range(200), 50


def festival_draw(weights, background=0.0):
    cfg = load_config(FESTIVAL_INI)
    attractors = tuple(
        Attractor(a.region, w, a.label) for a, w in zip(cfg.mobility.attractors, weights)
    )
    mobility = MobilityParams(0.0, 0.08, attractors)
    if background > 0:
        mobility = with_background(mobility, cfg.venue, background)
    draw = _WaypointDraw(cfg.venue, mobility)
    rects = [a.region for a in mobility.attractors]
    w = np.array([a.weight for a in mobility.attractors])
    return draw, rects, w / w.sum()  # probs exactly as choice(p=...) was given them


WEIGHT_SETS = {
    "festival": ((0.5, 0.1, 0.1, 0.1, 0.1, 0.1), 0.0),
    "festival_background": ((0.5, 0.1, 0.1, 0.1, 0.1, 0.1), 0.3),
    "uneven": ((1 / 3, 1 / 7, 2 / 9, 5.5, 1e-9, 0.07), 0.0),
    "background_heavy": ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 40.0),
}


class TestDrawOracle:
    """``_WaypointDraw``'s pick against ``Generator.choice`` on twin
    generators: same seed, same draws, same picks."""

    @pytest.mark.parametrize("name", list(WEIGHT_SETS))
    def test_pick_equals_choice(self, name):
        draw, _, probs = festival_draw(*WEIGHT_SETS[name])
        # two of the sets have cumsum(p)[-1] != 1, where the division shows
        assert draw.cdf.tobytes() == reference_cdf(probs).tobytes()
        for seed in ORACLE_SEEDS:
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(ORACLE_DRAWS):
                assert int(draw.cdf.searchsorted(new.random(), side="right")) == reference_pick(old, probs)

    def test_draw_on_a_cdf_step_picks_the_next_rect(self):
        # a uniform equal to cdf[k] is past rect k, as choice's side="right" has it
        draw, rects, _ = festival_draw(*WEIGHT_SETS["festival"])
        counts, hosts = draw.counts(np.array([[draw.cdf[1], 0.0, 0.0, 0.5]]))
        points = counts / scenario._LATTICE
        assert points.tolist() == [rects[2].lo.tolist()]
        assert hosts.tolist() == [draw.hosts[2]]


def lattice_range(lo, hi):
    """First and last integer n with lo <= n / _LATTICE <= hi, found by
    stepping Python ints from the rounded products."""
    first, last = math.ceil(lo * scenario._LATTICE), math.floor(hi * scenario._LATTICE)
    while first / scenario._LATTICE < lo:
        first += 1
    while (first - 1) / scenario._LATTICE >= lo:
        first -= 1
    while last / scenario._LATTICE > hi:
        last -= 1
    while (last + 1) / scenario._LATTICE <= hi:
        last += 1
    return first, last


def reference_generate(venue, grid, user_count, mobility, traffic, seed):
    """``generate_scenario`` as a plain loop over users and instants on Python
    int lattice counts: each user reads its rows of the same uniform block
    one at a time, routes with a list of gate and target points, measures a
    leg with ``np.hypot`` on scalars and truncates a partial step toward its
    origin with ``int``."""
    draw = _WaypointDraw(venue, mobility)
    tier_seed, move_seed = np.random.SeedSequence(seed).spawn(2)
    rates = assign_tiers(user_count, traffic, np.random.default_rng(tier_seed))
    uniforms = np.random.default_rng(move_seed).random((user_count, grid.instant_count, 4))
    rects = [a.region for a in mobility.attractors]
    ranges = [[lattice_range(r.lo[c], r.hi[c]) for c in range(2)] for r in rects]
    gates = {}
    for h, region in enumerate(venue.outside_regions):
        lo = np.maximum(venue.precinct.lo, region.lo)
        hi = np.minimum(venue.precinct.hi, region.hi)
        if np.all(lo <= hi):
            gates[h] = [sum(lattice_range(lo[c], hi[c])) // 2 for c in range(2)]

    def pick(row):
        i = int(draw.cdf.searchsorted(row[0], side="right"))
        point = [first + int((last - first + 1) * row[1 + c]) for c, (first, last) in enumerate(ranges[i])]
        return point, int(draw.hosts[i])

    def route(src, target, dst):
        legs = [gates[h] for h in (src, dst) if h != -1] if src != dst else []
        return legs + [target]

    step_budget = grid.step_seconds / venue.index_scale * scenario._LATTICE
    speed_span = mobility.speed_max - mobility.speed_min
    positions = np.empty((user_count, grid.instant_count, 2), np.float64)
    for u in range(user_count):
        (x, y), region = pick(uniforms[u, 0])
        positions[u, 0] = x / scenario._LATTICE, y / scenario._LATTICE
        legs, pause_left = [], 0
        for t in range(1, grid.instant_count):
            if pause_left > 0:
                pause_left -= 1
            else:
                if not legs:
                    target, dst = pick(uniforms[u, t])
                    legs = route(region, target, dst)
                    region = dst
                    speed = mobility.speed_min + speed_span * uniforms[u, t, 3]
                budget = speed * step_budget
                while budget > 0 and legs:
                    px, py = legs[0]
                    dx, dy = px - x, py - y
                    dist = np.hypot(dx, dy)
                    if dist <= budget:
                        x, y = px, py
                        budget -= dist
                        legs.pop(0)
                        if not legs:
                            pause_left = mobility.pause_instants
                            budget = 0.0
                    else:
                        step = budget / dist
                        x, y = x + int(dx * step), y + int(dy * step)
                        budget = 0.0
            positions[u, t] = x / scenario._LATTICE, y / scenario._LATTICE
    return positions, rates


def festival_case(pause_instants=None):
    cfg = load_config(FESTIVAL_INI)
    mobility = cfg.mobility
    if pause_instants is not None:
        mobility = dataclasses.replace(mobility, pause_instants=pause_instants)
    return cfg.venue, cfg.grid, 200, mobility, cfg.traffic, 7


def two_outside_case():
    venue, grid, mobility = two_outside_scenario()
    return venue, grid, 90, mobility, THIRDS, 8


def scaled_speed_floor_case():
    festival = Venue(Rect((0, 0), (50, 80)), (Rect((50, 15), (60, 65)),), 1.0)
    venue = Venue(festival.precinct, festival.outside_regions, 0.37)
    mobility = with_background(simple_mobility(speed_min=0.02, speed_max=0.09), venue, 0.1)
    return venue, TimeGrid(300.0, 30), 60, mobility, THIRDS, 11


def zero_speed_case():
    venue = Venue(Rect((0, 0), (50, 80)), (Rect((50, 15), (60, 65)),), 1.0)
    return venue, TimeGrid(300.0, 12), 600, simple_mobility(speed_max=0.0), THIRDS, 3


GENERATOR_CASES = {
    "festival": festival_case,
    "two_outside_background": two_outside_case,
    "scaled_speed_floor": scaled_speed_floor_case,
    "zero_speed": zero_speed_case,
    "festival_no_pause": lambda: festival_case(pause_instants=0),
}


class TestGeneratorOracle:
    """``generate_scenario``, which steps every user at once, against
    ``reference_generate``, which walks one user at a time: same bits."""

    @pytest.mark.parametrize("name", list(GENERATOR_CASES))
    def test_positions_and_traffic_equal_reference(self, name):
        args = GENERATOR_CASES[name]()
        positions, rates = reference_generate(*args)
        traces = generate_scenario(*args)
        assert traces.positions.tobytes() == positions.tobytes()
        assert traces.mean_traffic.tobytes() == rates.tobytes()


OFF_LATTICE_WEST = Rect((-10.0003, 20.0002), (0, 60.0008))


def off_lattice_scenario():
    """A precinct maximum, attractor edges and the outside region's far edges
    that all fall between lattice points; only the shared boundary x = 0 is
    on the lattice. Every user walks at speed_max, so each partial step
    spends the whole budget and the speed bound is tight."""
    venue = Venue(Rect((0, 0), (50.0004, 80.0007)), (OFF_LATTICE_WEST,), 1.0)
    mobility = simple_mobility(
        speed_min=0.1,
        speed_max=0.1,
        attractors=(
            Attractor(Rect((2.0004, 28.0007), (14.0002, 52.0009)), 0.4, "stage"),
            Attractor(Rect((49.0001, 79.0003), (50.0004, 80.0007)), 0.2, "far_corner"),
            Attractor(Rect((-10.0003, 20.0002), (-9.9991, 60.0008)), 0.3, "west_edge"),
        ),
    )
    return venue, TimeGrid(300.0, 40), with_background(mobility, venue, 0.1)


class TestLattice:
    """Every generated position is n / _LATTICE for an integer n."""

    @pytest.mark.parametrize("name", list(GENERATOR_CASES))
    def test_positions_are_lattice_points(self, name):
        positions = generate_scenario(*GENERATOR_CASES[name]()).positions
        # (n / 1000) * 1000 need not be n in float64 (0.007 * 1000 is
        # 7.000000000000001), so the check divides the nearest integer back
        counts = np.rint(positions * scenario._LATTICE)
        assert (counts / scenario._LATTICE).tobytes() == positions.tobytes()
        assert np.abs(counts).max() < 2**52

    def test_festival_trace_cells_have_at_most_three_decimals(self, tmp_path):
        cfg = load_config(FESTIVAL_INI)
        traces = generate_scenario(cfg.venue, cfg.grid, cfg.user_count, cfg.mobility, cfg.traffic, seed=7)
        csvio.write_trace(tmp_path / "trace.csv", traces)
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[2:]]
        assert len(cells) == 2 * traces.positions[..., 0].size
        assert all(re.fullmatch(r"-?\d+\.\d{1,3}", cell) for cell in cells)

    def test_off_lattice_edges_keep_containment_and_speed_bound(self):
        venue, grid, mobility = off_lattice_scenario()
        traces = generate_scenario(venue, grid, 60, mobility, THIRDS, seed=12)
        assert traces.positions[..., 0].size >= 2000
        pts = traces.all_points()
        in_west = OFF_LATTICE_WEST.contains_many(pts)
        assert np.all(venue.precinct.contains_many(pts) | in_west)
        assert in_west.any() and (pts[:, 0] > 49.0001).any()
        steps = np.linalg.norm(np.diff(traces.positions, axis=1), axis=2)
        assert steps.max() <= mobility.speed_max * grid.step_seconds / venue.index_scale + 1e-9
        positions, _ = reference_generate(venue, grid, 60, mobility, THIRDS, 12)
        assert traces.positions.tobytes() == positions.tobytes()

    def test_rejects_rectangle_without_a_lattice_point(self, festival_venue):
        # x spans 2.0001..2.0009, between the lattice points 2.000 and 2.001
        sliver = simple_mobility(attractors=(Attractor(Rect((2.0001, 28), (2.0009, 52)), 1.0, "sliver"),))
        with pytest.raises(ValueError, match=r"attractor 'sliver' \[2\.0001, 28\.0\]\.\.\[2\.0009, 52\.0\] "
                                             r"holds no point of the 1/1000 index-unit position lattice"):
            generate_scenario(festival_venue, TimeGrid(300.0, 4), 3, sliver, THIRDS, seed=0)

    def test_rejects_shared_boundary_without_a_lattice_point(self):
        venue = Venue(Rect((0, 0), (50.0005, 80)), (Rect((50.0005, 15), (60, 65)),))
        mobility = simple_mobility(attractors=(
            Attractor(Rect((2, 28), (14, 52)), 0.5, "stage"),
            Attractor(Rect((51, 30), (59, 50)), 0.5, "exit"),
        ))
        with pytest.raises(ValueError, match=r"the boundary of outside region 0 and the precinct "
                                             r"\[50\.0005, 15\.0\]\.\.\[50\.0005, 65\.0\] holds no point"):
            generate_scenario(venue, TimeGrid(300.0, 4), 3, mobility, THIRDS, seed=0)

    def test_far_corners_at_the_range_end_stay_exact_counts(self):
        # Rect keeps every corner below 2**42, so each count is below 2**52,
        # where count differences are exact in float64
        far = np.nextafter(2.0**42, 0)
        venue = Venue(Rect((-far, -far), (far, far)))
        mobility = simple_mobility(speed_min=1e9, speed_max=1e10, attractors=(
            Attractor(Rect((-far, -far), (-far / 2, -far / 2)), 1.0, "south_west"),
            Attractor(Rect((far / 2, far / 2), (far, far)), 1.0, "north_east"),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            positions = generate_scenario(venue, TimeGrid(300.0, 20), 30, mobility, THIRDS, seed=5).positions
        counts = np.rint(positions * scenario._LATTICE)
        assert (counts / scenario._LATTICE).tobytes() == positions.tobytes()
        assert venue.precinct.contains_many(positions.reshape(-1, 2)).all()
