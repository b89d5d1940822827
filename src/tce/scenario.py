"""Synthetic crowd traces: random-waypoint movement over weighted attractor
regions, plus tiered constant traffic rates.

Waypoints are drawn by attractor weight; a uniform background share is an
attractor whose rectangle is the precinct. Each attractor must lie within its
host region: the precinct or one declared outside region. A leg between
hosts passes through a gate on the boundary each outside host shares with
the precinct, so every sampled position stays within the precinct or a
declared outside region.
All users move together, one instant at a time. A seed fixes the trace: its
``SeedSequence`` spawns one child for the traffic tiers and one for a
``(users, instants, 4)`` block of uniforms, whose row ``[u, t]`` is the
rectangle, x, y and speed of the waypoint user u picks at instant t (its
start point at t = 0). A user picks at most one waypoint per instant, so the
block never runs out, and user u's positions do not depend on how many users
follow it. A pick looks the uniform up in the CDF ``Generator.choice`` builds;
a speed is ``lo + (hi - lo) * u``, the arithmetic of ``uniform``.

Positions live on a lattice of ``1 / _LATTICE`` index units (1 mm at
``index_scale = 1``), so every stored coordinate is ``n / _LATTICE`` for an
integer n and a trace CSV spells it with at most 3 decimals. The walk holds
int64 counts n:
- a waypoint coordinate is one of its rectangle's lattice points, picked
  uniformly by ``floor(u * points)``;
- a gate is the middle lattice point of the shared boundary;
- a partial step is truncated toward its origin per component, so it is
  never longer than the exact step and stays in the box of the leg's two
  ends. No clamp is needed for containment, and a component whose share of
  the step is below one lattice step does not move.
Venue coordinates must stay below 2**52 lattice steps, where count
differences are exact in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Rect, TimeGrid, TraceSet, Venue, _whole

_PRECINCT = -1  # region id of the precinct in routing
_LATTICE = 1000  # position lattice steps per index unit; see the module docstring


@dataclass(frozen=True)
class Attractor:
    """A rectangle users head for, drawn with probability ~ weight."""

    region: Rect
    weight: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        if not (np.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"attractor weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class MobilityParams:
    speed_min: float
    speed_max: float
    attractors: tuple[Attractor, ...]
    pause_instants: int = 0

    def __post_init__(self):
        object.__setattr__(self, "speed_min", float(self.speed_min))
        object.__setattr__(self, "speed_max", float(self.speed_max))
        object.__setattr__(self, "attractors", tuple(self.attractors))
        object.__setattr__(self, "pause_instants", _whole(self.pause_instants, "pause_instants"))
        if not (0 <= self.speed_min <= self.speed_max and np.isfinite(self.speed_max)):
            raise ValueError(
                f"need finite 0 <= speed_min <= speed_max, got {self.speed_min}/{self.speed_max}"
            )
        if not self.attractors:
            raise ValueError("at least one attractor is required")
        if self.pause_instants < 0:
            raise ValueError("pause_instants must be >= 0")
        if self.pause_instants > np.iinfo(np.int64).max:  # the walk counts pauses in int64
            raise ValueError(f"pause_instants must be below 2**63, got {self.pause_instants}")


@dataclass(frozen=True)
class TrafficTiers:
    """Population fractions and their constant mean rates (Mbit/s)."""

    tiers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        tiers = tuple((float(f), float(r)) for f, r in self.tiers)
        object.__setattr__(self, "tiers", tiers)
        if not tiers:
            raise ValueError("at least one traffic tier is required")
        for frac, rate in tiers:
            if not 0 < frac <= 1:
                raise ValueError(f"tier fraction must lie in (0, 1], got {frac}")
            if not (np.isfinite(rate) and rate >= 0):
                raise ValueError(f"tier rate must be finite and >= 0, got {rate}")
        total = sum(f for f, _ in tiers)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"tier fractions must sum to 1, got {total}")


def apportion(user_count: int, fractions) -> np.ndarray:
    """Largest-remainder tier sizes: floor quotas, then +1 by descending
    fractional remainder (ties to the lower tier index)."""
    fractions = np.asarray(fractions, np.float64)
    exact = user_count * fractions
    base = np.floor(exact).astype(np.int64)
    remainder = user_count - int(base.sum())
    order = np.argsort(-(exact - base), kind="stable")
    base[order[:remainder]] += 1
    return base


def assign_tiers(user_count: int, tiers: TrafficTiers, rng: np.random.Generator) -> np.ndarray:
    """Per-user mean rates: tier sizes by largest remainder, membership by a
    seeded shuffle."""
    sizes = apportion(user_count, [f for f, _ in tiers.tiers])
    perm = rng.permutation(user_count)
    rates = np.empty(user_count, np.float64)
    start = 0
    for size, (_, rate) in zip(sizes, tiers.tiers):
        rates[perm[start : start + size]] = rate
        start += size
    return rates


def _shared_boundary(venue: Venue, region_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the boundary shared by the precinct and an outside region."""
    region = venue.outside_regions[region_index]
    lo = np.maximum(venue.precinct.lo, region.lo)
    hi = np.minimum(venue.precinct.hi, region.hi)
    if np.any(lo > hi):
        raise ValueError(
            f"outside region {region_index} does not touch the precinct; "
            "cannot route movement through it"
        )
    return lo, hi


def _lattice(lo: np.ndarray, hi: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """First and last lattice counts n with lo <= n / _LATTICE <= hi, per
    component. ``lo * _LATTICE`` may round across a count, so each end is
    moved by at most one count to the last that divides back inside."""
    first, last = np.ceil(lo * _LATTICE), np.floor(hi * _LATTICE)
    first[first / _LATTICE < lo] += 1
    first[(first - 1) / _LATTICE >= lo] -= 1
    last[last / _LATTICE > hi] -= 1
    last[(last + 1) / _LATTICE <= hi] += 1
    if np.any(first > last):
        raise ValueError(
            f"{name} {lo.tolist()}..{hi.tolist()} holds no point of the "
            f"1/{_LATTICE} index-unit position lattice"
        )
    return first.astype(np.int64), last.astype(np.int64)


def _host(venue: Venue, attractor: Attractor) -> int:
    """Region holding both corners of the attractor: the precinct, else the
    first outside region that does."""
    for i, region in enumerate((venue.precinct, *venue.outside_regions)):
        if region.contains_many(np.stack((attractor.region.lo, attractor.region.hi))).all():
            return i - 1  # the precinct is _PRECINCT
    raise ValueError(
        f"attractor {attractor.label or attractor.region} must lie within the precinct "
        "or within one declared outside region"
    )


class _WaypointDraw:
    """Weighted choice of destination rectangles (the attractors), each with
    its host region, and the gates that move a user between hosts, all as
    lattice counts."""

    def __init__(self, venue: Venue, mobility: MobilityParams):
        rects = [a.region for a in mobility.attractors]
        names = [f"attractor {a.label!r}" if a.label else "attractor" for a in mobility.attractors]
        hosts = [_host(venue, a) for a in mobility.attractors]
        w = np.array([a.weight for a in mobility.attractors], np.float64)
        with np.errstate(over="ignore"):  # refused just below, not warned
            total = w.sum()
        if not np.isfinite(total):
            raise ValueError("the waypoint weight total must be finite in float64")
        cdf = np.cumsum(w / total)
        self.cdf = cdf / cdf[-1]  # the CDF Generator.choice builds from p
        self.hosts = np.array(hosts)
        in_use = set(hosts)
        shared = {h: _shared_boundary(venue, h) for h in in_use if h != _PRECINCT}
        regions = {"the precinct": venue.precinct,
                   **{f"outside region {i}": r for i, r in enumerate(venue.outside_regions)}}
        for name, r in regions.items():
            if np.abs(np.concatenate((r.lo, r.hi))).max() >= 2**52 / _LATTICE:
                raise ValueError(
                    f"{name} {r.lo.tolist()}..{r.hi.tolist()} reaches {2**52 / _LATTICE:g} "
                    "index units, past which lattice count differences are not exact in float64"
                )
        ranges = [_lattice(r.lo, r.hi, name) for r, name in zip(rects, names)]
        self.firsts = np.array([first for first, _ in ranges])
        self.sizes = np.array([last - first + 1 for first, last in ranges], np.float64)
        gate = {}
        for h, (lo, hi) in shared.items():
            first, last = _lattice(lo, hi, f"the boundary of outside region {h} and the precinct")
            gate[h] = (first + last) // 2  # its middle lattice point, rounded down
        # gates[src, dst, first[src, dst]:] are the points a user of host src
        # passes on its way to host dst: out through src's gate, then in
        # through dst's
        n = len(venue.outside_regions) + 1  # index _PRECINCT is the last
        self.gates, self.first = np.zeros((n, n, 2, 2), np.int64), np.full((n, n), 2)
        for src in in_use:
            for dst in in_use - {src}:
                legs = [gate[h] for h in (src, dst) if h != _PRECINCT]
                self.first[src, dst] = 2 - len(legs)
                self.gates[src, dst, self.first[src, dst]:] = legs

    def counts(self, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Destination lattice counts (n, 2) and their hosts (n,) from (n, >= 3)
        uniforms: column 0 picks the rectangle, columns 1-2 pick one of the
        rectangle's lattice points per component."""
        i = self.cdf.searchsorted(uniforms[:, 0], side="right")
        # a uniform below 1 times a size below 2**53 stays below the size
        return self.firsts[i] + (self.sizes[i] * uniforms[:, 1:3]).astype(np.int64), self.hosts[i]


def generate_scenario(
    venue: Venue,
    grid: TimeGrid,
    user_count: int,
    mobility: MobilityParams,
    traffic: TrafficTiers,
    seed: int,
) -> TraceSet:
    """Simulate ``user_count`` users over the time grid.

    Identical parameters and seed give a bit-identical TraceSet. The seed's
    first ``SeedSequence`` child draws the traffic tiers, its second one
    ``(users, instants, 4)`` block of uniforms: the waypoint user u picks at
    instant t (t = 0 is its start point) reads row ``[u, t]`` as rectangle,
    x, y and speed. Every position is a lattice point ``n / _LATTICE``.
    Per-instant displacement never exceeds speed_max * step_seconds /
    index_scale in index units; leftover movement budget at a waypoint is
    dropped (the user dwells there until the next instant), so a user picks
    at most one waypoint per instant and user u's positions do not depend on
    ``user_count``. Raises ValueError when an attractor has no host region,
    an outside host does not touch the precinct, the weight total overflows
    float64, a venue coordinate reaches 2**52 lattice steps (which also
    bounds every drawn rectangle, as each lies in a venue region), a drawn
    rectangle or a used shared boundary holds no lattice point, or the
    fastest user's lattice budget per instant, speed_max * step_seconds /
    index_scale * _LATTICE, is not finite.
    """
    if user_count < 1:
        raise ValueError(f"user_count must be >= 1, got {user_count}")
    draw = _WaypointDraw(venue, mobility)
    step_budget = grid.step_seconds / venue.index_scale * _LATTICE  # lattice steps per (m/s)
    if not np.isfinite(mobility.speed_max * step_budget):
        raise ValueError(
            f"speed_max * step_seconds / index_scale * {_LATTICE}, the fastest user's lattice steps "
            f"per instant, must be finite, got {mobility.speed_max} * {grid.step_seconds} / {venue.index_scale}"
        )
    tier_seed, move_seed = np.random.SeedSequence(seed).spawn(2)
    rates = assign_tiers(user_count, traffic, np.random.default_rng(tier_seed))
    uniforms = np.random.default_rng(move_seed).random((user_count, grid.instant_count, 4))
    speed_span = mobility.speed_max - mobility.speed_min
    positions = np.empty((user_count, grid.instant_count, 2), np.float64)

    pos, host = draw.counts(uniforms[:, 0])
    legs = np.empty((user_count, 3, 2), np.int64)  # gate points, then the target
    leg = np.full(user_count, 3)  # index of the current leg; 3 when none is left
    speed, pause = np.zeros(user_count), np.zeros(user_count, np.int64)
    positions[:, 0] = pos / _LATTICE
    for t in range(1, grid.instant_count):
        walk = pause == 0
        pause[~walk] -= 1
        new = np.flatnonzero(walk & (leg == 3))
        target, dst = draw.counts(uniforms[new, t])
        src = host[new]
        legs[new, :2], legs[new, 2] = draw.gates[src, dst], target
        leg[new], host[new] = draw.first[src, dst], dst
        speed[new] = mobility.speed_min + speed_span * uniforms[new, t, 3]
        budget = np.where(walk, speed * step_budget, 0.0)
        for _ in range(3):  # a route has at most three legs
            users = np.flatnonzero((budget > 0) & (leg < 3))
            if not users.size:
                break
            p, b = legs[users, leg[users]], budget[users]
            d = p - pos[users]
            dist = np.hypot(d[:, 0], d[:, 1])
            reach = dist <= b
            done = users[reach]
            pos[done] = p[reach]
            leg[done] += 1
            end = leg[done] == 3  # waypoint reached: dwell out the instant
            budget[done] = np.where(end, 0.0, b[reach] - dist[reach])
            pause[done[end]] = mobility.pause_instants
            part = ~reach
            budget[users[part]] = 0.0
            # truncated toward the origin: never longer than the exact step,
            # and within the box of the leg's two lattice points
            pos[users[part]] += (d[part] * (b[part] / dist[part])[:, None]).astype(np.int64)
        positions[:, t] = pos / _LATTICE
    return TraceSet(positions, rates)
