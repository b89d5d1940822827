"""Synthetic crowd traces: random-waypoint movement over weighted attractor
regions, plus tiered constant traffic rates.

Waypoints are drawn by attractor weight (with an optional uniform background
share over the precinct). Each attractor must lie within its host region: the
precinct or one declared outside region. A leg between hosts passes through
the midpoint of the boundary each outside host shares with the precinct, so
every sampled position stays within the precinct or a declared outside region.
Generation is single-threaded per scenario and draws only through
``Generator.permutation`` and ``Generator.random``, so a seed fixes the trace:
a pick looks ``random()`` up in the CDF ``Generator.choice`` builds, and points
and speeds are ``lo + (hi - lo) * random()``, the bits of ``uniform``. The
uniforms are drawn ``random(n)`` at a time, which gives the values of n
``random()`` calls in the same order. A leg's length is C ``hypot``, the
function ``np.hypot`` calls, reached through the ``abs`` of a Python complex.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Rect, TimeGrid, TraceSet, Venue

_PRECINCT = -1  # region id of the precinct in routing
_UNIFORM_BLOCK = 1024  # uniforms per Generator.random call


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
    background_weight: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "speed_min", float(self.speed_min))
        object.__setattr__(self, "speed_max", float(self.speed_max))
        object.__setattr__(self, "attractors", tuple(self.attractors))
        object.__setattr__(self, "pause_instants", int(self.pause_instants))
        object.__setattr__(self, "background_weight", float(self.background_weight))
        if not (0 <= self.speed_min <= self.speed_max and np.isfinite(self.speed_max)):
            raise ValueError(
                f"need finite 0 <= speed_min <= speed_max, got {self.speed_min}/{self.speed_max}"
            )
        if not self.attractors:
            raise ValueError("at least one attractor is required")
        if self.pause_instants < 0:
            raise ValueError("pause_instants must be >= 0")
        if not (np.isfinite(self.background_weight) and self.background_weight >= 0):
            raise ValueError(f"need finite background_weight >= 0, got {self.background_weight}")


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


def _gate(venue: Venue, region_index: int) -> np.ndarray:
    """Midpoint of the boundary shared by the precinct and an outside region."""
    region = venue.outside_regions[region_index]
    lo = np.maximum(venue.precinct_min, region.lo)
    hi = np.minimum(venue.precinct_max, region.hi)
    if np.any(lo > hi):
        raise ValueError(
            f"outside region {region_index} does not touch the precinct; "
            "cannot route movement through it"
        )
    return (lo + hi) / 2.0


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
    """Weighted choice of destination rectangles (attractors plus a uniform
    background share of the precinct), each with its host region, and the legs
    that move a user between hosts through their gates."""

    def __init__(self, venue: Venue, mobility: MobilityParams):
        rects = [a.region for a in mobility.attractors]
        self.hosts = [_host(venue, a) for a in mobility.attractors]
        weights = [a.weight for a in mobility.attractors]
        if mobility.background_weight > 0:
            rects.append(venue.precinct)
            self.hosts.append(_PRECINCT)
            weights.append(mobility.background_weight)
        w = np.asarray(weights, np.float64)
        with np.errstate(over="ignore"):  # refused just below, not warned
            spans, total = np.array([r.hi - r.lo for r in rects]), w.sum()
        if not (np.isfinite(total) and np.isfinite(spans).all()):
            raise ValueError("the waypoint weight total and region extents must be finite in float64")
        cdf = np.cumsum(w / total)
        self.cdf = cdf / cdf[-1]  # the CDF Generator.choice builds from p
        self._cdf = self.cdf.tolist()  # bisect over a list: no ufunc per pick
        self.los, self.spans = [r.lo.tolist() for r in rects], spans.tolist()
        regions = (*venue.outside_regions, venue.precinct)  # index _PRECINCT is the precinct
        self.regions = [(*r.lo.tolist(), *r.hi.tolist()) for r in regions]
        self.gates = {h: tuple(_gate(venue, h).tolist()) for h in self.hosts if h != _PRECINCT}

    def draw(self, rng) -> tuple[list, int]:
        """A destination point [x, y] and its host region, from ``rng.random()``
        and ``rng.random(2)`` (a Generator or ``_Uniforms``)."""
        i = bisect_right(self._cdf, rng.random())  # searchsorted(side="right")
        (lox, loy), (spanx, spany), (ux, uy) = self.los[i], self.spans[i], rng.random(2)
        return [lox + spanx * ux, loy + spany * uy], self.hosts[i]

    def route(self, src: int, target: list, dst: int) -> list:
        """Legs (px, py, lox, loy, hix, hiy): a point and its clip box, from a
        point of host src to target in host dst, staying in the venue."""
        if src == dst:
            return [(*target, *self.regions[dst])]
        legs = []
        if src != _PRECINCT:
            legs.append((*self.gates[src], *self.regions[src]))
        if dst != _PRECINCT:
            legs.append((*self.gates[dst], *self.regions[_PRECINCT]))
        legs.append((*target, *self.regions[dst]))
        return legs


class _Uniforms:
    """``Generator.random``'s values handed out in stream order, drawn
    ``_UNIFORM_BLOCK`` at a time: ``random(n)`` gives the values of n
    ``random()`` calls, so every draw keeps its value."""

    def __init__(self, rng: np.random.Generator):
        def stream():
            while True:
                yield from rng.random(_UNIFORM_BLOCK).tolist()

        self._next = stream().__next__

    def random(self, size=None):
        """The next value, or a list of the next ``size`` values."""
        if size is None:
            return self._next()
        return [self._next() for _ in range(size)]


def generate_scenario(
    venue: Venue,
    grid: TimeGrid,
    user_count: int,
    mobility: MobilityParams,
    traffic: TrafficTiers,
    seed: int,
) -> TraceSet:
    """Simulate ``user_count`` users over the time grid.

    Identical parameters and seed give a bit-identical TraceSet. Per-instant
    displacement never exceeds speed_max * step_seconds / index_scale in index
    units; leftover movement budget at a waypoint is dropped (the user dwells
    there until the next instant). Raises ValueError when an attractor has no
    host region, an outside host does not touch the precinct, or the weight
    total or a drawn region's extent overflows float64.
    """
    if user_count < 1:
        raise ValueError(f"user_count must be >= 1, got {user_count}")
    draw = _WaypointDraw(venue, mobility)
    rng = np.random.default_rng(seed)

    rates = assign_tiers(user_count, traffic, rng)
    uniforms = _Uniforms(rng)  # after the permutation, as random() calls would be
    step_budget = grid.step_seconds / venue.index_scale  # index units per (m/s)
    speed_span = mobility.speed_max - mobility.speed_min
    positions = np.empty((user_count, grid.instant_count, 2), np.float64)

    for u in range(user_count):
        (x, y), region = draw.draw(uniforms)
        row = [x, y]  # this user's positions, x and y per instant
        legs: list = []
        pause_left = 0
        for t in range(1, grid.instant_count):
            if pause_left > 0:
                pause_left -= 1
            else:
                if not legs:
                    # routes start only at the previous target, so (x, y) lies in region
                    target, dst = draw.draw(uniforms)
                    legs = draw.route(region, target, dst)
                    region = dst
                    speed = mobility.speed_min + speed_span * uniforms.random()
                budget = speed * step_budget
                while budget > 0 and legs:
                    px, py, lox, loy, hix, hiy = legs[0]
                    dx, dy = px - x, py - y
                    try:
                        dist = abs(complex(dx, dy))  # C hypot: the bits of np.hypot
                    except OverflowError:  # where np.hypot gives inf
                        dist = math.inf
                    if dist <= budget:
                        x, y = px, py
                        budget -= dist
                        legs.pop(0)
                        if not legs:  # waypoint reached: dwell out the instant
                            pause_left = mobility.pause_instants
                            budget = 0.0
                    else:
                        step = budget / dist
                        # min(hi, max(lo, v)) breaks ties as np.clip does, signed zeros too
                        x = min(hix, max(lox, x + dx * step))
                        y = min(hiy, max(loy, y + dy * step))
                        budget = 0.0
            row += (x, y)
        positions[u].flat = row
    return TraceSet(positions, rates)
