"""Run configuration: flat INI files with one section per pipeline concern.

Every key is documented in the CLI ``--help`` epilog. configs/festival.ini is
the demo scenario and a complete example; build it with
``load_config("configs/festival.ini")`` and vary a field with
``dataclasses.replace``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .core import Rect, TimeGrid, Venue
from .errors import ConfigError
from .markov import PER_USER, WindowConfig
from .scenario import Attractor, MobilityParams, TrafficTiers

MODE_GENERATE = "generate"
MODE_LOAD = "load"


@dataclass(frozen=True)
class RunConfig:
    venue: Venue
    grid: TimeGrid
    mode: str
    k_inside: int
    k_outside: int
    window: WindowConfig
    run_count: int
    base_seed: int
    user_count: int | None = None
    mobility: MobilityParams | None = None
    traffic: TrafficTiers | None = None
    trace_file: str | None = None
    traffic_file: str | None = None
    trace_format: str = "csv"
    plot_users: tuple[int, ...] = ()
    bin_count: int = 10
    out_dir: str | None = None


def _number(token: str) -> float:
    """Plain float, with `a/b` accepted for exact-looking fractions."""
    if "/" in token:
        num, den = token.split("/", 1)
        return float(num) / float(den)
    return float(token)


def _floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split()
    if len(parts) != n:
        raise ConfigError(f"{what}: expected {n} numbers, got {text!r}")
    try:
        return [_number(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what}: could not parse numbers from {text!r}") from None


_REQUIRED = object()


def _get(section, key, cast=str, default=_REQUIRED):
    if key not in section:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing key '{key}' in section [{section.name}]")
    raw = section[key].strip()
    try:
        return cast(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"[{section.name}] {key}: bad value {raw!r}") from None


def _parse_attractors(text: str) -> tuple[Attractor, ...]:
    attractors = []
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != 6:
            raise ConfigError(
                f"attractor line must read 'name weight x0 y0 x1 y1', got {line!r}"
            )
        name = parts[0]
        weight = _number(parts[1])
        x0, y0, x1, y1 = (_number(p) for p in parts[2:])
        attractors.append(Attractor(Rect((x0, y0), (x1, y1)), weight, name))
    return tuple(attractors)


def _parse_tiers(text: str) -> TrafficTiers:
    tiers = []
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"tier line must read 'fraction rate_mbps', got {line!r}")
        tiers.append((_number(parts[0]), _number(parts[1])))
    return TrafficTiers(tuple(tiers))


def _parse_regions(text: str) -> tuple[Rect, ...]:
    regions = []
    for line in text.strip().splitlines():
        x0, y0, x1, y1 = _floats(line, 4, "outside region")
        regions.append(Rect((x0, y0), (x1, y1)))
    return tuple(regions)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return _build(parser)


def _build(parser: configparser.ConfigParser) -> RunConfig:
    for section in ("venue", "time", "input", "clustering", "prediction"):
        if section not in parser:
            raise ConfigError(f"missing section [{section}]")

    venue_sec = parser["venue"]
    pmin = _floats(_get(venue_sec, "precinct_min"), 2, "precinct_min")
    pmax = _floats(_get(venue_sec, "precinct_max"), 2, "precinct_max")
    regions = _parse_regions(_get(venue_sec, "outside_regions", default=""))
    try:
        venue = Venue(pmin, pmax, regions, _get(venue_sec, "index_scale", float, 1.0))
        grid = TimeGrid(
            _get(parser["time"], "step_seconds", float),
            _get(parser["time"], "instant_count", int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    input_sec = parser["input"]
    mode = _get(input_sec, "mode")
    if mode not in (MODE_GENERATE, MODE_LOAD):
        raise ConfigError(f"[input] mode must be '{MODE_GENERATE}' or '{MODE_LOAD}', got {mode!r}")

    user_count = mobility = traffic = None
    trace_file = traffic_file = None
    trace_format = "csv"
    if mode == MODE_GENERATE:
        if "scenario" not in parser or "traffic" not in parser:
            raise ConfigError("generate mode needs [scenario] and [traffic] sections")
        scen = parser["scenario"]
        user_count = _get(scen, "user_count", int)
        try:
            mobility = MobilityParams(
                speed_min=_get(scen, "speed_min", float),
                speed_max=_get(scen, "speed_max", float),
                attractors=_parse_attractors(_get(scen, "attractors")),
                pause_instants=_get(scen, "pause_instants", int, 0),
                background_weight=_get(scen, "background_weight", float, 0.0),
            )
            traffic = _parse_tiers(_get(parser["traffic"], "tiers"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        trace_file = _get(input_sec, "trace_file")
        traffic_file = _get(input_sec, "traffic_file")
        trace_format = _get(input_sec, "trace_format", str, "csv")
        if trace_format not in ("csv", "waypoint"):
            raise ConfigError(f"[input] trace_format must be csv or waypoint, got {trace_format!r}")

    clustering = parser["clustering"]
    prediction = parser["prediction"]
    scope = _get(prediction, "scope", str, PER_USER)
    try:
        window = WindowConfig(_get(prediction, "window_size", int), scope)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    plot_users: tuple[int, ...] = ()
    bin_count = 10
    if "report" in parser:
        report = parser["report"]
        plot_raw = _get(report, "plot_users", str, "")
        try:
            plot_users = tuple(int(tok) for tok in plot_raw.split())
        except ValueError:
            raise ConfigError(f"[report] plot_users must be integer ids, got {plot_raw!r}") from None
        bin_count = _get(report, "bin_count", int, 10)
    if bin_count < 1:
        raise ConfigError("bin_count must be >= 1")

    out_dir = None
    if "output" in parser and parser["output"].get("directory"):
        out_dir = parser["output"]["directory"].strip()

    cfg = RunConfig(
        venue=venue,
        grid=grid,
        mode=mode,
        k_inside=_get(clustering, "k_inside", int),
        k_outside=_get(clustering, "k_outside", int, 1),
        window=window,
        run_count=_get(prediction, "run_count", int, 1),
        base_seed=_get(prediction, "base_seed", int, 0),
        user_count=user_count,
        mobility=mobility,
        traffic=traffic,
        trace_file=trace_file,
        traffic_file=traffic_file,
        trace_format=trace_format,
        plot_users=plot_users,
        bin_count=bin_count,
        out_dir=out_dir,
    )
    if cfg.k_inside < 1 or cfg.k_outside < 1:
        raise ConfigError("k_inside and k_outside must be >= 1")
    if cfg.run_count < 1:
        raise ConfigError("run_count must be >= 1")
    if cfg.window.window_size >= grid.instant_count:
        raise ConfigError(
            f"window_size {cfg.window.window_size} must be smaller than "
            f"instant_count {grid.instant_count}"
        )
    return cfg


def config_digest(cfg: RunConfig) -> str:
    """Stable content hash of a configuration."""

    def canon(obj):
        if isinstance(obj, (str, int, float, bool)) or obj is None:
            return obj
        if isinstance(obj, (list, tuple)):
            return [canon(o) for o in obj]
        if hasattr(obj, "__dataclass_fields__"):
            return {k: canon(getattr(obj, k)) for k in sorted(obj.__dataclass_fields__)}
        if hasattr(obj, "tolist"):
            return obj.tolist()
        return repr(obj)

    blob = json.dumps(canon(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
