"""Run configuration: flat INI files with one section per pipeline concern.

Every key is documented in the CLI ``--help`` epilog. configs/festival.ini is
the demo scenario and a complete example; build it with
``load_config("configs/festival.ini")`` and vary a field with
``dataclasses.replace``. A config with ``[input]`` keys loads the
``trace_file`` and ``traffic_file`` they name; one without them generates
its trace from ``[scenario]`` and ``[traffic]``. A missing or malformed value
raises ConfigError (CLI exit 2) naming its ``[section] key``, and the line of
a table key; a value that a constructor's own check rejects names its
``[section]``; a section or key outside ``SECTIONS`` is refused the same way.
An unreadable config file exits 2 and an unreadable input file
(``trace_file``, ``traffic_file``) exits 3, each naming the file.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass

from .core import Rect, TimeGrid, Venue
from .errors import ConfigError, open_input
from .markov import PER_USER, WindowConfig
from .scenario import Attractor, MobilityParams, TrafficTiers


@dataclass(frozen=True)
class RunConfig:
    venue: Venue
    grid: TimeGrid
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
    plot_users: tuple[int, ...] = ()
    bin_count: int = 10


# The keys of each section, those of both trace sources; any other is refused.
SECTIONS = {
    "venue": ("precinct_min", "precinct_max", "outside_regions", "index_scale"),
    "time": ("step_seconds", "instant_count"),
    "input": ("trace_file", "traffic_file"),
    "scenario": ("user_count", "speed_min", "speed_max", "pause_instants", "attractors"),
    "traffic": ("tiers",),
    "clustering": ("k_inside", "k_outside"),
    "prediction": ("window_size", "scope", "run_count", "base_seed"),
    "report": ("plot_users", "bin_count"),
}


def _number(token: str) -> float:
    """Plain float, with `a/b` accepted for exact-looking fractions."""
    if "/" in token:
        num, den = token.split("/", 1)
        return float(num) / float(den)
    return float(token)


def _numbers(raw: str) -> list[float]:
    return [_number(token) for token in raw.split()]


def _checked(kind, ok, why: str):
    """Cast with ``kind``, then reject a value failing ``ok``, saying ``why``."""

    def cast(raw: str):
        value = kind(raw)
        if not ok(value):
            raise ValueError(why)
        return value

    return cast


_COUNT = _checked(int, lambda n: n >= 1, "must be >= 1")
_SEED = _checked(int, lambda n: n >= 0, "must be >= 0")


def _user_ids(raw: str) -> tuple[int, ...]:
    """Space-separated user ids, each listed once."""
    ids = tuple(map(int, raw.split()))
    for i, uid in enumerate(ids):
        if uid in ids[:i]:
            raise ValueError(f"user id {uid} is listed twice")
    return ids


def _get(section, key, cast=str, default=None):
    """``cast`` of the stripped value; a missing key without a default or a
    value ``cast`` rejects is a ConfigError naming ``[section] key``."""
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key '{key}' in section [{section.name}]")
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"[{section.name}] {key}: bad value {raw!r} ({exc})") from None


def _table(section, key, form, kinds, build=tuple, default=None) -> list:
    """``build`` of one tuple per non-blank line of a multi-line value, field
    i cast with ``kinds[i]``; a line that does not read as ``form``, or whose
    object ``build`` rejects, is a ConfigError naming ``[section] key``, the
    line and the reason."""
    rows = []
    for line in _get(section, key, default=default).splitlines():
        fields = line.split()
        if not fields:
            continue
        try:
            if len(fields) != len(kinds):
                raise ValueError(f"expected {len(kinds)} fields, got {len(fields)}")
            rows.append(build(tuple(kind(field) for kind, field in zip(kinds, fields))))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(
                f"[{section.name}] {key}: line must read '{form}', got '{line.strip()}' ({exc})"
            ) from None
    return rows


def _make(prefix: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError from the constructor's own
    checks is a ConfigError led by ``prefix``, the ``[section]`` it reads."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix} {exc}") from None


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open_input(path, ConfigError, encoding="utf-8") as fh:
            parser.read_file(fh)
        _check_names(parser)
        parser.read_dict({name: {} for name in SECTIONS})
        return _build(parser)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_names(parser: configparser.ConfigParser) -> None:
    """Refuse a section or key that nothing reads, naming it."""
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in SECTIONS:
            raise ConfigError(f"unknown section [{name}]; sections are {', '.join(f'[{s}]' for s in SECTIONS)}")
        for key in parser[name]:
            if key not in SECTIONS[name]:
                raise ConfigError(f"[{name}] {key}: unknown key; [{name}] reads {', '.join(SECTIONS[name])}")


def _build(parser: configparser.ConfigParser) -> RunConfig:
    venue, time, input_sec, scen, prediction, report = (
        parser[name] for name in ("venue", "time", "input", "scenario", "prediction", "report")
    )
    regions = _table(
        venue, "outside_regions", "x0 y0 x1 y1", (_number,) * 4, lambda r: Rect(r[:2], r[2:]), ""
    )
    grid = _make(
        "[time]", TimeGrid, _get(time, "step_seconds", float), _get(time, "instant_count", int)
    )
    if input_sec:  # [input] names the trace to load
        source = dict(
            trace_file=_get(input_sec, "trace_file"),
            traffic_file=_get(input_sec, "traffic_file"),
        )
    else:
        attractors = _table(
            scen, "attractors", "name weight x0 y0 x1 y1", (str,) + (_number,) * 5,
            lambda a: Attractor(Rect(a[2:4], a[4:]), a[1], a[0]),
        )
        tiers = _table(parser["traffic"], "tiers", "fraction rate_mbps", (_number, _number))
        source = dict(
            user_count=_get(scen, "user_count", _COUNT),
            mobility=_make(
                "[scenario]", MobilityParams,
                speed_min=_get(scen, "speed_min", float),
                speed_max=_get(scen, "speed_max", float),
                attractors=tuple(attractors),
                pause_instants=_get(scen, "pause_instants", int, 0),
            ),
            traffic=_make("[traffic] tiers:", TrafficTiers, tuple(tiers)),
        )

    window = _make(
        "[prediction]", WindowConfig,
        _get(prediction, "window_size", int),
        _get(prediction, "scope", str, PER_USER),
    )
    if window.window_size >= grid.instant_count:
        raise ConfigError(
            f"[prediction] window_size {window.window_size} must be smaller than "
            f"[time] instant_count {grid.instant_count}"
        )
    return RunConfig(
        venue=_make(
            "[venue]", Venue,
            _get(venue, "precinct_min", _numbers),
            _get(venue, "precinct_max", _numbers),
            tuple(regions),
            _get(venue, "index_scale", float, 1.0),
        ),
        grid=grid,
        k_inside=_get(parser["clustering"], "k_inside", _COUNT),
        k_outside=_get(parser["clustering"], "k_outside", _COUNT, 1),
        window=window,
        run_count=_get(prediction, "run_count", _COUNT, 1),
        base_seed=_get(prediction, "base_seed", _SEED, 0),
        plot_users=_get(report, "plot_users", _user_ids, ()),
        bin_count=_get(report, "bin_count", _COUNT, 10),
        **source,
    )


def config_digest(cfg: RunConfig) -> str:
    """Stable content hash of a configuration: its fields as JSON, arrays as
    lists."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=lambda array: array.tolist()).encode()
    return hashlib.sha256(blob).hexdigest()
