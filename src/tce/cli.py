"""Command-line driver.

``tce run`` executes the whole pipeline from a config file; ``generate``,
``cluster``, ``predict`` and ``report`` run single stages over the CSV
interchange files. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric or infeasibility error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .config import load_config
from .errors import ConfigError, ToolError

_EPILOG = """\
config file sections (INI format):
  [venue]       precinct_min, precinct_max ("x y"), outside_regions
                (one "x0 y0 x1 y1" per line), index_scale
  [time]        step_seconds, instant_count
  [input]       trace_file, traffic_file (a trace CSV, or waypoint lines if
                its first line has no comma, and its traffic CSV; without
                them [scenario] and [traffic] generate the trace)
  [scenario]    user_count, speed_min, speed_max (m/s), pause_instants,
                attractors (one "name weight x0 y0 x1 y1" per line; a
                precinct-wide attractor gives a uniform background share)
  [traffic]     tiers (one "fraction rate_mbps" per line; fractions sum to 1)
  [clustering]  k_inside, k_outside
  [prediction]  window_size, scope = per_user | general, run_count,
                base_seed
  [report]      plot_users (ids, space separated, each once), bin_count

A missing or malformed config value, or an unknown key, exits 2 naming its
[section] key (and the line, for outside_regions, attractors and tiers); an
unknown section or an unreadable config file exits 2 and an unreadable input
file exits 3, each naming the section or file.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tce",
        description="Model and predict joint crowd mobility and traffic in temporary crowded events.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seed", type=int, default=None, help="override the config base seed")
        p.add_argument("--out", default=None, help="output directory (required)")
        return p

    add("run", "run the full pipeline and write a manifest", _cmd_run)

    add("generate", "generate a synthetic trace/traffic CSV pair", _cmd_generate)

    p = add("cluster", "fit zones over a trace and write zones.csv / labels.csv", _cmd_cluster)
    p.add_argument("--trace", required=True, help="trace CSV (user_id,t,x,y) or waypoint lines")
    p.add_argument("--traffic", required=True, help="traffic CSV (user_id,mean_traffic_mbps)")

    p = add("predict", "run seeded predictions over fitted zone labels", _cmd_predict)
    p.add_argument("--zones", required=True, help="zones CSV from the cluster stage")
    p.add_argument("--labels", required=True, help="labels CSV from the cluster stage")

    p = add("report", "aggregate, score and plot existing prediction runs", _cmd_report)
    p.add_argument("--trace", required=True)
    p.add_argument("--traffic", required=True)
    p.add_argument("--zones", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--predictions", required=True, nargs="+", help="one or more predictions CSVs")
    return parser


def _command_args(args):
    """Config, output directory and base seed of a command."""
    cfg = load_config(args.config)
    if not args.out:
        raise ConfigError("no output directory: pass --out")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return cfg, Path(args.out), cfg.base_seed if args.seed is None else args.seed


def _cmd_run(args) -> int:
    cfg, out, seed = _command_args(args)
    manifest = pipeline.run(cfg, out, base_seed=seed)
    summary = manifest["summary"]
    print(f"run complete: {len(manifest['files'])} files in {out}")
    print(
        f"mean error {summary['mean_error']:.4f}, median {summary['median_error']:.4f} "
        f"over {len(manifest['run_seeds'])} run(s)"
    )
    return 0


def _cmd_generate(args) -> int:
    cfg, out, seed = _command_args(args)
    if cfg.trace_file is not None:
        raise ConfigError("generate subcommand needs a config without [input] trace_file")
    with pipeline.atomic_dir(out) as tmp:
        pipeline.input_stage(cfg, seed, tmp)
    print(f"wrote {out / 'trace.csv'} and {out / 'traffic.csv'}")
    return 0


def _cmd_cluster(args) -> int:
    cfg, out, seed = _command_args(args)
    with pipeline.atomic_dir(out) as tmp:
        traces = pipeline.load_traces(cfg, args.trace, args.traffic)
        zoning = pipeline.clustering_stage(cfg, traces, seed, tmp)
    print(f"fitted {zoning.zone_count} zones; wrote {out / 'zones.csv'}, {out / 'labels.csv'}")
    return 0


def _cmd_predict(args) -> int:
    cfg, out, seed = _command_args(args)
    with pipeline.atomic_dir(out) as tmp:
        zoning = pipeline.load_zoning(cfg, args.zones, args.labels)
        pipeline.prediction_stage(cfg, zoning, seed, tmp)
    print(f"wrote {cfg.run_count} prediction run(s) to {out}")
    return 0


def _cmd_report(args) -> int:
    cfg, out, _ = _command_args(args)
    with pipeline.atomic_dir(out) as tmp:
        traces = pipeline.load_traces(cfg, args.trace, args.traffic)
        pipeline.check_plot_users(cfg, traces)
        zoning = pipeline.load_zoning(cfg, args.zones, args.labels)
        pipeline.check_same_users(args.trace, traces, args.labels, zoning)
        runs = pipeline.load_runs(cfg, zoning, args.predictions)
        summary = pipeline.report_stage(cfg, traces, zoning, runs, tmp)
    print(f"report written to {out}; mean error {summary['mean_error']:.4f} over {len(runs)} run(s)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ToolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)


if __name__ == "__main__":
    sys.exit(main())
