#!/usr/bin/env python3
"""tce benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The metric names and units come from
``BENCHMARK.json``; with ``--trace 0`` the result holds every end-to-end
metric, with ``--trace 1`` every per-layer metric (see README.md for what
each one measures). Human-readable lines and a ``provenance`` JSON line come
first; the last line of standard output is the result object. BLAS/OpenMP
threads are pinned to 1.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
import time

from calibrate import Calibration, scaled

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 9
WORKER_TIMEOUT = 150
SETUP_CODE = "import sys, time, tce.cli; from tce.config import load_config; load_config(sys.argv[1]); print(time.time())"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(config: Path) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until it has imported
    tce.cli and loaded the workload's config, scaled to reference machine
    speed by the calibration timed before each start, and the median raw
    wall time. One untimed start first compiles the bytecode cache. The child
    reports when it is done, because waiting with a timeout polls in steps of
    up to 50 ms."""
    calibration = Calibration()
    scaled_times, times = [], []
    for i in range(SETUP_SAMPLES + 1):
        calibration_s = calibration.measure()
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config)],
            env=_child_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            times.append(float(proc.stdout) - start)
            scaled_times.append(scaled(times[-1], calibration_s))
    return statistics.median(scaled_times), statistics.median(times)


def run_worker(spec: dict, work: Path) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path), str(result_path)],
        env=_child_env(), stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT,
    )
    return json.loads(result_path.read_text())


def end_to_end(result: dict, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """Times are medians scaled to reference machine speed (calibrate.py)."""
    records = result["records"]
    first_per_seed = {}
    for r in records:
        if not r["problems"]:
            first_per_seed.setdefault(r["seed"], r["mean_error"])
    return {
        "run_s": statistics.median(scaled(r["seconds"], r["calibration_s"]) for r in records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "output_mb": statistics.median(r.get("output_bytes", 0) for r in records) / 1e6,
        # pooled over the distinct inputs: each input has as many errors
        "mean_error": statistics.fmean(first_per_seed.values()) if first_per_seed else float("nan"),
    }


def per_layer(result: dict, names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Medians over traced operations; a layer function a later version
    removed is reported as 0 and listed as absent."""
    records = result["records"]
    traced = [r for r in records if r["traced"]]
    wrapped = set(result["wrapped"])
    values, absent = {}, []
    for name in names:
        if name == "trace.overhead_s":
            pairs = [sorted(pair, key=lambda r: r["traced"]) for pair in zip(records[0::2], records[1::2])]
            values[name] = statistics.median(t["seconds"] - u["seconds"] for u, t in pairs)
        elif name == "output.dup_share":
            values[name] = statistics.median(r.get("dup_share", 0.0) for r in records)
        else:
            if name.rsplit(".", 1)[0] not in wrapped:
                absent.append(name)
            values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
    return values, absent


def provenance(result: dict) -> dict:
    import numpy
    import tce._kernels

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digests = {}
    for r in result["records"]:
        if "digest" in r:
            digests.setdefault(str(r["seed"]), r["digest"])
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": tce._kernels.backend(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "output_digests": digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale: a few dozen users")
    parser.add_argument("--tamper", action="store_true", help="self-test: corrupt the first operation's output")
    args = parser.parse_args(argv)

    if not (SRC / "tce").is_dir():
        print(f"error: no tce sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.SPECS)}")
    spec = workloads.SPECS[args.workload]
    seeds = workloads.sub_seeds(args.workload, args.seed, spec.inputs)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.ini"
        workloads.write_config(config, spec, args.tiny)
        setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(config)
        extra = {"seed": seeds[0]}
        if args.workload == "stage_chain":
            extra.update(workloads.prepare_chain(config, seeds, work))
        worker_spec = {
            "workload": args.workload,
            "config": str(config),
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "tamper": args.tamper,
            "probe": False,
            "work": str(work),
            "spans_file": str(WORK / f"spans-{args.workload}-{args.seed}.json"),
            "extra": extra,
        }
        result = run_worker(worker_spec, work)
        # the timed worker's peak RSS includes the calibration's data
        peak_rss_mb = None if args.trace else run_worker({**worker_spec, "probe": True}, work)["peak_rss_mb"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    failed = [r for r in records if r["problems"]]
    for r in failed[:5]:
        print(f"FAILED seed {r['seed']}: " + "; ".join(r["problems"][:3]), file=sys.stderr)
    if args.trace:
        values, absent = per_layer(result, [m["name"] for m in benchmark["per_layer"]])
        declared = benchmark["per_layer"]
    else:
        values, absent = end_to_end(result, setup_s, peak_rss_mb), []
        declared = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{args.workload} seed {args.seed}: {len(records)} ops, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(records):.4f}")
    print("  op seconds: " + " ".join(f"{r['seconds']:.3f}" for r in records))
    if not args.trace:
        print(f"  wall (unscaled) medians: op {statistics.median(r['seconds'] for r in records):.4f} s, "
              f"setup {setup_wall_s:.4f} s; calibration median "
              f"{statistics.median(r['calibration_s'] for r in records):.4f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": provenance(result), "absent": absent}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
