"""Runs one workload's operations in a closed loop with one client.

Started by run.py as ``python3 perfbench/worker.py <spec.json> <result.json>``.
With ``probe`` set in the spec, it runs one untimed operation and reports
only its own peak RSS, which then belongs to the program alone. Otherwise
operations cycle over the spec's input seeds until ``seconds``
have passed and at least one seed has been repeated; only the program calls
are timed, and the calibration work (see calibrate.py) is timed just before
each of them. With tracing on, each seed runs once untraced and once traced,
in alternating order, so the pair gives the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from spans import Tracer, layer_stats
from workloads import OPS


def _tamper(out: Path) -> None:
    """Self-test hook: corrupt one output file after the program wrote it."""
    for path in out.rglob("errors_run0.csv"):
        with open(path, "a") as fh:
            fh.write("0,0,2.0\r\n")


def _run_one(op, seed, out, tracer, tamper, calibration):
    record = {"seed": seed, "traced": tracer is not None, "problems": [],
              "calibration_s": calibration.measure()}
    if tracer is not None:
        first = len(tracer.spans)
        tracer.install()
    start = perf_counter()
    try:
        codes = op.call(seed, out)
    except Exception:  # an op that raises is counted as failed; the loop goes on
        traceback.print_exc()
        codes = None
    finally:
        record["seconds"] = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record["layers"] = layer_stats(tracer.spans, first)
    if codes is None or any(codes):
        record["problems"] = [f"operation failed (exit codes {codes})"]
        return record
    if tamper:
        _tamper(out)
    try:
        record.update(op.check(seed, out))
    except (OSError, ValueError, KeyError) as exc:
        record["problems"] = [f"output check failed: {exc!r}"]
    return record


def _peak_rss_mb() -> float:
    """This process's own peak RSS. ru_maxrss would not do: Linux carries the
    parent's peak over into it across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe(op, seed, out) -> dict:
    """One untimed operation without the calibration, whose memory would
    otherwise count toward the peak RSS."""
    op.call(seed, out)
    shutil.rmtree(out, ignore_errors=True)
    return {"peak_rss_mb": _peak_rss_mb()}


def run(spec: dict) -> dict:
    work = Path(spec["work"])
    op = OPS[spec["workload"]](Path(spec["config"]), spec["extra"])
    if spec["probe"]:
        return _probe(op, spec["seeds"][0], work / "probe")
    tracer = Tracer() if spec["trace"] else None
    calibration = Calibration()
    seeds = spec["seeds"]
    per_seed = 2 if tracer else 1
    min_ops = 2 if tracer else len(seeds) + 1
    records, digests = [], {}
    deadline = perf_counter() + spec["seconds"]
    i = 0
    while i < min_ops or i % per_seed or perf_counter() < deadline:
        seed = seeds[(i // per_seed) % len(seeds)]
        traced = tracer if tracer and (i + i // 2) % 2 == 1 else None
        out = work / f"op{i}"
        record = _run_one(op, seed, out, traced, spec["tamper"] and i == 0, calibration)
        if not record["problems"] and digests.setdefault(seed, record["digest"]) != record["digest"]:
            record["problems"].append(f"output digest differs from an earlier run of seed {seed}")
        records.append(record)
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        i += 1
    result = {
        "records": records,
        "wrapped": sorted(tracer.names) if tracer else [],
    }
    if tracer:
        with open(spec["spans_file"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "bytes", "bytes_computed"],
                       "spans": tracer.spans}, fh)
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
