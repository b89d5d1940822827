#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (a few dozen users, 1-second runs).

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names, in both
the plain and the traced run; that a tampered output file is counted as a
failed operation; and that the benchmark exits non-zero, printing no result,
in a directory without the tce sources. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TAMPERED = ("paper_run", "stage_chain")


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    return result


def check_metrics(workload: str, trace: int) -> None:
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    result = result_of(bench("--workload", workload, "--trace", str(trace), "--tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert list(result["metrics"]) == [m["name"] for m in declared], "metric names differ"
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] != 0, f"{m['name']} is 0"


def check_tamper(workload: str) -> None:
    result = result_of(bench("--workload", workload, "--trace", "0", "--tiny", "--tamper"))
    assert not result["correct"] and result["failed"] == 1 < result["attempted"], result


def check_no_sources() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the tce sources"
    assert '"metrics"' not in proc.stdout, "printed a result without the tce sources"


def main() -> int:
    checks = [(f"{w} trace={t} prints every metric", check_metrics, (w, t)) for w in WORKLOADS for t in (0, 1)]
    checks += [(f"{w} counts a tampered output as failed", check_tamper, (w,)) for w in TAMPERED]
    checks.append(("no tce sources: non-zero exit, no result", check_no_sources, ()))
    failures = 0
    for label, fn, args in checks:
        try:
            fn(*args)
            print(f"ok    {label}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {label}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
