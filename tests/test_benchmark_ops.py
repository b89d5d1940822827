"""One operation of each benchmark workload at its tiny scale, run and checked
the way ``perfbench/worker.py`` runs and checks it, so a change to tce that
breaks what the benchmark calls or checks fails here too."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import tce
from tce.markov import predict_labels

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.OPS))
def test_workload_operation_passes_its_check(tmp_path, name):
    spec = workloads.SPECS[name]
    config = tmp_path / "config.ini"
    workloads.write_config(config, spec, tiny=True)
    seeds = workloads.sub_seeds(name, 1, spec.inputs)
    extra = {"seed": seeds[0]}
    if name == "stage_chain":
        extra.update(workloads.prepare_chain(config, seeds[:1], tmp_path))
    op = workloads.OPS[name](config, extra)
    out = tmp_path / "op"
    codes = op.call(seeds[0], out)
    assert codes and not any(codes)
    assert op.check(seeds[0], out)["problems"] == []


def test_forecast_bytes_pinned():
    """The forecast of a sticky 2000-user x 60-instant event in both scopes,
    and its errors, are pinned by sha256, so a faster chain or error table
    must keep every bit."""
    traces, zoning = workloads.synthesize_event(2000, 60, 15)
    extent = tce.position_extent(traces)
    digest = hashlib.sha256(extent[0].tobytes() + extent[1].tobytes())
    for scope in (tce.PER_USER, tce.GENERAL):
        run = predict_labels(zoning.labels, zoning.zone_count, tce.WindowConfig(10, scope), [4])[0]
        digest.update(run.labels_pred.tobytes())
        digest.update(tce.error_series(zoning, run, *extent).e.tobytes())
    assert digest.hexdigest() == "fd2ea58c65ffb0d2d15782c0c7d23cb5f3f6128207ac6a5b007a9cc1df0efe75"


@pytest.mark.slow
def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs the benchmark driver itself (provenance,
    tracer, checks) on every workload at tiny scale; it takes about 40 s."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
