"""One operation of each benchmark workload at its tiny scale, run and checked
the way ``perfbench/worker.py`` runs and checks it, so a change to tce that
breaks what the benchmark calls or checks fails here too."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
