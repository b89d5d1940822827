"""Property test: mutated report inputs end in a documented exit code and
leave no partial --out."""

import csv

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_cli import command_argv, full, hidden_siblings, write_cfg  # noqa: E402,F401

from tce.cli import main  # noqa: E402


# the report inputs: every file of two prediction runs
REPORT_FILES = ["trace", "traffic", "zones", "labels", "predictions_run0", "predictions_run1"]
CELLS = [
    "", " ", "x", "nan", "inf", "-inf", "-1", "0", "1", "2", "5", "11", "12", "999",
    "2.5", "-0.0", "1e309", "99999999999999999999", "inside", "outside", "1,2",
]
EDITS = st.tuples(
    st.sampled_from(REPORT_FILES),
    st.sampled_from(["cell", "drop", "dup", "swap", "blank", "extra", "truncate"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(CELLS),
)


def mutate(rows, op, i, j, value):
    """Apply one edit to the rows of a CSV file (header included)."""
    if not rows:
        return rows
    i %= len(rows)
    if op == "cell" and rows[i]:
        rows[i][j % len(rows[i])] = value
    elif op == "drop":
        del rows[i]
    elif op == "dup":
        rows.insert(i, list(rows[i]))
    elif op == "swap":
        rows[i], rows[j % len(rows)] = rows[j % len(rows)], rows[i]
    elif op == "blank":
        rows[i] = []
    elif op == "extra":
        rows[i].append(value)
    elif op == "truncate":
        del rows[i:]
    return rows


class TestReportInputProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edits=st.lists(EDITS, min_size=1, max_size=3))
    def test_mutated_inputs_exit_cleanly(self, tmp_path_factory, full, edits):
        case = tmp_path_factory.mktemp("case")
        tables = {}
        for name in REPORT_FILES:
            with open(full / f"{name}.csv", newline="") as fh:
                tables[name] = list(csv.reader(fh))
        for name, *edit in edits:
            tables[name] = mutate(tables[name], *edit)
        for name, rows in tables.items():
            with open(case / f"{name}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        cfg = write_cfg(case)
        out = case / "out"
        code = main(command_argv("report", cfg, full, out, **{n: case / f"{n}.csv" for n in REPORT_FILES}))
        assert code in (0, 2, 3, 4)
        assert out.exists() == (code == 0)
        assert hidden_siblings(out) == []
