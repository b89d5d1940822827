"""Property tests: mutated report inputs, loaded trace files (CSV and
waypoint lines) and config files end in a documented exit code, print no
traceback and leave no partial --out."""

import contextlib
import csv
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import CELLS  # noqa: E402
from test_cli import command_argv, full, hidden_siblings, load_config_text, write_cfg  # noqa: E402,F401

from tce.cli import main  # noqa: E402
from tce.config import load_config  # noqa: E402
from tce.errors import ConfigError  # noqa: E402


# the report inputs: every file of two prediction runs
REPORT_FILES = ["trace", "traffic", "zones", "labels", "predictions_run0", "predictions_run1"]


def edits_of(files, tokens=CELLS):
    """One edit: (file, operation, row, field, token)."""
    return st.tuples(
        st.sampled_from(files),
        st.sampled_from(["cell", "drop", "dup", "swap", "blank", "extra", "truncate"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(tokens),
    )


def waypoint_lines(trace_csv, step_seconds):
    """The rows of a trace.csv as waypoint lines: per user, the tokens of a
    ``t x y`` triple at every instant, t in seconds."""
    users = {}
    with open(trace_csv, newline="") as fh:
        for user, t, x, y in list(csv.reader(fh))[1:]:
            users.setdefault(user, []).extend([str(int(t) * step_seconds), x, y])
    return list(users.values())


def mutate(rows, op, i, j, value):
    """Apply one edit to the rows of fields of a file (a CSV header included)."""
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


def write_mutated(src, dst, names, edits):
    """Copy the CSV files ``names`` from ``src`` to ``dst`` with ``edits`` applied."""
    tables = {}
    for name in names:
        with open(src / f"{name}.csv", newline="") as fh:
            tables[name] = list(csv.reader(fh))
    for name, *edit in edits:
        tables[name] = mutate(tables[name], *edit)
    for name, rows in tables.items():
        with open(dst / f"{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def run_cleanly(argv, out):
    """Run ``tce`` and hold it to the contract: a documented exit code, no
    traceback, and ``out`` (never a hidden sibling) left only on success."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (code == 0)
    assert hidden_siblings(out) == []


class TestReportInputProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edits=st.lists(edits_of(REPORT_FILES), min_size=1, max_size=3))
    def test_mutated_inputs_exit_cleanly(self, tmp_path_factory, full, edits):
        case = tmp_path_factory.mktemp("case")
        write_mutated(full, case, REPORT_FILES, edits)
        cfg = write_cfg(case)
        out = case / "out"
        run_cleanly(command_argv("report", cfg, full, out, **{n: case / f"{n}.csv" for n in REPORT_FILES}), out)


class TestLoadModeProperties:
    """``tce run`` loading a mutated trace.csv/traffic.csv pair, or
    waypoint lines (one user per line, ``t x y`` triples) made from the
    same trace, with whole lines or single tokens edited."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(edits=st.lists(edits_of(["trace", "traffic"]), min_size=1, max_size=3))
    def test_mutated_csv_trace_exits_cleanly(self, tmp_path_factory, full, edits):
        case = tmp_path_factory.mktemp("load")
        write_mutated(full, case, ["trace", "traffic"], edits)
        cfg = write_cfg(case, load_config_text(case / "trace.csv", case / "traffic.csv"))
        run_cleanly(["run", "--config", cfg, "--out", case / "out"], case / "out")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(edits=st.lists(edits_of(["wp"], CELLS + ["1e200", "-1e200", "3300", "1 2 3"]), min_size=1, max_size=3))
    def test_mutated_waypoint_lines_exit_cleanly(self, tmp_path_factory, full, edits):
        case = tmp_path_factory.mktemp("waypoint")
        lines = waypoint_lines(full / "trace.csv", step_seconds=300)
        for _, *edit in edits:
            lines = mutate(lines, *edit)
        text = "".join(" ".join(tokens) + "\n" for tokens in lines)
        (case / "wp.txt").write_text(text)
        # one traffic row per user line, so that line edits reach clustering
        users = sum(1 for line in text.splitlines() if line.split())
        (case / "traffic.csv").write_text(
            "user_id,mean_traffic_mbps\n" + "".join(f"{u},{10 * (u % 2)}\n" for u in range(users))
        )
        text = load_config_text(case / "wp.txt", case / "traffic.csv")
        cfg = write_cfg(case, text)
        run_cleanly(["run", "--config", cfg, "--out", case / "out"], case / "out")


# a tiny generated run; every token the edits write is small, so no
# mutation can blow up the runtime or memory
TINY_INI = """\
[venue]
precinct_min = 0 0
precinct_max = 10 10
outside_regions =
    10 2 12 8
index_scale = 1.0

[time]
step_seconds = 60
instant_count = {instants}

[scenario]
user_count = {users}
speed_min = 0
speed_max = 0.05
pause_instants = 1
background_weight = 0.1
attractors =
    a 0.4 1 1 5 5
    b 0.4 6 6 9 9
    c 0.2 10.5 3 11.5 7

[traffic]
tiers =
    1/2 0
    1/2 5

[clustering]
k_inside = 2
k_outside = 1

[prediction]
window_size = 2
scope = per_user
run_count = 2
base_seed = 4

[report]
plot_users = 0 1
bin_count = 4
"""
TOKENS = ["x", "-1", "0", "nan", "inf", "-inf", "1/0", "2.5", ""]
INI_EDITS = st.tuples(
    st.sampled_from(["value", "value", "drop", "dup", "rename"]),
    st.sampled_from(range(TINY_INI.count("\n"))),
    st.integers(0, 5),
    st.sampled_from(TOKENS),
    st.sampled_from(["venue", "time", "scenario", "traffic", "prediction", "report", "extra"]),
)


def mutate_ini(lines, op, i, j, token, section):
    """Apply one edit to the lines of an INI file: replace a value token,
    drop or duplicate a line, or rename a section header."""
    if op == "drop":
        del lines[i % len(lines)]
    elif op == "dup":
        i %= len(lines)
        lines.insert(i, lines[i])
    elif op == "rename":
        headers = [n for n, line in enumerate(lines) if line.startswith("[")]
        if headers:
            lines[headers[i % len(headers)]] = f"[{section}]"
    else:
        values = [n for n, line in enumerate(lines) if line.strip() and line[0] not in "[#"]
        if values:
            n = values[i % len(values)]
            head, eq, tail = lines[n].partition("=") if lines[n][0] != " " else ("    ", "", lines[n])
            fields = tail.split() or [""]
            fields[j % len(fields)] = token
            lines[n] = head + eq + " " + " ".join(fields)
    return lines


class TestConfigProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        users=st.integers(2, 4),
        instants=st.integers(4, 6),
        edits=st.lists(INI_EDITS, min_size=1, max_size=2),
    )
    def test_mutated_config_exits_cleanly(self, tmp_path_factory, users, instants, edits):
        lines = TINY_INI.format(users=users, instants=instants).splitlines()
        for edit in edits:
            lines = mutate_ini(lines, *edit)
        case = tmp_path_factory.mktemp("ini")
        cfg = case / "run.ini"
        cfg.write_text("\n".join(lines) + "\n")
        with contextlib.suppress(ConfigError):
            load_config(cfg)
        run_cleanly(["run", "--config", cfg, "--out", case / "out"], case / "out")
