"""The SVG charts are outputs too: small ``line_chart``, ``scatter_chart`` and
``histogram_chart`` files are pinned by sha256, so a change to how coordinates
are computed or formatted shows."""

import hashlib
import math
import re
from collections import Counter

import numpy as np
import pytest

from tce import svgplot
from tce.errors import ConfigError

from conftest import DEV_FULL, needs_dev_full


def chart_sha256(path, *args, **kwargs):
    svgplot.line_chart(path, *args, **kwargs)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_step_chart_bytes_pinned(tmp_path):
    instants = np.arange(12)
    real = np.array([0, 0, 1, 1, 2, 2, 2, 0, 0, 1, 3, 3], np.int64)
    pred = np.array([0, 0, 1, 1, 2, 1, 1, 1, 0, 0, 0, 3], np.int64)
    digest = chart_sha256(
        tmp_path / "zones.svg", instants, [("real", real, ""), ("predicted", pred, "5 3")],
        "User 0 zone, run 0", "instant", "zone id", vline_at=4, step=True,
    )
    assert digest == "073120c5f5f6073c5924fe93cc59456bb1cf57cbb1cd0c5755d5c1db12658896"


def test_line_chart_bytes_pinned(tmp_path):
    instants = np.arange(10)
    users = np.array([3.0, 3.0, 4.5, 4.5, 1 / 3, 1 / 3, 7.25, 3.0, 4.5, 1 / 3])
    traffic = np.array([0.1, 0.1, 0.1, 2.5, 2.5, 10 / 3, 10 / 3, 0.1, 12.0, 12.0])
    digest = chart_sha256(
        tmp_path / "series.svg", instants, [("zone 0 real", users, ""), ("zone 0 pred", traffic, "5 3")],
        "Users per zone, run 0", "instant", "users", vline_at=4,
    )
    assert digest == "92213a36cefc8d8076369910be631e8752be4da74400f23db6ffe2613597189a"


def test_scatter_chart_bytes_pinned(tmp_path):
    # repeated positions (a paused user) and positions on the venue edges
    points = np.array([
        [0.0, 0.0], [50.0, 80.0], [25.0, 40.0], [25.0, 40.0], [25.0, 40.0],
        [60.0, 65.0], [50.0, 15.0], [1 / 3, 79.9], [12.345, 67.891], [55.0, 40.0],
    ])
    rects = [((0.0, 0.0), (50.0, 80.0)), ((50.0, 15.0), (60.0, 65.0))]
    path = tmp_path / "scatter.svg"
    svgplot.scatter_chart(path, points, rects, "Positions (all users, all instants)")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "2bb8bdac6dca1314bf280688b0d2fa37301cea25cc9be30b76c289863fb7f67f"


CELL = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="[^"]+" height="[^"]+" fill-opacity="([^"]+)"/>')


def reference_cells(points):
    """(column, row) -> count of the positions in each cell, in plain Python:
    cells of max(1, span / 256) units from the observed minimum."""
    xs, ys = [float(x) for x, _ in points], [float(y) for _, y in points]
    side = max(1.0, max(max(xs) - min(xs), max(ys) - min(ys)) / 256)
    return Counter((math.floor((x - min(xs)) / side), math.floor((y - min(ys)) / side)) for x, y in zip(xs, ys))


def chart_cells(path, expected):
    """(column, row) -> fill-opacity text of each cell the chart draws, its
    pixel corners mapped to indices on the column and row extremes of
    ``expected``; rows count up from the lowest, whose rect has the largest y."""
    found = [(float(x), float(y), opacity) for x, y, opacity in CELL.findall(path.read_text())]
    cols, rows = [c for c, _ in expected], [r for _, r in expected]

    def index(values, span):
        lo, hi = min(values), max(values)
        step = (hi - lo) / span if span else 1.0
        return [round((v - lo) / step) for v in values]

    xi = index([x for x, _, _ in found], max(cols) - min(cols))
    yi = index([-y for _, y, _ in found], max(rows) - min(rows))
    return {(min(cols) + c, min(rows) + r): opacity for c, r, (_, _, opacity) in zip(xi, yi, found)}


def scatter_point_sets():
    rng = np.random.default_rng(24)
    paused = rng.uniform(0.0, 60.0, (40, 2)).repeat(rng.integers(1, 30, 40), axis=0)
    edges = np.array([[x, y] for x in range(0, 9) for y in (0.0, 2.0, 5.0)] * 3)
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [1.0, -0.0], [-0.0, 3.5]])
    wide = np.vstack([rng.uniform(-1e12, 1e12, (3000, 2)), [[-1e12, -1e12], [1e12, 1e12], [0.0, 1e12]]])
    return {
        "random": rng.uniform(-5.0, 70.0, (500, 2)),
        "paused": paused,
        "negative": rng.uniform(-400.0, -120.0, (300, 2)),
        "cell_edges": edges,
        "signed_zero": zeros,
        "single": np.array([[12.5, -7.25]]),
        "all_equal": np.full((50, 2), 3.0),
        "wide": wide,
    }


@pytest.mark.parametrize("rects", [[], [((0.0, 0.0), (50.0, 80.0)), ((50.0, 15.0), (60.0, 65.0))]],
                         ids=["no_venue", "festival_venue"])
@pytest.mark.parametrize("name", list(scatter_point_sets()))
def test_scatter_chart_cells_match_counter(tmp_path, name, rects):
    points = scatter_point_sets()[name]
    expected = reference_cells(points.tolist())
    path = tmp_path / "scatter.svg"
    svgplot.scatter_chart(path, points, rects, "Positions")
    cells = chart_cells(path, expected)
    top = max(expected.values())
    assert len(CELL.findall(path.read_text())) == len(cells) <= 258 ** 2
    assert cells == {cell: f"{count / top:.3g}" for cell, count in expected.items()}


@pytest.mark.parametrize("name", ["random", "paused", "wide"])
def test_scatter_chart_bytes_ignore_repeats_and_order(tmp_path, name):
    points = scatter_point_sets()[name]
    rects = [((0.0, 0.0), (50.0, 80.0))]
    variants = [points, points.repeat(10, axis=0), np.random.default_rng(1).permutation(points)]
    texts = []
    for i, variant in enumerate(variants):
        svgplot.scatter_chart(tmp_path / f"{i}.svg", variant, rects, "Positions")
        texts.append((tmp_path / f"{i}.svg").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_legend_caps_entries_inside_the_canvas(tmp_path):
    # 26 zones draw 52 polylines; 20 entries fit above the bottom margin, then "+32 more"
    values = np.arange(52 * 6, dtype=float).reshape(52, 6)
    series = [(f"zone {i // 2} {'pred' if i % 2 else 'real'}", ys, "") for i, ys in enumerate(values)]
    svgplot.line_chart(tmp_path / "zones.svg", np.arange(6), series, "Users per zone", "instant", "users", 2)
    legend = re.findall(r'<text x="[^"]+" y="(\d+)" fill="#222">([^<]*)</text>', (tmp_path / "zones.svg").read_text())
    assert [label for _, label in legend] == [label for label, _, _ in series[:20]] + ["+32 more"]
    assert max(int(y) for y, _ in legend) <= svgplot._H - svgplot._MB
    swatches = (tmp_path / "zones.svg").read_text().count('width="12" height="3"')
    assert swatches == 20


def test_histogram_chart_bytes_pinned(tmp_path):
    # bin 1 is empty in run 0 and bin 2 holds the same count in both runs
    edges = np.linspace(0.0, 1.0, 6)
    counts = np.array([[3, 0, 2, 5, 1], [1, 4, 2, 0, 0]])
    path = tmp_path / "histogram.svg"
    svgplot.histogram_chart(path, counts, edges, "Prediction error by run")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "192493b798874a140e52c5074f0f76d77ea080b54e45462ca7ad68aad022101e"


def test_line_chart_near_float64_max_stays_finite(tmp_path):
    # a 5% pad around [0, 1.7e308] would overflow the span and scale by 0
    path = tmp_path / "traffic.svg"
    ys = np.array([0.0, 1.7e308])
    svgplot.line_chart(path, np.arange(2), [("zone 0 real", ys, "")], "Traffic", "instant", "traffic", vline_at=1)
    assert not re.search(r"\b(nan|inf)\b", path.read_text())


@pytest.mark.parametrize("edge", [1e308, np.finfo(np.float64).max], ids=["1e308", "float64_max"])
def test_scatter_chart_venue_span_past_float64_stays_finite(tmp_path, edge):
    # the precinct's span, and at float64's max also its 4% pad, pass float64
    path = tmp_path / "scatter.svg"
    points = np.array([[5.0, 40.0], [55.0, 40.0]])
    svgplot.scatter_chart(path, points, [((-edge, 0.0), (edge, 80.0))], "Positions")
    text = path.read_text()
    assert not re.search(r"\b(nan|inf)\b", text)
    numbers = [float(v) for v in re.findall(r' (?:x|y|width|height)="([^"]+)"', text)]
    assert numbers and all(math.isfinite(v) and -1.0 <= v <= 641.0 for v in numbers)


def reference_line_chart(path, xs, series, title, x_label, y_label, vline_at, step=False):
    """``line_chart`` drawing one polyline at a time, each point formatted
    on its own from Python floats: the per-polyline form the chart-level
    formatter replaced."""
    ys_all = np.concatenate([np.asarray(ys, float) for _, ys, _ in series])
    lo, hi = float(ys_all.min()), float(ys_all.max())
    pad = 0.5 if step else (hi - lo) * 0.05 or 1.0
    with svgplot._chart(path, title, x_label, y_label, (float(min(xs)), float(max(xs))), (lo - pad, hi + pad)) as canvas:
        canvas.vline(vline_at)
        for i, (_, ys, dash) in enumerate(series):
            sx = [f"{canvas.px(float(x)):.2f}" for x in xs]
            sy = [f"{canvas.py(float(y)):.2f}" for y in ys]
            pts = [f"{x},{y}" for x, y in zip(sx, sy)]
            if step:  # before each point, a riser at its x from the previous y
                risers = [f"{x},{y}" for x, y in zip(sx[1:], sy)]
                pts[1:] = [p for pair in zip(risers, pts[1:]) for p in pair]
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            color = svgplot.PALETTE[i % len(svgplot.PALETTE)]
            canvas._put(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"{dash_attr} stroke-width="1.5"/>'
            )
        canvas.legend(
            [(label, svgplot.PALETTE[i % len(svgplot.PALETTE)]) for i, (label, _, _) in enumerate(series)]
        )


ORACLE_KINDS = ["floats", "counts", "constant", "signed_zero", "near_ties"]


def oracle_values(kind, rng, shape):
    if kind == "floats":
        return rng.uniform(-50.0, 250.0, shape)
    if kind == "counts":  # integer users per zone: few distinct values, many repeats
        return rng.integers(0, 6, shape).astype(np.int64)
    if kind == "constant":
        return np.full(shape, 2.5)
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, 1.0, 0.5], shape)
    # distinct values whose texts are equal: a few bases, each moved by less
    # than the half-hundredth the .2f text rounds away
    base = rng.choice([0.0, 1 / 3, 10.0, 2 / 3], shape)
    return base + rng.choice([0.0, 1e-9, -1e-12, 5e-16], shape)


@pytest.mark.parametrize("step", [False, True], ids=["plain", "step"])
@pytest.mark.parametrize("count", [1, 2, 9, 60])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_line_chart_matches_per_polyline_reference(tmp_path, kind, count, step):
    # 9 and 60 series wrap the palette; counts and near ties make few distinct y texts
    rng = np.random.default_rng([count, int(step), ORACLE_KINDS.index(kind)])
    for instants in (60, 7, 1):
        xs = np.arange(instants) if kind != "floats" else np.sort(rng.uniform(-3.0, 40.0, instants))
        values = oracle_values(kind, rng, (count, instants))
        series = [(f"zone {i // 2} {'pred' if i % 2 else 'real'} <&>", ys, "5 3" if i % 2 else "")
                  for i, ys in enumerate(values)]
        args = (xs, series, "Chart & title", "instant", "users", instants // 3)
        svgplot.line_chart(tmp_path / "chart.svg", *args, step=step)
        reference_line_chart(tmp_path / "reference.svg", *args, step=step)
        assert (tmp_path / "chart.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


@needs_dev_full
@pytest.mark.parametrize("points", [2, 5000], ids=["fails_on_close", "fails_mid_chart"])
def test_chart_on_a_full_device_names_the_file(points):
    # a short chart fails when its buffered text is flushed at close, a long
    # one at a write inside the drawing
    xs = np.arange(points)
    with pytest.raises(ConfigError, match=f"^{DEV_FULL}: cannot write "):
        svgplot.line_chart(DEV_FULL, xs, [("zone 0", xs * 0.5, "")], "t", "x", "y", vline_at=1)
