"""The SVG charts are outputs too: small ``line_chart`` and ``scatter_chart``
files are pinned by sha256, so a change to how coordinates are computed or
formatted shows."""

import hashlib

import numpy as np

from tce import svgplot


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
    rects = [((0.0, 0.0), (50.0, 80.0), "precinct"), ((50.0, 15.0), (60.0, 65.0), "outside")]
    path = tmp_path / "scatter.svg"
    svgplot.scatter_chart(path, points, rects, "Positions (all users, all instants)")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "39f59c0d52ae1acc75f30a60eb8bb98f75c3adfa3e8b21098c7a6197047f5796"
