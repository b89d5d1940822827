"""Minimal SVG chart emission. The CSV files stay the source of truth; these
renderers exist so runs can be eyeballed without a plotting dependency.
Each line chart formats its shared x axis once and each distinct y value once.
The position chart is a density map, not one mark per position: one rect per
occupied square cell of a grid of at most about 257 x 257 cells over the
observed extent, so its size does not grow with the user or instant count.
A legend lists only the entries that fit above the bottom margin."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, open_input

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46


def _esc(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    """A chart's pixel mapping and element writers over an open SVG file;
    each element is written one per line as it is drawn. Every span is finite:
    chart data lies within 2**42 of 0 (``core._BOUND``), or sums such rates."""

    def __init__(self, fh, x_range, y_range):
        (x0, x1), (y0, y1) = x_range, y_range
        self._fh = fh
        self.x0, self.xs = x0, (_W - _ML - _MR) / ((x1 - x0) or 1.0)
        self.y0, self.ys = y0, (_H - _MT - _MB) / ((y1 - y0) or 1.0)

    def _put(self, element):
        self._fh.write(element + "\n")

    def px(self, x):
        return _ML + (x - self.x0) * self.xs

    def py(self, y):
        return _H - _MB - (y - self.y0) * self.ys

    def vline(self, x):
        self._put(
            f'<line x1="{self.px(x):.2f}" y1="{_MT}" x2="{self.px(x):.2f}" y2="{_H - _MB}" '
            'stroke="#999" stroke-dasharray="4 3"/>'
        )

    def rect(self, lo, hi, color, opacity=1.0, stroke="none"):
        x, y = self.px(lo[0]), self.py(hi[1])
        w = (hi[0] - lo[0]) * self.xs
        h = (hi[1] - lo[1]) * self.ys
        self._put(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{color}" fill-opacity="{opacity}" stroke="{stroke}"/>'
        )

    def legend(self, items):
        """One entry per (label, color), 16 px apart, as many as have their
        baseline inside the plot area; past that, the last slot reads "+N more"."""
        slots = (_H - _MB - _MT - 14) // 16 + 1
        if len(items) > slots:
            items = [*items[: slots - 1], (f"+{len(items) - slots + 1} more", None)]
        for i, (label, color) in enumerate(items):
            y = _MT + 14 + 16 * i
            if color is not None:
                self._put(f'<rect x="{_W - _MR - 130}" y="{y - 9}" width="12" height="3" fill="{color}"/>')
            self._put(f'<text x="{_W - _MR - 112}" y="{y}" fill="#222">{_esc(label)}</text>')


@contextmanager
def _chart(path, title, x_label, y_label, x_range, y_range):
    """The framed, titled and labelled chart at ``path``, as a canvas to draw
    on; a clean exit closes the ``<svg>`` element. A failed write raises
    ConfigError naming the file."""
    (x0, x1), (y0, y1) = x_range, y_range
    with open_input(path, ConfigError, mode="w", newline="") as fh:
        canvas = _Canvas(fh, x_range, y_range)
        canvas._put(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">'
        )
        canvas._put(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        canvas._put(f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>')
        canvas._put(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
            'fill="none" stroke="#444"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv, yv = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
            canvas._put(
                f'<text x="{canvas.px(xv):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                f'fill="#444">{xv:g}</text>'
            )
            canvas._put(
                f'<text x="{_ML - 6}" y="{canvas.py(yv):.1f}" text-anchor="end" '
                f'dominant-baseline="middle" fill="#444">{yv:g}</text>'
            )
        canvas._put(
            f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle">{_esc(x_label)}</text>'
        )
        canvas._put(
            f'<text x="16" y="{_H / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_H / 2})">{_esc(y_label)}</text>'
        )
        yield canvas
        canvas._put("</svg>")


def line_chart(path, xs, series, title, x_label, y_label, vline_at, step=False):
    """Polylines, or with ``step`` step lines (e.g. zone over time) padded
    half a unit, and a dashed line at x = ``vline_at``; series is
    [(label, ys, dash), ...], each ys as long as xs."""
    ys_all = np.array([ys for _, ys, _ in series], np.float64)
    lo, hi = float(ys_all.min()), float(ys_all.max())
    pad = 0.5 if step else (hi - lo) * 0.05 or 1.0
    with _chart(path, title, x_label, y_label, (float(min(xs)), float(max(xs))), (lo - pad, hi + pad)) as canvas:
        canvas.vline(vline_at)
        # keyed on bits, as in csvio._formatted, whose sort is loaded already
        distinct, rank = np.unique(ys_all.view(np.int64), return_inverse=True)
        sy = np.array([f"{y:.2f}" for y in canvas.py(distinct.view(np.float64)).tolist()], object)
        sx = np.array([f"{x:.2f}," for x in canvas.px(np.asarray(xs, np.float64)).tolist()], object)
        # a step line's point 2t is (x[t], y[t]), after a riser at (x[t], y[t - 1])
        p = np.arange(2 * len(xs) - 1 if step else len(xs))
        xi, yi = ((p + 1) // 2, p // 2) if step else (p, p)
        sx, rows = sx[xi].tolist(), sy[rank.reshape(ys_all.shape)[:, yi]].tolist()
        for i, ((_, _, dash), row) in enumerate(zip(series, rows)):
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            canvas._put(
                f'<polyline points="{" ".join([x + y for x, y in zip(sx, row)])}" fill="none" '
                f'stroke="{PALETTE[i % len(PALETTE)]}"{dash_attr} stroke-width="1.5"/>'
            )
        canvas.legend([(label, PALETTE[i % len(PALETTE)]) for i, (label, _, _) in enumerate(series)])


def scatter_chart(path, points, rects, title):
    """Density map of the positions in cells of max(1, span / 256) units; rects is [(lo, hi), ...]."""
    xy = np.asarray(points, np.float64).T.copy()  # reduces by row, much faster than by column
    first, side = xy.min(axis=1), max(1.0, float(np.ptp(xy, axis=1).max()) / 256)
    cell = np.floor((xy - first[:, None]) / side).astype(np.int64)
    dims = cell.max(axis=1) + 1
    counts = np.bincount(cell[0] * dims[1] + cell[1])
    ix, iy = np.divmod(np.flatnonzero(counts), dims[1])
    lo = np.min([first, *(r[0] for r in rects)], axis=0)
    hi = np.max([first + dims * side, *(r[1] for r in rects)], axis=0)
    pad = (hi - lo) * 0.04
    with _chart(path, title, "x (index units)", "y (index units)", *zip(lo - pad, hi + pad)) as canvas:
        xs, ys = canvas.px(first[0] + ix * side).tolist(), canvas.py(first[1] + (iy + 1) * side).tolist()
        size = f'width="{side * canvas.xs:.2f}" height="{side * canvas.ys:.2f}"'
        opacity = (counts[counts > 0] / counts.max()).tolist()
        rows = [f'<rect x="{x:.2f}" y="{y:.2f}" {size} fill-opacity="{o:.3g}"/>\n' for x, y, o in zip(xs, ys, opacity)]
        canvas._put(f'<g fill="{PALETTE[0]}">\n{"".join(rows)}</g>')
        for rect_lo, rect_hi in rects:
            canvas.rect(rect_lo, rect_hi, "none", stroke="#444")


def histogram_chart(path, counts, edges, title):
    """Overlaid per-run histograms of a (runs, bins) count table; row r is run r."""
    counts = np.asarray(counts)
    top = int(counts.max()) or 1
    width = len(counts)
    with _chart(path, title, "prediction error", "count", (float(edges[0]), float(edges[-1])), (0, top)) as canvas:
        for i, run_counts in enumerate(counts):
            color = PALETTE[i % len(PALETTE)]
            for b, count in enumerate(run_counts):
                if count == 0:
                    continue
                span = edges[b + 1] - edges[b]
                lo_x = edges[b] + span * i / width
                hi_x = edges[b] + span * (i + 1) / width
                canvas.rect((lo_x, 0), (hi_x, count), color, opacity=0.8)
        canvas.legend([(f"run {i}", PALETTE[i % len(PALETTE)]) for i in range(width)])
