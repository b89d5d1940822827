"""Minimal SVG chart emission. The CSV files stay the source of truth; these
renderers exist so runs can be eyeballed without a plotting dependency.
Each line chart formats its shared x axis once and each distinct y value once."""

from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46


def _esc(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    """A chart's SVG file, used as ``with _Canvas(path, ...) as canvas``.

    Each element is written to the open file, one per line, as it is drawn;
    a clean exit closes the ``<svg>`` element."""

    def __init__(self, path, title, x_label, y_label, x_range, y_range):
        (x0, x1), (y0, y1) = x_range, y_range
        self.x0, self.xs = x0, (_W - _ML - _MR) / ((x1 - x0) or 1.0)
        self.y0, self.ys = y0, (_H - _MT - _MB) / ((y1 - y0) or 1.0)
        self._fh = open(path, "w")
        try:
            self._put(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">'
            )
            self._put(f'<rect width="{_W}" height="{_H}" fill="white"/>')
            self._put(f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>')
            self._put(
                f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
                'fill="none" stroke="#444"/>'
            )
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                xv = x0 + frac * (x1 - x0)
                yv = y0 + frac * (y1 - y0)
                self._put(
                    f'<text x="{self.px(xv):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                    f'fill="#444">{xv:g}</text>'
                )
                self._put(
                    f'<text x="{_ML - 6}" y="{self.py(yv):.1f}" text-anchor="end" '
                    f'dominant-baseline="middle" fill="#444">{yv:g}</text>'
                )
            self._put(
                f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle">{_esc(x_label)}</text>'
            )
            self._put(
                f'<text x="16" y="{_H / 2}" text-anchor="middle" '
                f'transform="rotate(-90 16 {_H / 2})">{_esc(y_label)}</text>'
            )
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        with self._fh:
            if exc_type is None:
                self._put("</svg>")

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

    def dots(self, xs, ys, color):
        cx = self.px(np.asarray(xs, np.float64)).tolist()
        cy = self.py(np.asarray(ys, np.float64)).tolist()
        write = self._fh.write
        for x, y in zip(cx, cy):
            write(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.3" fill="{color}" fill-opacity="0.5"/>\n')

    def rect(self, lo, hi, color, opacity=1.0, stroke="none"):
        x, y = self.px(lo[0]), self.py(hi[1])
        w = (hi[0] - lo[0]) * self.xs
        h = (hi[1] - lo[1]) * self.ys
        self._put(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{color}" fill-opacity="{opacity}" stroke="{stroke}"/>'
        )

    def legend(self, items):
        for i, (label, color) in enumerate(items):
            y = _MT + 14 + 16 * i
            self._put(f'<rect x="{_W - _MR - 130}" y="{y - 9}" width="12" height="3" fill="{color}"/>')
            self._put(f'<text x="{_W - _MR - 112}" y="{y}" fill="#222">{_esc(label)}</text>')


def line_chart(path, xs, series, title, x_label, y_label, vline_at, step=False):
    """Polylines, or with ``step`` step lines (e.g. zone over time) padded
    half a unit, and a dashed line at x = ``vline_at``; series is
    [(label, ys, dash), ...], each ys as long as xs."""
    ys_all = np.array([ys for _, ys, _ in series], np.float64)
    lo, hi = float(ys_all.min()), float(ys_all.max())
    pad = 0.5 if step else (hi - lo) * 0.05 or 1.0
    with _Canvas(path, title, x_label, y_label, (float(min(xs)), float(max(xs))), (lo - pad, hi + pad)) as canvas:
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
    """Position scatter with venue outlines; rects is [(lo, hi, label), ...]."""
    pts = np.asarray(points, float)
    lo = np.minimum(pts.min(axis=0), np.min([r[0] for r in rects], axis=0))
    hi = np.maximum(pts.max(axis=0), np.max([r[1] for r in rects], axis=0))
    pad = (hi - lo) * 0.04
    x_range, y_range = (lo[0] - pad[0], hi[0] + pad[0]), (lo[1] - pad[1], hi[1] + pad[1])
    with _Canvas(path, title, "x (index units)", "y (index units)", x_range, y_range) as canvas:
        for rect_lo, rect_hi, _ in rects:
            canvas.rect(rect_lo, rect_hi, "none", stroke="#444")
        canvas.dots(pts[:, 0], pts[:, 1], PALETTE[0])


def histogram_chart(path, per_run_counts, edges, title):
    """Overlaid per-run histograms; per_run_counts is [(run_id, counts), ...]."""
    top = max(int(np.max(counts)) for _, counts in per_run_counts) or 1
    width = len(per_run_counts)
    with _Canvas(path, title, "prediction error", "count", (float(edges[0]), float(edges[-1])), (0, top)) as canvas:
        for i, (run_id, counts) in enumerate(per_run_counts):
            color = PALETTE[i % len(PALETTE)]
            for b, count in enumerate(counts):
                if count == 0:
                    continue
                span = edges[b + 1] - edges[b]
                lo_x = edges[b] + span * i / width
                hi_x = edges[b] + span * (i + 1) / width
                canvas.rect((lo_x, 0), (hi_x, count), color, opacity=0.8)
        canvas.legend([(f"run {run_id}", PALETTE[i % len(PALETTE)]) for i, (run_id, _) in enumerate(per_run_counts)])
