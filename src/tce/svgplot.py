"""Minimal SVG chart emission. The CSV files stay the source of truth; these
renderers exist so runs can be eyeballed without a plotting dependency."""

from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46


def _esc(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, title, x_label, y_label, x_range, y_range):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
        ]
        x0, x1 = x_range
        y0, y1 = y_range
        self.x0, self.xs = x0, (_W - _ML - _MR) / ((x1 - x0) or 1.0)
        self.y0, self.ys = y0, (_H - _MT - _MB) / ((y1 - y0) or 1.0)
        self._axes(x_label, y_label, (x0, x1), (y0, y1))

    def px(self, x):
        return _ML + (x - self.x0) * self.xs

    def py(self, y):
        return _H - _MB - (y - self.y0) * self.ys

    def _axes(self, x_label, y_label, x_range, y_range):
        self.parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
            'fill="none" stroke="#444"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = x_range[0] + frac * (x_range[1] - x_range[0])
            yv = y_range[0] + frac * (y_range[1] - y_range[0])
            self.parts.append(
                f'<text x="{self.px(xv):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                f'fill="#444">{xv:g}</text>'
            )
            self.parts.append(
                f'<text x="{_ML - 6}" y="{self.py(yv):.1f}" text-anchor="end" '
                f'dominant-baseline="middle" fill="#444">{yv:g}</text>'
            )
        self.parts.append(
            f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle">{_esc(x_label)}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{_H / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_H / 2})">{_esc(y_label)}</text>'
        )

    def polyline(self, xs, ys, color, dash="", step=False):
        pts = []
        prev_y = None
        for x, y in zip(xs, ys):
            if step and prev_y is not None:
                pts.append(f"{self.px(x):.2f},{self.py(prev_y):.2f}")
            pts.append(f"{self.px(x):.2f},{self.py(y):.2f}")
            prev_y = y
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"{dash_attr} stroke-width="1.5"/>'
        )

    def vline(self, x, color="#999"):
        self.parts.append(
            f'<line x1="{self.px(x):.2f}" y1="{_MT}" x2="{self.px(x):.2f}" y2="{_H - _MB}" '
            f'stroke="{color}" stroke-dasharray="4 3"/>'
        )

    def dots(self, xs, ys, color, r=1.3, opacity=0.5):
        for x, y in zip(xs, ys):
            self.parts.append(
                f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{r}" '
                f'fill="{color}" fill-opacity="{opacity}"/>'
            )

    def rect(self, lo, hi, color, opacity=1.0, stroke="none"):
        x, y = self.px(lo[0]), self.py(hi[1])
        w = (hi[0] - lo[0]) * self.xs
        h = (hi[1] - lo[1]) * self.ys
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{color}" fill-opacity="{opacity}" stroke="{stroke}"/>'
        )

    def legend(self, items):
        for i, (label, color) in enumerate(items):
            y = _MT + 14 + 16 * i
            self.parts.append(f'<rect x="{_W - _MR - 130}" y="{y - 9}" width="12" height="3" fill="{color}"/>')
            self.parts.append(f'<text x="{_W - _MR - 112}" y="{y}" fill="#222">{_esc(label)}</text>')

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts) + "\n")


def line_chart(path, xs, series, title, x_label, y_label, vline_at=None, step=False):
    """Polylines, or with ``step`` step lines (e.g. zone over time) padded
    half a unit; series is [(label, ys, dash), ...]."""
    ys_all = np.concatenate([np.asarray(ys, float) for _, ys, _ in series])
    lo, hi = float(ys_all.min()), float(ys_all.max())
    pad = 0.5 if step else (hi - lo) * 0.05 or 1.0
    canvas = _Canvas(title, x_label, y_label, (float(min(xs)), float(max(xs))), (lo - pad, hi + pad))
    if vline_at is not None:
        canvas.vline(vline_at)
    for i, (label, ys, dash) in enumerate(series):
        canvas.polyline(xs, ys, PALETTE[i % len(PALETTE)], dash=dash, step=step)
    canvas.legend([(label, PALETTE[i % len(PALETTE)]) for i, (label, _, _) in enumerate(series)])
    canvas.write(path)


def scatter_chart(path, points, rects, title):
    """Position scatter with venue outlines; rects is [(lo, hi, label), ...]."""
    pts = np.asarray(points, float)
    lo = np.minimum(pts.min(axis=0), np.min([r[0] for r in rects], axis=0))
    hi = np.maximum(pts.max(axis=0), np.max([r[1] for r in rects], axis=0))
    pad = (hi - lo) * 0.04
    canvas = _Canvas(title, "x (index units)", "y (index units)", (lo[0] - pad[0], hi[0] + pad[0]), (lo[1] - pad[1], hi[1] + pad[1]))
    for rect_lo, rect_hi, _ in rects:
        canvas.rect(rect_lo, rect_hi, "none", stroke="#444")
    canvas.dots(pts[:, 0], pts[:, 1], PALETTE[0])
    canvas.write(path)


def histogram_chart(path, per_run_counts, edges, title):
    """Overlaid per-run histograms; per_run_counts is [(run_id, counts), ...]."""
    top = max(int(np.max(counts)) for _, counts in per_run_counts) or 1
    canvas = _Canvas(title, "prediction error", "count", (float(edges[0]), float(edges[-1])), (0, top))
    width = len(per_run_counts)
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
    canvas.write(path)
