"""Minimal self-contained SVG line charts.

Display artifact only: linear axes, one polyline per series, legend from
the series labels.  No external assets, scripts or stylesheets, so the
files render anywhere and diff cleanly.  CSV remains the data format of
record; these charts just make filter comparisons glanceable.
"""

from __future__ import annotations

from html import escape
from typing import Iterable, Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#e377c2", "#17becf")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 46


def _fmt(v: float) -> str:
    return format(v, ".2f").rstrip("0").rstrip(".") or "0"


def _finite_range(arrays: Sequence[np.ndarray]) -> tuple[float, float]:
    values = np.concatenate([v[np.isfinite(v)] for v in arrays])
    if not values.size:
        return 0.0, 0.0
    return float(values.min()), float(values.max())


def _tick_values(lo: float, hi: float, count: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def line_chart(series: Sequence[tuple], title: str = "",
               x_label: str = "step", y_label: str = "MSE",
               width: int = 720, height: int = 440,
               dashed: Iterable[str] = ()) -> str:
    """Render ``[(label, x, y), ...]`` as an SVG document string.

    Labels listed in ``dashed`` are drawn with a dash pattern, which the
    comparison report uses to overlay Monte Carlo curves on analytic
    ones without relying on color alone.  A NaN or infinite point is
    left out: the polyline breaks there, and the axis ranges come from
    finite values only.
    """
    if not series:
        raise ValueError("need at least one series")
    dashed = set(dashed)
    xs = [np.asarray(x, dtype=float) for _, x, _ in series]
    ys = [np.asarray(y, dtype=float) for _, _, y in series]
    for (label, x, y), xv, yv in zip(series, xs, ys):
        if xv.shape != yv.shape or xv.ndim != 1 or xv.size < 1:
            raise ValueError(f"series {label!r}: x and y must be equal-length "
                             f"vectors")

    x_lo, x_hi = _finite_range(xs)
    y_lo, y_hi = _finite_range(ys)
    y_lo = min(0.0, y_lo)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi = min(y_hi + 0.05 * (y_hi - y_lo), np.finfo(float).max)

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(v: float) -> float:
        if x_hi == x_lo:
            return _MARGIN_LEFT + plot_w / 2.0
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">'
                   f'{escape(title, quote=False)}</text>')

    for v in _tick_values(y_lo, y_hi):
        y = sy(v)
        out.append(f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" '
                   f'x2="{width - _MARGIN_RIGHT}" y2="{y:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.2f}" '
                   f'text-anchor="end" font-family="monospace" '
                   f'font-size="11">{_fmt(v)}</text>')
    for v in _tick_values(x_lo, x_hi):
        x = sx(v)
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" '
                   f'y2="{height - _MARGIN_BOTTOM}" '
                   f'stroke="#eeeeee" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{height - _MARGIN_BOTTOM + 16}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="11">{_fmt(v)}</text>')

    out.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
               f'x2="{_MARGIN_LEFT}" y2="{height - _MARGIN_BOTTOM}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{_MARGIN_LEFT}" y1="{height - _MARGIN_BOTTOM}" '
               f'x2="{width - _MARGIN_RIGHT}" y2="{height - _MARGIN_BOTTOM}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{(width + _MARGIN_LEFT) / 2:.1f}" '
               f'y="{height - 10}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">'
               f'{escape(x_label, quote=False)}</text>')
    out.append(f'<text x="14" y="{(height - _MARGIN_BOTTOM + _MARGIN_TOP) / 2:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 14 '
               f'{(height - _MARGIN_BOTTOM + _MARGIN_TOP) / 2:.1f})">'
               f'{escape(y_label, quote=False)}</text>')

    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        dash = ' stroke-dasharray="6 4"' if label in dashed else ""
        ok = np.isfinite(xs[k]) & np.isfinite(ys[k])
        edges = np.flatnonzero(np.diff(np.concatenate(([0], ok, [0]))))
        for start, stop in edges.reshape(-1, 2):
            pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b
                           in zip(xs[k][start:stop], ys[k][start:stop]))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.8"{dash}/>')

    legend_x = width - _MARGIN_RIGHT - 170
    for k, (label, _, _) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        ly = _MARGIN_TOP + 14 + 16 * k
        dash = ' stroke-dasharray="6 4"' if label in dashed else ""
        out.append(f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 24}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"{dash}/>')
        out.append(f'<text x="{legend_x + 30}" y="{ly}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{escape(str(label), quote=False)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_chart(path, series: Sequence[tuple], **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line_chart(series, **kwargs))
