"""Minimal self-contained SVG line plots (no plotting dependency).

Data must arrive already in plot coordinates (any log transforms applied
by the caller); this module only maps data space to pixels, draws axes
with tick labels, polylines, point markers, and a legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _escape(text: str) -> str:
    """text with &, < and > as XML entities, as xml.sax.saxutils.escape gives it.

    That module's import loads urllib, http, email and ssl.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


# The plot's size in pixels, and how many ticks nice_ticks aims at an axis
_WIDTH, _HEIGHT = 860, 560
_TICKS = 6

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.label!r}: x/y length mismatch")


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step, about _TICKS of them."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    return format(v, ".4g")


def render_line_plot(series: Sequence[Series], x_label: str, y_label: str,
                     title: str) -> str:
    """Render series as one standalone SVG document (returned as a string)."""
    if not series:
        raise ValueError("nothing to plot")
    pts = [(x, y) for s in series for x, y in zip(s.xs, s.ys)
           if math.isfinite(x) and math.isfinite(y)]
    if not pts:
        raise ValueError("no finite points to plot")
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    mx = 0.03 * (xmax - xmin)
    my = 0.05 * (ymax - ymin)
    xmin, xmax = xmin - mx, xmax + mx
    ymin, ymax = ymin - my, ymax + my

    left, right, top, bottom = 72, 24, 40, 56
    pw, ph = _WIDTH - left - right, _HEIGHT - top - bottom

    def px(x: float) -> float:
        return left + (x - xmin) / (xmax - xmin) * pw

    def py(y: float) -> float:
        return top + ph - (y - ymin) / (ymax - ymin) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="12" fill="black">',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{_escape(title)}</text>',
    ]

    for t in nice_ticks(xmin, xmax):
        if xmin <= t <= xmax:
            x = px(t)
            out.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{top + ph}" '
                       f'stroke="#dddddd" stroke-width="1"/>')
            out.append(f'<text x="{x:.1f}" y="{top + ph + 16}" '
                       f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in nice_ticks(ymin, ymax):
        if ymin <= t <= ymax:
            y = py(t)
            out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + pw}" y2="{y:.1f}" '
                       f'stroke="#dddddd" stroke-width="1"/>')
            out.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                       f'text-anchor="end">{_fmt_tick(t)}</text>')

    out.append(f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{left + pw / 2:.1f}" y="{_HEIGHT - 12}" '
               f'text-anchor="middle">{_escape(x_label)}</text>')
    out.append(f'<text x="16" y="{top + ph / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {top + ph / 2:.1f})">{_escape(y_label)}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = [(px(x), py(y)) for x, y in zip(s.xs, s.ys)
                  if math.isfinite(x) and math.isfinite(y)]
        if not coords:
            continue
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')
        for x, y in coords:
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.2" fill="{color}"/>')

    ly = top + 14
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        out.append(f'<line x1="{left + 10}" y1="{ly - 4}" x2="{left + 34}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{left + 40}" y="{ly}">{_escape(s.label)}</text>')
        ly += 16

    out.append("</g></svg>")
    return "\n".join(out) + "\n"


def render_gnuplot(series: Sequence[Series], x_label: str, y_label: str,
                   title: str) -> str:
    """Emit an equivalent standalone gnuplot script with inline data blocks."""
    if not series:
        raise ValueError("nothing to plot")
    out = [
        "# generated by sscpolar",
        f'set xlabel "{x_label}"',
        f'set ylabel "{y_label}"',
        f'set title "{title}"',
        "set key top left",
    ]
    for i, s in enumerate(series):
        out.append(f"$data{i} << EOD")
        for x, y in zip(s.xs, s.ys):
            out.append(f"{x!r} {y!r}")
        out.append("EOD")
    plots = ", ".join(
        f'$data{i} using 1:2 with linespoints title "{s.label}"'
        for i, s in enumerate(series)
    )
    out.append("plot " + plots)
    return "\n".join(out) + "\n"
