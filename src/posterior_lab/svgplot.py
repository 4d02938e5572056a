"""Hand-emitted SVG line charts (no plotting dependency): polyline series,
shaded bracket bands, optional horizontal reference lines, axes with tick
labels, and a legend.  Output is deterministic: fixed element order and
fixed float formatting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PlotSpec", "Series", "render_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720.0, 460.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 28.0, 48.0


def _f(v: float) -> str:
    return f"{v:.3f}"


@dataclass
class Series:
    name: str
    xs: list
    ys: list
    lower: list | None = None
    upper: list | None = None


@dataclass
class PlotSpec:
    series: list
    log_x: bool = False
    log_y: bool = False
    reflines: list = field(default_factory=list)
    title: str = ""

    def __post_init__(self):
        if not self.series:
            raise ValueError("at least one series is required")
        for s in self.series:
            if len(s.xs) != len(s.ys) or not s.xs:
                raise ValueError(f"series {s.name!r} is empty or ragged")


def _ticks(lo: float, hi: float, count: int = 6) -> list:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def render_svg(spec: PlotSpec) -> str:
    def kept(xs, vs):
        """(x, v) on the axes' scales, for each pair that both axes can draw."""
        return [(a, b) for x, v in zip(xs, vs)
                if (a := _scaled(x, spec.log_x)) is not None
                and (b := _scaled(v, spec.log_y)) is not None]

    lines = [kept(s.xs, s.ys) for s in spec.series]
    bands = [(kept(s.xs, s.lower), kept(s.xs, s.upper))
             if s.lower is not None and s.upper is not None else ([], [])
             for s in spec.series]
    refs = [(r, t) for r in spec.reflines if (t := _scaled(r, spec.log_y)) is not None]
    xs_all = [x for pts in lines for x, _ in pts]
    ys_all = [v for pts in lines + [p for b in bands for p in b] for _, v in pts]
    ys_all += [t for _, t in refs]
    if not xs_all or not ys_all:
        raise ValueError("nothing plottable in the given series")

    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(t):  # the screen map of a value on the x axis's scale
        return _ML + (t - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(t):
        return _H - _MB - (t - y0) / (y1 - y0) * (_H - _MT - _MB)

    def points(pts):
        return " ".join(f"{_f(sx(x))},{_f(sy(v))}" for x, v in pts)

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" '
               f'height="{_H:g}" viewBox="0 0 {_W:g} {_H:g}">')
    out.append(f'<rect x="0" y="0" width="{_W:g}" height="{_H:g}" fill="#ffffff"/>')
    if spec.title:
        out.append(f'<text x="{_f(_W / 2)}" y="18" text-anchor="middle" '
                   f'font-family="monospace" font-size="13">{_esc(spec.title)}</text>')

    # axes
    out.append(f'<line x1="{_f(_ML)}" y1="{_f(_H - _MB)}" x2="{_f(_W - _MR)}" '
               f'y2="{_f(_H - _MB)}" stroke="#000000" stroke-width="1"/>')
    out.append(f'<line x1="{_f(_ML)}" y1="{_f(_MT)}" x2="{_f(_ML)}" '
               f'y2="{_f(_H - _MB)}" stroke="#000000" stroke-width="1"/>')
    for t in _ticks(x0, x1):
        xp = sx(t)
        label = f"1e{t:g}" if spec.log_x else f"{t:g}"
        out.append(f'<line x1="{_f(xp)}" y1="{_f(_H - _MB)}" x2="{_f(xp)}" '
                   f'y2="{_f(_H - _MB + 5)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_f(xp)}" y="{_f(_H - _MB + 18)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="11">{label}</text>')
    for t in _ticks(y0, y1):
        yp = sy(t)
        label = f"1e{t:g}" if spec.log_y else f"{t:g}"
        out.append(f'<line x1="{_f(_ML - 5)}" y1="{_f(yp)}" x2="{_f(_ML)}" '
                   f'y2="{_f(yp)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_f(_ML - 8)}" y="{_f(yp + 4)}" text-anchor="end" '
                   f'font-family="monospace" font-size="11">{label}</text>')
    out.append(f'<text x="{_f((_ML + _W - _MR) / 2)}" y="{_f(_H - 10)}" '
               f'text-anchor="middle" font-family="monospace" font-size="12">n</text>')

    # bracket bands first (under the lines)
    for i, (lo, hi) in enumerate(bands):
        if lo and hi:
            out.append(f'<polygon points="{points(lo + hi[::-1])}" '
                       f'fill="{_PALETTE[i % len(_PALETTE)]}" fill-opacity="0.18" '
                       'stroke="none"/>')
    for i, pts in enumerate(lines):
        if pts:
            out.append(f'<polyline points="{points(pts)}" fill="none" '
                       f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.5"/>')
    for r, t in refs:
        yp = sy(t)
        out.append(f'<line x1="{_f(_ML)}" y1="{_f(yp)}" x2="{_f(_W - _MR)}" '
                   f'y2="{_f(yp)}" stroke="#444444" stroke-width="1" '
                   f'stroke-dasharray="6,4"/>')
        out.append(f'<text x="{_f(_W - _MR - 4)}" y="{_f(yp - 4)}" '
                   f'text-anchor="end" font-family="monospace" font-size="10" '
                   f'fill="#444444">y={r:g}</text>')

    # legend
    for i, s in enumerate(spec.series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = _MT + 14 * i + 4
        out.append(f'<line x1="{_f(_ML + 8)}" y1="{_f(ly)}" x2="{_f(_ML + 28)}" '
                   f'y2="{_f(ly)}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_f(_ML + 34)}" y="{_f(ly + 4)}" '
                   f'font-family="monospace" font-size="11">{_esc(s.name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _scaled(v: float, logscale: bool):
    """v on its axis's scale, or None where the axis cannot draw it: a value
    that is not a finite number, or not positive on a log axis."""
    if isinstance(v, (int, float)) and math.isfinite(v) and (not logscale or v > 0.0):
        return math.log10(v) if logscale else v
    return None


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
