"""Tiny deterministic SVG plot writer (line, scatter, grouped boxes).

Plots are conveniences for eyeballing study outputs; everything quantitative
lives in the CSVs. No plotting dependency, byte-stable output: each SVG
element is written in one place, and ``tests/test_svgplot.py`` pins the bytes.
"""

from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 32, 48

_PALETTE = ["#c0392b", "#2c3e50", "#2980b9", "#27ae60", "#8e44ad", "#d35400"]


def _fmt(v) -> str:
    """A coordinate as written: a float to two decimals, an integer as it is."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _ticks(lo: float, hi: float):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    return np.linspace(lo, hi, 5)


def _finite(values):
    arr = np.asarray(values, dtype=float)
    return arr[np.isfinite(arr)]


def _finite_pairs(x, y):
    """The (x, y) pairs of two equal-length sequences in which both are finite,
    as Python floats: scaling them is exact double arithmetic either way, and
    faster on Python floats than on numpy scalars."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    keep = np.isfinite(x) & np.isfinite(y)
    return zip(x[keep].tolist(), y[keep].tolist())


def _finite_lims(values):
    arr = _finite(values)
    if arr.size == 0:
        return 0.0, 1.0
    lo, hi = float(arr.min()), float(arr.max())
    pad = 0.05 * (hi - lo if hi > lo else max(abs(lo), 1.0))
    return lo - pad, hi + pad


def _span(lo, hi):
    """An axis's limits; an empty or inverted range widens to one unit above ``lo``."""
    return lo, lo + 1.0 if hi <= lo else hi


class _Canvas:
    """One plot's elements: the frame, five ticks per axis, the title and both labels."""

    def __init__(self, xlim, ylim, title, xlabel, ylabel):
        (self.xlo, self.xhi), (self.ylo, self.yhi) = _span(*xlim), _span(*ylim)
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]
        self.text(_W // 2, 20, title, 14)
        x0, y0 = _ML, _H - _MB
        self.parts.append(f'<path d="M {x0} {_MT} L {x0} {y0} L {_W - _MR} {y0}" '
                          'stroke="black" fill="none"/>')
        for t in _ticks(self.xlo, self.xhi):
            px = self.sx(t)
            self.line(px, y0, px, y0 + 4)
            self.text(px, y0 + 18, f"{t:.4g}", 11)
        for t in _ticks(self.ylo, self.yhi):
            py = self.sy(t)
            self.line(x0 - 4, py, x0, py)
            self.text(x0 - 7, py + 4, f"{t:.4g}", 11, anchor="end")
        self.text((_ML + _W - _MR) // 2, _H - 10, xlabel, 12)
        ymid = (_MT + _H - _MB) // 2
        self.text(14, ymid, ylabel, 12, extra=f' transform="rotate(-90 14 {ymid})"')

    def sx(self, x: float) -> float:
        return _ML + (x - self.xlo) / (self.xhi - self.xlo) * (_W - _ML - _MR)

    def sy(self, y: float) -> float:
        return _H - _MB - (y - self.ylo) / (self.yhi - self.ylo) * (_H - _MT - _MB)

    def text(self, x, y, body, size, anchor="middle", extra=""):
        """Every label, tick label and legend entry; ``extra`` holds trailing attributes."""
        self.parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
                          f'font-family="sans-serif" font-size="{size}"{extra}>{body}</text>')

    def line(self, x1, y1, x2, y2, stroke="black", extra=""):
        """Every tick mark, whisker and median; ``extra`` holds trailing attributes."""
        self.parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                          f'y2="{_fmt(y2)}" stroke="{stroke}"{extra}/>')

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(self.parts) + "\n")


def line_plot(path, x, y, title, xlabel, ylabel):
    cv = _Canvas(_finite_lims(x), _finite_lims(y), title, xlabel, ylabel)
    pts = [f"{_fmt(cv.sx(a))},{_fmt(cv.sy(b))}" for a, b in _finite_pairs(x, y)]
    if pts:
        cv.parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                        f'stroke="{_PALETTE[2]}" stroke-width="1.5"/>')
    cv.save(path)


def scatter_plot(path, series, title, xlabel, ylabel):
    """series: iterable of (x, y, label) triples; colors cycle a fixed palette."""
    all_x = np.concatenate([np.asarray(s[0], float) for s in series])
    all_y = np.concatenate([np.asarray(s[1], float) for s in series])
    cv = _Canvas(_finite_lims(all_x), _finite_lims(all_y), title, xlabel, ylabel)
    for i, (xs, ys, label) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        for a, b in _finite_pairs(xs, ys):
            cv.parts.append(f'<circle cx="{_fmt(cv.sx(a))}" cy="{_fmt(cv.sy(b))}" r="3" '
                            f'fill="{color}" fill-opacity="0.7"/>')
        cv.text(_W - _MR - 8, _MT + 16 + 14 * i, label, 11, anchor="end",
                extra=f' fill="{color}"')
    cv.save(path)


def box_plot(path, groups, title, xlabel, ylabel):
    """groups: iterable of (label, values, color_index); one box per group."""
    groups = [(label, _finite(values), color_idx) for label, values, color_idx in groups]
    pooled = np.concatenate([v for _, v, _ in groups if v.size] or [np.array([0.0, 1.0])])
    cv = _Canvas((0.0, float(len(groups))), _finite_lims(pooled), title, xlabel, ylabel)
    half = 0.32 * (cv.sx(1) - cv.sx(0))
    for i, (label, vals, color_idx) in enumerate(groups):
        color = _PALETTE[color_idx % len(_PALETTE)]
        cx = cv.sx(i + 0.5)
        if vals.size:
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            iqr = q3 - q1
            lo = float(vals[vals >= q1 - 1.5 * iqr].min())
            hi = float(vals[vals <= q3 + 1.5 * iqr].max())
            cv.line(cx, cv.sy(lo), cx, cv.sy(hi), color)
            cv.parts.append(f'<rect x="{_fmt(cx - half)}" y="{_fmt(cv.sy(q3))}" '
                            f'width="{_fmt(2 * half)}" height="{_fmt(cv.sy(q1) - cv.sy(q3))}" '
                            f'fill="{color}" fill-opacity="0.35" stroke="{color}"/>')
            cv.line(cx - half, cv.sy(med), cx + half, cv.sy(med), color, ' stroke-width="2"')
        cv.text(cx, _H - _MB + 32, label, 10)
    cv.save(path)
