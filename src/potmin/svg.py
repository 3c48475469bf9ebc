"""Tiny self-contained SVG plots (no external assets, deterministic bytes)."""

from __future__ import annotations

import numpy as np

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48  # plot margins
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = np.ceil(lo / step) * step
    return [float(first + k * step) for k in range(int((hi - first) / step) + 1)]


class _Canvas:
    def __init__(self, xlim, ylim, title, xlabel, ylabel):
        self.xlo, self.xhi = xlim
        self.ylo, self.yhi = ylim
        if self.xhi <= self.xlo:
            self.xhi = self.xlo + 1.0
        if self.yhi <= self.ylo:
            pad = abs(self.ylo) * 0.1 + 1.0
            self.ylo, self.yhi = self.ylo - pad, self.ylo + pad
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
            f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>',
            f'<text x="14" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2})">{ylabel}</text>',
        ]
        self._axes()

    def px(self, x: float) -> float:
        return _ML + (x - self.xlo) / (self.xhi - self.xlo) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        return _H - _MB - (y - self.ylo) / (self.yhi - self.ylo) * (_H - _MT - _MB)

    def _axes(self):
        p = self.parts
        p.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#888"/>')
        for t in _ticks(self.xlo, self.xhi):
            x = self.px(t)
            p.append(f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" '
                     f'y2="{_H - _MB + 4}" stroke="#444"/>')
            p.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')
        for t in _ticks(self.ylo, self.yhi):
            y = self.py(t)
            p.append(f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" '
                     f'y2="{_fmt(y)}" stroke="#444"/>')
            p.append(f'<text x="{_ML - 6}" y="{_fmt(y + 3)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')

    def polyline(self, xs, ys, color: str):
        # px/py on whole arrays: the same operations in the same order, so
        # every coordinate string matches the per-point mapping
        px = self.px(np.asarray(xs, dtype=float)).tolist()
        py = self.py(np.asarray(ys, dtype=float)).tolist()
        pts = " ".join(map("{:.6g},{:.6g}".format, px, py))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                          f'stroke-width="1.5"/>')

    def vline(self, x: float, color: str = "#666"):
        xp = _fmt(self.px(x))
        self.parts.append(f'<line x1="{xp}" y1="{_MT}" x2="{xp}" y2="{_H - _MB}" '
                          f'stroke="{color}" stroke-dasharray="4 3"/>')

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _limits(values) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    pad = (hi - lo) * 0.06 or max(abs(hi), 1.0) * 0.06
    return lo - pad, hi + pad


def step_plot(path, xs, ys, *, title="", xlabel="", ylabel="", vlines=()):
    """Piecewise-constant plot: each y holds until the next x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    # x0, x1, x1, x2, x2, ... against y0, y0, y1, y1, y2, ...
    _plot(path, [(np.repeat(xs, 2)[1:], np.repeat(ys, 2)[:-1])], title, xlabel, ylabel, vlines)


def line_plot(path, series, *, title="", xlabel="", ylabel="", vlines=()):
    """Plain polylines; series is an iterable of (xs, ys) pairs.

    Non-finite y entries are dropped; a series with no finite points is
    skipped (the figure still renders its axes).
    """
    _plot(path, series, title, xlabel, ylabel, vlines)


def _plot(path, series, title, xlabel, ylabel, vlines):
    # every figure is drawn here; step_plot calls this rather than
    # line_plot so that each figure is one call of a public plot function
    series = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for x, y in series]
    all_x = np.concatenate([s[0] for s in series])
    all_y = np.concatenate([s[1] for s in series])
    finite_y = all_y[np.isfinite(all_y)]
    ylim = _limits(finite_y) if finite_y.size else (0.0, 1.0)
    cv = _Canvas(_limits(all_x), ylim, title, xlabel, ylabel)
    for k, (xs, ys) in enumerate(series):
        ok = np.isfinite(ys)
        if np.any(ok):
            cv.polyline(xs[ok], ys[ok], _COLORS[k % len(_COLORS)])
    for x in vlines:
        cv.vline(x)
    cv.write(path)
