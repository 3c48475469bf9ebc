"""Deterministic SVG output."""

import numpy as np
import pytest

from potmin.svg import _H, _MB, _ML, _MR, _MT, _W, _Canvas, _fmt, _limits


def reference_points(cv, xs, ys):
    """The per-point pixel mapping polyline must reproduce byte for byte."""
    return " ".join(f"{_fmt(cv.px(x))},{_fmt(cv.py(y))}" for x, y in zip(xs, ys))


@pytest.mark.parametrize("n", [1, 7, 20_001])
def test_polyline_points_match_per_point_mapping(n):
    rng = np.random.default_rng(n)
    xs = np.cumsum(rng.exponential(size=n)) * 1e3
    ys = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    ys[::5] = -0.0
    cv = _Canvas(_limits(xs), _limits(ys), "t", "x", "y")
    # points whose pixels sit on .6g rounding midpoints (100.0005, 100.0015,
    # ...), where a change in operation order flips printed digits
    mid = 100.0005 + 0.001 * np.arange(2000)
    xs = np.concatenate([xs, cv.xlo + (mid - _ML) / (_W - _ML - _MR) * (cv.xhi - cv.xlo)])
    ys = np.concatenate([ys, cv.ylo + (_H - _MB - mid) / (_H - _MT - _MB)
                         * (cv.yhi - cv.ylo)])
    cv.polyline(xs, ys, "#000")
    # step_plot hands over lists of numpy scalars
    cv.polyline(list(xs), list(ys), "#000")
    ref = reference_points(cv, xs, ys)
    for part in cv.parts[-2:]:
        assert part == (f'<polyline points="{ref}" fill="none" stroke="#000" '
                        f'stroke-width="1.5"/>')
