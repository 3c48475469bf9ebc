"""Deterministic SVG output."""

import numpy as np
import pytest

from potmin import make_counterexample, misclassification_error, unhinged_minimizer
from potmin.distributions import GAMMA_STAR
from potmin.svg import _COLORS, _H, _MB, _ML, _MR, _MT, _W, _Canvas, _fmt, _limits, step_plot


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
    # a caller may hand over lists of numpy scalars
    cv.polyline(list(xs), list(ys), "#000")
    ref = reference_points(cv, xs, ys)
    for part in cv.parts[-2:]:
        assert part == (f'<polyline points="{ref}" fill="none" stroke="#000" '
                        f'stroke-width="1.5"/>')


def reference_step_plot(path, xs, ys, *, title="", xlabel="", ylabel="", vlines=()):
    """step_plot as it drew on a canvas of its own, before it shared line_plot's routine."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    cv = _Canvas(_limits(xs), _limits(ys), title, xlabel, ylabel)
    sx, sy = [xs[0]], [ys[0]]
    for i in range(1, len(xs)):
        sx.extend([xs[i], xs[i]])
        sy.extend([ys[i - 1], ys[i]])
    cv.polyline(sx, sy, _COLORS[0])
    for x in vlines:
        cv.vline(x)
    cv.write(path)


@pytest.mark.parametrize("count", [2, 30, 291])
def test_step_plot_bytes_match_its_own_canvas(tmp_path, count):
    # gamma-sweep's figure: clean error of the centroid minimizer per gamma
    gammas = np.linspace(0.01, 0.3, count).tolist()
    errors = []
    for gamma in gammas:
        dist = make_counterexample(gamma)
        errors.append(misclassification_error(dist, unhinged_minimizer(dist, 1.0).weights.v))
    labels = dict(title="clean error", xlabel="gamma", ylabel="error", vlines=[GAMMA_STAR])
    step_plot(tmp_path / "new.svg", gammas, errors, **labels)
    reference_step_plot(tmp_path / "reference.svg", gammas, errors, **labels)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()
