"""Closed-form and projected-gradient ball minimizers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
from potmin import (LOSS_NAMES, RELAXED_ONLY, DiscreteDistribution, FitResult,
                    LossOverflowError, PGDConfig, PotentialFunction, WeightVector,
                    corrupt_rcn, expected_loss, make_counterexample, make_loss,
                    mean_label_feature, pgd_minimizer, unhinged_minimizer)
from potmin import minimizers
from potmin.minimizers import _project_ball, default_step

UNHINGED = make_loss("unhinged")


def _reference_locate_overflow(err, dist, margins):
    """The overflow error, naming the first atom whose margin overflowed."""
    idx = int(np.nonzero(margins == err.z)[0][0])
    return LossOverflowError(
        err.loss, err.z, atom_index=idx,
        atom=(dist.xs[idx].tolist(), int(dist.ys[idx])),
    )


def reference_pgd(dist, phi, r, cfg=None):
    """The projected-gradient loop with separate objective and gradient
    closures, each computing its own margins: the reference the fit must
    match bit for bit."""
    r = float(r)
    cfg = cfg or PGDConfig()
    step = default_step(dist) if cfg.step is None else float(cfg.step)

    yx = dist.ys[:, None] * dist.xs
    w = dist.weights

    def objective(v: np.ndarray) -> float:
        margins = dist.margins(v)
        try:
            vals = phi.eval(margins)
        except LossOverflowError as err:
            raise _reference_locate_overflow(err, dist, margins) from None
        return float(w @ vals)

    def gradient(v: np.ndarray) -> np.ndarray:
        margins = dist.margins(v)
        try:
            slopes = phi.deriv(margins)
        except LossOverflowError as err:
            raise _reference_locate_overflow(err, dist, margins) from None
        g = (w * slopes) @ yx
        if not np.all(np.isfinite(g)):
            worst = int(np.argmax(np.abs(margins)))
            raise LossOverflowError(
                phi.name, float(margins[worst]), atom_index=worst,
                atom=(dist.xs[worst].tolist(), int(dist.ys[worst])),
            )
        return g

    v = np.zeros(dist.dimension)
    best_v, best_obj = v, objective(v)
    history = [best_obj] if cfg.record_history else None
    converged = False
    pg_norm = float("nan")
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        g = gradient(v)
        if step > 0:
            candidate = _project_ball(v - step * g, r)
            pg_norm = float(np.linalg.norm(v - candidate)) / step
        else:
            candidate = v
            pg_norm = float(np.linalg.norm(g))
        v = candidate
        obj = objective(v)
        if history is not None:
            history.append(obj)
        if obj < best_obj:
            best_v, best_obj = v, obj
        if pg_norm <= cfg.tol:
            converged = True
            break
    return FitResult(
        WeightVector(best_v, r), best_obj, iterations, converged, pg_norm,
        objective_history=tuple(history) if history is not None else None,
    )


def fit_bytes(fit):
    """Every FitResult field PGD sets, as exact bytes."""
    history = fit.objective_history
    return (fit.weights.v.tobytes(), np.float64(fit.objective).tobytes(),
            fit.iterations, fit.converged,
            np.float64(fit.gradient_norm_final).tobytes(),
            None if history is None else np.array(history).tobytes())


def angle_between(a, b):
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


class TestWeightVector:
    def test_ball_feasibility_enforced(self):
        WeightVector(np.array([3.0, 4.0]), 5.0)
        with pytest.raises(ValueError, match="exceeds"):
            WeightVector(np.array([3.0, 4.0]), 4.9)

    def test_rounding_slack_scales_with_the_radius(self):
        # r m/||m|| at r = 1e8 has norm r (1 + eps), 1.5e-8 above r
        dist = DiscreteDistribution([[2.0, 1.0], [1.0, -3.0], [0.5, 0.5]], [1, -1, -1],
                                    [0.3, 0.3, 0.4])
        for r in (1e6, 1e8, 1e12):
            for fit in (unhinged_minimizer(dist, r),
                        pgd_minimizer(dist, make_loss("hinge"), r)):
                assert np.linalg.norm(fit.weights.v) <= r * (1 + 1e-12)
        with pytest.raises(ValueError, match="exceeds"):
            WeightVector(np.array([3.0, 4.0]), 5.0 - 1e-10)
        with pytest.raises(ValueError, match="exceeds"):
            WeightVector(np.array([3e8, 4e8]), 5e8 - 1e-2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_past_the_square_root_of_the_float_range(self):
        # ||v||^2 = 1e310 leaves float64; the norm is taken scaled by max |v_i|
        dist = DiscreteDistribution([[2.0, 1.0], [1.0, -3.0], [0.5, 0.5]], [1, -1, -1],
                                    [0.3, 0.3, 0.4])
        fit = unhinged_minimizer(dist, 1e155)
        m = mean_label_feature(dist)
        np.testing.assert_allclose(fit.weights.v, 1e155 * m / np.linalg.norm(m), rtol=1e-15)
        assert fit.objective == 1.0 - 1e155 * float(np.linalg.norm(m))
        assert math.isfinite(fit.objective)
        WeightVector(np.array([3e154, 4e154]), 5e154)
        with pytest.raises(ValueError, match="exceeds"):
            WeightVector(np.array([3e154, 4e154]), 4.9e154)
        with pytest.raises(ValueError, match="exceeds"):
            WeightVector(np.array([1e300, 1e300]), 1.0)

    def test_unbounded_allowed(self):
        wv = WeightVector(np.array([100.0]), None)
        assert wv.radius_bound is None


class TestUnhingedMinimizer:
    def test_counterexample_fit(self):
        # oracle: m from the construction's closed form, normalized to the
        # unit sphere; objective cross-checked by the direct expectation
        gamma = 0.05
        dist = make_counterexample(gamma)
        fit = unhinged_minimizer(dist, 1.0)
        m = np.array([0.25 + 3 * gamma / 4, math.sqrt(1 - gamma ** 2) / 4 - gamma])
        np.testing.assert_allclose(fit.weights.v, m / np.linalg.norm(m), atol=1e-14)
        assert fit.objective == pytest.approx(1.0 - np.linalg.norm(m), abs=1e-14)
        assert fit.objective == pytest.approx(
            expected_loss(dist, UNHINGED, fit.weights.v), abs=1e-12)
        assert fit.converged and fit.iterations == 0
        assert not fit.degenerate_centroid

    def test_single_atom_on_larger_ball(self):
        dist = DiscreteDistribution([[1.0, 0.0, 0.0]], [1], [1.0])
        fit = unhinged_minimizer(dist, 2.0)
        assert fit.weights.v.tolist() == [2.0, 0.0, 0.0]
        assert fit.objective == -1.0

    def test_noise_invariance_across_rates(self):
        dist = make_counterexample(0.13)
        clean = unhinged_minimizer(dist, 1.0)
        for eta in np.arange(0.05, 0.50, 0.05):
            noisy = unhinged_minimizer(corrupt_rcn(dist, float(eta)), 1.0)
            np.testing.assert_allclose(noisy.weights.v, clean.weights.v, atol=1e-12)

    def test_degenerate_centroid_flagged(self):
        dist = DiscreteDistribution([[1.0], [1.0]], [1, -1], [0.5, 0.5])
        fit = unhinged_minimizer(dist, 3.0)
        assert fit.degenerate_centroid
        assert fit.weights.v.tolist() == [0.0]
        assert fit.objective == 1.0

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_bad_radius_rejected(self, r):
        with pytest.raises(ValueError, match="radius"):
            unhinged_minimizer(make_counterexample(0.1), r)

    def test_result_serialization(self):
        fit = unhinged_minimizer(make_counterexample(0.05), 2.0)
        data = fit.to_dict()
        assert set(data) == {"v", "r", "objective", "iterations", "converged",
                             "gradient_norm_final", "degenerate_centroid", "gap"}
        assert data["gap"] == 0.0
        assert data["r"] == 2.0

    @settings(max_examples=50, deadline=None)
    @given(dist=helpers.small_distributions())
    def test_objective_is_affine_in_centroid(self, dist):
        # P(v) = 1 - v.m for every v, checked against the atomwise expectation
        rng = np.random.default_rng(1)
        v = rng.normal(size=dist.dimension)
        m = mean_label_feature(dist)
        assert expected_loss(dist, UNHINGED, v) == pytest.approx(
            1.0 - float(v @ m), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(dist=helpers.small_distributions())
    def test_ball_feasibility(self, dist):
        for r in (0.5, 1.0, 7.0):
            fit = unhinged_minimizer(dist, r)
            assert np.linalg.norm(fit.weights.v) <= r + 1e-12


class TestPgdMinimizer:
    def test_matches_closed_form_on_counterexample(self):
        dist = make_counterexample(0.05)
        oracle = unhinged_minimizer(dist, 1.0)
        fit = pgd_minimizer(dist, UNHINGED, 1.0)
        assert fit.converged
        assert abs(fit.objective - oracle.objective) <= 1e-6
        assert angle_between(fit.weights.v, oracle.weights.v) <= 1e-4

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dist = helpers.random_distribution(rng, min_centroid_norm=0.05)
            oracle = unhinged_minimizer(dist, 1.0)
            fit = pgd_minimizer(dist, UNHINGED, 1.0)
            assert abs(fit.objective - oracle.objective) <= 1e-6
            assert angle_between(fit.weights.v, oracle.weights.v) <= 1e-4

    def test_exponential_single_atom_pushes_to_boundary(self):
        dist = DiscreteDistribution([[1.0, 0.0]], [1], [1.0])
        fit = pgd_minimizer(dist, make_loss("exponential"), 1.0)
        np.testing.assert_allclose(fit.weights.v, [1.0, 0.0], atol=1e-6)
        assert fit.objective == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_hinge_subgradient_path(self):
        # the kink subgradient (-1 at margin 1) still drives the iterate to
        # the boundary on a separable atom and parks it there
        dist = DiscreteDistribution([[1.0]], [1], [1.0])
        fit = pgd_minimizer(dist, make_loss("hinge"), 1.0,
                            PGDConfig(step=default_step(dist)))
        assert fit.converged
        np.testing.assert_allclose(fit.weights.v, [1.0], atol=1e-9)
        assert fit.objective == pytest.approx(0.0, abs=1e-9)

    def test_zero_step_reports_raw_gradient(self):
        dist = make_counterexample(0.05)
        fit = pgd_minimizer(dist, UNHINGED, 1.0,
                            PGDConfig(step=0.0, max_iters=50))
        assert not fit.converged
        assert fit.iterations == 50
        assert np.all(fit.weights.v == 0.0)
        m = mean_label_feature(dist)
        assert fit.gradient_norm_final == pytest.approx(np.linalg.norm(m), abs=1e-15)

    def test_converged_respects_tolerance_contract(self):
        fit = pgd_minimizer(make_counterexample(0.2), UNHINGED, 1.0)
        assert fit.converged
        assert fit.gradient_norm_final <= PGDConfig().tol

    def test_monotone_descent_below_curvature_bound(self):
        # L = sum_i w_i ||x_i||^2 * max |phi''|, the curvature estimated by
        # second differences over the reachable margin range
        dist = make_counterexample(0.3)
        phi = make_loss("exponential")
        r = 1.0
        reach = r * float(np.max(np.linalg.norm(dist.xs, axis=1)))
        z = np.linspace(-reach, reach, 201)
        h = 1e-4
        curv = np.max(np.abs(
            (phi.eval(z + h) - 2.0 * phi.eval(z) + phi.eval(z - h)) / h ** 2))
        lips = float(dist.weights @ np.sum(dist.xs ** 2, axis=1)) * float(curv)
        fit = pgd_minimizer(dist, phi, r,
                            PGDConfig(step=0.9 / lips, record_history=True))
        diffs = np.diff(np.array(fit.objective_history))
        assert np.all(diffs <= 1e-12)

    def test_best_iterate_contract_with_large_step(self):
        dist = make_counterexample(0.1)
        phi = make_loss("exponential")
        wild = pgd_minimizer(dist, phi, 1.0, PGDConfig(step=5.0, max_iters=500))
        calm = pgd_minimizer(dist, phi, 1.0)
        assert wild.objective <= expected_loss(dist, phi, np.zeros(2))
        assert wild.objective >= calm.objective - 1e-9

    def test_overflow_reports_offending_atom(self):
        dist = DiscreteDistribution([[1.0], [-2.0]], [1, 1], [0.5, 0.5])
        with pytest.raises(LossOverflowError) as err:
            pgd_minimizer(dist, make_loss("exponential"), 1e9,
                          PGDConfig(step=2000.0, max_iters=10))
        assert err.value.atom_index is not None
        assert err.value.z <= -700

    def test_gradient_overflow_names_the_overflowing_term(self):
        # at v_1 = 7e-8 the margins are -700 and 1400; exp(-1400) is 0, so
        # only atom 0's term 0.1 * exp(700) * 1e10 leaves float64
        dist = DiscreteDistribution([[-1e10], [2e10]], [1, 1], [0.1, 0.9])
        with pytest.raises(LossOverflowError) as err:
            pgd_minimizer(dist, make_loss("exponential"), 1.0,
                          PGDConfig(step=7e-8 / 1.7e10))
        assert err.value.atom_index == 0
        assert err.value.z == -700.0
        assert err.value.atom == ([-1e10], 1)

    def test_ball_feasibility_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dist = helpers.random_distribution(rng)
            for phi_name in ("unhinged", "logistic"):
                fit = pgd_minimizer(dist, make_loss(phi_name), 0.7,
                                    PGDConfig(max_iters=2000))
                assert np.linalg.norm(fit.weights.v) <= 0.7 + 1e-12

    def test_bad_config_rejected(self):
        dist = make_counterexample(0.1)
        with pytest.raises(ValueError, match="max_iters"):
            pgd_minimizer(dist, UNHINGED, 1.0, PGDConfig(max_iters=0))
        with pytest.raises(ValueError, match="radius"):
            pgd_minimizer(dist, UNHINGED, -2.0)


SMOOTH = ("exponential", "mixed_linear_exponential", "logistic")
C1_LOSSES = SMOOTH + ("unhinged",)


def frank_wolfe_gap(dist, phi, v, r):
    """<grad P(v), v> + r ||grad P(v)||: an upper bound on P(v) - min over the ball."""
    g = (dist.weights * phi.deriv(dist.margins(v))) @ (dist.ys[:, None] * dist.xs)
    return float(g @ v + r * np.linalg.norm(g))


@pytest.mark.parametrize("cfg", [
    PGDConfig(max_iters=3000),
    PGDConfig(step=0.0, max_iters=20),
    PGDConfig(record_history=True, max_iters=3000),
    PGDConfig(step=5.0, max_iters=300, record_history=True),
], ids=["default-step", "zero-step", "history", "large-step"])
@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("source", ["counterexample", "random"])
def test_fit_matches_reference_loop_bit_for_bit(source, loss, cfg):
    """Fits at an explicit step equal the reference byte for byte.  At the
    default step a C1 loss backtracks instead, and must converge to an
    objective no worse in no more iterations; hinge is fit to a certified
    duality gap, and must converge to an objective no worse."""
    if source == "counterexample":
        dist = make_counterexample(0.05)
    else:
        dist = helpers.random_distribution(np.random.default_rng(7), max_dim=4,
                                           max_atoms=12)
    phi = make_loss(loss)
    fit = pgd_minimizer(dist, phi, 1.0, cfg)
    reference = reference_pgd(dist, phi, 1.0, cfg)
    if cfg.step is None and loss in C1_LOSSES:
        assert fit.converged
        assert fit.objective <= reference.objective + 1e-12
        assert fit.iterations <= reference.iterations
    elif cfg.step is None:
        assert fit.converged
        assert fit.gap <= cfg.tol
        assert fit.objective <= reference.objective + 1e-12
    else:
        assert fit_bytes(fit) == fit_bytes(reference)


def test_one_margin_evaluation_per_iterate(monkeypatch):
    # one margin vector per trial point: the start, plus every projected
    # trial, accepted or rejected
    calls, trials = [], []
    margins = DiscreteDistribution.margins

    def counted(self, v):
        calls.append(1)
        return margins(self, v)

    def projected(v, r):
        trials.append(1)
        return _project_ball(v, r)

    monkeypatch.setattr(DiscreteDistribution, "margins", counted)
    monkeypatch.setattr(minimizers, "_project_ball", projected)
    cases = [(make_counterexample(0.05), loss, 1.0) for loss in LOSS_NAMES]
    # the first trial puts atom 1 at margin -4.5, where exp(-z)'' = exp(-z)
    # is far above 1, so 1/lambda_max is rejected
    cases.append((DiscreteDistribution([[1.0], [-10.0]], [1, 1], [0.99, 0.01]),
                  "exponential", 1.0))
    for dist, loss, r in cases:
        calls.clear()
        trials.clear()
        fit = pgd_minimizer(dist, make_loss(loss), r, PGDConfig(max_iters=500))
        assert len(calls) == len(trials) + 1
        if loss == "hinge":
            assert len(trials) == fit.iterations
    assert len(trials) > fit.iterations


def test_backtracking_halves_to_an_accepted_step():
    # 1/lambda_max = 1/1.99 overshoots; every accepted step decreases P, up
    # to the few-ulp rounding slack of the test
    dist = DiscreteDistribution([[1.0], [-10.0]], [1, 1], [0.99, 0.01])
    fit = pgd_minimizer(dist, make_loss("exponential"), 1.0,
                        PGDConfig(record_history=True))
    assert fit.converged
    assert np.all(np.diff(np.array(fit.objective_history)) <= 1e-15)
    # P(v) = 0.99 e^-v + 0.01 e^10v is least at v = log(9.9)/11, inside the ball
    assert fit.weights.v[0] == pytest.approx(math.log(9.9) / 11, abs=1e-9)


def test_backtracking_stops_when_the_step_would_reach_zero():
    # a NaN objective fails every decrease test, so the step halves down to
    # the last subnormal; the fit must then stop instead of looping
    nan_loss = PotentialFunction("nan", lambda z: np.full_like(z, np.nan),
                                 lambda z: np.full_like(z, -1.0), RELAXED_ONLY)
    fit = pgd_minimizer(make_counterexample(0.05), nan_loss, 1.0)
    assert not fit.converged
    assert fit.iterations == 1
    assert fit.weights.v.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("loss", C1_LOSSES)
def test_default_step_certifies_frank_wolfe_gap(loss):
    phi = make_loss(loss)
    rng = np.random.default_rng(29)
    dists = [make_counterexample(g) for g in (0.05, 0.1, 0.2, 0.3)]
    dists += [helpers.random_distribution(rng) for _ in range(20)]
    for dist in dists:
        for fitted in (dist, corrupt_rcn(dist, 0.2)):
            fit = pgd_minimizer(fitted, phi, 1.0)
            assert fit.converged
            assert frank_wolfe_gap(fitted, phi, fit.weights.v, 1.0) <= 1e-8


@pytest.mark.parametrize("loss", SMOOTH)
def test_smooth_losses_converge_in_few_iterations(loss):
    # n=1e3, d=10 Gaussian features under a noisy halfspace; the fixed step
    # 0.1/(1 + E||x||^2) needed about 3,000 iterations here
    rng = np.random.default_rng(5)
    w = rng.standard_normal(10)
    xs = rng.standard_normal((1000, 10))
    ys = np.where(xs @ w + 0.5 * np.linalg.norm(w) * rng.standard_normal(1000) >= 0.0,
                  1, -1)
    weights = rng.uniform(0.5, 1.5, 1000)
    dist = DiscreteDistribution(xs, ys, weights / weights.sum())
    fit = pgd_minimizer(dist, make_loss(loss), 1.0)
    assert fit.converged
    assert fit.iterations < 200


@pytest.mark.parametrize("field, value", [
    ("step", math.nan), ("step", math.inf), ("step", -math.inf),
    ("tol", math.nan), ("tol", math.inf), ("tol", -1e-9),
])
def test_non_finite_settings_rejected(field, value):
    cfg = PGDConfig(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be .*{value!r}"):
        pgd_minimizer(make_counterexample(0.05), make_loss("logistic"), 1.0, cfg)


def test_backtracking_does_not_converge_where_the_step_underflows():
    # the value jumps from 1 to 2 at margin 0, so every trial step * m is
    # rejected until it underflows and the trial equals v = 0; the
    # Frank-Wolfe gap there is r ||m|| > 0, so the fit has not converged
    jump = PotentialFunction("jump", lambda z: np.where(z <= 0.0, 1.0, 2.0),
                             lambda z: np.full_like(z, -1.0), RELAXED_ONLY)
    fit = pgd_minimizer(make_counterexample(0.05), jump, 1.0)
    assert not fit.converged
    assert fit.weights.v.tolist() == [0.0, 0.0]


HINGE = make_loss("hinge")
TOL = PGDConfig().tol


def hinge_lower_bound(dist, v, r):
    """P(v) - <g, v> - r ||g|| for a subgradient g of the hinge objective at v:
    a lower bound on its minimum over the ball."""
    return expected_loss(dist, HINGE, v) - frank_wolfe_gap(dist, HINGE, v, r)


def gaussian_halfspace(seed, n=1000, d=10):
    """Gaussian features under a noisy halfspace, with random weights."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    xs = rng.standard_normal((n, d))
    ys = np.where(xs @ w + 0.5 * np.linalg.norm(w) * rng.standard_normal(n) >= 0.0,
                  1, -1)
    weights = rng.uniform(0.5, 1.5, n)
    return DiscreteDistribution(xs, ys, weights / weights.sum())


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.09016845961056069, 0.1, 0.2, 0.3])
def test_hinge_fit_is_the_closed_form_on_the_construction(gamma):
    # every margin at r m/||m|| is at most 1, so hinge equals unhinged there
    # and the dual point a = 1 certifies the closed form
    dist = make_counterexample(gamma)
    for fitted in (dist, corrupt_rcn(dist, 0.1), corrupt_rcn(dist, 0.3)):
        fit = pgd_minimizer(fitted, HINGE, 1.0)
        closed = unhinged_minimizer(fitted, 1.0)
        assert fit.weights.v.tobytes() == closed.weights.v.tobytes()
        assert fit.iterations == 0
        assert fit.converged and fit.gap <= TOL


def test_hinge_fit_certifies_against_the_subgradient_reference():
    # the reference is the 50,000-iteration fixed-step subgradient loop; the
    # certified objective must be no worse than its best iterate, and not
    # below the lower bound its subgradient gives
    rng = np.random.default_rng(29)
    dists = [make_counterexample(g) for g in (0.05, 0.1, 0.2, 0.3)]
    dists += [helpers.random_distribution(rng) for _ in range(20)]
    for dist in dists:
        for fitted in (dist, corrupt_rcn(dist, 0.2)):
            fit = pgd_minimizer(fitted, HINGE, 1.0)
            assert fit.converged and fit.gap <= TOL
            assert np.linalg.norm(fit.weights.v) <= 1.0 + 1e-12
            assert fit.objective == expected_loss(fitted, HINGE, fit.weights.v)
            reference = reference_pgd(fitted, HINGE, 1.0)
            assert fit.objective <= reference.objective + 1e-12
            assert fit.objective >= hinge_lower_bound(
                fitted, reference.weights.v, 1.0) - 1e-12


def test_hinge_dual_point_is_clipped_to_the_box():
    # D(a) bounds the optimum only for a in [0, 1]^n; multipliers outside
    # the box must be read as its nearest point
    dist = make_counterexample(0.05)
    w, yx = dist.weights, dist.ys[:, None] * dist.xs
    assert minimizers._hinge_dual(w, yx, 3.0 * w, 1.0) == minimizers._hinge_dual(w, yx, w, 1.0)
    assert minimizers._hinge_dual(w, yx, -w, 1.0) == 0.0


def test_hinge_fit_finds_an_interior_optimum():
    # one atom at x = 2: every v in [0.5, 1] has hinge value 0, and the
    # closed form v = 1 (margin 2) does not certify, since D(1) = -1
    dist = DiscreteDistribution([[2.0]], [1], [1.0])
    fit = pgd_minimizer(dist, HINGE, 1.0)
    assert fit.converged and fit.gap <= TOL
    assert fit.iterations > 0
    assert fit.objective == 0.0
    assert 0.5 <= fit.weights.v[0] < 1.0


@pytest.mark.parametrize("eta", [None, 0.2])
def test_hinge_fit_certifies_in_few_newton_steps(eta):
    # the fixed-step subgradient loop spent its whole 50,000-iteration
    # budget on such a fit without converging
    dist = gaussian_halfspace(5)
    fitted = dist if eta is None else corrupt_rcn(dist, eta)
    fit = pgd_minimizer(fitted, HINGE, 1.0)
    assert fit.converged and fit.gap <= TOL
    assert fit.iterations <= 50
    assert np.linalg.norm(fit.weights.v) < 1.0


def test_hinge_fit_out_of_budget_returns_the_best_iterate():
    dist = gaussian_halfspace(5)
    fit = pgd_minimizer(dist, HINGE, 1.0, PGDConfig(max_iters=3, record_history=True))
    assert not fit.converged
    assert fit.iterations == 3
    assert fit.gap > TOL
    assert np.linalg.norm(fit.weights.v) < 1.0
    assert len(fit.objective_history) == 4
    assert fit.objective == min(fit.objective_history)
    assert fit.objective == expected_loss(dist, HINGE, fit.weights.v)


@pytest.mark.parametrize("r", [1e6, 1e8, 1e12])
def test_hinge_fit_certifies_an_interior_optimum_in_a_large_ball(r):
    # the optimum 19/35 lies inside the ball; r times the rounding of
    # ||sum_i w_i a_i y_i x_i|| (about 1e-16) left the gap at 1.1e-8
    # (r = 1e8) and 1.1e-4 (r = 1e12), uncertified
    dist = DiscreteDistribution([[2.0, 1.0], [1.0, -3.0], [0.5, 0.5]], [1, -1, -1],
                                [0.3, 0.3, 0.4])
    fit = pgd_minimizer(dist, HINGE, r)
    assert fit.converged
    assert 0.0 <= fit.gap <= TOL
    assert fit.iterations <= 10
    assert abs(fit.objective - 19.0 / 35.0) <= TOL
    assert fit.objective == expected_loss(dist, HINGE, fit.weights.v)


def test_hinge_dual_drops_only_a_norm_within_its_rounding():
    dist = DiscreteDistribution([[1.0], [1.0 + 2**-52]], [1, -1], [0.5, 0.5])
    w, yx = dist.weights, dist.ys[:, None] * dist.xs
    # sum w y x = -2^-53 is within the rounding of its own sum
    assert minimizers._hinge_dual(w, yx, w, 1e12) == 1.0
    # a norm above that rounding is scaled by r as before
    assert minimizers._hinge_dual(w, yx, np.array([0.5, 0.0]), 2.0) == 0.5 - 2.0 * 0.5


def test_hinge_fit_stops_where_rounding_leaves_no_step():
    # a zero tolerance cannot be certified in floating point; the fit must
    # still stop, long before its budget, without a numpy warning
    fit = pgd_minimizer(gaussian_halfspace(5), HINGE, 1.0, PGDConfig(tol=0.0))
    assert fit.iterations <= 100
    assert fit.gap <= TOL
    assert fit.converged == (fit.gap <= 0.0)


def test_hinge_fit_sees_through_timing_wrappers():
    # a wrapper that records the function it wraps, as functools.wraps
    # does, keeps the certified fit; a look-alike value function does not
    def timed(fn):
        def wrapper(z):
            return fn(z)
        wrapper.__wrapped__ = fn
        return wrapper

    dist = gaussian_halfspace(5, n=50, d=3)
    wrapped = dataclasses.replace(HINGE, eval=timed(HINGE.eval))
    assert pgd_minimizer(dist, wrapped, 1.0).gap is not None
    look_alike = dataclasses.replace(HINGE, eval=lambda z: np.maximum(0.0, 1.0 - z))
    assert pgd_minimizer(dist, look_alike, 1.0, PGDConfig(max_iters=10)).gap is None
