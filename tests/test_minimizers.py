"""Closed-form and certified ball minimizers."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import LINEAR, zero_curvature
from potmin import (LOSS_NAMES, DiscreteDistribution, FitResult, LossOverflowError,
                    PotentialFunction, check_rcn_robustness, corrupt_rcn, expected_loss,
                    make_counterexample, make_loss, mean_label_feature, misclassification_error,
                    pgd_minimizer, unhinged_minimizer)
from potmin import minimizers
from potmin.distributions import _fold, _NoisyView

UNHINGED = make_loss("unhinged")


def timed(fn):
    """A timing-style wrapper, which sets no attribute."""
    def wrapper(z):
        return fn(z)
    return wrapper


def reference_pgd(dist, phi, r, step=None, max_iters=50_000, tol=1e-9):
    """The fixed-step projected (sub)gradient loop, independent of the
    library's fits: v <- proj(v - step g) from v = 0, at the step
    0.1 / (1 + E||x||^2) unless one is given, until
    ||v - proj(v - step g)|| / step (||g|| at a zero step) is at most tol.
    Returns the best iterate, its objective, and the objective at every
    iterate."""
    if step is None:
        step = 0.1 / (1.0 + float(dist.weights @ np.sum(dist.xs ** 2, axis=1)))
    yx = dist.ys[:, None] * dist.xs
    w = dist.weights
    v = np.zeros(dist.dimension)
    best_v, best_obj = v, float(w @ phi.eval(dist.margins(v)))
    history = [best_obj]
    for iterations in range(1, max_iters + 1):
        g = (w * phi.deriv(dist.margins(v))) @ yx
        candidate = v - step * g
        norm = float(np.linalg.norm(candidate))
        if norm > r:
            candidate = candidate * (r / norm)
        moved = float(np.linalg.norm(v - candidate)) / step if step > 0 else float(
            np.linalg.norm(g))
        v = candidate
        history.append(float(w @ phi.eval(dist.margins(v))))
        if history[-1] < best_obj:
            best_v, best_obj = v, history[-1]
        if moved <= tol:
            break
    return SimpleNamespace(v=best_v, objective=best_obj, iterations=iterations,
                           history=tuple(history))


def fit_with(dist, phi, r, **constants):
    """pgd_minimizer(dist, phi, r) with module names, such as the fits' step
    budget (``_MAX_ITERS``), certifying gap (``_TOL``) or interior-point step
    (``_mehrotra_step``), patched for the one call."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(minimizers, name, value)
        return pgd_minimizer(dist, phi, r)


def budget_objectives(dist, phi, r, iterations):
    """P(0), then the objectives of the fits at budgets 1, ..., iterations."""
    return [expected_loss(dist, phi, np.zeros(dist.dimension))] + [
        fit_with(dist, phi, r, _MAX_ITERS=k).objective for k in range(1, iterations + 1)]


def angle_between(a, b):
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def fit_at(v, r):
    """A FitResult holding v at radius r, for its own checks."""
    return FitResult(v, r, 0.0, 0, 0.0, "gap")


class TestFitResult:
    def test_ball_feasibility_enforced(self):
        assert not fit_at(np.array([3.0, 4.0]), 5.0).v.flags.writeable
        with pytest.raises(ValueError, match="exceeds"):
            fit_at(np.array([3.0, 4.0]), 4.9)

    def test_rounding_slack_scales_with_the_radius(self):
        # r m/||m|| at r = 1e8 has norm r (1 + eps), 1.5e-8 above r
        dist = DiscreteDistribution([[2.0, 1.0], [1.0, -3.0], [0.5, 0.5]], [1, -1, -1],
                                    [0.3, 0.3, 0.4])
        for r in (1e6, 1e8, 1e12):
            for fit in (unhinged_minimizer(dist, r),
                        pgd_minimizer(dist, make_loss("hinge"), r)):
                assert np.linalg.norm(fit.v) <= r * (1 + 1e-12)
        with pytest.raises(ValueError, match="exceeds"):
            fit_at(np.array([3.0, 4.0]), 5.0 - 1e-10)
        with pytest.raises(ValueError, match="exceeds"):
            fit_at(np.array([3e8, 4e8]), 5e8 - 1e-2)

    def test_norm_past_the_square_root_of_the_float_range(self):
        # ||v||^2 = 1e310 leaves float64; the norm is taken scaled by max |v_i|
        dist = DiscreteDistribution([[2.0, 1.0], [1.0, -3.0], [0.5, 0.5]], [1, -1, -1],
                                    [0.3, 0.3, 0.4])
        fit = unhinged_minimizer(dist, 1e155)
        m = mean_label_feature(dist)
        np.testing.assert_allclose(fit.v, 1e155 * m / np.linalg.norm(m), rtol=1e-15)
        assert fit.objective == 1.0 - 1e155 * float(np.linalg.norm(m))
        assert math.isfinite(fit.objective)
        fit_at(np.array([3e154, 4e154]), 5e154)
        with pytest.raises(ValueError, match="exceeds"):
            fit_at(np.array([3e154, 4e154]), 4.9e154)
        with pytest.raises(ValueError, match="exceeds"):
            fit_at(np.array([1e300, 1e300]), 1.0)

    @pytest.mark.parametrize("v, r, message", [
        ([np.nan, 0.0], 1.0, "v must be finite, got [nan, 0.0]"),
        ([np.inf, 0.0], 1.0, "v must be finite, got [inf, 0.0]"),
        ([np.inf, np.nan], 1.0, "v must be finite, got [inf, nan]"),
        ([np.nan, 0.0], 0.0, "v must be finite, got [nan, 0.0]"),
        ([1.7e308, 1.7e308], 1.0, "||v|| = inf exceeds radius bound 1.0"),
        ([[0.6, 0.8]], 1.0, "v must have shape (2,), got (1, 2)"),
        ([0.0], 0.0, "radius bound must be positive and finite, got 0.0"),
        ([0.0], -1.0, "radius bound must be positive and finite, got -1.0"),
        ([0.0], np.nan, "radius bound must be positive and finite, got nan"),
        ([0.0], np.inf, "radius bound must be positive and finite, got inf"),
    ])
    def test_bad_v_or_radius_rejected(self, v, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_at(v, r)

    def test_v_is_a_frozen_copy(self):
        v = np.array([0.6, 0.8])
        fit = fit_at(v, 1)
        v[0] = 5.0
        assert v.flags.writeable
        assert fit.v.tolist() == [0.6, 0.8]
        assert fit.r == 1.0 and type(fit.r) is float
        with pytest.raises(ValueError, match="read-only"):
            fit.v[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.v = v


class TestUnhingedMinimizer:
    def test_counterexample_fit(self):
        # oracle: m from the construction's closed form, normalized to the
        # unit sphere; objective cross-checked by the direct expectation
        gamma = 0.05
        dist = make_counterexample(gamma)
        fit = unhinged_minimizer(dist, 1.0)
        m = np.array([0.25 + 3 * gamma / 4, math.sqrt(1 - gamma ** 2) / 4 - gamma])
        np.testing.assert_allclose(fit.v, m / np.linalg.norm(m), atol=1e-14)
        assert fit.objective == pytest.approx(1.0 - np.linalg.norm(m), abs=1e-14)
        assert fit.objective == pytest.approx(
            expected_loss(dist, UNHINGED, fit.v), abs=1e-12)
        assert fit.converged and fit.iterations == 0
        assert not fit.degenerate_centroid

    def test_single_atom_on_larger_ball(self):
        dist = DiscreteDistribution([[1.0, 0.0, 0.0]], [1], [1.0])
        fit = unhinged_minimizer(dist, 2.0)
        assert fit.v.tolist() == [2.0, 0.0, 0.0]
        assert fit.objective == -1.0

    def test_noise_invariance_across_rates(self):
        dist = make_counterexample(0.13)
        clean = unhinged_minimizer(dist, 1.0)
        for eta in np.arange(0.05, 0.50, 0.05):
            noisy = unhinged_minimizer(corrupt_rcn(dist, float(eta)), 1.0)
            np.testing.assert_allclose(noisy.v, clean.v, atol=1e-12)

    def test_degenerate_centroid_flagged(self):
        dist = DiscreteDistribution([[1.0], [1.0]], [1, -1], [0.5, 0.5])
        fit = unhinged_minimizer(dist, 3.0)
        assert fit.degenerate_centroid
        assert fit.v.tolist() == [0.0]
        assert fit.objective == 1.0

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_bad_radius_rejected(self, r):
        with pytest.raises(ValueError, match="radius"):
            unhinged_minimizer(make_counterexample(0.1), r)

    def test_result_serialization(self):
        fit = unhinged_minimizer(make_counterexample(0.05), 2.0)
        data = fit.to_dict()
        assert set(data) == {"v", "r", "objective", "iterations", "converged",
                             "degenerate_centroid", "gap", "stop_reason"}
        assert data["gap"] == 0.0
        assert data["stop_reason"] == "closed-form"
        assert data["r"] == 2.0

    @pytest.mark.parametrize("reason, converged", [
        ("closed-form", True), ("gap", True), ("budget", False), ("no-decrease", False),
        ("rounding", False)])
    def test_converged_follows_stop_reason(self, reason, converged):
        # certified exactly when the fit is a closed form or stopped on its gap
        fit = FitResult([0.6, 0.8], 1.0, 0.25, 3, 1e-3, reason)
        assert fit.converged is converged
        assert fit.to_dict()["converged"] is converged

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
            assert np.linalg.norm(fit.v) <= r + 1e-12


class TestPgdMinimizer:
    def test_matches_closed_form_on_counterexample(self):
        dist = make_counterexample(0.05)
        oracle = unhinged_minimizer(dist, 1.0)
        fit = pgd_minimizer(dist, UNHINGED, 1.0)
        assert fit.converged
        assert abs(fit.objective - oracle.objective) <= 1e-6
        assert angle_between(fit.v, oracle.v) <= 1e-4

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dist = helpers.random_distribution(rng, min_centroid_norm=0.05)
            oracle = unhinged_minimizer(dist, 1.0)
            fit = pgd_minimizer(dist, UNHINGED, 1.0)
            assert abs(fit.objective - oracle.objective) <= 1e-6
            assert angle_between(fit.v, oracle.v) <= 1e-4

    def test_exponential_single_atom_pushes_to_boundary(self):
        dist = DiscreteDistribution([[1.0, 0.0]], [1], [1.0])
        fit = pgd_minimizer(dist, make_loss("exponential"), 1.0)
        np.testing.assert_allclose(fit.v, [1.0, 0.0], atol=1e-6)
        assert fit.objective == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_hinge_subgradient_path(self):
        # the kink subgradient (-1 at margin 1) certifies the boundary point
        # of a separable atom: its Frank-Wolfe gap there is 0
        dist = DiscreteDistribution([[1.0]], [1], [1.0])
        fit = pgd_minimizer(dist, make_loss("hinge"), 1.0)
        assert fit.converged
        assert fit.v.tolist() == [1.0]
        assert fit.objective == 0.0
        assert frank_wolfe_gap(dist, make_loss("hinge"), fit.v, 1.0) == 0.0

    def test_converged_respects_tolerance_contract(self):
        fit = pgd_minimizer(make_counterexample(0.2), LINEAR, 1.0)
        assert fit.converged and fit.stop_reason == "gap"
        assert fit.gap <= minimizers._TOL

    def test_monotone_descent_below_curvature_bound(self):
        # each Newton step passes a sufficient-decrease test on the segment
        # to its curvature model's minimizer, so the fits at budgets
        # 1, 2, ... descend, up to a few ulps of P
        dist = make_counterexample(0.3)
        phi = make_loss("exponential")
        fit = pgd_minimizer(dist, phi, 1.0)
        objectives = budget_objectives(dist, phi, 1.0, fit.iterations)
        assert fit.iterations >= 2
        assert np.all(np.diff(objectives) <= 1e-12)
        assert objectives[-1] == fit.objective

    def test_best_iterate_contract_with_large_step(self):
        # at r = 100 the first model steps reach far out; at every budget
        # the fit returns a point no worse than v = 0 and no better than
        # the certified optimum, with the objective of the point returned
        dist = make_counterexample(0.1)
        phi = make_loss("exponential")
        calm = pgd_minimizer(dist, phi, 100.0)
        for k in range(1, calm.iterations + 1):
            wild = fit_with(dist, phi, 100.0, _MAX_ITERS=k)
            assert wild.objective == expected_loss(dist, phi, wild.v)
            assert wild.objective <= expected_loss(dist, phi, np.zeros(2))
            assert wild.objective >= calm.objective - calm.gap

    def test_overflow_reports_offending_atom(self):
        # at v = -1000 atom 0's slope exp(1000) leaves float64
        dist = DiscreteDistribution([[1.0], [-2.0]], [1, 1], [0.5, 0.5])
        v = np.array([-1000.0])
        with pytest.raises(LossOverflowError) as err:
            minimizers._row_sum(make_loss("exponential"), dist, dist.margins(v), False)
        assert err.value.atom_index == 0
        assert err.value.z == -1000.0

    def test_gradient_overflow_names_the_overflowing_term(self):
        # at v_1 = 7e-8 the margins are -700 and 1400; exp(-1400) is 0, so
        # only atom 0's term 0.1 * exp(700) * 1e10 leaves float64
        dist = DiscreteDistribution([[-1e10], [2e10]], [1, 1], [0.1, 0.9])
        v = np.array([7e-8])
        with pytest.raises(LossOverflowError) as err:
            minimizers._row_sum(make_loss("exponential"), dist, dist.margins(v), False)
        assert err.value.atom_index == 0
        assert err.value.z == -700.0
        assert err.value.atom == ([-1e10], 1)

    def test_fit_where_the_curvature_squares_past_float64(self):
        # atom 1's curvature term 0.5 phi''(0) x x^T = 0.5e320 left float64
        # at v = 0; the fit runs on x 2^-e, whose squares stay finite
        dist = DiscreteDistribution([[1.0], [1e160]], [1, -1], [0.5, 0.5])
        phi = make_loss("logistic")
        for fitted in (dist, _NoisyView(dist, 0.2)):
            fit = pgd_minimizer(fitted, phi, 1.0)
            assert fit.stop_reason == "gap" and 0.0 <= fit.gap <= TOL
            assert fit.objective == expected_loss(fitted, phi, fit.v)

    def test_overflow_in_a_rescaled_fit_names_the_atom_as_given(self):
        # the fit sees x 2^-e; a curvature that overflows at margin 0
        # names atom 0 with the x it was given, not the scaled one
        def curv(z):
            if np.any(z == 0.0):
                raise LossOverflowError("steep", 0.0)
            return np.exp(-z)

        phi = PotentialFunction("steep", lambda z: np.exp(-z), lambda z: -np.exp(-z), curv)
        dist = DiscreteDistribution([[3e100, 0.0], [0.0, 1e300]], [1, -1], [0.5, 0.5])
        for fitted in (dist, _NoisyView(dist, 0.2)):
            with pytest.raises(LossOverflowError) as err:
                pgd_minimizer(fitted, phi, 1.0)
            assert err.value.atom_index == 0
            assert err.value.atom == ([3e100, 0.0], 1)
            assert err.value.z == 0.0

    def test_curvature_overflow_names_the_larger_of_an_atoms_rows(self):
        # at v = 1e-160 atom 1's margin is 1; its flipped row's term
        # 0.2 * 0.5 * exp(1) outweighs its own row's 0.8 * 0.5 * exp(-1),
        # and their sum times x^2 = 1e320 leaves float64
        dist = DiscreteDistribution([[1.0], [1e160]], [1, 1], [0.5, 0.5])
        view = _NoisyView(dist, 0.2)
        with pytest.raises(LossOverflowError) as err:
            minimizers._row_sum(make_loss("exponential"), view,
                                view.margins(np.array([1e-160])), True)
        assert err.value.atom_index == 1
        assert err.value.atom == ([1e160], -1)
        assert err.value.z == -1.0

    def test_curvature_overflow_skips_an_atom_that_adds_nothing(self):
        # at v = (1e-197, 1e-201) the margins are 1000 and 0.1: atom 0's
        # phi''(1000) is 0, so only atom 1's term 0.5 phi''(0.1) 1e400
        # leaves float64; ranked by c_i ||x_i||^2, atom 0's 0 * inf is NaN
        dist = DiscreteDistribution([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])
        with pytest.raises(LossOverflowError) as err:
            minimizers._row_sum(make_loss("logistic"), dist,
                                dist.margins(np.array([1e-197, 1e-201])), True)
        assert err.value.atom_index == 1
        assert err.value.atom == ([0.0, 1e200], 1)
        assert err.value.z == pytest.approx(0.1, rel=1e-15)

    def test_ball_feasibility_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dist = helpers.random_distribution(rng)
            for phi_name in ("unhinged", "logistic"):
                fit = fit_with(dist, make_loss(phi_name), 0.7, _MAX_ITERS=2000)
                assert np.linalg.norm(fit.v) <= 0.7 + 1e-12

    def test_bad_config_rejected(self):
        dist = make_counterexample(0.1)
        with pytest.raises(ValueError, match="radius"):
            pgd_minimizer(dist, UNHINGED, -2.0)


SMOOTH = ("exponential", "mixed_linear_exponential", "logistic")
C1_LOSSES = SMOOTH + ("unhinged",)


@settings(max_examples=100, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas, seed=st.integers(0, 2**16))
def test_row_sum_matches_the_signed_row_forms_bit_for_bit(dist, eta, seed):
    # g and H are formed on the atoms x; as y = +-1, c_i y_i x_ij rounds
    # the same either way, so both keep the bits of the forms over y x.
    # The second value is each atom's sum of |row|, the bound on c_i (c for H)
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, dist.dimension)
    yx = dist.ys[:, None] * dist.xs
    for fitted in (dist, _NoisyView(dist, eta)):
        m = fitted.margins(v)
        unsigned = [1.0] * len(fitted.row_signs)
        for name in LOSS_NAMES:
            phi = make_loss(name)
            rows = fitted.weights * phi.deriv(m)
            slopes = _fold(rows, fitted.row_signs)
            g, mass = minimizers._row_sum(phi, fitted, m, False)
            assert mass.tobytes() == _fold(np.abs(rows), unsigned).tobytes()
            assert g.tobytes() == (slopes @ yx).tobytes()
            if fitted is dist:
                assert mass.tobytes() == np.abs(slopes).tobytes()
            if phi.curv is not None:
                rows = fitted.weights * phi.curv(m)
                curv = _fold(rows, unsigned)
                h, mass = minimizers._row_sum(phi, fitted, m, True)
                assert mass.tobytes() == curv.tobytes()
                assert h.tobytes() == ((yx * curv[:, None]).T @ yx).tobytes()


def frank_wolfe_gap(dist, phi, v, r):
    """<grad P(v), v> + r ||grad P(v)||: an upper bound on P(v) - min over the ball."""
    g = (dist.weights * phi.deriv(dist.margins(v))) @ (dist.ys[:, None] * dist.xs)
    return float(g @ v + r * np.linalg.norm(g))


@pytest.mark.parametrize("setting", ["default-step", "zero-step", "history", "large-step"])
@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("source", ["counterexample", "random"])
def test_fit_matches_reference_loop_bit_for_bit(source, loss, setting):
    """Every fit certifies its gap, and its objective is bit for bit the
    expected loss at its v.  It is no worse than the best iterate of the
    fixed-step reference loop at the loop's default, zero or large step;
    with "history", the fits at budgets 1, 2, ... descend to it.  The
    unhinged loss runs as the Newton stand-in LINEAR."""
    if source == "counterexample":
        dist = make_counterexample(0.05)
    else:
        dist = helpers.random_distribution(np.random.default_rng(7), max_dim=4,
                                           max_atoms=12)
    phi = LINEAR if loss == "unhinged" else make_loss(loss)
    fit = fit_with(dist, phi, 1.0, _MAX_ITERS=3000)
    assert fit.converged and fit.stop_reason == "gap" and fit.gap <= minimizers._TOL
    assert fit.objective == expected_loss(dist, phi, fit.v)
    if setting == "history":
        objectives = budget_objectives(dist, phi, 1.0, fit.iterations) + [fit.objective]
        assert np.all(np.diff(objectives) <= 1e-12)
        assert fit.iterations == 0 or objectives[-2] == fit.objective
        return
    step, max_iters = {"default-step": (None, 3000), "zero-step": (0.0, 20),
                       "large-step": (5.0, 300)}[setting]
    reference = reference_pgd(dist, phi, 1.0, step, max_iters)
    assert fit.objective <= reference.objective + 1e-12
    if step == 0.0:
        assert reference.v.tolist() == [0.0] * dist.dimension


def test_one_margin_evaluation_per_iterate(monkeypatch):
    # one margin vector per point whose value is taken, on every route:
    # the start and every trial, accepted or rejected
    calls, evals = [], []
    margins = DiscreteDistribution.margins

    def counted(self, v):
        calls.append(1)
        return margins(self, v)

    def timed(fn):
        def wrapper(z):
            evals.append(1)
            return fn(z)
        return wrapper

    monkeypatch.setattr(DiscreteDistribution, "margins", counted)
    cases = [(make_counterexample(0.05), loss) for loss in SMOOTH + ("hinge", "linear")]
    # the interior-point hinge fit, past the closed form
    cases.append((gaussian_halfspace(5, n=50, d=3), "hinge"))
    # the first Newton trial puts atom 1 at margin -4.5 and is rejected
    rejected = (DiscreteDistribution([[1.0], [-10.0]], [1, 1], [0.99, 0.01]), "exponential")
    cases.append(rejected)
    for dist, loss in cases:
        calls.clear()
        evals.clear()
        phi = LINEAR if loss == "linear" else make_loss(loss)
        fit = pgd_minimizer(dist, dataclasses.replace(phi, eval=timed(phi.eval)), 1.0)
        assert fit.stop_reason == "gap"
        assert len(calls) == len(evals) >= fit.iterations + 1
    assert len(calls) > fit.iterations + 1


def test_backtracking_halves_to_an_accepted_step():
    # the full Newton step overshoots; the line search halves it until
    # the trial passes, so every accepted step decreases P, up to the
    # few-ulp rounding slack of the test
    dist = DiscreteDistribution([[1.0], [-10.0]], [1, 1], [0.99, 0.01])
    phi = make_loss("exponential")
    fit = pgd_minimizer(dist, phi, 1.0)
    assert fit.converged and fit.stop_reason == "gap"
    assert np.all(np.diff(budget_objectives(dist, phi, 1.0, fit.iterations)) <= 1e-15)
    # P(v) = 0.99 e^-v + 0.01 e^10v is least at v = log(9.9)/11, inside the ball
    assert fit.v[0] == pytest.approx(math.log(9.9) / 11, abs=1e-9)


def test_backtracking_stops_when_the_step_would_reach_zero():
    # a NaN objective fails every decrease test, so t halves until t d
    # underflows; the fit must then stop instead of looping
    nan_loss = PotentialFunction("nan", lambda z: np.full_like(z, np.nan),
                                 lambda z: np.full_like(z, -1.0), zero_curvature)
    fit = pgd_minimizer(make_counterexample(0.05), nan_loss, 1.0)
    assert not fit.converged and fit.stop_reason == "no-decrease"
    assert fit.iterations == 1
    assert fit.v.tolist() == [0.0, 0.0]


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
            assert frank_wolfe_gap(fitted, phi, fit.v, 1.0) <= 1e-8


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


def test_backtracking_does_not_converge_where_the_step_underflows():
    # the value jumps from 1 to 2 at margin 0, so every trial t d with
    # d = r m/||m|| is rejected until it underflows and the trial equals
    # v = 0; the Frank-Wolfe gap there is r ||m|| > 0, so the fit has not
    # converged
    jump = PotentialFunction("jump", lambda z: np.where(z <= 0.0, 1.0, 2.0),
                             lambda z: np.full_like(z, -1.0), zero_curvature)
    fit = pgd_minimizer(make_counterexample(0.05), jump, 1.0)
    assert not fit.converged and fit.stop_reason == "no-decrease"
    assert fit.gap == pytest.approx(np.linalg.norm(mean_label_feature(make_counterexample(0.05))),
                                    rel=1e-15)
    assert fit.v.tolist() == [0.0, 0.0]


def test_a_loss_without_a_certified_fit_is_named():
    # a loss with no curvature that declares no fit has none, nor does one
    # that declares Newton without a curvature, or a fit that does not exist
    for declared in ({}, {"fit": "newton"}, {"fit": "gradient"},
                     {"fit": "gradient", "curv": zero_curvature}):
        softplus = PotentialFunction("softplus", lambda z: np.logaddexp(0.0, -z),
                                     lambda z: -1.0 / (1.0 + np.exp(z)), **declared)
        with pytest.raises(ValueError, match="loss 'softplus' has no certified fit"):
            pgd_minimizer(make_counterexample(0.05), softplus, 1.0)


HINGE = make_loss("hinge")
TOL = minimizers._TOL


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
        assert fit.v.tobytes() == closed.v.tobytes()
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
            assert np.linalg.norm(fit.v) <= 1.0 + 1e-12
            assert fit.objective == expected_loss(fitted, HINGE, fit.v)
            reference = reference_pgd(fitted, HINGE, 1.0)
            assert fit.objective <= reference.objective + 1e-12
            assert fit.objective >= hinge_lower_bound(fitted, reference.v, 1.0) - 1e-12


def test_hinge_dual_point_is_clipped_to_the_box():
    # D(a) bounds the optimum only for a in [0, 1]^n; multipliers outside
    # the box must be read as its nearest point
    dist = make_counterexample(0.05)
    w, yx = dist.weights, dist.ys[:, None] * dist.xs
    abs_yx = np.abs(yx)
    assert minimizers._hinge_dual(w, yx, abs_yx, 3.0 * w, 1.0) == (
        minimizers._hinge_dual(w, yx, abs_yx, w, 1.0))
    assert minimizers._hinge_dual(w, yx, abs_yx, -w, 1.0) == 0.0


def test_hinge_fit_finds_an_interior_optimum():
    # one atom at x = 2: every v in [0.5, 1] has hinge value 0, and the
    # closed form v = 1 (margin 2) does not certify, since D(1) = -1
    dist = DiscreteDistribution([[2.0]], [1], [1.0])
    fit = pgd_minimizer(dist, HINGE, 1.0)
    assert fit.converged and fit.gap <= TOL
    assert fit.iterations > 0
    assert fit.objective == 0.0
    assert 0.5 <= fit.v[0] < 1.0


@pytest.mark.parametrize("eta", [None, 0.2])
def test_hinge_fit_certifies_in_few_newton_steps(eta):
    # the fixed-step subgradient loop spent its whole 50,000-iteration
    # budget on such a fit without converging
    dist = gaussian_halfspace(5)
    fitted = dist if eta is None else corrupt_rcn(dist, eta)
    fit = pgd_minimizer(fitted, HINGE, 1.0)
    assert fit.converged and fit.gap <= TOL
    assert fit.iterations <= 50
    assert np.linalg.norm(fit.v) < 1.0


def test_hinge_fit_out_of_budget_returns_the_best_iterate():
    dist = gaussian_halfspace(5)
    fit = fit_with(dist, HINGE, 1.0, _MAX_ITERS=3)
    assert not fit.converged and fit.stop_reason == "budget"
    assert fit.iterations == 3
    assert fit.gap > TOL
    assert np.linalg.norm(fit.v) < 1.0
    # the best of the start and the first three iterates
    assert fit.objective == min(budget_objectives(dist, HINGE, 1.0, 3))
    assert fit.objective == expected_loss(dist, HINGE, fit.v)


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
    assert fit.objective == expected_loss(dist, HINGE, fit.v)


@pytest.mark.parametrize("r", [1e155, 1e300, 1e308])
def test_hinge_fit_certifies_where_r_squared_overflows(r):
    # r * r is inf beyond sqrt(float max) ~ 1.34e154: the centred start
    # and the ball slack were 0 and inf, and r = 1e155 spent all 50,000
    # steps at v = 0 (gap 5.0e154); the steps now run on a finite ball.
    # Past r max|x| ~ 2^1022 no split of the scale between x and r squares
    # finitely, so the steps keep to that ball there too
    for scale in (1.0, 1e9):
        dist = DiscreteDistribution(scale * np.array([[2.0, 1.0], [1.0, -3.0], [0.5, 0.5]]),
                                    [1, -1, -1], [0.3, 0.3, 0.4])
        fit = pgd_minimizer(dist, HINGE, r)
        assert fit.converged
        assert 0.0 <= fit.gap <= TOL
        assert fit.iterations <= 10
        assert abs(fit.objective - pgd_minimizer(dist, HINGE, 1e12).objective) <= TOL
        assert fit.r == r


@pytest.mark.parametrize("r", [1e50, 1e100, 1e300])
def test_hinge_fit_certifies_the_separable_construction_at_a_huge_radius(r):
    # the hinge optimum of separable data is 0, which the dual point a = 0
    # certifies; starting from the interior point's first multipliers the
    # best bound stayed below 0 and the fit stopped on rounding (gap 4.9e43
    # at r = 1e100)
    fit = pgd_minimizer(make_counterexample(0.05), HINGE, r)
    assert fit.stop_reason == "gap" and fit.converged
    assert fit.gap == 0.0 and fit.objective == 0.0
    assert fit.iterations <= 3


def test_hinge_dual_drops_only_a_norm_within_its_rounding():
    dist = DiscreteDistribution([[1.0], [1.0 + 2**-52]], [1, -1], [0.5, 0.5])
    w, yx = dist.weights, dist.ys[:, None] * dist.xs
    # sum w y x = -2^-53 is within the rounding of its own sum
    assert minimizers._hinge_dual(w, yx, np.abs(yx), w, 1e12) == 1.0
    # a norm above that rounding is scaled by r as before
    assert minimizers._hinge_dual(w, yx, np.abs(yx), np.array([0.5, 0.0]), 2.0) == (
        0.5 - 2.0 * 0.5)


def test_hinge_fit_where_the_dual_sum_squares_overflow():
    # ||sum_i w_i y_i x_i||^2 leaves float64 but the norm does not; taken
    # squared, the norm would be inf, within its own rounding bound inf,
    # and D(1) = 1 would rise above the closed form's hinge value 0
    dist = DiscreteDistribution([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])
    w = dist.weights
    yx = minimizers._signed_rows(dist)
    bound = minimizers._hinge_dual(w, yx, np.abs(yx), w, 1.0)
    assert bound == pytest.approx(1.0 - math.hypot(5e199, 5e199), rel=1e-15)
    assert bound <= expected_loss(dist, HINGE, unhinged_minimizer(dist, 1.0).v)
    for fitted in (dist, _NoisyView(dist, 0.2)):
        fit = pgd_minimizer(fitted, HINGE, 1.0)
        assert fit.gap >= 0.0
        assert fit.objective == expected_loss(fitted, HINGE, fit.v)


def test_newton_fit_where_the_model_norms_square_past_float64():
    # at v = 0 the mixed loss has H = 0 and g = -(5e199, 5e199), whose
    # squared norm leaves float64; taken squared, the model's ||beta|| was
    # inf and the fit stopped at v = 0 with error 1
    dist = DiscreteDistribution([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])
    phi = make_loss("mixed_linear_exponential")
    fit = pgd_minimizer(dist, phi, 1.0)
    assert fit.stop_reason == "gap" and fit.gap == 0.0 and fit.iterations == 1
    assert fit.objective == expected_loss(dist, phi, fit.v) == 0.0
    assert misclassification_error(dist, fit.v) == 0.0


def test_hinge_fit_stops_where_rounding_leaves_no_step():
    # a zero tolerance cannot be certified in floating point; the fit must
    # still stop, long before its budget, without a numpy warning
    fit = fit_with(gaussian_halfspace(5), HINGE, 1.0, _TOL=0.0)
    assert fit.iterations <= 100
    assert fit.gap <= TOL
    assert fit.converged == (fit.gap <= 0.0)


def test_hinge_fit_sees_through_timing_wrappers():
    # the fit is declared, so dataclasses.replace keeps it through a
    # wrapper; the same functions in a record that declares no fit have none
    dist = gaussian_halfspace(5, n=50, d=3)
    wrapped = dataclasses.replace(HINGE, eval=timed(HINGE.eval))
    assert pgd_minimizer(dist, wrapped, 1.0).stop_reason == "gap"
    undeclared = PotentialFunction("hinge", HINGE.eval, HINGE.deriv)
    with pytest.raises(ValueError, match="loss 'hinge' has no certified fit"):
        pgd_minimizer(dist, undeclared, 1.0)


# The interior-point step as it was before its four ratio tests per direction
# became one over the stacked slacks and multipliers, kept verbatim (without
# its comments, and with the module prefix) as the reference the production
# step must match bit for bit.
def reference_to_boundary(x, dx):
    """The largest alpha with x + alpha dx >= 0, for x > 0 (inf if dx >= 0)."""
    shrink = dx < 0.0
    return float(np.min(-x[shrink] / dx[shrink])) if shrink.any() else math.inf


def reference_mehrotra_step(w, yx, r, v, margins, t, lam1, lam2, lam3):
    n = w.size
    s1, s2, s3 = t, t - 1.0 + margins, (r * r - float(v @ v)) / 2.0
    res_t = w - lam1 - lam2
    res_v = lam3 * v - lam2 @ yx
    d1, d2, d3 = lam1 / s1, lam2 / s2, lam3 / s3
    e = d1 * d2 / (d1 + d2)
    system = (yx * e[:, None]).T @ yx + d3 * np.outer(v, v)
    system[np.diag_indices_from(system)] += (
        lam3 + np.finfo(float).eps * np.trace(system) * v.size)
    chol = np.linalg.cholesky(system)

    def newton(c1, c2, c3):
        q1, q2, q3 = c1 / s1, c2 / s2, c3 / s3
        h = d2 * (res_t + q1 + q2) / (d1 + d2) - q2
        dv = np.linalg.solve(chol.T, np.linalg.solve(chol, h @ yx - res_v + q3 * v))
        adv = yx @ dv
        dt = -(res_t + q1 + q2 + d2 * adv) / (d1 + d2)
        return (dv, dt, adv + dt, -float(v @ dv),
                -d1 * dt - q1, -d2 * (adv + dt) - q2, d3 * float(v @ dv) - q3)

    def longest(dv, ds1, ds2, ds3, dl1, dl2, dl3):
        return min(reference_to_boundary(s1, ds1), reference_to_boundary(s2, ds2),
                   minimizers._to_ball(s3, v, dv),
                   reference_to_boundary(lam1, dl1), reference_to_boundary(lam2, dl2),
                   -lam3 / dl3 if dl3 < 0.0 else math.inf)

    mu = (s1 @ lam1 + s2 @ lam2 + s3 * lam3) / (2 * n + 1)
    aff = newton(s1 * lam1, s2 * lam2, s3 * lam3)
    _, ds1, ds2, ds3, dl1, dl2, dl3 = aff
    alpha = min(1.0, longest(*aff))
    mu_aff = ((s1 + alpha * ds1) @ (lam1 + alpha * dl1)
              + (s2 + alpha * ds2) @ (lam2 + alpha * dl2)
              + (s3 + alpha * ds3) * (lam3 + alpha * dl3)) / (2 * n + 1)
    sigma_mu = (mu_aff / mu) ** 3 * mu
    dv, dt, _, _, dl1, dl2, dl3 = step = newton(s1 * lam1 + ds1 * dl1 - sigma_mu,
                                               s2 * lam2 + ds2 * dl2 - sigma_mu,
                                               s3 * lam3 + ds3 * dl3 - sigma_mu)
    alpha = min(1.0, max(minimizers._STEP_TO_BOUNDARY, 1.0 - math.sqrt(mu)) * longest(*step))
    if not alpha > 0.0:
        raise FloatingPointError("no interior step is left")
    return (v + alpha * dv, t + alpha * dt, lam1 + alpha * dl1, lam2 + alpha * dl2,
            lam3 + alpha * dl3)


# the two-atom input on which the interior point crawls: 20,503 steps at
# r = 1 and the whole step budget at r = 3
HINGE_CRAWL = DiscreteDistribution(
    [[1.5491953451260017, 0.16161311554684987], [1.141428018619627, 1.7124933912561192e-130]],
    [1, -1], [0.769606746207959, 0.23039325379204112])


def test_hinge_step_keeps_the_reference_bits():
    # every fit under a budget of 2,000 steps, which the crawl spends at
    # r = 1 and r = 3, and so does one of the random draws
    rng = np.random.default_rng(32)
    dists = [helpers.random_distribution(rng) for _ in range(20)] + [gaussian_halfspace(5)]
    fitted = [view for dist in dists for view in (dist, _NoisyView(dist, 0.2))]
    steps = 0
    for view in fitted + [HINGE_CRAWL]:
        for r in (0.5, 1.0, 3.0, 100.0):
            fit = fit_with(view, HINGE, r, _MAX_ITERS=2000)
            ref = fit_with(view, HINGE, r, _MAX_ITERS=2000,
                           _mehrotra_step=reference_mehrotra_step)
            assert fit.v.tobytes() == ref.v.tobytes()
            assert (fit.objective, fit.iterations, fit.gap, fit.stop_reason) == (
                ref.objective, ref.iterations, ref.gap, ref.stop_reason)
            steps += fit.iterations
    assert steps > 6000


def test_to_boundary_is_the_masked_ratio_test():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 64, 1001):
        for _ in range(20):
            x = rng.uniform(1e-3, 2.0, n) * 10.0 ** rng.integers(-30, 30, n)
            dx = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
            dx[rng.random(n) < 0.3] = 0.0
            got = minimizers._to_boundary(x, dx)
            assert np.float64(got).tobytes() == np.float64(reference_to_boundary(x, dx)).tobytes()
    # no entry of dx is negative: -0.0 is not, nor is an all-zero dx
    x = np.array([1.0, 2.0, 3.0])
    for dx in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 1.0, 0.0], [1.0, 2.0, 3.0]):
        assert minimizers._to_boundary(x, np.array(dx)) == math.inf
        assert reference_to_boundary(x, np.array(dx)) == math.inf


@pytest.mark.parametrize("x, dx, raises", [
    ([1.0], [-1e-320], True),                       # the quotient overflows
    ([1.0, 1.0], [-1.0, -1e-320], True),
    ([1.0, 0.0, 1.0], [-1.0, 0.0, 1e-320], False),  # unmasked: 0 / 0 and an overflow
    ([1.0, 1.0], [-0.0, -2.0], False),              # unmasked: a divide by -0.0
    ([0.0, 5.0], [-0.0, 0.0], False),
])
def test_to_boundary_raises_exactly_where_the_masked_form_raises(x, dx, raises):
    x, dx = np.array(x), np.array(dx)

    def outcome(fn):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                return np.float64(fn(x, dx)).tobytes()
            except FloatingPointError as error:
                return str(error)

    got = outcome(minimizers._to_boundary)
    assert got == outcome(reference_to_boundary)
    assert (got == "overflow encountered in divide") == raises


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_every_declared_fit_survives_plain_wrappers(loss):
    # the benchmark tracer's pattern: dataclasses.replace with wrappers that
    # set no attribute keeps the declared fit, and logistic's value taken
    # once per atom of a view of _PER_ATOM_MIN atoms or more, bit for bit
    phi = make_loss(loss)
    sizes = []

    def plain(fn, seen):
        def wrapper(z):
            seen.append(np.size(z))
            return fn(z)
        return wrapper

    rebuilt = dataclasses.replace(phi, eval=plain(phi.eval, sizes), deriv=plain(phi.deriv, []))
    dist = make_counterexample(0.05)
    large = _NoisyView(gaussian_halfspace(5, n=minimizers._PER_ATOM_MIN), 0.2)
    for fitted in (dist, _NoisyView(dist, 0.2)) + ((large,) if loss == "logistic" else ()):
        sizes.clear()
        fit, got = pgd_minimizer(fitted, phi, 1.0), pgd_minimizer(fitted, rebuilt, 1.0)
        assert got.v.tobytes() == fit.v.tobytes()
        assert (got.iterations, got.gap, got.stop_reason) == (
            fit.iterations, fit.gap, fit.stop_reason)
    if loss == "logistic":
        assert set(sizes) == {large.clean.n_atoms}  # one value per atom, not per row


# PGD's best iterate for the logistic fit of make_counterexample(0.05) at
# r = 100: it spent its 50,000-iteration budget without converging
PGD_LOGISTIC_R100_OBJECTIVE = 5.29e-4


@pytest.mark.parametrize("loss", SMOOTH)
def test_newton_fit_certifies_the_construction_at_a_large_radius(loss):
    # separable data and a large ball: the regime where PGD crawls
    dist = make_counterexample(0.05)
    phi = make_loss(loss)
    fit = pgd_minimizer(dist, phi, 100.0)
    assert fit.converged and fit.stop_reason == "gap"
    assert fit.gap <= TOL
    assert frank_wolfe_gap(dist, phi, fit.v, 100.0) <= TOL
    assert fit.iterations <= 20
    assert fit.objective == expected_loss(dist, phi, fit.v)
    if loss == "logistic":
        assert fit.objective < PGD_LOGISTIC_R100_OBJECTIVE


@pytest.mark.parametrize("loss", SMOOTH)
def test_newton_fit_on_the_noise_view_matches_the_materialized_noise(loss):
    # the view folds each atom's two curvature rows into one; the
    # materialized corrupt_rcn distribution has them as separate atoms
    phi = make_loss(loss)
    rng = np.random.default_rng(31)
    dists = [make_counterexample(0.05)] + [helpers.random_distribution(rng) for _ in range(4)]
    for dist in dists:
        view, noisy = _NoisyView(dist, 0.2), corrupt_rcn(dist, 0.2)
        v = rng.normal(size=dist.dimension)
        np.testing.assert_allclose(
            minimizers._row_sum(phi, view, view.margins(v), True)[0],
            minimizers._row_sum(phi, noisy, noisy.margins(v), True)[0], rtol=1e-13, atol=1e-15)
        for r in (1.0, 10.0):
            fit, reference = pgd_minimizer(view, phi, r), pgd_minimizer(noisy, phi, r)
            assert fit.stop_reason == reference.stop_reason == "gap"
            assert fit.iterations == reference.iterations
            assert abs(fit.objective - reference.objective) <= 1e-14
            np.testing.assert_allclose(fit.v, reference.v, atol=1e-12)


@pytest.mark.parametrize("r", [1.0, 100.0, 1e4])
def test_newton_tolerance_is_an_absolute_gap(r):
    # at an interior optimum the gap is at least (r - ||v||) ||g||, yet tol
    # is not scaled by r: the gradient must shrink as r grows
    dist = gaussian_halfspace(5, n=200, d=4)
    phi = make_loss("logistic")
    fit = pgd_minimizer(dist, phi, r)
    assert fit.stop_reason == "gap" and fit.gap <= TOL
    assert frank_wolfe_gap(dist, phi, fit.v, r) <= TOL
    loose = fit_with(dist, phi, r, _TOL=1e-3)
    assert loose.stop_reason == "gap" and loose.gap <= 1e-3
    assert loose.iterations <= fit.iterations


def test_newton_fit_out_of_budget():
    dist = make_counterexample(0.05)
    phi = make_loss("logistic")
    fit = fit_with(dist, phi, 100.0, _MAX_ITERS=2)
    assert not fit.converged and fit.stop_reason == "budget"
    assert fit.iterations == 2
    assert fit.gap == pytest.approx(frank_wolfe_gap(dist, phi, fit.v, 100.0),
                                    rel=1e-12)
    assert fit.gap > TOL
    objectives = budget_objectives(dist, phi, 100.0, 2)
    assert objectives[-1] == fit.objective
    assert np.all(np.diff(objectives) < 0.0)


def test_newton_one_margin_evaluation_per_trial(monkeypatch):
    # the start and every line-search trial take one margin vector and one
    # loss evaluation; slopes and curvatures reuse the margins.  The eval
    # wrapper names its kernel, as the benchmark's timing wrappers do, so
    # the noisy logistic fit, of any size here, takes its value once per
    # atom: one call per trial still, on the n clean atoms, not the 2n rows
    calls = []
    margins = DiscreteDistribution.margins

    def counted(self, v):
        calls.append(1)
        return margins(self, v)

    monkeypatch.setattr(DiscreteDistribution, "margins", counted)
    monkeypatch.setattr(minimizers, "_PER_ATOM_MIN", 1)
    dist = make_counterexample(0.05)
    for fitted, r in ((dist, 1.0), (dist, 100.0), (_NoisyView(dist, 0.2), 10.0)):
        for loss in SMOOTH:
            evals = []
            phi = make_loss(loss)

            def value(z, ev=phi.eval):
                evals.append(np.size(z))
                return ev(z)

            calls.clear()
            fit = pgd_minimizer(fitted, dataclasses.replace(phi, eval=value), r)
            assert fit.stop_reason == "gap"
            assert len(calls) == len(evals) >= fit.iterations + 1
            per_atom = isinstance(fitted, _NoisyView) and loss == "logistic"
            assert set(evals) == {dist.n_atoms if per_atom else len(fitted.weights)}


def test_pgd_reports_the_frank_wolfe_gap_at_its_best_iterate():
    dist = make_counterexample(0.05)
    fit = pgd_minimizer(dist, LINEAR, 1.0)
    assert fit.stop_reason == "gap"
    assert fit.gap == pytest.approx(frank_wolfe_gap(dist, LINEAR, fit.v, 1.0),
                                    abs=1e-15)
    assert abs(fit.gap) <= 1e-15
    # a fit out of budget reports the gap at the point it returns
    early = fit_with(dist, make_loss("logistic"), 2.0, _MAX_ITERS=1)
    assert early.stop_reason == "budget" and not early.converged
    assert early.gap == pytest.approx(
        frank_wolfe_gap(dist, make_loss("logistic"), early.v, 2.0), rel=1e-12)


@pytest.mark.parametrize("r", [1.0, 1e6, 1e100])
def test_unhinged_fit_certifies_in_at_most_two_newton_steps(r):
    # phi'' = 0 makes the ball model linear, and its minimizer r m/||m|| is
    # the optimum; projected gradient descent stopped on its budget at
    # r = 1e6, 0.77 r from it on the construction.  The unhinged loss runs
    # as the Newton stand-in LINEAR
    rng = np.random.default_rng(13)
    dists = [make_counterexample(0.05), gaussian_halfspace(5),
             helpers.random_distribution(rng, min_centroid_norm=0.05)]
    for dist in dists:
        for fitted in (dist, _NoisyView(dist, 0.2)):
            fit = pgd_minimizer(fitted, LINEAR, r)
            closed = unhinged_minimizer(fitted, r)
            assert fit.converged and fit.stop_reason == "gap" and fit.gap <= TOL
            assert fit.iterations <= 2
            assert np.linalg.norm(fit.v - closed.v) <= 1e-15 * r


@pytest.mark.parametrize("r", [1.0, 1e6, 1e100])
def test_unhinged_fit_is_the_closed_form(r):
    # the shipped unhinged loss, also behind a timing wrapper, is fit by
    # r m/||m|| itself, on a distribution and on its noise view
    dist = make_counterexample(0.05)
    for fitted in (dist, _NoisyView(dist, 0.2)):
        closed = unhinged_minimizer(fitted, r)
        for phi in (UNHINGED, dataclasses.replace(UNHINGED, eval=timed(UNHINGED.eval))):
            fit = pgd_minimizer(fitted, phi, r)
            assert fit.v.tobytes() == closed.v.tobytes()
            assert fit.objective == closed.objective
            assert (fit.gap, fit.stop_reason, fit.iterations) == (0.0, "closed-form", 0)


@pytest.mark.parametrize("r", [1e100, 1e300, 1e308])
@pytest.mark.parametrize("loss", SMOOTH)
def test_newton_fit_certifies_an_interior_optimum_at_a_huge_radius(loss, r):
    # the optimum of a non-separable sample lies inside the ball, where g
    # tends to 0; r times its rounding left gaps near 1e84 at r = 1e100.
    # At r = 1e308 x had 2^513 and its squares overflowed; with x scaled
    # by 10, r ||g|| overflowed at v = 0 and the inf gap counted as 0.
    # (x 2^300, r 2^-300) is fit alike in each branch of the scale rule
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((50, 3))
    ys = np.where(xs[:, 0] + rng.standard_normal(50) >= 0.0, 1, -1)
    phi = make_loss(loss)
    for scale in (1.0, 10.0, 1e100):
        dist = DiscreteDistribution(scale * xs, ys, np.full(50, 1 / 50))
        fit = pgd_minimizer(dist, phi, r)
        assert fit.converged and fit.stop_reason == "gap" and fit.gap <= TOL
        assert abs(fit.objective - pgd_minimizer(dist, phi, 1e6).objective) <= 1e-15
        assert fit.r == r
        shifted = DiscreteDistribution(np.ldexp(dist.xs, 300), ys, dist.weights)
        fit_k = pgd_minimizer(shifted, phi, np.ldexp(r, -300))
        assert fit_k.v.tobytes() == np.ldexp(fit.v, -300).tobytes()
        assert (fit_k.objective, fit_k.gap, fit_k.iterations) == (fit.objective, fit.gap,
                                                                  fit.iterations)


@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
def test_every_route_rejects_a_non_finite_radius(loss, r):
    with pytest.raises(ValueError, match=f"radius must be positive and finite, got {r!r}"):
        pgd_minimizer(make_counterexample(0.05), make_loss(loss), r)
    with pytest.raises(ValueError, match=f"radius must be positive and finite, got {r!r}"):
        unhinged_minimizer(make_counterexample(0.05), r)


def test_closed_form_where_the_centroid_squares_overflow():
    # ||m||^2 leaves float64 but ||m|| does not, so r m/||m|| is finite
    dist = DiscreteDistribution([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])
    for fitted in (dist, _NoisyView(dist, 0.2)):
        fit = unhinged_minimizer(fitted, 1.0)
        np.testing.assert_allclose(fit.v, [math.sqrt(0.5)] * 2, rtol=1e-15)
        assert fit.objective == pytest.approx(1.0 - math.hypot(*mean_label_feature(fitted)),
                                              rel=1e-15)


def test_closed_form_names_an_overflowing_radius():
    with pytest.raises(ValueError, match=r"radius 1e\+308 overflows float64 in r m/\|\|m\|\|"):
        unhinged_minimizer(make_counterexample(0.05), 1e308)


def test_degenerate_centroid_names_an_overflowing_radius():
    # ||m|| ~ 1.1e185 is near 0 beside max|x| = 1e200, but r ||m|| overflows
    dist = DiscreteDistribution([[1e200, 0.0], [1e200, 0.0]], [1, -1],
                                [0.5 + 5e-16, 0.5 - 5e-16])
    fit = unhinged_minimizer(dist, 1.0)
    assert fit.degenerate_centroid and fit.gap == pytest.approx(1.0944749130360996e185)
    with pytest.raises(ValueError, match=r"radius 1e\+200 overflows float64 in r m/\|\|m\|\| "
                                         r"\(\|\|m\|\| = 1\.09"):
        unhinged_minimizer(dist, 1e200)


@pytest.mark.parametrize("r", [1e100, 1e200, 1e300])
@pytest.mark.parametrize("loss", ["logistic", "exponential"])
def test_noisy_gap_bound_holds_the_rounding_of_each_atoms_rows(loss, r):
    # the noisy optimum lies inside the ball, where each atom's slope
    # (1 - eta) w phi'(m) - eta w phi'(-m) cancels and rounds relative to
    # its two rows, not to its own size; bounded by the folded |c_i|, the
    # fit stopped no-decrease with gap 3.9e83 at r = 1e100.  Both losses
    # have 0.9 phi'(m) = 0.1 phi'(-m) at e^(2m) = 9
    dist = DiscreteDistribution([[1.0, 0.0], [0.0, 1.0]], [1, 1], [0.5, 0.5])
    fit = pgd_minimizer(_NoisyView(dist, 0.1), make_loss(loss), r)
    assert fit.stop_reason == "gap" and abs(fit.gap) <= TOL
    np.testing.assert_allclose(fit.v, [math.log(3.0)] * 2, rtol=1e-12)


BIG = DiscreteDistribution([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_every_fit_certifies_on_coordinates_past_1e154(loss):
    # the margin scale r max|x| = 1e200 is split between x and r, so both
    # square finitely: hinge stopped on rounding at v = 0 (error 1), and the
    # smooth losses raised LossOverflowError
    phi = make_loss(loss)
    for fitted in (BIG, _NoisyView(BIG, 0.1)):
        fit = pgd_minimizer(fitted, phi, 1.0)
        assert fit.converged and fit.gap <= TOL
        assert fit.objective == pytest.approx(expected_loss(fitted, phi, fit.v), rel=1e-15)
        assert misclassification_error(BIG, fit.v) == 0.0


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_the_construction_scaled_down_is_not_degenerate(loss):
    # ||m|| is about 1e-16 here, under an absolute 1e-14; relative to
    # max|x| the centroid is that of the unscaled construction
    dist = make_counterexample(0.2)
    tiny = DiscreteDistribution(dist.xs * 1e-15, dist.ys, dist.weights)
    report = check_rcn_robustness(tiny, make_loss(loss), 1e15, 0.1)
    assert report.clean_fit_error == report.noisy_fit_error == 0.0
    assert not report.degenerate


@pytest.mark.parametrize("loss", ["hinge", *SMOOTH])
def test_fit_keeps_finite_margins_where_r_max_x_nears_float_max(loss):
    # r max|x| = 2^1020 split evenly put x and r near 2^511 each, so the
    # 256 products of a margin overflowed on the ball (hinge stopped on
    # rounding at v = 0, logistic raised); x now stays near 2^256
    dist = DiscreteDistribution([[1.0] * 256, [-1.0] * 128 + [0.5] * 128], [1, -1], [0.5, 0.5])
    phi = make_loss(loss)
    fit = pgd_minimizer(dist, phi, 2.0**1020)
    assert fit.converged and fit.gap <= TOL
    assert fit.objective <= pgd_minimizer(dist, phi, 1e6).objective + TOL
    assert misclassification_error(dist, fit.v) == 0.0


@pytest.mark.parametrize("loss", ["hinge", *SMOOTH])
def test_fit_names_a_radius_past_the_scale_float64_holds(loss):
    # r max|x| = 1e500: no x' that squares finitely leaves r' finite.  The
    # Newton fits had r ||g|| = inf at v = 0 and counted it as a gap of 0
    with pytest.raises(ValueError, match=r"radius 1e\+300 overflows float64 at the scale of x"):
        pgd_minimizer(BIG, make_loss(loss), 1e300)
