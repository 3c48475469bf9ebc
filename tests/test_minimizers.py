"""Closed-form and projected-gradient ball minimizers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
from potmin import (LOSS_NAMES, DiscreteDistribution, FitResult, LossOverflowError,
                    PGDConfig, WeightVector, corrupt_rcn, expected_loss,
                    make_counterexample, make_loss, mean_label_feature,
                    pgd_minimizer, unhinged_minimizer)
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
                             "gradient_norm_final", "degenerate_centroid"}
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
        fit = pgd_minimizer(dist, make_loss("hinge"), 1.0)
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


@pytest.mark.parametrize("cfg", [
    PGDConfig(max_iters=3000),
    PGDConfig(step=0.0, max_iters=20),
    PGDConfig(record_history=True, max_iters=3000),
    PGDConfig(step=5.0, max_iters=300, record_history=True),
], ids=["default-step", "zero-step", "history", "large-step"])
@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("source", ["counterexample", "random"])
def test_fit_matches_reference_loop_bit_for_bit(source, loss, cfg):
    if source == "counterexample":
        dist = make_counterexample(0.05)
    else:
        dist = helpers.random_distribution(np.random.default_rng(7), max_dim=4,
                                           max_atoms=12)
    phi = make_loss(loss)
    assert fit_bytes(pgd_minimizer(dist, phi, 1.0, cfg)) == fit_bytes(
        reference_pgd(dist, phi, 1.0, cfg))


def test_one_margin_evaluation_per_iterate(monkeypatch):
    calls = []
    margins = DiscreteDistribution.margins

    def counted(self, v):
        calls.append(1)
        return margins(self, v)

    monkeypatch.setattr(DiscreteDistribution, "margins", counted)
    for loss in LOSS_NAMES:
        calls.clear()
        fit = pgd_minimizer(make_counterexample(0.05), make_loss(loss), 1.0,
                            PGDConfig(max_iters=500))
        assert len(calls) == fit.iterations + 1
