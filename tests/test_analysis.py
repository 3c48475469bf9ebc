"""Expectations, error rates, robustness checks, and the ray probe."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
from potmin import (DEFAULT_RAY_GRID, LOSS_NAMES, DiscreteDistribution, LossOverflowError,
                    check_rcn_robustness, corrupt_rcn, expected_loss,
                    l1_margin, make_counterexample, make_loss,
                    mean_label_feature, misclassification_error, pgd_minimizer,
                    recession_probe, slope_identity_fuzz,
                    slope_identity_residual, unhinged_minimizer)
from potmin.distributions import _NoisyView

UNHINGED = make_loss("unhinged")
EXPONENTIAL = make_loss("exponential")
LOGISTIC = make_loss("logistic")


class TestExpectedLoss:
    @settings(max_examples=40, deadline=None)
    @given(dist=helpers.small_distributions())
    def test_unhinged_at_origin_is_total_mass(self, dist):
        # exactly 1 up to the weight-sum tolerance of the constructor
        value = expected_loss(dist, UNHINGED, np.zeros(dist.dimension))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_unhinged_at_origin_exact_for_exact_masses(self):
        assert expected_loss(make_counterexample(0.05), UNHINGED,
                             np.zeros(2)) == 1.0

    def test_counterexample_first_axis(self):
        # 1 - m_1 with m_1 = 1/4 + 3 gamma / 4
        dist = make_counterexample(0.05)
        value = expected_loss(dist, UNHINGED, [1.0, 0.0])
        assert value == pytest.approx(0.7125, abs=1e-12)

    def test_single_atom_exponential(self):
        dist = DiscreteDistribution([[1.0, 0.0, 0.0]], [1], [1.0])
        value = expected_loss(dist, EXPONENTIAL, [1.0, 0.0, 0.0])
        assert value == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_overflow_names_the_atom(self):
        dist = DiscreteDistribution([[1.0], [0.5]], [1, 1], [0.5, 0.5])
        with pytest.raises(LossOverflowError) as err:
            expected_loss(dist, EXPONENTIAL, [-800.0])
        assert err.value.atom_index == 0
        assert err.value.z == -800.0

    @pytest.mark.parametrize("name", ["exponential", "unhinged"])
    def test_non_finite_v_rejected(self, name):
        # a NaN margin matches no atom's row of per-atom values
        with pytest.raises(ValueError, match=r"v must be finite, got \[nan, 0.0\]"):
            expected_loss(make_counterexample(0.05), make_loss(name), [np.nan, 0.0])


class TestMisclassificationError:
    def test_centroid_misclassifies_heavy_point_below_threshold(self):
        dist = make_counterexample(0.05)
        v = mean_label_feature(dist)
        # the heavy point sits on the wrong side: v.x3 < 0
        assert float(v @ dist.xs[2]) == pytest.approx(-0.005593730444297724,
                                                      abs=1e-15)
        assert misclassification_error(dist, v) == 0.5

    def test_centroid_classifies_all_above_threshold(self):
        dist = make_counterexample(0.2)
        v = mean_label_feature(dist)
        assert float(v @ dist.xs[2]) == pytest.approx(0.0620204102886729,
                                                      abs=1e-14)
        assert misclassification_error(dist, v) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(dist=helpers.small_distributions())
    def test_zero_vector_scores_full_error(self, dist):
        error = misclassification_error(dist, np.zeros(dist.dimension))
        assert error == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_full_error_exact_for_exact_masses(self):
        assert misclassification_error(make_counterexample(0.1),
                                       np.zeros(2)) == 1.0

    def test_exact_scale_invariance_for_binary_scales(self):
        dist = make_counterexample(0.05)
        v = mean_label_feature(dist)
        base = misclassification_error(dist, v)
        for c in (0.25, 0.5, 2.0, 1024.0):
            assert misclassification_error(dist, c * v) == base

    def test_scale_invariance_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dist = helpers.random_distribution(rng)
            v = rng.normal(size=dist.dimension)
            base = misclassification_error(dist, v)
            for c in (0.1, 3.7, 100.0):
                assert misclassification_error(dist, c * v) == base

    @pytest.mark.parametrize("v", [[np.nan, 0.0], [np.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_v_rejected(self, v):
        # a NaN margin is not <= 0, so it would score as no error at all
        with pytest.raises(ValueError, match="v must be finite"):
            misclassification_error(make_counterexample(0.05), v)

    def test_boundary_counts_as_error_for_both_labels(self):
        dist = DiscreteDistribution([[1.0, 0.0], [1.0, 0.0]], [1, -1], [0.5, 0.5])
        assert misclassification_error(dist, [0.0, 1.0]) == 1.0


class TestRcnRobustness:
    def test_counterexample_below_threshold_errors_half(self):
        dist = make_counterexample(0.05)
        for eta in (0.1, 0.25, 0.4):
            report = check_rcn_robustness(dist, UNHINGED, 1.0, eta)
            assert report.robust
            assert report.clean_fit_error == 0.5
            assert report.noisy_fit_error == 0.5
            np.testing.assert_allclose(report.minimizer_clean, report.minimizer_noisy,
                                       atol=1e-12)

    def test_counterexample_above_threshold_errors_zero(self):
        dist = make_counterexample(0.2)
        report = check_rcn_robustness(dist, UNHINGED, 1.0, 0.3)
        assert report.robust
        assert report.clean_fit_error == 0.0
        assert report.noisy_fit_error == 0.0

    def test_random_distributions_always_robust_for_unhinged(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dist = helpers.random_distribution(rng, min_centroid_norm=0.01)
            eta = float(rng.uniform(0.05, 0.45))
            report = check_rcn_robustness(dist, UNHINGED, 1.0, eta)
            assert report.robust
            np.testing.assert_allclose(report.minimizer_clean, report.minimizer_noisy,
                                       atol=1e-12)

    @pytest.mark.parametrize("loss", LOSS_NAMES)
    def test_every_shipped_loss_is_checked_by_its_own_fit(self, loss):
        # no route to pick: each side is the fit pgd_minimizer gives the loss
        dist, phi = make_counterexample(0.1), make_loss(loss)
        report = check_rcn_robustness(dist, phi, 1.0, 0.2)
        assert report.minimizer_clean.tobytes() == pgd_minimizer(
            dist, phi, 1.0).v.tobytes()
        assert report.minimizer_noisy.tobytes() == pgd_minimizer(
            _NoisyView(dist, 0.2), phi, 1.0).v.tobytes()
        assert 0.0 <= report.clean_fit_error <= 1.0
        assert 0.0 <= report.noisy_fit_error <= 1.0

    def test_eta_validated(self):
        with pytest.raises(ValueError, match="eta"):
            check_rcn_robustness(make_counterexample(0.1), UNHINGED, 1.0, 0.5)

    def test_report_serialization(self):
        report = check_rcn_robustness(make_counterexample(0.05), UNHINGED, 1.0, 0.1)
        data = report.to_dict()
        assert data["robust"] is True
        assert data["eta"] == 0.1
        assert len(data["minimizer_clean"]) == 2


class TestSlopeIdentity:
    def test_zero_vector_residual_vanishes(self):
        dist = make_counterexample(0.1)
        assert slope_identity_residual(dist, 0.25, [0.0, 0.0]) == 0.0
        assert slope_identity_residual(dist, 0.37, [0.0, 0.0]) <= 1e-15

    def test_counterexample_first_axis(self):
        # clean objective 0.7125 maps to 0.8 * 0.7125 + 0.2 = 0.77
        dist = make_counterexample(0.05)
        noisy = corrupt_rcn(dist, 0.1)
        assert expected_loss(noisy, UNHINGED, [1.0, 0.0]) == pytest.approx(
            0.77, abs=1e-12)
        assert slope_identity_residual(dist, 0.1, [1.0, 0.0]) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(dist=helpers.small_distributions(), eta=helpers.etas)
    def test_residual_at_rounding_level(self, dist, eta):
        rng = np.random.default_rng(2)
        w = rng.normal(size=dist.dimension)
        assert slope_identity_residual(dist, eta, w) <= 1e-12

    def test_fuzz_campaign_rows_and_csv(self, tmp_path):
        out = tmp_path / "fuzz.csv"
        rows = slope_identity_fuzz(50, seed=99, out_csv=out)
        assert len(rows) == 50
        assert all(r["residual"] <= 1e-12 for r in rows)
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,dimension,n_atoms,eta,residual"
        assert len(lines) == 51  # one row per trial

    def test_fuzz_csv_bytes_match_csv_writer(self, tmp_path):
        rows = slope_identity_fuzz(30, seed=7, out_csv=tmp_path / "fuzz.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(rows[0]))
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else str(v)
                                 for v in row.values()])
        assert (tmp_path / "fuzz.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("trials", [0, 2.5, True])
    def test_fuzz_trials_must_be_an_integer_of_at_least_one(self, trials):
        with pytest.raises(ValueError,
                           match=f"trials must be an integer of at least 1, got {trials!r}"):
            slope_identity_fuzz(trials, 0)

    def test_fuzz_campaign_deterministic_in_seed(self):
        assert slope_identity_fuzz(10, seed=5) == slope_identity_fuzz(10, seed=5)


class TestRecessionProbe:
    def test_single_atom_closed_form(self):
        # value 0.25 e^l + 0.75 e^-l against bound 0.25 (1 + l)
        dist = DiscreteDistribution([[1.0]], [1], [1.0])
        lam = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        probe = recession_probe(dist, EXPONENTIAL, 0.25, [0.0], [1.0], lam)
        np.testing.assert_allclose(
            probe.values, 0.25 * np.exp(lam) + 0.75 * np.exp(-lam), rtol=1e-15)
        np.testing.assert_allclose(probe.lower_bounds, 0.25 * (1.0 + lam),
                                   rtol=1e-15)
        assert probe.bound_holds
        assert probe.eventually_increasing

    def test_origin_bound_is_eta_scaled(self):
        # at lambda = 0 with x0 = 0 the value is phi(0) and the bound is
        # eta * phi(0), comfortably below
        dist = DiscreteDistribution([[1.0]], [1], [1.0])
        probe = recession_probe(dist, EXPONENTIAL, 0.25, [0.0], [1.0], [0.0, 1.0])
        assert probe.values[0] == 1.0
        assert probe.lower_bounds[0] == 0.25

    def test_counterexample_logistic_eventually_increases(self):
        dist = make_counterexample(0.05)
        m = mean_label_feature(dist)
        u = m / np.linalg.norm(m)
        probe = recession_probe(dist, LOGISTIC, 0.1, np.zeros(2), u)
        assert probe.bound_holds
        assert probe.eventually_increasing

    def test_bound_holds_across_losses_random(self):
        rng = np.random.default_rng(77)
        losses = [EXPONENTIAL, make_loss("mixed_linear_exponential"), LOGISTIC]
        for _ in range(15):
            dist, eta, x0, u = helpers.random_probe_instance(rng)
            for phi in losses:
                probe = recession_probe(dist, phi, eta, x0, u)
                assert probe.min_slack >= -1e-9

    def test_zero_width_direction_rejected_with_projection_note(self):
        dist = DiscreteDistribution([[1.0, 0.0]], [1], [1.0])
        with pytest.raises(ValueError, match="orthogonal"):
            recession_probe(dist, EXPONENTIAL, 0.2, [0.0, 0.0], [0.0, 1.0])

    def test_non_axiom_losses_rejected(self):
        dist = make_counterexample(0.1)
        u = np.array([1.0, 0.0])
        for name in ("unhinged", "hinge"):
            with pytest.raises(ValueError, match="convex potential"):
                recession_probe(dist, make_loss(name), 0.2, np.zeros(2), u)

    def test_direction_is_normalized(self):
        dist = make_counterexample(0.1)
        unit = recession_probe(dist, LOGISTIC, 0.2, np.zeros(2), [1.0, 0.0])
        double = recession_probe(dist, LOGISTIC, 0.2, np.zeros(2), [2.0, 0.0])
        assert double.to_dict() == unit.to_dict()

    def test_defaults_are_the_origin_and_the_label_centroid(self):
        dist = make_counterexample(0.05)
        m = mean_label_feature(dist)
        assert recession_probe(dist, LOGISTIC, 0.1).to_dict() == recession_probe(
            dist, LOGISTIC, 0.1, [0.0, 0.0], m).to_dict()

    @pytest.mark.parametrize("u", [None, [0.0, 0.0]], ids=["centroid", "explicit"])
    def test_zero_direction_rejected(self, u):
        # one point under both labels at equal mass: a zero label centroid
        dist = DiscreteDistribution([[1.0, 0.0], [1.0, 0.0]], [1, -1], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"must be nonzero and finite, got \|\|u\|\| = 0.0"):
            recession_probe(dist, LOGISTIC, 0.1, None, u)

    @pytest.mark.parametrize("x0, u, lambdas, match", [
        ([np.inf, 0.0], [1.0, 0.0], None, r"x0 must be finite, got \[inf, 0.0\]"),
        ([np.nan, 0.0], [1.0, 0.0], None, r"x0 must be finite, got \[nan, 0.0\]"),
        ([0.0, 0.0], [np.nan, 0.0], None, r"u must be finite, got \[nan, 0.0\]"),
        ([0.0, 0.0], [1.0, 0.0], [0.0, np.inf], r"lambdas must be finite, got \[0.0, inf\]"),
    ], ids=["x0-inf", "x0-nan", "u-nan", "lambdas-inf"])
    def test_non_finite_input_rejected(self, x0, u, lambdas, match):
        with pytest.raises(ValueError, match=match):
            recession_probe(make_counterexample(0.1), LOGISTIC, 0.2, x0, u, lambdas)

    def test_direction_whose_squares_overflow_normalized_without_warning(self):
        # ||u|| is taken without squaring 1e200 into inf, which numpy warns of
        dist = make_counterexample(0.05)
        big = recession_probe(dist, LOGISTIC, 0.1, [0.0, 0.0], [1e200, 0.0])
        assert big.to_dict() == recession_probe(dist, LOGISTIC, 0.1, [0.0, 0.0],
                                                [1.0, 0.0]).to_dict()

    def test_lambda_grid_validated(self):
        dist = make_counterexample(0.1)
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="lambdas"):
            recession_probe(dist, EXPONENTIAL, 0.2, np.zeros(2), u, [1.0, 0.5])
        with pytest.raises(ValueError, match="lambdas"):
            recession_probe(dist, EXPONENTIAL, 0.2, np.zeros(2), u, [-1.0, 2.0])

    def test_default_grid_reaches_1024(self):
        assert DEFAULT_RAY_GRID[0] == 0.0
        assert DEFAULT_RAY_GRID[-1] == 1024.0

    def test_default_ray_takes_one_margin_vector(self, monkeypatch):
        # from the origin on a grid of 0 and powers of two the ray points
        # take lambda m(u), from the one m(u) the width takes; any other
        # base point or grid takes one more margin vector per lambda, and a
        # nonzero base point one more for its overlap E|m(x0)|
        calls = []
        margins = DiscreteDistribution.margins

        def counted(self, v):
            calls.append(1)
            return margins(self, v)

        monkeypatch.setattr(DiscreteDistribution, "margins", counted)
        dist = make_counterexample(0.05)
        for x0, lambdas, expected in ((None, None, 1),
                                      ([0.0, -0.0], [0.0, 0.5, 1.0, 1024.0], 1),
                                      ([0.1, 0.2], None, 2 + len(DEFAULT_RAY_GRID)),
                                      (None, [0.0, 0.3, 1.7, 5.1], 5),
                                      (None, [0.5, 3.0], 3)):
            calls.clear()
            recession_probe(dist, LOGISTIC, 0.1, x0, None, lambdas)
            assert len(calls) == expected

    @pytest.mark.parametrize("lam", [2.0**400, 3e120], ids=["dyadic", "per-point"])
    def test_ray_past_float64_names_the_overflow_without_warning(self, lam):
        # every margin 7e199 lambda leaves float64; on the dyadic grid the
        # product lambda m(u) is inf, as m(lambda u) is on any other, and
        # the loss names atom 0's flipped row with no numpy overflow warning
        dist = DiscreteDistribution([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])
        with pytest.raises(LossOverflowError) as err:
            recession_probe(dist, LOGISTIC, 0.2, lambdas=[0.0, 1.0, lam])
        assert (err.value.atom_index, err.value.atom, err.value.z) == (
            0, ([1e200, 0.0], -1), -math.inf)

    def test_serialization(self):
        dist = DiscreteDistribution([[1.0]], [1], [1.0])
        probe = recession_probe(dist, EXPONENTIAL, 0.25, [0.0], [1.0], [0.0, 1.0])
        data = probe.to_dict()
        assert data["bound_holds"] is True
        assert len(data["values"]) == 2


class TestCrossChecks:
    def test_fitted_error_agrees_with_margin_sign(self):
        # separating fits score zero error and certify a positive margin
        dist = make_counterexample(0.2)
        fit = unhinged_minimizer(dist, 1.0)
        assert misclassification_error(dist, fit.v) == 0.0
        assert l1_margin(dist, fit.v) > 0.0
