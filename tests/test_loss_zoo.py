"""Loss values, derivatives, and the axiom predicates."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from potmin import (CONVEX_POTENTIAL, LOSS_NAMES, NEITHER, RELAXED_ONLY,
                    LossOverflowError, PotentialFunction, check_def1,
                    check_def3, default_grid, make_loss)

ALL_LOSSES = [make_loss(name) for name in LOSS_NAMES]


def constant_one_loss():
    def ev(z):
        return np.full(np.shape(z), 1.0) if np.ndim(z) else 1.0

    def de(z):
        return np.zeros(np.shape(z)) if np.ndim(z) else 0.0

    return PotentialFunction("constant_one", ev, de, NEITHER)


SMOOTH_NAMES = ("exponential", "mixed_linear_exponential", "logistic")


@pytest.mark.parametrize("name", SMOOTH_NAMES)
def test_curvature_matches_second_differences(name):
    # an even count keeps the grid off the mixed loss's kink at 0, where
    # phi'' jumps from 0 to 1
    phi = make_loss(name)
    z = np.linspace(-20.0, 20.0, 400)
    h = 1e-4
    second = (phi.eval(z + h) - 2.0 * phi.eval(z) + phi.eval(z - h)) / h ** 2
    curv = phi.curv(z)
    assert np.all(curv >= 0.0)
    np.testing.assert_allclose(curv, second, rtol=1e-5, atol=1e-6)
    # scalars in, scalars out, as for eval and deriv
    assert phi.curv(0.5) == float(phi.curv(np.array([0.5]))[0])


def test_curvature_follows_the_overflow_rule_of_eval():
    with pytest.raises(LossOverflowError):
        make_loss("exponential").curv(np.array([-800.0]))
    assert make_loss("logistic").curv(np.array([-800.0, 800.0])).tolist() == [0.0, 0.0]
    assert make_loss("mixed_linear_exponential").curv(np.array([-800.0, 0.0])).tolist() == [
        0.0, 0.0]


@pytest.mark.parametrize("name", ["hinge", "unhinged"])
def test_losses_without_curvature(name):
    # the hinge has its own fit and the unhinged loss its closed form
    assert make_loss(name).curv is None


class TestMakeLoss:
    def test_unhinged_values(self):
        phi = make_loss("unhinged")
        assert phi(0.0) == 1.0
        assert phi(1.0) == 0.0
        assert phi(-1.0) == 2.0

    def test_exponential_at_zero(self):
        assert make_loss("exponential")(0.0) == 1.0

    def test_logistic_at_zero(self):
        # direct evaluation of log(1 + e^0)
        assert make_loss("logistic")(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_mixed_branches(self):
        phi = make_loss("mixed_linear_exponential")
        assert phi(-2.0) == 3.0
        assert phi(2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_hinge_values(self):
        phi = make_loss("hinge")
        assert phi(0.0) == 1.0
        assert phi(1.0) == 0.0
        assert phi(3.0) == 0.0

    def test_axiom_classes_match_table(self):
        expected = {
            "exponential": CONVEX_POTENTIAL,
            "mixed_linear_exponential": CONVEX_POTENTIAL,
            "logistic": CONVEX_POTENTIAL,
            "hinge": NEITHER,
            "unhinged": RELAXED_ONLY,
        }
        for name, cls in expected.items():
            assert make_loss(name).axiom_class == cls

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="unhinged"):
            make_loss("huber")

    def test_vectorized_eval_and_deriv(self):
        z = np.array([-1.0, 0.0, 2.0])
        for phi in ALL_LOSSES:
            assert phi.eval(z).shape == z.shape
            assert phi.deriv(z).shape == z.shape
        grid = np.array([[0.0, 1.0], [-1.0, 2.0]])
        assert make_loss("mixed_linear_exponential").eval(grid).shape == grid.shape

    def test_bad_axiom_class_rejected(self):
        with pytest.raises(ValueError, match="axiom_class"):
            PotentialFunction("x", lambda z: z, lambda z: z, "sometimes")


class TestDerivatives:
    # Central differences with h=1e-6; the tolerance carries a relative
    # term because the truncation error scales with the third derivative,
    # which reaches e^50 for the exponential loss at the grid's left edge.
    H = 1e-6

    @pytest.mark.parametrize("phi", ALL_LOSSES, ids=lambda p: p.name)
    def test_deriv_matches_central_difference(self, phi):
        z = np.linspace(-50.0, 50.0, 2001)
        if phi.name == "hinge":
            z = z[np.abs(z - 1.0) > 1e-3]  # kink excluded
        fd = (phi.eval(z + self.H) - phi.eval(z - self.H)) / (2.0 * self.H)
        d = phi.deriv(z)
        assert np.all(np.abs(d - fd) <= 1e-5 * (1.0 + np.abs(d)))

    def test_deriv_near_zero_absolute(self):
        # in the O(1) region the agreement is absolute at 1e-5
        z = np.linspace(-5.0, 5.0, 501)
        for phi in ALL_LOSSES:
            zz = z[np.abs(z - 1.0) > 1e-3] if phi.name == "hinge" else z
            fd = (phi.eval(zz + self.H) - phi.eval(zz - self.H)) / (2.0 * self.H)
            assert np.max(np.abs(phi.deriv(zz) - fd)) <= 1e-5

    def test_hinge_uses_left_slope_at_kink(self):
        assert make_loss("hinge").deriv(1.0) == -1.0


class TestUnhingedSymmetry:
    @given(z=st.floats(-1.0, 1.0))
    def test_exact_on_unit_interval(self, z):
        phi = make_loss("unhinged")
        assert phi(z) + phi(-z) == 2.0

    @given(z=st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e12, max_value=1e12))
    def test_within_one_rounding_everywhere(self, z):
        # (1-z) and (1+z) each round once, so the sum can sit 1 ulp of z
        # away from the exact constant 2
        phi = make_loss("unhinged")
        eps = np.finfo(float).eps
        assert abs(phi(z) + phi(-z) - 2.0) <= 2.0 * eps * max(1.0, abs(z))


class TestDef1:
    def test_exponential_all_clauses_pass(self):
        report = check_def1(make_loss("exponential"))
        assert report.passed
        assert [c.passed for c in report.checks] == [True] * 4

    def test_mixed_and_logistic_pass(self):
        assert check_def1(make_loss("mixed_linear_exponential")).passed
        assert check_def1(make_loss("logistic")).passed

    def test_unhinged_fails_only_tail(self):
        report = check_def1(make_loss("unhinged"))
        assert not report.passed
        assert report.check("midpoint_convexity").passed
        assert report.check("nonincreasing").passed
        assert report.check("c1_negative_slope_at_zero").passed
        tail = report.check("vanishing_nonnegative_tail")
        assert not tail.passed
        assert tail.witness_z == 50.0
        assert tail.witness_value == -49.0

    def test_hinge_fails_smoothness_at_kink(self):
        report = check_def1(make_loss("hinge"))
        assert not report.passed
        clause = report.check("c1_negative_slope_at_zero")
        assert not clause.passed
        assert clause.witness_z == 1.0
        # one-sided slopes -1 and 0 give a unit jump
        assert clause.witness_value == pytest.approx(1.0, abs=1e-6)
        # hinge still has a vanishing nonnegative tail
        assert report.check("vanishing_nonnegative_tail").passed

    def test_verdicts_match_reference_table(self):
        verdicts = [check_def1(phi).passed for phi in ALL_LOSSES]
        assert verdicts == [True, True, True, False, False]

    def test_axiom_class_consistency(self):
        for phi in ALL_LOSSES:
            if phi.axiom_class == CONVEX_POTENTIAL:
                assert check_def1(phi).passed
            elif phi.axiom_class == RELAXED_ONLY:
                assert check_def3(phi).passed
                assert not check_def1(phi).passed


class TestDef3:
    def test_unhinged_passes(self):
        assert check_def3(make_loss("unhinged")).passed

    def test_def1_losses_pass_the_weaker_predicate(self):
        for name in ("exponential", "mixed_linear_exponential", "logistic"):
            assert check_def3(make_loss(name)).passed

    def test_constant_loss_fails_slope_clause(self):
        report = check_def3(constant_one_loss())
        clause = report.check("c1_negative_slope_at_zero")
        assert not clause.passed
        assert clause.witness_z == 0.0
        assert clause.witness_value == 0.0

    def test_hinge_fails_def3_too(self):
        assert not check_def3(make_loss("hinge")).passed


class TestGridValidation:
    def test_default_grid_contains_landmarks(self):
        g = default_grid()
        assert 0.0 in g and 1.0 in g
        assert g[0] == -50.0 and g[-1] == 50.0

    @pytest.mark.parametrize("grid", [
        [0.0, 1.0, 2.0],                      # span too small
        np.linspace(50, -50, 401),            # decreasing
        np.linspace(-50, 50, 400),            # missing 0
        [-50.0, -50.0, 0.0, 50.0],            # duplicate
    ])
    def test_bad_grids_rejected(self, grid):
        with pytest.raises(ValueError):
            check_def1(make_loss("exponential"), grid)


class TestSerialization:
    def test_report_json_shape(self):
        report = check_def1(make_loss("unhinged"))
        data = json.loads(report.to_json())
        assert data["loss"] == "unhinged"
        assert len(data["checks"]) == 4
        for entry in data["checks"]:
            assert set(entry) == {"name", "pass", "witness_z", "witness_value"}
        failing = [e for e in data["checks"] if not e["pass"]]
        assert failing == [{
            "name": "vanishing_nonnegative_tail",
            "pass": False,
            "witness_z": 50.0,
            "witness_value": -49.0,
        }]


class TestOverflow:
    def test_exponential_overflow_is_reported(self):
        phi = make_loss("exponential")
        with pytest.raises(LossOverflowError) as err:
            phi.eval(-800.0)
        assert err.value.z == -800.0
        assert err.value.loss == "exponential"
        with pytest.raises(LossOverflowError):
            phi.deriv(np.array([0.0, -900.0]))

    def test_mixed_never_overflows_on_wide_range(self):
        phi = make_loss("mixed_linear_exponential")
        z = np.array([-1e6, -800.0, 0.0, 800.0, 1e6])
        assert np.all(np.isfinite(phi.eval(z)))
        assert np.all(np.isfinite(phi.deriv(z)))

    def test_logistic_stable_on_wide_range(self):
        phi = make_loss("logistic")
        z = np.array([-5000.0, -354.0, 0.0, 354.0, 5000.0])
        vals = phi.eval(z)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(10000.0, rel=1e-12)
        assert np.all(np.isfinite(phi.deriv(z)))


@settings(max_examples=200)
@given(z1=st.floats(-30, 30), z2=st.floats(-30, 30))
# the rounded midpoint argument, amplified by exp, puts the exponential's
# midpoint value 0.0195 (10 ulps of 1.07e13) above its chord here
@example(z1=-30.0, z2=-29.999999999999996)
def test_shipped_losses_truly_convex_at_midpoints(z1, z2):
    for phi in ALL_LOSSES:
        mid = phi((z1 + z2) / 2.0)
        chord = (phi(z1) + phi(z2)) / 2.0
        assert mid <= chord + 1e-12 * max(1.0, chord)
