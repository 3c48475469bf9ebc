"""Loss values, derivatives, and the axiom predicates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import potmin
from potmin import LOSS_NAMES, LossOverflowError, PotentialFunction, check_def1, make_loss
from potmin.cli import run_loss_report
from potmin.loss_zoo import (_CONVEXITY_SLACK, _GRID, _MIDS, CheckResult, PredicateReport,
                             _monotone_check, _slope_check, _tail_check)

ALL_LOSSES = [make_loss(name) for name in LOSS_NAMES]


def constant_one_loss():
    def ev(z):
        return np.full(np.shape(z), 1.0) if np.ndim(z) else 1.0

    def de(z):
        return np.zeros(np.shape(z)) if np.ndim(z) else 0.0

    return PotentialFunction("constant_one", ev, de)


def failing_clauses(report):
    return [c.name for c in report.checks if not c.passed]


def clause(report, name):
    return next(c for c in report.checks if c.name == name)


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


def test_logistic_overflows_only_where_its_value_does():
    # log(1 + exp(-2z)) is about -2z, which leaves float64 at z = -1e308;
    # at z = 1e308 the value and, at either sign, the curvature are 0
    logistic = make_loss("logistic")
    with pytest.raises(LossOverflowError) as err:
        logistic.eval(np.array([0.0, -1e308]))
    assert err.value.loss == "logistic" and err.value.z == -1e308
    assert logistic.eval(-1e300) == 2e300
    assert logistic.eval(1e308) == 0.0
    assert logistic.curv(np.array([-1e308, 1e308])).tolist() == [0.0, 0.0]


@settings(max_examples=300, deadline=None)
@given(t=st.floats(0.0, np.finfo(float).max / 2))
@example(t=0.0)
@example(t=5e-324)
@example(t=1e-300)
@example(t=18.7)
@example(t=40.0)
@example(t=1e154)
@example(t=4e307)
def test_logaddexp_of_a_flipped_margin_is_2t_plus_the_own_value(t):
    # numpy's logaddexp(0, a) is a + log1p(exp(-a)) for a > 0 and
    # 0 + log1p(exp(-|a|)) otherwise, so logistic(-t) = fl(2t + logistic(t))
    # at every t >= 0, bit for bit: the noise view's objective rests on it
    two_t = np.array([2.0 * t])
    assert (np.logaddexp(0.0, two_t).tobytes()
            == (two_t + np.logaddexp(0.0, -two_t)).tobytes())
    logistic = make_loss("logistic")
    assert logistic.eval(-t) == 2.0 * t + logistic.eval(t)


@pytest.mark.parametrize("name", ["hinge", "unhinged"])
def test_losses_without_curvature(name):
    # the hinge has its own fit and the unhinged loss its closed form
    assert make_loss(name).curv is None


# (fit, reflects) as each shipped record declares them; fit None is Newton
# from the curvature
DECLARED = {
    "exponential": (None, False),
    "mixed_linear_exponential": (None, False),
    "logistic": (None, True),
    "hinge": ("interior-point", False),
    "unhinged": ("closed-form", False),
}


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_each_shipped_loss_declares_its_fit_and_reflection(name):
    phi = make_loss(name)
    assert (phi.fit, phi.reflects) == DECLARED[name]
    assert make_loss(name) is phi  # one record, built at import


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
        # the clauses each shipped loss fails, in clause order; the relaxed
        # axioms are the first three clauses, so unhinged meets them and
        # hinge does not
        expected = {
            "exponential": [],
            "mixed_linear_exponential": [],
            "logistic": [],
            "hinge": ["c1_negative_slope_at_zero"],
            "unhinged": ["vanishing_nonnegative_tail"],
        }
        for name, failing in expected.items():
            assert failing_clauses(check_def1(make_loss(name))) == failing

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
        assert failing_clauses(report) == ["vanishing_nonnegative_tail"]
        tail = clause(report, "vanishing_nonnegative_tail")
        assert not tail.passed
        assert tail.witness_z == 50.0
        assert tail.witness_value == -49.0

    def test_hinge_fails_smoothness_at_kink(self):
        report = check_def1(make_loss("hinge"))
        assert not report.passed
        slope = clause(report, "c1_negative_slope_at_zero")
        assert not slope.passed
        assert slope.witness_z == 1.0
        # one-sided slopes -1 and 0 give a unit jump
        assert slope.witness_value == pytest.approx(1.0, abs=1e-6)
        # hinge still has a vanishing nonnegative tail
        assert clause(report, "vanishing_nonnegative_tail").passed

    def test_verdicts_match_reference_table(self):
        verdicts = [check_def1(phi).passed for phi in ALL_LOSSES]
        assert verdicts == [True, True, True, False, False]

    def test_axiom_class_consistency(self):
        # every report lists all four clauses, in order, and the loss-report
        # table reads its verdict and first failing clause from that report
        for phi, row in zip(ALL_LOSSES, run_loss_report()[0], strict=True):
            report = check_def1(phi)
            assert [c.name for c in report.checks] == [
                "midpoint_convexity", "nonincreasing", "c1_negative_slope_at_zero",
                "vanishing_nonnegative_tail"]
            assert row["loss"] == phi.name
            assert row["verdict"] == ("Yes" if report.passed else "No")
            assert row["failing_clause"] == next(iter(failing_clauses(report)), None)


class TestDef3:
    # the relaxed axioms are clauses (a)-(c) of check_def1
    RELAXED = ("midpoint_convexity", "nonincreasing", "c1_negative_slope_at_zero")

    def relaxed_failures(self, report):
        return [n for n in failing_clauses(report) if n in self.RELAXED]

    def test_unhinged_passes(self):
        assert self.relaxed_failures(check_def1(make_loss("unhinged"))) == []

    def test_def1_losses_pass_the_weaker_predicate(self):
        for name in ("exponential", "mixed_linear_exponential", "logistic"):
            assert self.relaxed_failures(check_def1(make_loss(name))) == []

    def test_constant_loss_fails_slope_clause(self):
        report = check_def1(constant_one_loss())
        assert self.relaxed_failures(report) == ["c1_negative_slope_at_zero"]
        slope = clause(report, "c1_negative_slope_at_zero")
        assert slope.witness_z == 0.0
        assert slope.witness_value == 0.0

    def test_hinge_fails_def3_too(self):
        assert self.relaxed_failures(check_def1(make_loss("hinge"))) == [
            "c1_negative_slope_at_zero"]


class TestGridValidation:
    def test_default_grid_contains_landmarks(self):
        assert 0.0 in _GRID and 1.0 in _GRID
        assert _GRID[0] == -50.0 and _GRID[-1] == 50.0
        assert _GRID.size == 401 and not _GRID.flags.writeable

    def test_midpoint_lattice_is_exact(self):
        # clause (a) reads phi at the midpoint of grid pair (i, j) as
        # phi(_MIDS[i + j]), which needs these identities bit for bit
        np.testing.assert_array_equal(_GRID, np.linspace(-50.0, 50.0, 401))
        np.testing.assert_array_equal(_GRID, _MIDS[::2])
        idx = np.arange(_GRID.size)
        mids = (_GRID[:, None] + _GRID[None, :]) / 2
        assert np.array_equal(_MIDS[np.add.outer(idx, idx)], mids)
        assert _MIDS.size == 801 and not _MIDS.flags.writeable


def reference_convexity_check(phi, vals):
    # the O(N^2) clause (a) as it stood before the midpoint lattice, verbatim
    mids = 0.5 * (_GRID[:, None] + _GRID[None, :])
    excess = np.asarray(phi.eval(mids)) - 0.5 * (vals[:, None] + vals[None, :])
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    worst_excess = float(excess[worst])
    if worst_excess <= _CONVEXITY_SLACK:
        return CheckResult("midpoint_convexity", True)
    return CheckResult(
        "midpoint_convexity", False,
        witness_z=float(mids[worst]), witness_value=worst_excess,
    )


def _custom(name, ev):
    return PotentialFunction(name, ev, lambda z: np.zeros_like(z))


NON_CONVEX_LOSSES = [
    _custom("neg_square", lambda z: -z ** 2),
    _custom("sine", np.sin),
    _custom("neg_tanh", lambda z: -np.tanh(z)),
    # concave kink at 0.3, off the grid and on no midpoint
    _custom("concave_kink", lambda z: np.minimum(1.0 - z, 1.6 - 3.0 * z)),
    # integer values: a staircase, convex at no scale below its steps
    _custom("int_staircase", lambda z: np.floor(-z).astype(np.int64)),
]
REFERENCE_LOSSES = ALL_LOSSES + NON_CONVEX_LOSSES + [constant_one_loss()]


class TestConvexityReference:
    @pytest.mark.parametrize("phi", REFERENCE_LOSSES, ids=lambda p: p.name)
    def test_report_matches_the_pairwise_reference_bit_for_bit(self, phi):
        vals = np.asarray(phi.eval(_GRID))
        expected = (
            reference_convexity_check(phi, vals),
            _monotone_check(vals),
            _slope_check(phi, vals),
            _tail_check(vals),
        )
        checks = check_def1(phi).checks
        assert checks == expected
        # == on floats would let -0.0 pass for 0.0
        for got, want in zip(checks, expected, strict=True):
            for field in ("witness_z", "witness_value"):
                assert repr(getattr(got, field)) == repr(getattr(want, field))

    def test_non_convex_losses_fail_clause_a(self):
        for phi in NON_CONVEX_LOSSES:
            assert not check_def1(phi).checks[0].passed, phi.name

    @pytest.mark.parametrize("phi", REFERENCE_LOSSES, ids=lambda p: p.name)
    def test_phi_is_evaluated_once_per_distinct_abscissa(self, phi):
        # 801 midpoints plus the two C1 offset grids of 401 points; the
        # pairwise clause (a) evaluated 160,801 midpoints on its own
        seen = []

        def counted(z):
            seen.append(np.size(z))
            return phi.eval(z)

        report = check_def1(PotentialFunction(phi.name, counted, phi.deriv))
        assert sum(seen) <= 1603
        assert report == check_def1(phi)


def test_star_import_has_no_deleted_names():
    namespace = {}
    exec("from potmin import *", namespace)
    assert set(potmin.__all__) <= set(namespace)
    assert len(potmin.__all__) == 25
    # the predicate records and the default ray grid live in their modules
    for name in ("check_def3", "default_grid", "CONVEX_POTENTIAL", "RELAXED_ONLY", "NEITHER",
                 "label_sum", "WeightVector", "PGDConfig", "MarginCertificate",
                 "certify_margin", "DEFAULT_RAY_GRID", "CheckResult", "PredicateReport"):
        assert name not in namespace and not hasattr(potmin, name)
    assert "axiom_class" not in {f.name for f in dataclasses.fields(PotentialFunction)}
    assert not hasattr(potmin.loss_zoo, "_validate_grid")
    for cls in (potmin.RobustnessReport, potmin.RayProbe, PredicateReport):
        assert not hasattr(cls, "to_json")
    assert not hasattr(PredicateReport, "check")
    for cls in (PredicateReport, CheckResult):
        assert not hasattr(cls, "to_dict")


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

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_every_kernel_at_an_infinite_margin_is_finite_or_named(self, name):
        # one rule for all five: a value past float64 raises at its z, so
        # mixed, hinge and unhinged no longer return inf there; every slope
        # and curvature but the exponential's stays finite
        phi = make_loss(name)
        raising = {"exponential": {("eval", -math.inf), ("deriv", -math.inf),
                                   ("curv", -math.inf)},
                   "unhinged": {("eval", -math.inf), ("eval", math.inf)}}
        raised = set()
        kernels = {"eval": phi.eval, "deriv": phi.deriv, "curv": phi.curv}
        for kind, kernel in kernels.items():
            for z in (-math.inf, math.inf) if kernel is not None else ():
                try:
                    assert math.isfinite(kernel(z))
                except LossOverflowError as err:
                    assert (err.loss, err.z) == (name, z)
                    raised.add((kind, z))
        assert raised == raising.get(name, {("eval", -math.inf)})
        # an array names its first non-finite value in flat order
        with pytest.raises(LossOverflowError) as err:
            phi.eval(np.array([[0.0, math.inf], [-math.inf, 1.0]]))
        assert err.value.z == (math.inf if name == "unhinged" else -math.inf)


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
