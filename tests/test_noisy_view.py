"""Label noise as a view of the clean margins, pinned against corrupt_rcn."""

import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
import potmin
from potmin import (LOSS_NAMES, DiscreteDistribution, LossOverflowError,
                    check_rcn_robustness, corrupt_rcn, expected_loss, make_counterexample,
                    make_loss, mean_label_feature, pgd_minimizer, recession_probe,
                    unhinged_minimizer)
from potmin import minimizers
from potmin.analysis import DEFAULT_RAY_GRID
from potmin.cli import main
from potmin.distributions import _NoisyView, _rows
from potmin.loss_zoo import _logistic_eval

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal
LOSSES = {name: make_loss(name) for name in LOSS_NAMES}


@st.composite
def colliding_distributions(draw):
    """Small distributions where corrupt_rcn has something to merge.

    Some atoms repeat an earlier x with the opposite label (corrupt_rcn
    then merges the flipped copy of one into the other), and some
    coordinates are -0.0 (which the merge key folds into 0.0).
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    xs = [[draw(coords) for _ in range(d)] for _ in range(n)]
    ys = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        xs.append(list(xs[i]))
        ys.append(-ys[i])
    xs = np.array(xs)
    zeros = draw(st.lists(st.booleans(), min_size=xs.size, max_size=xs.size))
    xs[np.array(zeros).reshape(xs.shape)] = -0.0
    ws = np.array([draw(st.floats(0.05, 1.0)) for _ in range(len(ys))])
    return DiscreteDistribution(xs, np.array(ys), ws / ws.sum())


COLLIDING = DiscreteDistribution([[-0.0, 1.0], [0.0, 1.0], [0.5, -0.0]], [1, -1, 1],
                                 [0.3, 0.5, 0.2])
# each product of a gradient coefficient with this x underflows
SUBNORMAL = DiscreteDistribution([[3.7441951251601e-310]], [-1], [1.0])


# Both sides sum at most 2n nonnegative-weighted terms, each in a different
# order; a sum of k terms rounds by at most k eps times the sum of their
# magnitudes, and splitting and merging weights adds a few eps per term.
# The standard rounding model also lets each rounded operation whose
# result underflows err by up to the smallest subnormal, absolutely; the
# same 4 (n + 2) operations bound the 2n products per side with x.
def _rounding(dist, terms):
    ops = 4 * (dist.n_atoms + 2)
    return ops * EPS * terms + ops * TINY


@settings(max_examples=150, deadline=None)
@given(dist=colliding_distributions(), eta=helpers.etas, seed=st.integers(0, 2**16))
@example(dist=COLLIDING, eta=0.25, seed=0)
@example(dist=SUBNORMAL, eta=0.25, seed=0)
def test_view_matches_corrupt_rcn(dist, eta, seed):
    view, noisy = _NoisyView(dist, eta), corrupt_rcn(dist, eta)
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, dist.dimension)
    m = dist.margins(v)
    for phi in LOSSES.values():
        # expected loss: sum_i w_i ((1 - eta) phi(m_i) + eta phi(-m_i))
        mass = dist.weights @ (np.abs(phi.eval(m)) + np.abs(phi.eval(-m)))
        assert abs(expected_loss(view, phi, v) - expected_loss(noisy, phi, v)) <= (
            _rounding(dist, mass))
        # the PGD gradient, coordinate by coordinate
        slopes = dist.weights * (np.abs(phi.deriv(m)) + np.abs(phi.deriv(-m)))
        g_view, _ = minimizers._row_sum(phi, view, _rows(view.margins(v), view.row_signs), False)
        g_noisy, _ = minimizers._row_sum(phi, noisy, _rows(noisy.margins(v), noisy.row_signs),
                                         False)
        assert np.all(np.abs(g_view - g_noisy) <= _rounding(dist, slopes @ np.abs(dist.xs)))

    # the noisy unhinged fit: r m / ||m|| for the noisy centroid m
    reference = unhinged_minimizer(noisy, 1.0)
    fit = unhinged_minimizer(view, 1.0)
    centroid = np.linalg.norm(noisy.weights @ np.abs(noisy.xs))
    norm_m = 1.0 - reference.objective
    assume(norm_m > 1e3 * _rounding(dist, centroid))
    assert fit.degenerate_centroid == reference.degenerate_centroid
    # each side then rounds 1 - ||m|| once more, by up to eps/2 of the result,
    # so two norms a few ulps apart may land on neighbouring objectives
    objectives = max(abs(fit.objective), abs(reference.objective))
    assert abs(fit.objective - reference.objective) <= (
        _rounding(dist, centroid) + EPS * objectives)
    assert np.all(np.abs(fit.v - reference.v)
                  <= 2.0 * _rounding(dist, centroid) / norm_m)


def test_noisy_centroid_is_folded_atom_by_atom():
    # (1 - eta) w_i - eta w_i per atom, not (1 - 2 eta) times the clean
    # centroid: the two round differently, so the robust check can fail
    dist = helpers.random_distribution(np.random.default_rng(4), max_atoms=10)
    view = _NoisyView(dist, 0.3)
    np.testing.assert_array_equal(
        mean_label_feature(view),
        (((1.0 - 0.3) * dist.weights - 0.3 * dist.weights) * dist.ys) @ dist.xs)


def test_view_rows_interleave_own_and_flipped_labels():
    view = _NoisyView(COLLIDING, 0.2)
    v = np.array([0.5, -2.0])
    m = COLLIDING.margins(v)
    assert view.weights.tolist() == [c for w in COLLIDING.weights for c in (0.8 * w, 0.2 * w)]
    assert view.margins(v).tobytes() == m.tobytes()
    assert _rows(view.margins(v), view.row_signs).tolist() == [
        c for mi in m for c in (mi, -mi)]
    yx = minimizers._signed_rows(view)
    clean_yx = COLLIDING.ys[:, None] * COLLIDING.xs
    np.testing.assert_array_equal(yx[0::2], clean_yx)
    np.testing.assert_array_equal(yx[1::2], -clean_yx)
    # corrupt_rcn merges atoms 0 and 1 (opposite labels at one x); the view does not
    assert corrupt_rcn(COLLIDING, 0.2).n_atoms == 4 and len(yx) == 6

    hinge = LOSSES["hinge"]
    fit = pgd_minimizer(view, hinge, 1.0)
    reference = pgd_minimizer(corrupt_rcn(COLLIDING, 0.2), hinge, 1.0)
    assert fit.converged and reference.converged
    assert abs(fit.objective - reference.objective) <= 2e-9
    assert fit.objective == expected_loss(view, hinge, fit.v)

    # with no two atoms at one x corrupt_rcn merges nothing, so its rows are
    # the view's, in the same order, bit for bit; a distribution's own rows
    # are one per atom at its own label.  BLAS may round x . v differently
    # in a 2n-row product, so the margins share one product per x.
    rng = np.random.default_rng(17)
    for _ in range(50):
        dist = helpers.random_distribution(rng)
        eta = float(rng.uniform(0.01, 0.49))
        v = rng.uniform(-3.0, 3.0, dist.dimension)
        view, noisy = _NoisyView(dist, eta), corrupt_rcn(dist, eta)
        assert noisy.n_atoms == 2 * dist.n_atoms
        assert noisy.xs.tobytes() == np.repeat(dist.xs, 2, axis=0).tobytes()
        assert view.weights.tobytes() == noisy.weights.tobytes()
        assert _rows(view.margins(v), view.row_signs).tobytes() == (
            noisy.ys * np.repeat(dist.xs @ v, 2)).tobytes()
        assert minimizers._signed_rows(view).tobytes() == (
            noisy.ys[:, None] * noisy.xs).tobytes()
        assert minimizers._signed_rows(dist).tobytes() == (
            dist.ys[:, None] * dist.xs).tobytes()
        assert mean_label_feature(dist).tobytes() == (
            (dist.weights * dist.ys) @ dist.xs).tobytes()


def test_view_hinge_fit_takes_the_materialized_newton_steps():
    # with no two atoms at one x, corrupt_rcn merges nothing and keeps the
    # interleaved order, so the interior point sees the same rows
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((200, 5))
    ys = np.where(xs[:, 0] + rng.standard_normal(200) >= 0.0, 1, -1)
    dist = DiscreteDistribution(xs, ys, np.full(200, 1 / 200))
    hinge = LOSSES["hinge"]
    fit = pgd_minimizer(_NoisyView(dist, 0.2), hinge, 1.0)
    reference = pgd_minimizer(corrupt_rcn(dist, 0.2), hinge, 1.0)
    assert fit.converged and fit.iterations > 0
    assert fit.iterations == reference.iterations
    np.testing.assert_allclose(fit.v, reference.v, rtol=0, atol=1e-12)
    assert abs(fit.objective - reference.objective) <= 1e-12


@pytest.mark.parametrize("name", ["exponential", "mixed_linear_exponential", "logistic"])
def test_smooth_noisy_fit_matches_the_materialized_fit(name):
    dist = helpers.random_distribution(np.random.default_rng(8), max_atoms=10)
    fit = pgd_minimizer(_NoisyView(dist, 0.2), LOSSES[name], 1.0)
    reference = pgd_minimizer(corrupt_rcn(dist, 0.2), LOSSES[name], 1.0)
    assert fit.converged and reference.converged
    assert abs(fit.objective - reference.objective) <= 1e-12


def test_view_rejects_noise_rates_outside_the_open_half_interval():
    for eta in (0.0, 0.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="noise rate"):
            _NoisyView(COLLIDING, eta)


def test_flipped_overflow_names_the_clean_atom_and_flipped_label():
    dist = DiscreteDistribution([[1.0], [0.5]], [1, 1], [0.5, 0.5])
    view = _NoisyView(dist, 0.1)
    with pytest.raises(LossOverflowError) as err:
        expected_loss(view, LOSSES["exponential"], [800.0])
    assert err.value.atom_index == 0
    assert err.value.atom == ([1.0], -1)
    assert err.value.z == -800.0


@pytest.mark.parametrize("v, label", [([-1e308], 1), ([1e308], -1)], ids=["own", "flipped"])
def test_logistic_overflow_names_the_atom_and_label_of_the_row_by_row_path(v, label):
    # atom 1's margin, +-1e308, doubles past float64 at its own row (m < 0)
    # or at its flipped row (m > 0); atom 0's, +-5e307, stays finite at both
    dist = DiscreteDistribution([[0.5], [1.0]], [1, 1], [0.5, 0.5])
    view = _NoisyView(dist, 0.1)
    phi = LOSSES["logistic"]
    with pytest.raises(LossOverflowError) as row_by_row:
        minimizers._per_row(phi.eval, view, _rows(view.margins(v), view.row_signs))
    reference = row_by_row.value
    assert (reference.atom_index, reference.atom, reference.z) == (1, ([1.0], label), -1e308)
    for evaluate in (lambda: expected_loss(view, phi, v),
                     lambda: minimizers._objective(phi, view, dist.margins(v))):
        with pytest.raises(LossOverflowError) as err:
            evaluate()
        assert (err.value.atom_index, err.value.atom, err.value.z) == (
            reference.atom_index, reference.atom, reference.z)
        assert str(err.value) == str(reference)


def test_logistic_value_at_an_infinite_margin_names_the_flipped_row():
    # m = inf: its own row's |m| - m is inf - inf, its flipped row's loss
    # inf; the value falls back to the rows, which name the flipped one,
    # with no numpy warning
    big = 2.0**1023
    dist = DiscreteDistribution([[big, big]], [1], [1.0])
    view = _NoisyView(dist, 0.1)
    assert view.margins([1.0, 1.0]).tolist() == [np.inf]
    with pytest.raises(LossOverflowError) as err:
        expected_loss(view, LOSSES["logistic"], [1.0, 1.0])
    assert (err.value.atom_index, err.value.atom, err.value.z) == (
        0, ([big, big], -1), -np.inf)


@settings(max_examples=200, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas, seed=st.integers(0, 2**16),
       scale=st.integers(-300, 300))
@example(dist=COLLIDING, eta=0.25, seed=0, scale=0)
@example(dist=SUBNORMAL, eta=0.25, seed=0, scale=0)
@example(dist=SUBNORMAL, eta=0.25, seed=0, scale=-20)
def test_logistic_noisy_objective_is_the_row_by_row_sum_bit_for_bit(dist, eta, seed, scale):
    # one logaddexp per atom at |m_i|; the rows get (|m| -+ m) + phi(|m|)
    view = _NoisyView(dist, eta)
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, dist.dimension) * 10.0**scale
    phi = LOSSES["logistic"]
    rows = float(view.weights @ _logistic_eval(_rows(view.margins(v), view.row_signs)))
    assert expected_loss(view, phi, v) == rows
    assert minimizers._objective(phi, view, dist.margins(v)) == rows


def test_logistic_value_is_taken_once_per_atom_at_every_size():
    # one value per atom however many atoms the view has, the same sum as
    # the 2n rows bit for bit
    rng = np.random.default_rng(28)
    phi = LOSSES["logistic"]
    for n in (1, 3, 511, 512, 3000):
        xs = rng.normal(size=(n, 4))
        dist = DiscreteDistribution(xs, np.where(xs[:, 0] >= 0.0, 1, -1), np.full(n, 1.0 / n))
        view = _NoisyView(dist, 0.3)
        sizes = []

        def value(z):
            sizes.append(np.size(z))
            return phi.eval(z)

        timed = dataclasses.replace(phi, eval=value)
        for v in (np.zeros(4), rng.normal(size=4), 40.0 * rng.normal(size=4)):
            rows = float(view.weights @ _logistic_eval(_rows(view.margins(v), view.row_signs)))
            assert expected_loss(view, timed, v) == rows
            assert minimizers._objective(timed, view, dist.margins(v)) == rows
        assert set(sizes) == {n}


def _materialized(noisy, phi, dist, m):
    """E[phi] over corrupt_rcn's atoms, each at the clean margin of its x.

    numpy takes x . v for a one-row matrix by a dot and for the two rows
    corrupt_rcn splits it into by a gemv, which can round it an ulp apart;
    exp amplifies that by |m| past the value rounding, so the materialized
    atoms take the clean atoms' products rather than their own.
    """
    dots = {(x + 0.0).tobytes(): y * mi for x, y, mi in zip(dist.xs, dist.ys, m)}
    at = np.array([dots[(x + 0.0).tobytes()] for x in noisy.xs])
    return float(noisy.weights @ phi.eval(noisy.ys * at))


@settings(max_examples=100, deadline=None)
@given(dist=colliding_distributions(), eta=helpers.etas, seed=st.integers(0, 2**16))
@example(dist=COLLIDING, eta=0.25, seed=0)
@example(dist=SUBNORMAL, eta=0.25, seed=0)
def test_probe_values_match_corrupt_rcn(dist, eta, seed):
    # the probe's per-atom values against the materialized reference, at
    # the ray points it took: from x0 by the margins of each point, from the
    # origin (on this dyadic grid) by lambda m(u); coordinates stay within 2
    # and lambda within 32, so exp(-z) stays finite
    rng = np.random.default_rng(seed)
    x0, u = rng.uniform(-1.0, 1.0, dist.dimension), rng.normal(size=dist.dimension)
    assume(dist.weights @ np.abs(dist.xs @ u) > 0.0)
    noisy = corrupt_rcn(dist, eta)
    lambdas = [0.0, 0.5, 2.0, 8.0, 32.0]
    for name, base in itertools.product(
            ("exponential", "mixed_linear_exponential", "logistic"), (x0, None)):
        phi = LOSSES[name]
        probe = recession_probe(dist, phi, eta, base, u, lambdas)
        for lam, value in zip(probe.lambdas, probe.values):
            m = dist.margins(probe.base_point + lam * probe.direction)
            mass = dist.weights @ (np.abs(phi.eval(m)) + np.abs(phi.eval(-m)))
            assert abs(value - _materialized(noisy, phi, dist, m)) <= _rounding(dist, mass)


@settings(max_examples=200, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas)
@example(dist=COLLIDING, eta=0.25)
def test_default_probe_values_are_those_at_each_ray_point_bit_for_bit(dist, eta):
    # the default ray takes lambda m(u) for m(lambda u).  A product x_ij u_j
    # that underflows rounds absolutely, so it does not commute with the
    # scaling: coordinates are 0 or of magnitude 2^-400 and up, where no
    # product with the unit centroid does (subnormal ones are held to the
    # corrupt_rcn bound above)
    assume(np.all((dist.xs == 0.0) | (np.abs(dist.xs) >= 2.0**-400)))
    view = _NoisyView(dist, eta)
    try:
        u = recession_probe(dist, LOSSES["logistic"], eta).direction
    except ValueError:  # a zero centroid, or one of zero width
        assume(False)
    for name in ("exponential", "mixed_linear_exponential", "logistic"):
        phi = LOSSES[name]
        try:
            values = [expected_loss(view, phi, lam * u) for lam in DEFAULT_RAY_GRID]
        except LossOverflowError as err:
            with pytest.raises(LossOverflowError) as got:
                recession_probe(dist, phi, eta)
            assert str(got.value) == str(err)
            continue
        assert recession_probe(dist, phi, eta).values.tolist() == values


def test_gradient_overflow_names_the_flipped_row():
    # atom 1's flipped row has slope exp(700) ~ 1e304, and its term
    # eta w_1 exp(700) x_1 overflows at x_1 = 1e10; its own row's is ~0
    dist = DiscreteDistribution([[1.0], [1e10]], [1, 1], [0.5, 0.5])
    view = _NoisyView(dist, 0.1)
    v = np.array([7e-8])
    with pytest.raises(LossOverflowError) as err:
        minimizers._row_sum(LOSSES["exponential"], view, _rows(view.margins(v), view.row_signs),
                            False)
    assert err.value.atom_index == 1
    assert err.value.atom == ([1e10], -1)
    assert err.value.z == -dist.margins(v)[1]


def test_checks_and_probe_never_materialize_the_noise(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("corrupt_rcn called")

    original = corrupt_rcn
    for name, module in list(sys.modules.items()):
        if name == "potmin" or name.startswith("potmin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)

    dist = make_counterexample(0.05)
    for loss in LOSS_NAMES:
        check_rcn_robustness(dist, LOSSES[loss], 1.0, 0.2)
        assert main(["eta-sweep", "--out-dir", str(tmp_path), "--loss", loss,
                     "--grid-count", "3"]) != 2
    u = np.array([1.0, 0.0])
    recession_probe(dist, LOSSES["logistic"], 0.2, np.zeros(2), u)
    # the patch reached the public binding too
    with pytest.raises(AssertionError, match="corrupt_rcn"):
        potmin.corrupt_rcn(dist, 0.2)


def test_unhinged_robust_check_allocates_no_corrupted_copy():
    # n = 1e5, d = 20: the corrupted distribution's 2n rows and their sort
    # peaked at about 155 MB; the view needs a few n-vectors
    rng = np.random.default_rng(12)
    n, d = 100_000, 20
    xs = rng.standard_normal((n, d))
    ys = np.where(xs[:, 0] + 0.5 * rng.standard_normal(n) >= 0.0, 1, -1)
    w = rng.uniform(0.5, 1.5, n)
    dist = DiscreteDistribution(xs, ys, w / w.sum())
    tracemalloc.start()
    try:
        report = check_rcn_robustness(dist, LOSSES["unhinged"], 1.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.robust
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
