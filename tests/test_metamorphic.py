"""Relations between the fits of transformed problems, for every loss.

Each relation maps a distribution (or its noise view) and a radius to a
problem with the same optimum, and needs no reference fit:

- flipping every label with its x, (x, y) -> (-x, -y), leaves every margin
  as it was, so the fit is the same bit for bit;
- permuting the atoms, or rotating every x by one orthogonal Q, leaves the
  optimum over the ball as it was, so two objectives differ by at most the
  sum of their gaps (and rounding);
- scaling x by 2^k and r by 2^-k leaves the margins as they were, and the
  fits see the same rescaled input, so the result is the same bit for bit,
  v scaled by 2^-k, wherever nothing leaves the normal range.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from potmin import LOSS_NAMES, DiscreteDistribution, make_loss, pgd_minimizer
from potmin.distributions import _NoisyView

LOSSES = [make_loss(name) for name in LOSS_NAMES]
RADII = st.sampled_from([0.5, 3.0, 100.0])
# the scaled x, and every product of x with a weight, stay normal numbers
SMALLEST_X = 2.0 ** -300
SCALES = (-600, -300, -40, 3, 40, 300, 600)


def views(dist, eta):
    """The distribution and its noise view at rate eta."""
    return dist, _NoisyView(dist, eta)


def record(fit):
    return (fit.v.tobytes(), fit.objective, fit.gap, fit.iterations, fit.stop_reason,
            fit.degenerate_centroid)


def assert_same_optimum(a, b):
    assert abs(a.objective - b.objective) <= a.gap + b.gap + 1e-12


@settings(max_examples=30, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas, r=RADII)
def test_label_sign_flip_is_bit_identical(dist, eta, r):
    flipped = DiscreteDistribution(-dist.xs, -dist.ys, dist.weights)
    for fitted, mirrored in zip(views(dist, eta), views(flipped, eta)):
        for phi in LOSSES:
            assert record(pgd_minimizer(fitted, phi, r)) == record(
                pgd_minimizer(mirrored, phi, r))


@settings(max_examples=30, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas, r=RADII,
       seed=st.integers(0, 2**16))
def test_atom_permutation_keeps_the_optimum(dist, eta, r, seed):
    order = np.random.default_rng(seed).permutation(dist.n_atoms)
    permuted = DiscreteDistribution(dist.xs[order], dist.ys[order], dist.weights[order])
    for fitted, shuffled in zip(views(dist, eta), views(permuted, eta)):
        for phi in LOSSES:
            assert_same_optimum(pgd_minimizer(fitted, phi, r), pgd_minimizer(shuffled, phi, r))


@settings(max_examples=30, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas, r=RADII,
       seed=st.integers(0, 2**16))
def test_rotation_keeps_the_optimum(dist, eta, r, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dist.dimension,) * 2))
    rotated = DiscreteDistribution(dist.xs @ q, dist.ys, dist.weights)
    assume(rotated.n_atoms == dist.n_atoms)
    for fitted, turned in zip(views(dist, eta), views(rotated, eta)):
        for phi in LOSSES:
            assert_same_optimum(pgd_minimizer(fitted, phi, r), pgd_minimizer(turned, phi, r))


@settings(max_examples=20, deadline=None)
@given(dist=helpers.small_distributions(), eta=helpers.etas, r=RADII)
def test_power_of_two_scaling_is_bit_identical(dist, eta, r):
    nonzero = np.abs(dist.xs[dist.xs != 0.0])
    assume(np.all(nonzero >= SMALLEST_X))
    fits = [[pgd_minimizer(fitted, phi, r) for phi in LOSSES] for fitted in views(dist, eta)]
    for k in SCALES:
        scaled = DiscreteDistribution(np.ldexp(dist.xs, k), dist.ys, dist.weights)
        for row, rescaled in zip(fits, views(scaled, eta)):
            for fit, phi in zip(row, LOSSES):
                fit_k = pgd_minimizer(rescaled, phi, np.ldexp(r, -k))
                assert fit_k.v.tobytes() == np.ldexp(fit.v, -k).tobytes()
                assert record(fit_k)[1:] == record(fit)[1:]
