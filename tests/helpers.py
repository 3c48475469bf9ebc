"""Seeded random-instance builders shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

from potmin import DiscreteDistribution, PotentialFunction
from potmin import random_distribution  # noqa: F401  (re-exported for tests)


def zero_curvature(z):
    return np.zeros_like(z)


# the unhinged loss 1 - z as a non-shipped kernel that declares phi'' = 0:
# the shipped one takes its closed form, this one the H = 0 Newton fit
LINEAR = PotentialFunction("linear", lambda z: 1.0 - z, lambda z: np.full_like(z, -1.0),
                           zero_curvature)


def random_probe_instance(rng):
    """Distribution, noise rate, base point, and unit direction for ray probes.

    Coordinates stay within [-0.3, 0.3] so exponential-loss evaluations at
    ray length 1024 stay inside float64, and the direction is resampled
    until its width E|u.x| is comfortably positive so the ray's minimum
    falls inside the default grid.
    """
    dist = random_distribution(rng, coord_scale=0.3)
    eta = float(rng.uniform(0.05, 0.45))
    x0 = rng.uniform(-0.3, 0.3, dist.dimension)
    while True:
        u = rng.normal(size=dist.dimension)
        u = u / np.linalg.norm(u)
        if float(dist.weights @ np.abs(dist.xs @ u)) >= 0.05:
            return dist, eta, x0, u


@st.composite
def small_distributions(draw, max_dim=3, max_atoms=5):
    """Hypothesis strategy for small exact-weight distributions."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_atoms))
    coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    xs = [[draw(coords) for _ in range(d)] for _ in range(n)]
    ys = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
    ws = np.array([draw(st.floats(0.05, 1.0)) for _ in range(n)])
    return DiscreteDistribution(np.array(xs), np.array(ys), ws / ws.sum())


@st.composite
def vectors(draw, dim, scale=3.0):
    coords = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    return np.array([draw(coords) for _ in range(dim)])


etas = st.floats(0.01, 0.49)
