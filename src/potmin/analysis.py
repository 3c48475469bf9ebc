"""Evaluation and verification layer: expectations, error rates, and probes.

Everything here is an exact weighted sum over distribution atoms; there
is no sampling noise anywhere.  The module hosts the noise-robustness
checker (fit on clean and corrupted data, compare clean-data errors),
the affine identity tying clean and corrupted unhinged objectives, and a
ray probe certifying the coercivity bound that guarantees corrupted
objectives attain their minimum.  The checker and the probe see the
corrupted distribution as a view of the clean margins,
(1 - eta) E[phi(m)] + eta E[phi(-m)], each noisy fit folding the noise
into its own per-atom terms; the affine identity alone compares against
the distribution :func:`corrupt_rcn` materializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (_WEIGHT_SUM_TOL, DiscreteDistribution, _count, _exponent,
                            _NoisyView, _vector, _write_csv, corrupt_rcn, mean_label_feature,
                            random_distribution)
from .loss_zoo import PotentialFunction, check_def1, make_loss
from .minimizers import _objective, pgd_minimizer

_ERROR_EQUALITY_TOL = 1e-12
_BOUND_SLACK = 1e-9

DEFAULT_RAY_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                    128.0, 256.0, 512.0, 1024.0)

_UNHINGED = make_loss("unhinged")


def expected_loss(dist: DiscreteDistribution | _NoisyView, phi: PotentialFunction,
                  v) -> float:
    """Exact weighted expectation of phi(y (v . x)) over the atoms.

    Over a noise view it is (1 - eta) E[phi(m)] + eta E[phi(-m)] at the
    clean margins m.
    """
    return _objective(phi, dist, dist.margins(v))


def misclassification_error(dist: DiscreteDistribution, v) -> float:
    """Probability mass of atoms with y (v . x) <= 0.

    A zero inner product counts as an error for either label, so the
    zero vector scores a full error of 1.
    """
    return _error(dist, dist.margins(v))


def _error(dist: DiscreteDistribution, margins: np.ndarray) -> float:
    """:func:`misclassification_error` at the atoms' margins."""
    return float(dist.weights[margins <= 0.0].sum())


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """Clean-data error comparison of clean-fit and noisy-fit minimizers.

    Both error rates are measured on the clean distribution; ``robust``
    is derived from their equality within 1e-12 and cannot be set
    independently.
    """

    eta: float
    clean_fit_error: float
    noisy_fit_error: float
    minimizer_clean: np.ndarray
    minimizer_noisy: np.ndarray
    degenerate: bool
    robust: bool = field(init=False)

    def __post_init__(self):
        for name in ("clean_fit_error", "noisy_fit_error"):
            e = getattr(self, name)
            # a distribution's mass may exceed 1 by the constructor's tolerance
            if not 0.0 <= e <= 1.0 + _WEIGHT_SUM_TOL:
                raise ValueError(f"{name} must lie in [0, 1 + {_WEIGHT_SUM_TOL}], got {e!r}")
        object.__setattr__(
            self, "robust",
            abs(self.clean_fit_error - self.noisy_fit_error) <= _ERROR_EQUALITY_TOL,
        )

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "clean_fit_error": self.clean_fit_error,
            "noisy_fit_error": self.noisy_fit_error,
            "robust": self.robust,
            "degenerate": self.degenerate,
            "minimizer_clean": [float(c) for c in self.minimizer_clean],
            "minimizer_noisy": [float(c) for c in self.minimizer_noisy],
        }


def check_rcn_robustness(dist: DiscreteDistribution, phi: PotentialFunction,
                         r: float, eta: float) -> RobustnessReport:
    """Fit on clean and corrupted data; compare both errors on clean data.

    Each side takes the one fit :func:`pgd_minimizer` picks for phi: the
    closed form for the unhinged loss, Newton for a loss with a
    curvature, or the certified hinge fit; the pair is a witness, not a
    quantification over all minimizers of either objective.  The
    corrupted side is fit on the noise view of the clean atoms (each
    atom's label kept with mass (1 - eta) w_i and flipped with eta w_i),
    never on a materialized :func:`corrupt_rcn` distribution; the noisy
    fit computes its own centroid, values, slopes and curvatures from
    those per-atom terms.
    """
    [(report, _)] = _robustness_sweep(dist, phi, r, [eta])
    return report


def _robustness_sweep(dist: DiscreteDistribution, phi: PotentialFunction, r: float,
                      etas) -> list[tuple[RobustnessReport, np.ndarray]]:
    """check_rcn_robustness at each noise rate, fitting the clean side once.

    Each report comes with the clean margins of its noisy fit, from which
    its error was taken.
    """
    views = [_NoisyView(dist, eta) for eta in etas]
    fit_clean = pgd_minimizer(dist, phi, r)
    clean_fit_error = misclassification_error(dist, fit_clean.v)
    reports = []
    for view in views:
        fit_noisy = pgd_minimizer(view, phi, r)
        margins = dist.margins(fit_noisy.v)
        reports.append((RobustnessReport(
            eta=view.eta,
            clean_fit_error=clean_fit_error,
            noisy_fit_error=_error(dist, margins),
            minimizer_clean=fit_clean.v,
            minimizer_noisy=fit_noisy.v,
            degenerate=fit_clean.degenerate_centroid or fit_noisy.degenerate_centroid,
        ), margins))
    return reports


def slope_identity_residual(dist: DiscreteDistribution, eta: float, w) -> float:
    """Residual of the affine tie between corrupted and clean unhinged losses.

    Corrupting labels at rate eta rescales the unhinged objective by
    (1 - 2 eta) and shifts it by 2 eta; this returns
    |P_noisy(w) - ((1 - 2 eta) P_clean(w) + 2 eta)|, which should sit at
    floating-point rounding for every w.
    """
    p_noisy = expected_loss(corrupt_rcn(dist, eta), _UNHINGED, w)
    p_clean = expected_loss(dist, _UNHINGED, w)
    eta = float(eta)
    return abs(p_noisy - ((1.0 - 2.0 * eta) * p_clean + 2.0 * eta))


def slope_identity_fuzz(trials: int, seed: int, out_csv=None) -> list[dict]:
    """Seeded fuzz campaign over (distribution, w, eta) triples.

    Returns one row per trial (trial, dimension, n_atoms, eta, residual)
    and optionally writes them as CSV.  The campaign is deterministic in
    the seed.
    """
    trials = _count("trials", trials)
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(trials):
        dist = random_distribution(rng)
        w = rng.normal(size=dist.dimension)
        eta = float(rng.uniform(0.01, 0.49))
        rows.append({
            "trial": trial,
            "dimension": dist.dimension,
            "n_atoms": dist.n_atoms,
            "eta": eta,
            "residual": slope_identity_residual(dist, eta, w),
        })
    if out_csv is not None:
        _write_csv(out_csv, list(rows[0]), [[row[key] for row in rows] for key in rows[0]])
    return rows


@dataclass(frozen=True, eq=False)
class RayProbe:
    """Corrupted objective along a ray versus its analytic lower bound.

    The bound is eta * (phi(0) - phi'(0) lambda E|u.x| + phi'(0) E|x0.x|),
    linear and increasing in lambda; the objective must stay above it
    (slack >= -1e-9) and, the bound being coercive, must eventually rise.
    """

    base_point: np.ndarray
    direction: np.ndarray
    lambdas: np.ndarray
    values: np.ndarray
    lower_bounds: np.ndarray
    min_slack: float
    bound_holds: bool
    eventually_increasing: bool

    def to_dict(self) -> dict:
        return {
            "base_point": [float(c) for c in self.base_point],
            "direction": [float(c) for c in self.direction],
            "lambdas": [float(c) for c in self.lambdas],
            "values": [float(c) for c in self.values],
            "lower_bounds": [float(c) for c in self.lower_bounds],
            "min_slack": self.min_slack,
            "bound_holds": self.bound_holds,
            "eventually_increasing": self.eventually_increasing,
        }


def recession_probe(dist: DiscreteDistribution, phi: PotentialFunction,
                    eta: float, x0=None, u=None, lambdas=None) -> RayProbe:
    """Evaluate the corrupted objective along x0 + lambda u against its bound.

    x0 defaults to the origin and u to the label centroid; u is divided by
    its norm.  Requires phi to pass the full convex-potential axioms and
    the ray direction to have positive width E|u . x| > 0 under the clean
    distribution; a zero-width direction is rejected because the
    objective simply does not vary along it (project it out instead).
    Each value is (1 - eta) E[phi(m)] + eta E[phi(-m)] at the clean
    margins m of the ray point, computed from the noise view with no
    corrupted distribution built (for a loss that reflects, with no rows
    either: one evaluation per atom); an overflow at -m_i, under the one
    rule of all five shipped losses, names clean atom i with its flipped label.

    The margins m(u) are taken once, for the width, and a nonzero x0's
    once, for the base overlap E|x0 . x| = E|m(x0)|.  When x0 is zero and
    every lambda is 0 or a power of two (the default ray), each ray point's
    margins are lambda m(u): m(lambda u) bit for bit wherever no product
    x_ij u_j underflows, since a product that underflows rounds absolutely
    and does not commute with the scaling (one past float64 is inf for
    both).  Any other ray takes the margins of each point x0 + lambda u.
    """
    noisy = _NoisyView(dist, eta)
    report = check_def1(phi)
    if not report.passed:
        failing = [c.name for c in report.checks if not c.passed]
        raise ValueError(
            f"{phi.name!r} is not a convex potential (fails: {', '.join(failing)}); "
            "the recession bound does not apply"
        )
    x0 = np.zeros(dist.dimension) if x0 is None else _vector("x0", x0, dist.dimension)
    u = mean_label_feature(dist) if u is None else _vector("u", u, dist.dimension)
    u = np.ldexp(u, -_exponent(u))  # same direction; its squares stay finite
    norm_u = float(np.linalg.norm(u))
    if not 0.0 < norm_u < np.inf:
        raise ValueError(f"direction u (default: the label centroid) must be nonzero and "
                         f"finite, got ||u|| = {norm_u!r}")
    u = u / norm_u
    lam = np.asarray(DEFAULT_RAY_GRID if lambdas is None else lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("lambdas must be a 1-d grid with at least 2 points")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"lambdas must be finite, got {lam.tolist()}")
    if lam[0] < 0 or not np.all(np.diff(lam) > 0):
        raise ValueError("lambdas must be nonnegative and strictly increasing")

    along = dist.margins(u)
    width = float(dist.weights @ np.abs(along))
    if width <= 0.0:
        raise ValueError(
            "E|u.x| = 0: the objective is unaffected along u (it varies only "
            "on the subspace orthogonal to u); probe a direction of positive width"
        )
    base_overlap = float(dist.weights @ np.abs(dist.margins(x0))) if x0.any() else 0.0
    phi0 = float(phi.eval(0.0))
    dphi0 = float(phi.deriv(0.0))

    if x0.any() or not all(l == 0.0 or math.frexp(l)[0] == 0.5 for l in lam):
        def margins_at(l):
            return dist.margins(x0 + l * u)
    else:
        # scaling by 0 or 2^k commutes with every rounding of x . u in the
        # normal range, so l m(u) is m(l u) bit for bit (inf past float64)
        def margins_at(l):
            with np.errstate(over="ignore"):
                return l * along
    values = np.array([_objective(phi, noisy, margins_at(l)) for l in lam])
    bounds = noisy.eta * (phi0 - dphi0 * lam * width + dphi0 * base_overlap)
    slack = values - bounds
    tail = values[-3:] if values.size >= 3 else values
    return RayProbe(
        base_point=x0,
        direction=u,
        lambdas=lam,
        values=values,
        lower_bounds=bounds,
        min_slack=float(slack.min()),
        bound_holds=bool(slack.min() >= -_BOUND_SLACK),
        eventually_increasing=bool(np.all(np.diff(tail) > 0)),
    )
