"""Minimizers of the expected potential over a Euclidean norm ball.

The unhinged loss admits a closed form: the expected loss is linear in
v, so the ball minimizer is the rescaled label centroid.  The hinge loss
is fit to a certified duality gap (the closed form when it certifies,
else a primal-dual interior point), and every other loss goes through
projected gradient descent.  All return the same :class:`FitResult` shape.

Each fit also takes a label-noise view (``distributions._NoisyView``) in
place of a distribution.  Its values and slopes are taken over 2n rows,
clean atom i's own label at m_i and its flipped one at -m_i, from one
margin vector per point; every product with x (the centroid and the
gradient) folds each atom's two rows into one coefficient of y_i x_i, and
only the hinge fit expands the view into 2n interleaved rows y x, never
sorted or merged.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, _interleave, _NoisyView, mean_label_feature
from .loss_zoo import NEITHER, LossOverflowError, PotentialFunction, _hinge_eval

_BALL_SLACK = 1e-12
_DEGENERATE_CENTROID_TOL = 1e-14
# rounding allowance on |P(v)| in the sufficient-decrease test
_DECREASE_ULPS = 4
# least share of the way to the boundary of the positive orthant (and the
# ball) that an interior-point step takes; it rises to 1 - sqrt(mu) as the
# mean complementarity mu falls, so that the last steps converge
# superlinearly instead of cutting the gap only 100-fold each
_STEP_TO_BOUNDARY = 0.99


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Hypothesis vector with the ball radius it was fit under.

    ``radius_bound`` is None for unconstrained outputs (dynamics).
    """

    v: np.ndarray
    radius_bound: float | None

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("v must be a finite 1-d vector")
        if self.radius_bound is not None:
            r = float(self.radius_bound)
            if not r > 0:
                raise ValueError(f"radius bound must be positive, got {r!r}")
            # r m/||m|| and a projection onto the ball round relative to r;
            # hypot scales, so it stays finite where ||v||^2 would overflow
            norm = math.hypot(*v.tolist())
            if norm > r + _BALL_SLACK * max(1.0, r):
                raise ValueError(f"||v|| = {norm!r} exceeds radius bound {r!r}")
            object.__setattr__(self, "radius_bound", r)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class FitResult:
    """A fitted ball minimizer and how its fit stopped.

    ``gradient_norm_final`` is PGD's last gradient-mapping norm (0.0 for a
    closed form, nan for the interior-point hinge fit, which has none).
    ``gap`` is a certified bound on ``objective`` minus the optimum: 0.0
    for the unhinged closed form (r ||m|| when the centroid m is
    degenerate), P(v) - D(a) for a hinge fit at the default step, and
    None for PGD.
    """

    weights: WeightVector
    objective: float
    iterations: int
    converged: bool
    gradient_norm_final: float
    degenerate_centroid: bool = False
    objective_history: tuple[float, ...] | None = None
    gap: float | None = None

    def to_dict(self) -> dict:
        return {
            "v": [float(c) for c in self.weights.v],
            "r": self.weights.radius_bound,
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm_final": self.gradient_norm_final,
            "degenerate_centroid": self.degenerate_centroid,
            "gap": self.gap,
        }


def unhinged_minimizer(dist: DiscreteDistribution | _NoisyView, r: float) -> FitResult:
    """Closed-form ball minimizer of the expected unhinged loss.

    The objective equals 1 - v . m with m the label centroid, so the
    minimizer is the boundary point r m/||m|| and the optimum value is
    1 - r ||m||.  A (near-)zero centroid makes every ball point optimal;
    that case returns the zero vector with the degeneracy flag set.
    Under a noise view m is the noisy centroid
    sum_i ((1 - eta) w_i - eta w_i) y_i x_i, folded atom by atom.
    """
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")
    m = mean_label_feature(dist)
    norm_m = float(np.linalg.norm(m))
    if norm_m <= _DEGENERATE_CENTROID_TOL:
        zero = np.zeros(dist.dimension)
        return FitResult(WeightVector(zero, r), 1.0, 0, True, 0.0,
                         degenerate_centroid=True, gap=r * norm_m)
    v = (r / norm_m) * m
    return FitResult(WeightVector(v, r), 1.0 - r * norm_m, 0, True, 0.0, gap=0.0)


@dataclass(frozen=True)
class PGDConfig:
    """Projected-gradient settings.

    With ``step=None`` the loss picks the method.  A loss that declares
    a C1 axiom class (every class but ``"neither"``) backtracks: the step
    starts at 1/lambda_max(E[x x^T]) and halves until the trial point
    passes a sufficient-decrease test.  The shipped hinge loss is fit to a
    certified duality gap, ``tol`` being the gap and ``max_iters`` the
    number of Newton steps.  Any other ``"neither"`` loss takes the fixed
    :func:`default_step`.  An explicit ``step`` is always fixed.
    """

    step: float | None = None
    max_iters: int = 50_000
    tol: float = 1e-9
    record_history: bool = False


def default_step(dist: DiscreteDistribution) -> float:
    """0.1 / (1 + E||x||^2): deterministic and scale-aware.

    The fixed step, when no step is given, of the subgradient path of a
    loss whose axiom class is ``"neither"``, other than the shipped hinge
    (which is fit to a certified gap instead).
    """
    return 0.1 / (1.0 + float(dist.weights @ np.sum(dist.xs ** 2, axis=1)))


def _curvature_step(dist: DiscreteDistribution) -> float:
    """1 / lambda_max(E[x x^T]), the step for a loss with 0 <= phi'' <= 1.

    Zero features (lambda_max = 0) get the largest finite reciprocal.
    """
    second = (dist.xs * dist.weights[:, None]).T @ dist.xs
    lam = float(np.linalg.eigvalsh(second)[-1])
    return 1.0 / max(lam, np.finfo(float).tiny)


def _project_ball(v: np.ndarray, r: float) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v if n <= r else v * (r / n)


def _overflow_at(loss: str, dist: DiscreteDistribution | _NoisyView, margins: np.ndarray,
                 idx: int) -> LossOverflowError:
    """The error naming row idx: an atom, or for a noise view clean atom
    idx // 2 with its own label (even idx) or its flipped one (odd idx)."""
    atom, sign = (idx // 2, 1 - 2 * (idx % 2)) if isinstance(dist, _NoisyView) else (idx, 1)
    return LossOverflowError(
        loss, float(margins[idx]), atom_index=atom,
        atom=(dist.xs[atom].tolist(), sign * int(dist.ys[atom])),
    )


def _per_atom(fn, dist: DiscreteDistribution | _NoisyView, margins: np.ndarray) -> np.ndarray:
    """fn(margins); an overflow names the first atom whose margin overflowed."""
    try:
        return fn(margins)
    except LossOverflowError as err:
        idx = int(np.nonzero(margins == err.z)[0][0])
        raise _overflow_at(err.loss, dist, margins, idx) from None


def _gradient(phi: PotentialFunction, dist: DiscreteDistribution | _NoisyView,
              margins: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """sum_i w_i phi'(m_i) y_i x_i, naming the atom whose term overflowed.

    That is the first atom with a non-finite term; when every term is
    finite and only the sum overflowed, the atom with the largest term.
    Under a noise view atom i's term is
    ((1 - eta) w_i phi'(m_i) - eta w_i phi'(-m_i)) y_i x_i, and the row
    named is the one of its two with the larger slope term.
    """
    rows = dist.weights * _per_atom(phi.deriv, dist, margins)
    noisy = isinstance(dist, _NoisyView)
    scaled = dist.fold(rows) if noisy else rows
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        g = scaled @ yx
        if np.all(np.isfinite(g)):
            return g
        terms = scaled[:, None] * yx
    bad = ~np.all(np.isfinite(terms), axis=1)
    idx = int(np.argmax(bad) if bad.any() else np.argmax(np.max(np.abs(terms), axis=1)))
    if noisy:
        idx = 2 * idx + int(abs(rows[2 * idx + 1]) > abs(rows[2 * idx]))
    raise _overflow_at(phi.name, dist, margins, idx)


def _sufficient_decrease(obj: float, trial_obj: float, g: np.ndarray,
                        d: np.ndarray, step: float) -> bool:
    """P(v + d) <= P(v) + <g, d> + ||d||^2 / (2 step), up to rounding in P."""
    slack = _DECREASE_ULPS * np.finfo(float).eps * abs(obj)
    return trial_obj <= obj + float(g @ d) + float(d @ d) / (2.0 * step) + slack


def _is_shipped_hinge(phi: PotentialFunction) -> bool:
    """Whether phi's value is the shipped hinge, through any timing wrappers."""
    return inspect.unwrap(phi.eval) is _hinge_eval


def _signed_rows(dist: DiscreteDistribution | _NoisyView) -> np.ndarray:
    """The rows y x of the hinge fit, one per weight.

    A noise view's 2n rows interleave clean atom i's y_i x_i and -y_i x_i;
    they are built here for the interior point, never sorted or merged.
    """
    yx = dist.ys[:, None] * dist.xs
    return _interleave(yx, -yx) if isinstance(dist, _NoisyView) else yx


def _hinge_dual(w: np.ndarray, yx: np.ndarray, lam: np.ndarray, r: float) -> float:
    """D(a) = sum_i w_i a_i - r ||sum_i w_i a_i y_i x_i|| at a = clip(lam / w, 0, 1).

    Every a in the box [0, 1]^n makes D(a) a lower bound on the hinge
    optimum over the radius-r ball.  Where the optimum lies inside the
    ball, sum_i w_i a_i y_i x_i tends to 0, and r would scale the rounding
    of that sum past any tolerance: a norm within the sum's rounding
    bound, (n + d) eps ||sum_i w_i a_i |y_i x_i|||, is taken as 0, so D
    is then exact to r times that bound.
    """
    wa = w * np.clip(lam / w, 0.0, 1.0)
    norm = float(np.linalg.norm(wa @ yx))
    if norm <= (w.size + yx.shape[1]) * np.finfo(float).eps * float(
            np.linalg.norm(wa @ np.abs(yx))):
        norm = 0.0
    return float(wa.sum()) - r * norm


def _to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    """The largest alpha with x + alpha dx >= 0, for x > 0 (inf if dx >= 0)."""
    shrink = dx < 0.0
    return float(np.min(-x[shrink] / dx[shrink])) if shrink.any() else math.inf


def _to_ball(s3: float, v: np.ndarray, dv: np.ndarray) -> float:
    """The largest alpha with (r^2 - ||v + alpha dv||^2) / 2 >= 0, given s3 at v."""
    b, c = float(v @ dv), float(dv @ dv)
    root = math.sqrt(b * b + 2.0 * c * s3)
    if b >= 0.0:
        return 2.0 * s3 / (b + root) if b + root > 0.0 else math.inf
    return (root - b) / c


def _mehrotra_step(w: np.ndarray, yx: np.ndarray, r: float, v: np.ndarray,
                   margins: np.ndarray, t: np.ndarray, lam1: np.ndarray,
                   lam2: np.ndarray, lam3: float):
    """One predictor-corrector step of the hinge epigraph problem.

    The primal slacks are s1 = t, s2 = t - 1 + y x.v and
    s3 = (r^2 - ||v||^2) / 2; the dual residuals are w - lam1 - lam2 and
    lam3 v - A^T lam2, with A the rows y_i x_i.  Eliminating t and the
    multipliers leaves one d x d system M dv = rhs, solved by Cholesky,
    with M = A^T E A + lam3 I + (lam3 / s3) v v^T.  Returns the next
    (v, t, lam1, lam2, lam3); raises ArithmeticError or LinAlgError when
    rounding leaves no interior step.
    """
    n = w.size
    s1, s2, s3 = t, t - 1.0 + margins, (r * r - float(v @ v)) / 2.0
    res_t = w - lam1 - lam2
    res_v = lam3 * v - lam2 @ yx
    d1, d2, d3 = lam1 / s1, lam2 / s2, lam3 / s3
    e = d1 * d2 / (d1 + d2)
    system = (yx * e[:, None]).T @ yx + d3 * np.outer(v, v)
    # the shift keeps M positive definite under rounding where A has a
    # null space and lam3 tends to 0 (an optimum inside the ball)
    system[np.diag_indices_from(system)] += (
        lam3 + np.finfo(float).eps * np.trace(system) * v.size)
    chol = np.linalg.cholesky(system)

    def newton(c1, c2, c3):
        # the step that moves each product s * lam by -c, to first order;
        # returns (dv, ds1, ds2, ds3, dlam1, dlam2, dlam3), with dt = ds1
        q1, q2, q3 = c1 / s1, c2 / s2, c3 / s3
        h = d2 * (res_t + q1 + q2) / (d1 + d2) - q2
        dv = np.linalg.solve(chol.T, np.linalg.solve(chol, h @ yx - res_v + q3 * v))
        adv = yx @ dv
        dt = -(res_t + q1 + q2 + d2 * adv) / (d1 + d2)
        return (dv, dt, adv + dt, -float(v @ dv),
                -d1 * dt - q1, -d2 * (adv + dt) - q2, d3 * float(v @ dv) - q3)

    def longest(dv, ds1, ds2, ds3, dl1, dl2, dl3):
        # ds3 is linearized; the ball test uses the exact ||v + alpha dv||
        return min(_to_boundary(s1, ds1), _to_boundary(s2, ds2), _to_ball(s3, v, dv),
                   _to_boundary(lam1, dl1), _to_boundary(lam2, dl2),
                   -lam3 / dl3 if dl3 < 0.0 else math.inf)

    mu = (s1 @ lam1 + s2 @ lam2 + s3 * lam3) / (2 * n + 1)
    # predictor: the affine-scaling step, aiming at s * lam = 0
    aff = newton(s1 * lam1, s2 * lam2, s3 * lam3)
    _, ds1, ds2, ds3, dl1, dl2, dl3 = aff
    alpha = min(1.0, longest(*aff))
    mu_aff = ((s1 + alpha * ds1) @ (lam1 + alpha * dl1)
              + (s2 + alpha * ds2) @ (lam2 + alpha * dl2)
              + (s3 + alpha * ds3) * (lam3 + alpha * dl3)) / (2 * n + 1)
    sigma_mu = (mu_aff / mu) ** 3 * mu
    # corrector: centre at sigma mu and cancel the predictor's
    # second-order term ds * dlam
    dv, dt, _, _, dl1, dl2, dl3 = step = newton(s1 * lam1 + ds1 * dl1 - sigma_mu,
                                               s2 * lam2 + ds2 * dl2 - sigma_mu,
                                               s3 * lam3 + ds3 * dl3 - sigma_mu)
    alpha = min(1.0, max(_STEP_TO_BOUNDARY, 1.0 - math.sqrt(mu)) * longest(*step))
    if not alpha > 0.0:
        raise FloatingPointError("no interior step is left")
    return (v + alpha * dv, t + alpha * dt, lam1 + alpha * dl1, lam2 + alpha * dl2,
            lam3 + alpha * dl3)


def _hinge_fit(dist: DiscreteDistribution | _NoisyView, phi: PotentialFunction, r: float,
               cfg: PGDConfig) -> FitResult:
    """Certified hinge fit over the ball, stopping on a duality gap <= tol.

    First the unhinged closed form: hinge >= unhinged pointwise, so the
    dual point a = 1, D(1) = 1 - r ||m||, bounds the optimum, and the
    closed form is returned (0 iterations) when its hinge value is within
    tol of that bound.  Otherwise a primal-dual interior point (Mehrotra
    1992) on min w.t s.t. t >= 0, t >= 1 - y x.v, ||v||^2 <= r^2, with
    multipliers lam1, lam2, lam3, starting at v = 0.  Every iterate lies
    strictly inside the ball; the fit returns the best one and stops when
    P(best v) - max D(clip(lam2 / w, 0, 1)) <= tol, when max_iters
    Newton steps are spent, or when rounding leaves no interior step.
    """
    w = dist.weights
    yx = _signed_rows(dist)

    closed = unhinged_minimizer(dist, r)
    obj = float(w @ _per_atom(phi.eval, dist, dist.margins(closed.weights.v)))
    gap = obj - _hinge_dual(w, yx, w, r)
    if gap <= cfg.tol:
        return FitResult(closed.weights, obj, 0, True, 0.0, gap=gap,
                         objective_history=(obj,) if cfg.record_history else None)

    v = np.zeros(dist.dimension)
    margins = dist.margins(v)
    t = np.full(w.size, 2.0)
    lam1, lam2 = w / 2.0, w / 2.0
    # centred start: lam3 s3 equals the mean of the other 2n products
    lam3 = float(t @ lam1 + (t - 1.0) @ lam2) / (2 * w.size) / (r * r / 2.0)
    best_v = v
    best_obj = float(w @ _per_atom(phi.eval, dist, margins))
    best_dual = _hinge_dual(w, yx, lam2, r)
    history = [best_obj] if cfg.record_history else None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                v, t, lam1, lam2, lam3 = _mehrotra_step(w, yx, r, v, margins, t,
                                                        lam1, lam2, lam3)
        except (ArithmeticError, np.linalg.LinAlgError):
            iterations -= 1
            break
        margins = dist.margins(v)
        obj = float(w @ _per_atom(phi.eval, dist, margins))
        if history is not None:
            history.append(obj)
        if obj < best_obj:
            best_v, best_obj = v, obj
        best_dual = max(best_dual, _hinge_dual(w, yx, lam2, r))
        if best_obj - best_dual <= cfg.tol:
            converged = True
            break
    return FitResult(
        WeightVector(best_v, r), best_obj, iterations, converged, math.nan,
        gap=best_obj - best_dual,
        objective_history=tuple(history) if history is not None else None,
    )


def pgd_minimizer(dist: DiscreteDistribution | _NoisyView, phi: PotentialFunction,
                  r: float, cfg: PGDConfig | None = None) -> FitResult:
    """Projected gradient descent on E[phi(y v.x)] over the radius-r ball.

    Starts at v = 0, runs v <- proj(v - step * grad), and stops when the
    gradient-mapping norm ||v - proj(v - step g)|| / step drops to the
    tolerance or the iteration budget runs out.  Returns the best iterate
    seen, so the objective contract holds even with an aggressive step.

    Step rule: with ``cfg.step`` None and a loss of a C1 axiom class
    (exponential, mixed, logistic, unhinged) the step starts at
    1/lambda_max(E[x x^T]) and is halved (never raised again) whenever the
    trial point fails P(v+) <= P(v) + <g, v+ - v> + ||v+ - v||^2 / (2 step)
    (Beck & Teboulle 2009); if halving would reach zero, or the trial
    point stops moving while the Frank-Wolfe gap <g, v> + r ||g|| exceeds
    the tolerance, the fit stops as not converged.  The shipped hinge loss
    with ``cfg.step`` None is fit to a certified duality gap instead (see
    :func:`_hinge_fit`): the unhinged closed form when it certifies, else
    a primal-dual interior point, stopping when the gap is at most
    ``cfg.tol``.  Any other ``"neither"`` loss takes the fixed
    :func:`default_step`, and an explicit step is fixed for every loss.
    A zero step is allowed for diagnostics; the raw gradient norm is then
    reported and the iterate never moves.  Under a noise view the step
    comes from the clean atoms, whose feature masses the noise keeps.
    """
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")
    cfg = cfg or PGDConfig()
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    for field in ("step", "tol"):
        value = getattr(cfg, field)
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{field} must be finite and nonnegative, got {value!r}")
    if cfg.step is None and _is_shipped_hinge(phi):
        return _hinge_fit(dist, phi, r, cfg)
    backtrack = cfg.step is None and phi.axiom_class != NEITHER
    atoms = dist.clean if isinstance(dist, _NoisyView) else dist
    if backtrack:
        step = _curvature_step(atoms)
    else:
        step = default_step(atoms) if cfg.step is None else float(cfg.step)

    yx = dist.ys[:, None] * dist.xs
    w = dist.weights
    v = np.zeros(dist.dimension)
    # one margin vector per trial point: an accepted trial's margins give
    # the value at the new iterate and the slope taken from it
    margins = dist.margins(v)
    obj = float(w @ _per_atom(phi.eval, dist, margins))
    best_v, best_obj = v, obj
    history = [obj] if cfg.record_history else None
    converged = False
    pg_norm = float("nan")
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        g = _gradient(phi, dist, margins, yx)
        while True:
            candidate = _project_ball(v - step * g, r) if step > 0 else v
            trial = dist.margins(candidate)
            trial_obj = float(w @ _per_atom(phi.eval, dist, trial))
            accepted = not backtrack or _sufficient_decrease(
                obj, trial_obj, g, candidate - v, step)
            if accepted or step / 2.0 == 0.0:
                break
            step /= 2.0
        if not accepted:
            break  # halving would reach a zero step: stop, not converged
        if step > 0:
            pg_norm = float(np.linalg.norm(v - candidate)) / step
        else:
            pg_norm = float(np.linalg.norm(g))
        if (backtrack and pg_norm == 0.0
                and float(g @ v) + r * float(np.linalg.norm(g)) > cfg.tol):
            break  # step * g underflowed: v cannot move, yet its Frank-Wolfe gap is open
        v, margins, obj = candidate, trial, trial_obj
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
