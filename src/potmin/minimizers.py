"""Minimizers of the expected potential over a Euclidean norm ball.

The unhinged loss admits a closed form: the expected loss is linear in
v, so the ball minimizer is the rescaled label centroid.  Every iterative
fit stops on a certificate.  The hinge loss is fit to a duality gap (the
closed form when it certifies, else a primal-dual interior point), and a
loss that declares its curvature (every other shipped loss) by Newton
steps over the ball to a Frank-Wolfe gap.  :func:`pgd_minimizer` runs
the fit each loss declares (``PotentialFunction.fit``); all return the
same :class:`FitResult` shape.

Each fit also takes a label-noise view (``distributions._NoisyView``) in
place of a distribution, both read through one layout: row k i + j is
atom i with label row_signs[j] y_i, k = len(dist.row_signs).  Values and
slopes are taken per row, except the value of a loss that reflects
(``phi.reflects``: phi(-t) = fl(2t + phi(t)) for t >= 0, as numpy's
logaddexp gives the shipped logistic loss) under a noise view of
``_PER_ATOM_MIN`` (512) atoms or more, taken once per atom
(:func:`_view_objective`).  Every
product with x (the centroid, the gradient) folds an atom's rows,
signed, into one coefficient of y_i x_i, and the curvature adds them
unsigned, as (s y x)(s y x)^T = x x^T.
Only the hinge fit builds the rows s y x, never sorted or merged.  One
helper evaluates E[phi] (:func:`_objective`); one forms g and H from the
atoms and names an overflow (:func:`_row_sum`); one rule zeroes a norm
within its sum's rounding for both gaps (:func:`_sum_norm`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (DiscreteDistribution, _fold, _NoisyView, _positive,
                            _readonly, _rows, _vector, mean_label_feature)
from .loss_zoo import LossOverflowError, PotentialFunction

_EPS = float(np.finfo(float).eps)
_BALL_SLACK = 1e-12
_DEGENERATE_CENTROID_TOL = 1e-14
# rounding allowance on |P(v)| in the Newton line search
_DECREASE_ULPS = 4
# least share of the way to the boundary of the positive orthant (and the
# ball) that an interior-point step takes; it rises to 1 - sqrt(mu) as the
# mean complementarity mu falls, so that the last steps converge
# superlinearly instead of cutting the gap only 100-fold each
_STEP_TO_BOUNDARY = 0.99
# largest ball radius the iterative fits step in: r^2 stays finite
_INTERIOR_RADIUS = 2.0**511
# a Newton fit whose gap is at most tol stops once the gap no longer
# halves, or once it is at most this share of tol: stopping at the first
# gap <= tol left objectives up to 5e-10 above what one more step reached
_GAP_FLOOR = 1e-3
# sufficient-decrease constant of the Newton line search (Armijo)
_ARMIJO = 1e-4
# cap on the Newton iterations of the secular equation; they converge
# quadratically, and a step that leaves the bracket bisects it instead
_SECULAR_ITERS = 100
# most Newton or interior-point steps of one fit
_MAX_ITERS = 50_000
# the absolute gap that certifies a Newton or hinge fit, whatever r
_TOL = 1e-9
# fewest atoms of a noise view whose value is taken once per atom when phi reflects
# (see _view_objective): its six extra numpy calls cost more than the
# logaddexps they save on fewer atoms; against the row-by-row evaluation it
# took 1.27 times as long at 256 atoms, 1.04 at 512 and 0.84 at 1024
# (2-vCPU VM, numpy 2.4.6)
_PER_ATOM_MIN = 512


def _norm(x: np.ndarray) -> float:
    """||x||, by hypot: it scales, so it stays finite where ||x||^2 would overflow."""
    return math.hypot(*x.tolist())


def _scaled(dist: DiscreteDistribution | _NoisyView, e: int) -> DiscreteDistribution | _NoisyView:
    """dist with every x scaled by 2^-e: a shallow copy, neither checked nor merged again."""
    if isinstance(dist, _NoisyView):
        return _NoisyView(_scaled(dist.clean, e), dist.eta)
    scaled = copy.copy(dist)
    object.__setattr__(scaled, "xs", _readonly(np.ldexp(dist.xs, -e)))
    object.__setattr__(scaled, "x_exponent", dist.x_exponent - e)
    return scaled


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted ball minimizer v, the radius r it was fit under, and how its
    fit stopped.

    ``gap`` bounds ``objective`` minus the optimum over the ball: 0.0 for
    the unhinged closed form (r ||m|| when the centroid m is degenerate),
    P(v) - D(a) for a hinge fit, and for a Newton fit the Frank-Wolfe gap
    <g, v> + r ||g|| at the returned v (a bound whenever the loss is
    convex).  ``stop_reason`` says why the fit stopped: ``"closed-form"``;
    ``"gap"`` (gap <= ``_TOL``); ``"budget"`` (``_MAX_ITERS`` steps spent);
    ``"no-decrease"`` (Newton: no step lowers the objective, with the gap
    above tol); ``"rounding"`` (hinge: no interior step is left).

    ``v`` is checked through ||v||, which the radius test takes anyway: its
    hypot is inf or NaN whenever an entry is, so only then, or for a v that
    is not 1-d, is v searched for the entry to name.
    """

    v: np.ndarray
    r: float
    objective: float
    iterations: int
    gap: float
    stop_reason: str
    degenerate_centroid: bool = False

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        norm = _norm(v) if v.ndim == 1 else math.nan
        if not math.isfinite(norm):
            _vector("v", v, v.size)
        r = _positive("radius bound", self.r)
        # r m/||m|| and a projection onto the ball round relative to r
        if norm > r + _BALL_SLACK * max(1.0, r):
            raise ValueError(f"||v|| = {norm!r} exceeds radius bound {r!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", _readonly(v))

    @property
    def converged(self) -> bool:
        """Whether the fit is certified: a closed form or a gap within tol."""
        return self.stop_reason in ("closed-form", "gap")

    def to_dict(self) -> dict:
        return {
            "v": [float(c) for c in self.v],
            "r": self.r,
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "degenerate_centroid": self.degenerate_centroid,
            "gap": self.gap,
            "stop_reason": self.stop_reason,
        }


def unhinged_minimizer(dist: DiscreteDistribution | _NoisyView, r: float) -> FitResult:
    """Closed-form ball minimizer of the expected unhinged loss.

    The objective equals 1 - v . m with m the label centroid, so the
    minimizer is the boundary point r m/||m|| and the optimum value is
    1 - r ||m||.  A (near-)zero centroid makes every ball point optimal;
    that case returns the zero vector with the degeneracy flag set.
    Under a noise view m is the noisy centroid
    sum_i ((1 - eta) w_i - eta w_i) y_i x_i, folded atom by atom.
    m is scaled by 2^-e, e the exponent of max|x|, so it squares finitely
    and is near-zero relative to max|x|; r ||m|| is (r ||m 2^-e||) 2^e.
    A radius that overflows r ||m|| or v raises ValueError, degenerate or not.
    """
    r = _positive("radius", r)
    e = dist.x_exponent
    m = np.ldexp(mean_label_feature(dist), -e)
    norm_m = math.sqrt(float(m.dot(m)))   # np.linalg.norm(m), bit for bit
    degenerate = norm_m <= _DEGENERATE_CENTROID_TOL
    with np.errstate(over="ignore"):
        r_norm_m = float(np.ldexp(r * norm_m, e))
        v = np.zeros(dist.dimension) if degenerate else (r / norm_m) * m
        if not (np.isfinite(v).all() and math.isfinite(r_norm_m)):
            raise ValueError(f"radius {r!r} overflows float64 in r m/||m|| "
                             f"(||m|| = {float(np.ldexp(norm_m, e))!r})")
    if degenerate:
        return FitResult(v, r, 1.0, 0, r_norm_m, "closed-form", degenerate_centroid=True)
    return FitResult(v, r, 1.0 - r_norm_m, 0, 0.0, "closed-form")


def _overflow_at(loss: str, dist: DiscreteDistribution | _NoisyView, margins: np.ndarray,
                 idx: int) -> LossOverflowError:
    """The error naming row idx: atom idx // k with label row_signs[idx % k] y."""
    atom, j = divmod(idx, len(dist.row_signs))
    return LossOverflowError(
        loss, float(margins[idx]), atom_index=atom,
        atom=(dist.xs[atom].tolist(), int(dist.row_signs[j] * dist.ys[atom])),
    )


def _largest_row(rows: np.ndarray, k: int, atom: int) -> int:
    """The row of atom's k whose |term| is largest, the first on a tie."""
    return k * atom + int(np.argmax(np.abs(rows[k * atom:k * atom + k])))


def _per_atom(fn, dist: DiscreteDistribution | _NoisyView, margins: np.ndarray) -> np.ndarray:
    """fn(margins); an overflow names the first atom whose margin overflowed."""
    try:
        return fn(margins)
    except LossOverflowError as err:
        idx = int(np.nonzero(margins == err.z)[0][0])
        raise _overflow_at(err.loss, dist, margins, idx) from None


def _objective(phi: PotentialFunction, dist: DiscreteDistribution | _NoisyView,
               margins: np.ndarray) -> float:
    """E[phi] at the row margins: sum over rows of weight times phi(margin).

    Under a noise view of at least ``_PER_ATOM_MIN`` atoms a loss that
    reflects is taken once per atom, from the clean margins m_i at rows 2i
    (see :func:`_view_objective`).
    """
    if len(dist.row_signs) == 2 and phi.reflects and margins.size // 2 >= _PER_ATOM_MIN:
        return _view_objective(phi, dist, margins[0::2])
    return float(dist.weights @ _per_atom(phi.eval, dist, margins))


def _view_objective(phi: PotentialFunction, view: _NoisyView, m: np.ndarray) -> float:
    """E[phi] over a noise view at its clean margins m: :func:`_objective` at
    the rows m_i, -m_i, bit for bit.

    A loss that reflects, as the shipped logistic loss does, needs no rows:
    numpy's logaddexp(0, a) is a + log1p(exp(-a)) for a > 0 and
    log1p(exp(-|a|)) otherwise, so phi(z) = log(1 + exp(-2z)) is
    fl((|z| - z) + phi(|z|)) at every margin z, with |z| - z = max(-2z, 0)
    exactly and the same exp argument -2|z| on both sides.  So phi.eval
    runs once per atom, at |m_i|, and row 2i gets (|m_i| - m_i) +
    phi(|m_i|), row 2i + 1 (|m_i| + m_i) + phi(|m_i|).  A row that is not
    finite leaves the sum not finite; such a sum, any other loss, and a
    view of fewer than ``_PER_ATOM_MIN`` atoms are taken row by row, where
    an overflow raises naming its atom and label.
    """
    if phi.reflects and m.size >= _PER_ATOM_MIN:
        a = np.abs(m)
        p = phi.eval(a)
        values = np.empty((m.size, 2))
        own, flipped = values[:, 0], values[:, 1]
        # |z| - z overflows where -2z does; the row evaluation names it
        with np.errstate(over="ignore"):
            np.subtract(a, m, out=own)
            own += p
            np.add(a, m, out=flipped)
            flipped += p
        value = float(view.weights @ values.ravel())
        if math.isfinite(value):
            return value
    return float(view.weights @ _per_atom(phi.eval, view, _rows(m, view.row_signs)))


def _row_sum(phi: PotentialFunction, dist: DiscreteDistribution | _NoisyView,
             margins: np.ndarray, outer: bool) -> tuple[np.ndarray, np.ndarray]:
    """g = sum_i c_i y_i x_i (H = sum_i c_i x_i x_i^T if ``outer``) on the atoms,
    and next to g per atom the sum of its |rows|, which bounds c_i and its
    rounding (next to H, c).

    For g, c_i folds atom i's rows w phi'(m) signed by their labels (under
    a noise view c_i = (1 - eta) w_i phi'(m_i) - eta w_i phi'(-m_i)); for
    H it adds the rows w phi''(m) unsigned.  As y = +-1, (c_i y_i) x_ij
    rounds as c_i (y_i x_ij) does.  A sum that is not finite names the
    row, of the atom whose own term has the largest |entry| (non-finite
    counts as largest, the first atom wins a tie), with the largest
    |term|.  Entries are c_i x_ij, or (c_i x_ij) x_ij (the diagonal of
    c_i x_i x_i^T, where its largest lie): no 0 * inf.
    """
    unsigned = [s * s for s in dist.row_signs]
    rows = dist.weights * _per_atom(phi.curv if outer else phi.deriv, dist, margins)
    c = _fold(rows, unsigned if outer else dist.row_signs)
    xs = dist.xs
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        total = (xs * c[:, None]).T @ xs if outer else (c * dist.ys) @ xs
        if np.isfinite(total).all():
            return total, c if outer else _fold(np.abs(rows), unsigned)
        terms = np.abs(xs * c[:, None])
        largest = np.max(terms * np.abs(xs) if outer else terms, axis=1)
    idx = int(np.argmax(np.where(np.isfinite(largest), largest, np.inf)))
    raise _overflow_at(phi.name, dist, margins, _largest_row(rows, len(unsigned), idx))


def _sum_norm(c: np.ndarray, abs_a: np.ndarray, total: np.ndarray) -> float:
    """||total|| for total = sum_i c_i a_i, but 0 within its rounding bound
    (n + d) eps ||sum_i |c_i| abs_a_i||, both by hypot: near an optimum inside
    the ball the sum tends to 0, and r would scale its rounding past any tol.
    """
    norm = _norm(total)
    return 0.0 if norm <= (c.size + total.size) * _EPS * _norm(np.abs(c) @ abs_a) else norm


def _ball_model_minimizer(h: np.ndarray, b: np.ndarray, r: float) -> np.ndarray:
    """argmin of <b, x> + x^T h x / 2 over ||x|| <= r, for a symmetric PSD h.

    With h = Q diag(mu) Q^T and beta = Q^T b, the minimizer is
    x(lam) = -Q (beta / (mu + lam)) at the least lam >= 0 with
    ||x(lam)|| <= r (More & Sorensen 1983).  Eigenvalues within the
    rounding of eigh, d eps max(mu), count as 0.  lam = 0 is taken when
    beta has no component there beyond its own rounding and x(0) lies in
    the ball; otherwise the model falls along that null space (a loss on
    its linear branch) or its minimizer lies outside, and lam > 0 solves
    ||x(lam)|| = r by Newton's method on 1/||x(lam)|| - 1/r, which is
    nearly linear in lam, kept inside a bisection bracket.  The result is
    scaled into the ball.
    """
    mu, q = np.linalg.eigh(h)
    null = mu <= h.shape[0] * _EPS * max(float(mu[-1]), 0.0)
    mu = np.where(null, 0.0, mu)
    beta = q.T @ b
    norm_beta = float(np.linalg.norm(beta))
    if np.linalg.norm(beta[null]) <= h.shape[0] * _EPS * norm_beta:
        x = -q[:, ~null] @ (beta[~null] / mu[~null])
        if _norm(x) <= r:
            return x
    # ||x(lam)|| lies between ||beta|| / (max(mu) + lam) and ||beta|| / lam
    lam_lo, lam_hi = max(0.0, norm_beta / r - float(mu[-1])), norm_beta / r
    lam = lam_hi
    for _ in range(_SECULAR_ITERS):
        p = beta / (mu + lam)
        size = _norm(p)
        if size > r:
            lam_lo = lam
        else:
            lam_hi = lam
        if abs(size - r) <= 4.0 * _EPS * r or lam_hi - lam_lo <= 4.0 * _EPS * lam_hi:
            break
        # d/dlam (1/||p||) = <u, u / (mu + lam)> / ||p|| at the unit vector u = p / ||p||
        u = p / size
        lam += (size / r - 1.0) / float(u @ (u / (mu + lam)))
        if not lam_lo < lam < lam_hi:
            lam = (lam_lo + lam_hi) / 2.0
    return -(q @ p) * min(1.0, r / size)


def _signed_rows(dist: DiscreteDistribution | _NoisyView) -> np.ndarray:
    """The hinge fit's rows, one per weight, row k i + j = row_signs[j] y_i x_i."""
    return _rows(dist.ys[:, None] * dist.xs, dist.row_signs)


def _hinge_dual(w: np.ndarray, yx: np.ndarray, abs_yx: np.ndarray, lam: np.ndarray,
                r: float) -> float:
    """D(a) = sum_i w_i a_i - r ||sum_i w_i a_i y_i x_i|| at a = clip(lam / w, 0, 1).

    Every a in the box [0, 1]^n makes D(a) a lower bound on the hinge
    optimum over the radius-r ball.  The norm is :func:`_sum_norm`'s, 0
    within the sum's rounding, so D is then exact to r times that bound;
    abs_yx is |yx|, taken once per fit.
    """
    wa = w * np.clip(lam / w, 0.0, 1.0)
    return float(wa.sum()) - r * _sum_norm(wa, abs_yx, wa @ yx)


def _to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    """The largest alpha with x + alpha dx >= 0, for x > 0 (inf if dx >= 0).

    One ratio test per Newton direction, over the stacked slacks and
    multipliers: one masked divide and a max.  x / dx is -(-x / dx) bit for
    bit, and only the entries with dx < 0 are divided, so the result and
    the floating-point exceptions raised are those of min(-x / dx) over
    those entries.
    """
    ratios = np.divide(x, dx, out=np.full_like(x, -math.inf), where=dx < 0.0)
    return -float(np.max(ratios))


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
    with M = A^T E A + lam3 I + (lam3 / s3) v v^T.  Each direction's step
    length comes from one ratio test over the stacked (s1, s2, lam1, lam2),
    plus the ball and lam3.  Returns the next (v, t, lam1, lam2, lam3);
    raises ArithmeticError or LinAlgError when rounding leaves no interior
    step.
    """
    n = w.size
    s1, s2, s3 = t, t - 1.0 + margins, (r * r - float(v @ v)) / 2.0
    sl1, sl2, sl3 = s1 * lam1, s2 * lam2, s3 * lam3
    res_t = w - lam1 - lam2
    res_v = lam3 * v - lam2 @ yx
    d1, d2, d3 = lam1 / s1, lam2 / s2, lam3 / s3
    d12 = d1 + d2
    e = d1 * d2 / d12
    system = (yx * e[:, None]).T @ yx + d3 * np.outer(v, v)
    # the shift keeps M positive definite under rounding where A has a
    # null space and lam3 tends to 0 (an optimum inside the ball)
    system.flat[::v.size + 1] += lam3 + np.finfo(float).eps * np.trace(system) * v.size
    chol = np.linalg.cholesky(system)
    slack = np.concatenate((s1, s2, lam1, lam2))

    def newton(c1, c2, c3):
        # the step that moves each product s * lam by -c, to first order;
        # returns (dv, (ds1, ds2, dlam1, dlam2) stacked, ds3, dlam3), with
        # dt = ds1
        q1, q2, q3 = c1 / s1, c2 / s2, c3 / s3
        rq = res_t + q1 + q2
        h = d2 * rq / d12 - q2
        dv = np.linalg.solve(chol.T, np.linalg.solve(chol, h @ yx - res_v + q3 * v))
        adv = yx @ dv
        dt = -(rq + d2 * adv) / d12
        ds2 = adv + dt
        vdv = float(v @ dv)
        return (dv, np.concatenate((dt, ds2, -d1 * dt - q1, -d2 * ds2 - q2)), -vdv,
                d3 * vdv - q3)

    def longest(dv, dx, ds3, dl3):
        # ds3 is linearized; the ball test uses the exact ||v + alpha dv||
        return min(_to_boundary(slack, dx), _to_ball(s3, v, dv),
                   -lam3 / dl3 if dl3 < 0.0 else math.inf)

    mu = (s1 @ lam1 + s2 @ lam2 + sl3) / (2 * n + 1)
    # predictor: the affine-scaling step, aiming at s * lam = 0
    aff = newton(sl1, sl2, sl3)
    _, dx, ds3, dl3 = aff
    ds1, ds2, dl1, dl2 = dx.reshape(4, n)
    alpha = min(1.0, longest(*aff))
    mu_aff = ((s1 + alpha * ds1) @ (lam1 + alpha * dl1)
              + (s2 + alpha * ds2) @ (lam2 + alpha * dl2)
              + (s3 + alpha * ds3) * (lam3 + alpha * dl3)) / (2 * n + 1)
    sigma_mu = (mu_aff / mu) ** 3 * mu
    # corrector: centre at sigma mu and cancel the predictor's
    # second-order term ds * dlam
    step = newton(sl1 + ds1 * dl1 - sigma_mu, sl2 + ds2 * dl2 - sigma_mu,
                  sl3 + ds3 * dl3 - sigma_mu)
    dv, dx, _, dl3 = step
    dt, _, dl1, dl2 = dx.reshape(4, n)
    alpha = min(1.0, max(_STEP_TO_BOUNDARY, 1.0 - math.sqrt(mu)) * longest(*step))
    if not alpha > 0.0:
        raise FloatingPointError("no interior step is left")
    return (v + alpha * dv, t + alpha * dt, lam1 + alpha * dl1, lam2 + alpha * dl2,
            lam3 + alpha * dl3)


def _hinge_fit(dist: DiscreteDistribution | _NoisyView, phi: PotentialFunction,
               r: float) -> FitResult:
    """Certified hinge fit over the ball, stopping on a duality gap <= tol = ``_TOL``.

    First the unhinged closed form: hinge >= unhinged pointwise, so the
    dual point a = 1, D(1) = 1 - r ||m||, bounds the optimum, and the
    closed form is returned (0 iterations) when its hinge value is within
    tol of that bound.  Otherwise a primal-dual interior point (Mehrotra
    1992) on min w.t s.t. t >= 0, t >= 1 - y x.v, ||v||^2 <= r^2, with
    multipliers lam1, lam2, lam3, starting at v = 0.  Every iterate lies
    strictly inside the ball; the fit returns the best one and stops when
    P(best v) - max D(clip(lam2 / w, 0, 1)) <= tol, when ``_MAX_ITERS``
    Newton steps are spent, or when rounding leaves no interior step.
    Beyond ``_INTERIOR_RADIUS`` the candidate and the steps keep to that
    smaller ball, whose points also lie in the radius-r ball, so that r^2
    stays finite; D keeps the true r, so the certificate still bounds the
    radius-r problem.
    """
    w = dist.weights
    yx = _signed_rows(dist)
    abs_yx = np.abs(yx)
    rho = min(r, _INTERIOR_RADIUS)

    closed = unhinged_minimizer(dist, rho)
    obj = _objective(phi, dist, dist.margins(closed.v))
    gap = obj - _hinge_dual(w, yx, abs_yx, w, r)
    if gap <= _TOL:
        return FitResult(closed.v, r, obj, 0, gap, "gap")

    v = np.zeros(dist.dimension)
    margins = dist.margins(v)
    t = np.full(w.size, 2.0)
    lam1, lam2 = w / 2.0, w / 2.0
    # centred start: lam3 s3 equals the mean of the other 2n products
    lam3 = float(t @ lam1 + (t - 1.0) @ lam2) / (2 * w.size) / (rho * rho / 2.0)
    best_v = v
    best_obj = _objective(phi, dist, margins)
    # the hinge is nonnegative, so a = 0 gives the bound D(0) = 0
    best_dual = max(0.0, _hinge_dual(w, yx, abs_yx, lam2, r))
    reason = "budget"
    iterations = 0
    for iterations in range(1, _MAX_ITERS + 1):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                v, t, lam1, lam2, lam3 = _mehrotra_step(w, yx, rho, v, margins, t,
                                                        lam1, lam2, lam3)
        except (ArithmeticError, np.linalg.LinAlgError):
            iterations -= 1
            reason = "rounding"
            break
        margins = dist.margins(v)
        obj = _objective(phi, dist, margins)
        if obj < best_obj:
            best_v, best_obj = v, obj
        best_dual = max(best_dual, _hinge_dual(w, yx, abs_yx, lam2, r))
        if best_obj - best_dual <= _TOL:
            reason = "gap"
            break
    return FitResult(best_v, r, best_obj, iterations, best_obj - best_dual, reason)


def _newton_fit(dist: DiscreteDistribution | _NoisyView, phi: PotentialFunction,
                r: float) -> FitResult:
    """Certified fit of a loss with a curvature: Newton steps over the ball.

    From v = 0, each step takes the gradient g and the curvature
    H = sum_i w_i phi''(m_i) x_i x_i^T at v, minimizes the quadratic model
    <g, x - v> + (x - v)^T H (x - v) / 2 over the ball
    (:func:`_ball_model_minimizer`), and searches the segment from v to
    that x, which stays in the ball, for the first t = 1, 1/2, ... with
    P(v + t (x - v)) <= P(v) + 1e-4 t <g, x - v>, up to a few ulps of P(v).
    With H = 0 (a loss linear in the margin) the model minimizer
    -r g/||g|| is the optimum.  The Frank-Wolfe gap <g, v> + r ||g||
    bounds P(v) minus the optimum over the ball, and ``_TOL`` bounds it
    in absolute terms, whatever r.  ||g|| is :func:`_sum_norm`'s, 0 within
    the rounding of the sum g, bounded by each atom's |rows| (a noisy c_i
    rounds relative to them).  On the boundary the two terms cancel, and a
    gap within their rounding, (d + 2) eps (|g|.|v| + r ||g||), counts as
    0 too; one that overflows never halves.  The fit stops, certified, once
    the gap is at most tol and no longer halves (or is at most 1e-3 tol).
    Otherwise it stops when ``_MAX_ITERS`` Newton steps are spent, when no
    t passes the test before t (x - v) underflows, or when a step neither
    lowered P nor halved the gap; the last two count as certified if the
    gap is at most tol.  Every step lowers P up to rounding, so the last
    iterate is the best.  Beyond ``_INTERIOR_RADIUS`` the steps run on that
    smaller ball, inside the radius-r one, so that the model's multiplier
    ||beta|| / radius stays a normal float; the gap keeps r.
    """
    abs_xs = np.abs(dist.xs)
    rho = min(r, _INTERIOR_RADIUS)
    v = np.zeros(dist.dimension)
    # one margin vector per trial point
    margins = dist.margins(v)
    obj = _objective(phi, dist, margins)
    last_gap = math.inf
    stalled = False
    iterations = 0
    while True:
        g, row_mass = _row_sum(phi, dist, margins, False)
        norm_g = _sum_norm(row_mass, abs_xs, g)
        gap = float(g @ v) + r * norm_g
        rounding = (v.size + 2) * _EPS * (float(np.abs(g) @ np.abs(v)) + r * norm_g)
        if abs(gap) <= rounding < math.inf:
            gap = 0.0
        halved = 2.0 * gap <= last_gap and gap < math.inf
        if gap <= _TOL and (gap <= _GAP_FLOOR * _TOL or not halved):
            reason = "gap"
            break
        if stalled and not halved:
            reason = "no-decrease"  # neither P nor the gap falls any more
            break
        if iterations == _MAX_ITERS:
            reason = "budget"
            break
        iterations += 1
        h = _row_sum(phi, dist, margins, True)[0]
        d = _ball_model_minimizer(h, g - h @ v, rho) - v
        slope = float(g @ d)
        t = 1.0
        while True:
            candidate = v + t * d
            if (candidate == v).all():
                accepted = False  # t * d underflowed: no trial point is left
                break
            trial = dist.margins(candidate)
            try:
                trial_obj = _objective(phi, dist, trial)
            except LossOverflowError:
                trial_obj = math.inf  # far above P(v), which is finite
            accepted = trial_obj <= obj + _ARMIJO * t * slope + _DECREASE_ULPS * _EPS * abs(obj)
            if accepted:
                break
            t /= 2.0
        if not accepted:
            reason = "gap" if gap <= _TOL else "no-decrease"
            break
        # near an interior optimum the gap, (r - ||v||) ||g|| or more, can
        # still fall while P moves only within its rounding
        stalled = not trial_obj < obj
        v, margins, obj, last_gap = candidate, trial, trial_obj, gap
    return FitResult(v, r, obj, iterations, gap, reason)


def pgd_minimizer(dist: DiscreteDistribution | _NoisyView, phi: PotentialFunction,
                  r: float) -> FitResult:
    """Minimize E[phi(y v.x)] over the radius-r ball, by the one fit of phi.

    The fit is the one ``phi.fit`` declares.  ``"closed-form"`` (unhinged)
    is :func:`unhinged_minimizer` (gap 0).  ``"newton"``, the default for a
    loss with a curvature, runs from v = 0 by Newton steps over the ball to
    a Frank-Wolfe gap <g, v> + r ||g|| <= ``_TOL`` (see :func:`_newton_fit`),
    and ``"interior-point"`` (hinge) to a duality gap (see
    :func:`_hinge_fit`): the unhinged closed form when it certifies, else a
    primal-dual interior point.  No fit, ``"newton"`` without a curvature,
    or an unknown fit raises ValueError naming the loss, as does a radius
    that is not positive and finite.  The name is kept from the projected
    gradient descent these fits replaced.
    Both iterative fits see the same margins on x' = x 2^-e at radius
    r' = r 2^e and return v 2^-e.  e depends only on s = ex + er, for the
    binary exponents ex of max|x| and er of r (r max|x| < 2^s), so every
    (x 2^k, r 2^-k) is fit alike, bit for bit.  It puts max|x'| below 2^a:
    a = floor(s / 2) up to 256 (r' about as large), then 256 while r'
    stays below 2^1022, then s - 1022.  So x' squares finitely, and the
    steps, within ``_INTERIOR_RADIUS``, keep their margins finite.  A
    radius with s > 1533, where x' would reach 2^512, raises ValueError.
    """
    r = _positive("radius", r)
    method = phi.fit or "newton"
    if method == "closed-form":
        return unhinged_minimizer(dist, r)
    fit = {"interior-point": _hinge_fit, "newton": _newton_fit}.get(method)
    if fit is None or (method == "newton" and phi.curv is None):
        raise ValueError(f"loss {phi.name!r} has no certified fit: fit={phi.fit!r} and "
                         f"{'a' if phi.curv else 'no'} curv; fits are 'closed-form', "
                         "'interior-point' and 'newton' (the default, which needs curv)")
    ex = dist.x_exponent
    s = ex + math.frexp(r)[1]
    if s > 1533:  # max|x'| would reach 2^512, and x'^2 overflow
        raise ValueError(f"radius {r!r} overflows float64 at the scale of x: "
                         f"r max|x| >= 2^{s - 2}")
    e = ex - max(min(s // 2, 256), s - 1022)
    try:
        scaled = fit(_scaled(dist, e), phi, math.ldexp(r, e))
    except LossOverflowError as err:  # named by the atom as given
        raise LossOverflowError(err.loss, err.z, err.atom_index,
                                (dist.xs[err.atom_index].tolist(), err.atom[1])) from None
    return replace(scaled, v=np.ldexp(scaled.v, -e), r=r)
