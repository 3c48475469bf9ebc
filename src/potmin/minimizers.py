"""Minimizers of the expected potential over a Euclidean norm ball.

The unhinged loss admits a closed form: the expected loss is linear in
v, so the ball minimizer is the rescaled label centroid.  Every other
loss goes through projected gradient descent.  Both return the same
:class:`FitResult` shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, mean_label_feature
from .loss_zoo import LossOverflowError, PotentialFunction

_BALL_SLACK = 1e-12
_DEGENERATE_CENTROID_TOL = 1e-14


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
            if np.linalg.norm(v) > r + _BALL_SLACK:
                raise ValueError(
                    f"||v|| = {np.linalg.norm(v)!r} exceeds radius bound {r!r}"
                )
            object.__setattr__(self, "radius_bound", r)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class FitResult:
    weights: WeightVector
    objective: float
    iterations: int
    converged: bool
    gradient_norm_final: float
    degenerate_centroid: bool = False
    objective_history: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "v": [float(c) for c in self.weights.v],
            "r": self.weights.radius_bound,
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm_final": self.gradient_norm_final,
            "degenerate_centroid": self.degenerate_centroid,
        }


def unhinged_minimizer(dist: DiscreteDistribution, r: float) -> FitResult:
    """Closed-form ball minimizer of the expected unhinged loss.

    The objective equals 1 - v . m with m the label centroid, so the
    minimizer is the boundary point r m/||m|| and the optimum value is
    1 - r ||m||.  A (near-)zero centroid makes every ball point optimal;
    that case returns the zero vector with the degeneracy flag set.
    """
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")
    m = mean_label_feature(dist)
    norm_m = float(np.linalg.norm(m))
    if norm_m <= _DEGENERATE_CENTROID_TOL:
        zero = np.zeros(dist.dimension)
        return FitResult(WeightVector(zero, r), 1.0, 0, True, 0.0,
                         degenerate_centroid=True)
    v = (r / norm_m) * m
    return FitResult(WeightVector(v, r), 1.0 - r * norm_m, 0, True, 0.0)


@dataclass(frozen=True)
class PGDConfig:
    """Projected-gradient settings; step=None picks a scale-aware default."""

    step: float | None = None
    max_iters: int = 50_000
    tol: float = 1e-9
    record_history: bool = False


def default_step(dist: DiscreteDistribution) -> float:
    """0.1 / (1 + E||x||^2): deterministic and scale-aware."""
    return 0.1 / (1.0 + float(dist.weights @ np.sum(dist.xs ** 2, axis=1)))


def _project_ball(v: np.ndarray, r: float) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v if n <= r else v * (r / n)


def _overflow_at(loss: str, dist: DiscreteDistribution, margins: np.ndarray,
                 idx: int) -> LossOverflowError:
    return LossOverflowError(
        loss, float(margins[idx]), atom_index=idx,
        atom=(dist.xs[idx].tolist(), int(dist.ys[idx])),
    )


def _per_atom(fn, dist: DiscreteDistribution, margins: np.ndarray) -> np.ndarray:
    """fn(margins); an overflow names the first atom whose margin overflowed."""
    try:
        return fn(margins)
    except LossOverflowError as err:
        idx = int(np.nonzero(margins == err.z)[0][0])
        raise _overflow_at(err.loss, dist, margins, idx) from None


def _gradient(phi: PotentialFunction, dist: DiscreteDistribution,
              margins: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """sum_i w_i phi'(m_i) y_i x_i, naming the atom whose term overflowed.

    That is the first atom with a non-finite term; when every term is
    finite and only the sum overflowed, the atom with the largest term.
    """
    scaled = dist.weights * _per_atom(phi.deriv, dist, margins)
    g = scaled @ yx
    if not np.all(np.isfinite(g)):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = scaled[:, None] * yx
        bad = ~np.all(np.isfinite(terms), axis=1)
        idx = np.argmax(bad) if bad.any() else np.argmax(np.max(np.abs(terms), axis=1))
        raise _overflow_at(phi.name, dist, margins, int(idx))
    return g


def pgd_minimizer(dist: DiscreteDistribution, phi: PotentialFunction, r: float,
                  cfg: PGDConfig | None = None) -> FitResult:
    """Projected gradient descent on E[phi(y v.x)] over the radius-r ball.

    Starts at v = 0, runs v <- proj(v - step * grad), and stops when the
    gradient-mapping norm ||v - proj(v - step g)|| / step drops to the
    tolerance or the iteration budget runs out.  Returns the best iterate
    seen, so the objective contract holds even with an aggressive step.
    A zero step is allowed for diagnostics; the raw gradient norm is then
    reported and the iterate never moves.
    """
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")
    cfg = cfg or PGDConfig()
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    step = default_step(dist) if cfg.step is None else float(cfg.step)
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step!r}")

    yx = dist.ys[:, None] * dist.xs
    w = dist.weights
    v = np.zeros(dist.dimension)
    # one margin vector per iterate: the value at v and the slope taken from v
    margins = dist.margins(v)
    best_v, best_obj = v, float(w @ _per_atom(phi.eval, dist, margins))
    history = [best_obj] if cfg.record_history else None
    converged = False
    pg_norm = float("nan")
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        g = _gradient(phi, dist, margins, yx)
        if step > 0:
            candidate = _project_ball(v - step * g, r)
            pg_norm = float(np.linalg.norm(v - candidate)) / step
        else:
            candidate = v
            pg_norm = float(np.linalg.norm(g))
        v = candidate
        margins = dist.margins(v)
        obj = float(w @ _per_atom(phi.eval, dist, margins))
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
