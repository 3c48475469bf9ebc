"""Margin losses, their derivatives, and executable axiom predicates.

Five classic potentials ship with the package (exponential, mixed
linear/exponential, logistic, hinge, unhinged).  Each is one immutable
:class:`PotentialFunction`, built at import, carrying vectorized
``eval``/``deriv`` callables and declaring what the fits read.  The one
predicate :func:`check_def1` tests the convex-potential axioms clause by
clause on a fixed grid and reports a witness for every failing clause; its
clauses (a)-(c) are the relaxed axioms, which drop the vanishing tail (d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Slack tolerances for the grid predicates.
_CONVEXITY_SLACK = 1e-12
_MONOTONE_SLACK = 1e-12
_TAIL_THRESHOLD = 1e-6
_NONNEG_SLACK = 1e-12
_C1_STEP = 1e-6
_C1_REL_MISMATCH = 1e-3


class LossOverflowError(ArithmeticError):
    """A loss or derivative evaluation left the float64 range.

    Carries the offending margin ``z`` and, when raised from an
    expectation over a distribution, the offending atom as well.
    """

    def __init__(self, loss: str, z: float, atom_index: int | None = None, atom=None):
        self.loss = loss
        self.z = float(z)
        self.atom_index = atom_index
        self.atom = atom
        msg = f"{loss} loss overflows float64 at margin z={z!r}"
        if atom_index is not None:
            msg += f" (atom {atom_index}: {atom!r})"
        super().__init__(msg)


def _elementwise(core: Callable[[np.ndarray], np.ndarray]):
    """Lift an array-only kernel to accept scalars and arrays alike."""

    def wrapped(z):
        arr = np.asarray(z, dtype=float)
        out = core(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return wrapped


@dataclass(frozen=True)
class PotentialFunction:
    """A scalar margin loss phi together with its derivative.

    ``eval`` and ``deriv`` map a margin (scalar or ndarray) to the loss
    value / slope at that margin.  ``curv``, when given, maps it to the
    second derivative phi'' (nonnegative, as phi is convex).  ``fit`` is
    ``"closed-form"``, ``"interior-point"`` or ``"newton"`` (the default
    when ``curv`` is given); ``reflects`` declares phi(-t) = fl(2t + phi(t))
    bit for bit for t >= 0.  Both are trusted as ``curv`` is.  Instances
    are immutable and safe to share across threads.
    """

    name: str
    eval: Callable
    deriv: Callable
    curv: Callable | None = None
    fit: str | None = None
    reflects: bool = False

    def __call__(self, z):
        return self.eval(z)


def _exp_eval(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        out = np.exp(-z)
    if not np.isfinite(out).all():
        bad = z[~np.isfinite(out)]
        raise LossOverflowError("exponential", float(bad.flat[0]))
    return out


def _exp_deriv(z: np.ndarray) -> np.ndarray:
    return -_exp_eval(z)


def _mixed_eval(z: np.ndarray) -> np.ndarray:
    # exp branch only sees z > 0, so it cannot overflow
    out = np.empty_like(z)
    neg = z <= 0.0
    out[neg] = 1.0 - z[neg]
    out[~neg] = np.exp(-z[~neg])
    return out


def _mixed_deriv(z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, -1.0)
    pos = z > 0.0
    out[pos] = -np.exp(-z[pos])
    return out


def _mixed_curv(z: np.ndarray) -> np.ndarray:
    # 0 on the linear branch, including at the kink z = 0
    out = np.zeros_like(z)
    pos = z > 0.0
    out[pos] = np.exp(-z[pos])
    return out


def _logistic_eval(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(-2z)) evaluated stably for large |z|; it is -2z up to
    # rounding past -2z = 40, so it overflows exactly where -2z rises past
    # float64, and is 0 where -2z falls past it
    with np.errstate(over="ignore"):
        out = np.logaddexp(0.0, -2.0 * z)
    if not np.isfinite(out).all():
        raise LossOverflowError("logistic", float(z[~np.isfinite(out)].flat[0]))
    return out


def _logistic_deriv(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return -2.0 / (1.0 + np.exp(2.0 * z))


def _logistic_curv(z: np.ndarray) -> np.ndarray:
    # 4 s(2z) s(-2z) with s the sigmoid, as e / (1 + e)^2 at e = exp(-2|z|) <= 1
    with np.errstate(over="ignore"):
        e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def _hinge_eval(z: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - z)


def _hinge_deriv(z: np.ndarray) -> np.ndarray:
    # left derivative at the kink: deriv(1) = -1
    return np.where(z <= 1.0, -1.0, 0.0)


def _unhinged_eval(z: np.ndarray) -> np.ndarray:
    return 1.0 - z


def _unhinged_deriv(z: np.ndarray) -> np.ndarray:
    return np.full_like(z, -1.0)


def _shipped(name, ev, de, cu=None, **declared) -> PotentialFunction:
    return PotentialFunction(name, _elementwise(ev), _elementwise(de),
                             None if cu is None else _elementwise(cu), **declared)


# exp(-z) is its own second derivative, with eval's overflow rule;
# numpy's logaddexp gives the logistic reflection (see _view_objective)
_REGISTRY = {phi.name: phi for phi in (
    _shipped("exponential", _exp_eval, _exp_deriv, _exp_eval),
    _shipped("mixed_linear_exponential", _mixed_eval, _mixed_deriv, _mixed_curv),
    _shipped("logistic", _logistic_eval, _logistic_deriv, _logistic_curv, reflects=True),
    _shipped("hinge", _hinge_eval, _hinge_deriv, fit="interior-point"),
    _shipped("unhinged", _unhinged_eval, _unhinged_deriv, fit="closed-form"),
)}
LOSS_NAMES = tuple(_REGISTRY)


def make_loss(name: str) -> PotentialFunction:
    """Return one of the shipped losses by name.

    Raises ValueError for unknown names, listing the valid ones.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; valid names: {', '.join(LOSS_NAMES)}"
        ) from None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one predicate clause, with a witness when it fails."""

    name: str
    passed: bool
    witness_z: float | None = None
    witness_value: float | None = None


@dataclass(frozen=True)
class PredicateReport:
    loss: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# The predicate grid: [-50, 50] in steps of 0.25, which lands exactly on 0
# and 1, as the C1 scan needs to expose the hinge kink.  Its pair midpoints
# are exactly the 801 points of _MIDS: (_GRID[i] + _GRID[j]) / 2 == _MIDS[i + j].
_GRID = np.linspace(-50.0, 50.0, 401)
_GRID.setflags(write=False)
_MIDS = np.linspace(-50.0, 50.0, 801)
_MIDS.setflags(write=False)


def _convexity_check(phi_mids: np.ndarray, vals: np.ndarray) -> CheckResult:
    # midpoint test over all grid pairs; phi at the midpoint of pair (i, j)
    # is phi_mids[i + j], read through a strided (Hankel) view.  In place,
    # and bit-identical to window - 0.5 * (v_i + v_j)
    window = np.lib.stride_tricks.sliding_window_view(phi_mids, _GRID.size)
    excess = np.add.outer(vals, vals)
    excess *= -0.5
    excess += window
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    worst_excess = float(excess[i, j])
    if worst_excess <= _CONVEXITY_SLACK:
        return CheckResult("midpoint_convexity", True)
    return CheckResult(
        "midpoint_convexity", False,
        witness_z=float(_MIDS[i + j]), witness_value=worst_excess,
    )


def _monotone_check(vals: np.ndarray) -> CheckResult:
    rises = np.diff(vals)
    i = int(np.argmax(rises))
    if rises[i] <= _MONOTONE_SLACK:
        return CheckResult("nonincreasing", True)
    return CheckResult(
        "nonincreasing", False,
        witness_z=float(_GRID[i + 1]), witness_value=float(rises[i]),
    )


def _slope_check(phi: PotentialFunction, vals: np.ndarray) -> CheckResult:
    """C1 smoothness across the grid plus a strictly negative slope at 0.

    Non-smoothness is witnessed by a mismatch between forward and
    backward difference quotients, relative to their own magnitude so
    steep-but-smooth regions do not false-alarm.
    """
    h = _C1_STEP
    fwd = (np.asarray(phi.eval(_GRID + h)) - vals) / h
    bwd = (vals - np.asarray(phi.eval(_GRID - h))) / h
    gap = np.abs(fwd - bwd) - _C1_REL_MISMATCH * (1.0 + np.abs(fwd) + np.abs(bwd))
    i = int(np.argmax(gap))
    if gap[i] > 0:
        return CheckResult(
            "c1_negative_slope_at_zero", False,
            witness_z=float(_GRID[i]), witness_value=float(fwd[i] - bwd[i]),
        )
    d0 = float(phi.deriv(0.0))
    if not d0 < 0.0:
        return CheckResult(
            "c1_negative_slope_at_zero", False, witness_z=0.0, witness_value=d0
        )
    return CheckResult("c1_negative_slope_at_zero", True)


def _tail_check(vals: np.ndarray) -> CheckResult:
    tail = float(vals[-1])
    if tail >= _TAIL_THRESHOLD:
        return CheckResult(
            "vanishing_nonnegative_tail", False,
            witness_z=float(_GRID[-1]), witness_value=tail,
        )
    i = int(np.argmin(vals))
    if vals[i] < -_NONNEG_SLACK:
        return CheckResult(
            "vanishing_nonnegative_tail", False,
            witness_z=float(_GRID[i]), witness_value=float(vals[i]),
        )
    return CheckResult("vanishing_nonnegative_tail", True)


def check_def1(phi: PotentialFunction) -> PredicateReport:
    """Test the convex-potential axioms on the predicate grid, clause by clause.

    Clauses: (a) midpoint convexity on all grid pairs, (b) nonincreasing
    along the grid, (c) C1 smoothness with phi'(0) < 0, (d) a vanishing,
    nonnegative tail.  Clauses (a)-(c) alone are the relaxed axioms, which
    the unhinged loss meets while failing (d).  Clause (d) is a finite
    proxy for the limit condition: it requires phi(50) < 1e-6 and
    phi >= -1e-12 on the grid, which classifies all shipped losses
    correctly.
    """
    phi_mids = np.asarray(phi.eval(_MIDS), dtype=float)
    vals = phi_mids[::2]
    checks = (
        _convexity_check(phi_mids, vals),
        _monotone_check(vals),
        _slope_check(phi, vals),
        _tail_check(vals),
    )
    return PredicateReport(phi.name, checks)
