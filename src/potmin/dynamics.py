"""Unconstrained descent dynamics for the unhinged loss on a sample.

The gradient of the total unhinged loss over a sample is the constant
-sum_i y_i x_i, which makes the iterate paths of gradient descent and
coordinate descent fully predictable: gradient descent moves along the
label-sum direction, coordinate descent keeps hammering the same
steepest coordinate.  These runs exist to certify exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _write_csv

TIE_RULES = ("lowest-index", "report-all")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates of a descent run plus per-iterate diagnostics.

    ``loss_values`` holds the total (sample-summed) unhinged loss,
    sum_i (1 - y_i v.x_i) = n - v.g with g the label sum.
    ``angles_to_target`` holds the angle in [0, pi] between each iterate
    and the label-sum vector; entries at a zero iterate (or zero target)
    are NaN, a deliberate undefined marker rather than a fake 0.
    For coordinate descent, ``chosen_coords`` logs the coordinates
    reported each round and ``step_signs`` the signed direction taken.
    """

    iterates: np.ndarray          # (T+1, d)
    step_size: float
    loss_values: np.ndarray       # (T+1,)
    angles_to_target: np.ndarray  # (T+1,), NaN marks undefined
    target: np.ndarray            # (d,) sum_i y_i x_i
    stationary: bool
    chosen_coords: tuple[tuple[int, ...], ...] | None = None
    step_signs: tuple[int, ...] | None = None
    argmax_coords: tuple[int, ...] | None = None

    @property
    def n_steps(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.iterates.shape[1]

    def to_csv(self, path) -> None:
        """Write rows t, v_1..v_d, loss, angle_rad, chosen_coord.

        Undefined angles and absent coordinate choices are left empty;
        multi-coordinate logs are ';'-joined.  The bytes are those of
        :func:`potmin.distributions._write_csv`, potmin's one CSV writer.
        """
        chosen = [""] * (self.n_steps + 1)
        if self.chosen_coords is not None:
            chosen[1:] = [";".join(map(str, c)) for c in self.chosen_coords]
        _write_csv(path, ["t"] + [f"v_{j + 1}" for j in range(self.dimension)]
                   + ["loss", "angle_rad", "chosen_coord"],
                   [np.arange(self.n_steps + 1), *self.iterates.T, self.loss_values,
                    self.angles_to_target, chosen])


def _check_sample(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Validate a sample of rows xs (n, d) with labels ys; labels come back as floats."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise ValueError("sample must be nonempty")
    if xs.ndim != 2 or xs.shape[1] < 1:
        raise ValueError(f"xs must be a 2-d array of sample rows with d >= 1, "
                         f"got shape {xs.shape}")
    if ys.shape != (xs.shape[0],):
        raise ValueError(f"xs and ys must agree in length, got {xs.shape[0]} rows "
                         f"and labels of shape {ys.shape}")
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample coordinates must be finite")
    if not np.all(np.abs(ys) == 1.0):
        raise ValueError("labels must be -1 or +1")
    return xs, ys


def label_sum(xs, ys) -> np.ndarray:
    """sum_i y_i x_i over the sample: the negated gradient of the total loss.

    A sum that leaves float64 raises ValueError naming the label sum.
    """
    return _label_sum(*_check_sample(xs, ys))


def _label_sum(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        g = (ys[:, None] * xs).sum(axis=0)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"the sample's label sum sum_i y_i x_i leaves float64: {g.tolist()}")
    return g


def _angles(iterates: np.ndarray, g: np.ndarray) -> np.ndarray:
    # atan2 of the orthogonal split; unlike arccos it stays accurate for
    # near-collinear vectors, where arccos inflates rounding to ~sqrt(eps).
    # The angle is scale-free, so each row and g are first scaled by the
    # exact power of two that puts their largest |entry| in [1/2, 1): the
    # squares in the norms then stay finite for every finite iterate
    iterates = np.ldexp(iterates, -np.frexp(np.max(np.abs(iterates), axis=1))[1][:, None])
    g = np.ldexp(g, -np.frexp(np.max(np.abs(g)))[1])
    norms = np.linalg.norm(iterates, axis=1)
    ng = float(np.linalg.norm(g))
    angles = np.full(iterates.shape[0], np.nan)
    if ng == 0.0:
        return angles
    ghat = g / ng
    defined = norms > 0.0
    along = iterates[defined] @ ghat
    perp = iterates[defined] - along[:, None] * ghat[None, :]
    angles[defined] = np.arctan2(np.linalg.norm(perp, axis=1), along)
    return angles


def gd_unhinged(xs, ys, v0, step: float, T: int) -> Trajectory:
    """Run T gradient-descent updates of the total unhinged loss from v0.

    The sample is the rows of xs with labels ys.  The gradient is
    constant, so iterate t must equal v0 + step * t * sum_i y_i x_i;
    iterates are still summed one step at a time (a cumulative sum) so
    that identity can be checked against them.  A zero label sum leaves
    every iterate at v0 (stationary flag set).  A label sum that leaves
    float64 raises ValueError naming it; iterates or losses that leave
    float64 raise ValueError naming the step and T.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    step = float(step)
    if not (step > 0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    xs, ys = _check_sample(xs, ys)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (xs.shape[1],):
        raise ValueError(f"v0 must have shape ({xs.shape[1]},), got {v0.shape}")
    if not np.all(np.isfinite(v0)):
        raise ValueError(f"v0 must be finite, got {v0.tolist()}")
    g = _label_sum(xs, ys)
    iterates = np.empty((T + 1, xs.shape[1]))
    iterates[0] = v0
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        iterates[1:] = step * g
        np.cumsum(iterates, axis=0, out=iterates)
        loss_values = len(ys) - iterates @ g
    if not (np.all(np.isfinite(iterates)) and np.all(np.isfinite(loss_values))):
        raise ValueError(f"gradient descent with step {step!r} leaves float64 "
                         f"within T = {T} steps")
    return Trajectory(
        iterates=iterates,
        step_size=step,
        loss_values=loss_values,
        angles_to_target=_angles(iterates, g),
        target=g,
        stationary=not np.any(g != 0.0),
    )


def cd_unhinged(xs, ys, T: int, tie_rule: str = "lowest-index",
                step_size: float = 1.0) -> Trajectory:
    """Run T rounds of steepest coordinate descent from the zero vector.

    The sample is the rows of xs with labels ys.  Each round picks j*
    maximizing |sum_i y_i x_ij| and moves that single coordinate by
    step_size in the descending direction.  The gradient is constant, so
    the same coordinate (and sign) wins every round; the per-round log
    records the winner, or the whole argmax set under the "report-all"
    tie rule.  The update itself always takes the lowest argmax index,
    keeping runs reproducible under ties.  A zero label sum has no
    steepest coordinate and leaves every iterate at 0 (stationary flag
    set).  A label sum that leaves float64 raises ValueError naming it;
    iterates or losses that leave float64 raise ValueError naming
    step_size and T.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    step_size = float(step_size)
    if not (step_size > 0 and np.isfinite(step_size)):
        raise ValueError(f"step_size must be positive and finite, got {step_size!r}")
    xs, ys = _check_sample(xs, ys)
    g = _label_sum(xs, ys)
    iterates = np.zeros((T + 1, xs.shape[1]))
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        magnitudes = np.abs(g)
        best = magnitudes.max()
        argmax_set = tuple(np.flatnonzero(magnitudes == best).tolist()) if best > 0 else ()
        sign = 0
        if argmax_set:
            sign = 1 if g[argmax_set[0]] > 0 else -1
            column = iterates[:, argmax_set[0]]
            column[1:] = sign * step_size
            np.cumsum(column, out=column)
        loss_values = len(ys) - iterates @ g
    if not (np.all(np.isfinite(iterates)) and np.all(np.isfinite(loss_values))):
        raise ValueError(f"coordinate descent with step_size {step_size!r} leaves float64 "
                         f"within T = {T} steps")
    logged = argmax_set if tie_rule == "report-all" else argmax_set[:1]
    return Trajectory(
        iterates=iterates,
        step_size=step_size,
        loss_values=loss_values,
        angles_to_target=_angles(iterates, g),
        target=g,
        stationary=not argmax_set,
        chosen_coords=(logged,) * T,
        step_signs=(sign,) * T,
        argmax_coords=argmax_set,
    )
