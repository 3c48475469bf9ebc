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

from .distributions import _count, _labeled_rows, _positive, _vector, _write_csv

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
    reported each round.
    """

    iterates: np.ndarray          # (T+1, d)
    loss_values: np.ndarray       # (T+1,)
    angles_to_target: np.ndarray  # (T+1,), NaN marks undefined
    target: np.ndarray            # (d,) sum_i y_i x_i
    chosen_coords: tuple[tuple[int, ...], ...] | None = None
    argmax_coords: tuple[int, ...] | None = None

    @property
    def stationary(self) -> bool:
        """A zero label sum: the gradient vanishes and no step moves."""
        return not np.any(self.target)

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
            # coordinate descent logs one tuple every round: join each distinct one once
            joined = {c: ";".join(map(str, c)) for c in set(self.chosen_coords)}
            chosen[1:] = map(joined.__getitem__, self.chosen_coords)
        _write_csv(path, ["t"] + [f"v_{j + 1}" for j in range(self.dimension)]
                   + ["loss", "angle_rad", "chosen_coord"],
                   [np.arange(self.n_steps + 1), *self.iterates.T, self.loss_values,
                    self.angles_to_target, chosen])


def _sample(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Validate a sample of rows xs (n, d) with labels ys; return xs as floats
    and the label sum g = sum_i y_i x_i, the negated gradient of the total loss.

    A label sum that leaves float64 raises ValueError naming it.
    """
    xs, ys = _labeled_rows(xs, ys)
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        g = (ys[:, None] * xs).sum(axis=0)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"the sample's label sum sum_i y_i x_i leaves float64: {g.tolist()}")
    return xs, g


def _run(n: int, g: np.ndarray, v0, step: float, direction: np.ndarray, T: int,
         method: str) -> tuple[np.ndarray, np.ndarray]:
    """Iterates v0 + step * t * direction for t = 0..T, and their total losses n - v.g.

    The iterates are summed one step at a time (a cumulative sum), so
    the closed form can be checked against them.  Iterates or losses
    that leave float64 raise ValueError naming the method, step and T.
    """
    iterates = np.empty((T + 1, len(g)))
    iterates[0] = v0
    # an overflow is reported as the error below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        iterates[1:] = step * direction
        np.cumsum(iterates, axis=0, out=iterates)
        loss_values = n - iterates @ g
    if not (np.all(np.isfinite(iterates)) and np.all(np.isfinite(loss_values))):
        raise ValueError(f"{method} {step!r} leaves float64 within T = {T} steps")
    return iterates, loss_values


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
    constant, so iterate t must equal v0 + step * t * sum_i y_i x_i.  A
    zero label sum leaves every iterate at v0 (stationary flag set).  A
    label sum that leaves float64 raises ValueError naming it; iterates
    or losses that leave float64 raise ValueError naming the step and T.
    """
    T = _count("T", T)
    step = _positive("step", step)
    xs, g = _sample(xs, ys)
    v0 = _vector("v0", v0, len(g))
    iterates, loss_values = _run(xs.shape[0], g, v0, step, g, T,
                                 "gradient descent with step")
    return Trajectory(iterates, loss_values, _angles(iterates, g), g)


def cd_unhinged(xs, ys, T: int, tie_rule: str = "lowest-index",
                step_size: float = 1.0) -> Trajectory:
    """Run T rounds of steepest coordinate descent from the zero vector.

    The sample is the rows of xs with labels ys.  Each round picks j*
    maximizing |sum_i y_i x_ij| and moves that single coordinate by
    step_size in the descending direction.  The gradient is constant, so
    the same coordinate (and sign) wins every round: the run is gradient
    descent's, along sign(g_j*) e_j* from 0.  The per-round log records
    the winner, or the whole argmax set under the "report-all" tie rule.
    The update itself always takes the lowest argmax index, keeping runs
    reproducible under ties.  A zero label sum has no steepest
    coordinate and leaves every iterate at 0 (stationary flag set).  A
    label sum that leaves float64 raises ValueError naming it; iterates
    or losses that leave float64 raise ValueError naming step_size and T.
    """
    T = _count("T", T)
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    step_size = _positive("step_size", step_size)
    xs, g = _sample(xs, ys)
    magnitudes = np.abs(g)
    best = magnitudes.max()
    argmax_set = tuple(np.flatnonzero(magnitudes == best).tolist()) if best > 0 else ()
    direction = np.zeros_like(g)
    if argmax_set:
        direction[argmax_set[0]] = np.sign(g[argmax_set[0]])
    iterates, loss_values = _run(xs.shape[0], g, 0.0, step_size, direction, T,
                                 "coordinate descent with step_size")
    logged = argmax_set if tie_rule == "report-all" else argmax_set[:1]
    return Trajectory(iterates, loss_values, _angles(iterates, g), g,
                      chosen_coords=(logged,) * T, argmax_coords=argmax_set)
