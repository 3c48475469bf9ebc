"""Independent output checker.

Recomputes every result a workload op reports from the generated inputs,
with numpy and scipy only.  Nothing here imports potmin, so a wrong fast
path in potmin cannot make its own check pass.  The losses below are
written from their definitions, and label noise is applied as
``(1 - eta) E[phi(m)] + eta E[phi(-m)]`` over clean margins, never by
building the corrupted distribution.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

# the sign change of v . x3 on the construction: the root of
# 7.8125 g^2 + 1.375 g - 0.1875 = 0 in (0, 1)
GAMMA_STAR = (-1.375 + math.sqrt(1.375 ** 2 + 4 * 7.8125 * 0.1875)) / (2 * 7.8125)

LOSS_ORDER = ("exponential", "mixed_linear_exponential", "logistic", "hinge", "unhinged")
AXIOM_VERDICTS = ("Yes", "Yes", "Yes", "No", "No")
RAY_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

# CLI defaults the ops rely on
DEFAULT_GAMMA, DEFAULT_ETA, DEFAULT_R = 0.05, 0.1, 1.0

# Tolerances.  Closed forms and error rates are exact up to rounding; sums
# over up to 2e5 atoms in another order drift by far less than SUM_REL.
# PGD stops on a 1e-9 gradient-mapping tolerance, which leaves a smooth
# loss's objective within about 2e-9 of the optimum (measured: 1e-16); the
# hinge loss stops on its iteration budget, measured within 1.3e-8.
EXACT = 1e-12
CENTROID = 1e-10
SUM_REL = 1e-10
PGD_OBJ = {"hinge": 1e-6}
PGD_OBJ_SMOOTH = 1e-8
GD_REL = 1e-9
ROBUST_TOL = 1e-12
BOUND_SLACK = 1e-9


def loss(name: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(z) and a (sub)gradient phi'(z) for the five shipped losses."""
    z = np.asarray(z, dtype=float)
    if name == "exponential":
        with np.errstate(over="ignore"):
            e = np.exp(-z)
        return e, -e
    if name == "mixed_linear_exponential":
        e = np.exp(-np.maximum(z, 0.0))
        return np.where(z <= 0.0, 1.0 - z, e), np.where(z <= 0.0, -1.0, -e)
    if name == "logistic":
        with np.errstate(over="ignore"):
            return np.logaddexp(0.0, -2.0 * z), -2.0 / (1.0 + np.exp(2.0 * z))
    if name == "hinge":
        return np.maximum(0.0, 1.0 - z), np.where(z <= 1.0, -1.0, 0.0)
    if name == "unhinged":
        return 1.0 - z, np.full_like(z, -1.0)
    raise ValueError(f"unknown loss {name!r}")


def noisy_objective(xs, ys, w, name, eta, v):
    """(1-eta) E[phi(m)] + eta E[phi(-m)] and its gradient, m = y x.v."""
    yx = ys[:, None] * xs
    m = yx @ v
    f1, g1 = loss(name, m)
    f2, g2 = loss(name, -m)
    value = float(w @ ((1.0 - eta) * f1 + eta * f2))
    grad = (w * ((1.0 - eta) * g1 - eta * g2)) @ yx
    return value, grad


def error_rate(xs, ys, w, v) -> float:
    """Mass of atoms with y (v . x) <= 0."""
    return float(w[ys * (xs @ np.asarray(v, dtype=float)) <= 0.0].sum())


def construction(gamma: float):
    xs = np.array([[1.0, 0.0], [gamma, math.sqrt(1.0 - gamma * gamma)], [gamma, -2.0 * gamma]])
    return xs, np.ones(3), np.array([0.25, 0.25, 0.5])


def construction_sample(gamma: float):
    """The construction as a uniform 4-point sample (heavy point twice)."""
    xs, _, _ = construction(gamma)
    return xs[[0, 1, 2, 2]], np.ones(4)


def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def verdict(command: str, stdout: str) -> str | None:
    """The claim verdict an op printed: PASS, FAIL, or None if it printed none."""
    if command == "robust-check":
        try:
            return "PASS" if json.loads(stdout)["robust"] else "FAIL"
        except (ValueError, KeyError):
            return None
    prefix = "bound " if command == "recession-probe" else "claim "
    for line in stdout.splitlines():
        if line.startswith(prefix + "PASS"):
            return "PASS"
        if line.startswith(prefix + "FAIL"):
            return "FAIL"
    return None


class Checker:
    """Checks the outputs of one workload's ops against recomputed values."""

    def __init__(self, arrays: dict | None):
        self.arrays = arrays
        self._refs: dict = {}

    def check(self, op, out_dir: Path, stdout: str, rc) -> list[str]:
        """Mismatches between the op's outputs and independent values."""
        problems: list[str] = []
        method = getattr(self, "_" + op.command.replace("-", "_"))
        try:
            method(op, Path(out_dir), stdout, rc, problems)
        except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as err:
            problems.append(f"unreadable output: {type(err).__name__}: {err}")
        return problems

    # -- inputs ---------------------------------------------------------

    def _distribution(self, op):
        """(key, xs, ys, weights) the op ran on."""
        if op.flag("--data"):
            a = self.arrays
            return "data", a["xs"], a["ys"].astype(float), a["weights"]
        gamma = float(op.flag("--gamma", DEFAULT_GAMMA))
        return (f"construction:{gamma!r}", *construction(gamma))

    @staticmethod
    def _centroid_direction(xs, ys, w, r):
        m = (w * ys) @ xs
        return r * m / np.linalg.norm(m)

    def _reference(self, key, xs, ys, w, name, eta, r):
        """Optimum of the noisy objective over the radius-r ball, certified.

        Returns (value at the reference point, Frank-Wolfe gap there).  For
        a convex objective and any subgradient g at v, P* >= P(v) - (g.v +
        r ||g||), so value - gap is a lower bound on the optimum.
        """
        cache_key = (key, name, eta, r)
        if cache_key not in self._refs:
            fun = lambda v: noisy_objective(xs, ys, w, name, eta, v)  # noqa: E731
            ball = {"type": "ineq", "fun": lambda v: r * r - v @ v, "jac": lambda v: -2.0 * v}
            res = minimize(fun, np.zeros(xs.shape[1]), jac=True, method="SLSQP",
                           constraints=[ball], options={"ftol": 1e-15, "maxiter": 2000})
            v = res.x
            norm = np.linalg.norm(v)
            if norm > r:
                v = v * (r / norm)
            value, grad = fun(v)
            gap = max(0.0, float(grad @ v + r * np.linalg.norm(grad)))
            self._refs[cache_key] = (value, gap)
        return self._refs[cache_key]

    def _check_fit(self, dist, name, eta, r, v, label, problems):
        key, xs, ys, w = dist
        ref, gap = self._reference(key, xs, ys, w, name, eta, r)
        value, _ = noisy_objective(xs, ys, w, name, eta, np.asarray(v, dtype=float))
        scale = 1.0 + abs(ref)
        if value < ref - gap - EXACT * scale:
            problems.append(f"{label}: objective {value!r} is below the certified "
                            f"optimum bound {ref - gap!r}")
        tol = PGD_OBJ.get(name, PGD_OBJ_SMOOTH)
        if value > ref + tol * scale:
            problems.append(f"{label}: objective {value!r} exceeds the reference "
                            f"optimum {ref!r} by more than {tol}")

    @staticmethod
    def _expect(ok, message, problems):
        if not ok:
            problems.append(message)

    @staticmethod
    def _svg(path: Path, problems):
        root = ET.parse(path).getroot()
        if not root.tag.endswith("svg") or not any(e.tag.endswith("polyline") for e in root.iter()):
            problems.append(f"{path.name}: not an SVG line plot")

    # -- one method per subcommand --------------------------------------

    def _gamma_sweep(self, op, out_dir, stdout, rc, problems):
        rows = read_table(out_dir / "gamma_sweep.csv")
        summary = json.loads((out_dir / "gamma_sweep_summary.json").read_text())
        r = float(op.flag("--r", DEFAULT_R))
        grid = np.linspace(float(op.flag("--grid-start", 0.01)),
                           float(op.flag("--grid-stop", 0.3)),
                           int(op.flag("--grid-count", 30)))
        self._expect(len(rows) == grid.size, f"{len(rows)} rows, expected {grid.size}", problems)
        for row, g in zip(rows, grid):
            gamma = float(row["gamma"])
            xs, ys, w = construction(gamma)
            v = np.array([float(row["v_1"]), float(row["v_2"])])
            v_ref = self._centroid_direction(xs, ys, w, r)
            m_norm = np.linalg.norm((w * ys) @ xs)
            err = error_rate(xs, ys, w, v)
            bad = [
                abs(gamma - g) > EXACT,
                np.max(np.abs(v - v_ref)) > EXACT,
                abs(float(row["objective"]) - (1.0 - r * m_norm)) > EXACT,
                abs(float(row["clean_error"]) - err) > EXACT,
                abs(float(row["v_dot_x3"]) - float(v @ xs[2])) > EXACT,
                # the paper's step: half the mass is lost below the threshold
                err != (0.5 if gamma < GAMMA_STAR else 0.0),
            ]
            if any(bad):
                problems.append(f"gamma={gamma!r}: row disagrees with r m/||m|| ({row})")
        threshold = summary.get("threshold")
        self._expect(threshold is not None and abs(threshold - GAMMA_STAR) <= 1e-8,
                     f"threshold {threshold!r}, analytic root {GAMMA_STAR!r}", problems)
        if "--plot" in op.argv:
            self._svg(out_dir / "gamma_sweep.svg", problems)

    def _loss_report(self, op, out_dir, stdout, rc, problems):
        rows = json.loads((out_dir / "loss_report_summary.json").read_text())["rows"]
        names = tuple(r["loss"] for r in rows)
        verdicts = tuple(r["verdict"] for r in rows)
        self._expect(names == LOSS_ORDER and verdicts == AXIOM_VERDICTS,
                     f"axiom verdicts {dict(zip(names, verdicts))}", problems)
        for r in rows:
            if r["verdict"] != "No":
                continue
            z, value = r["witness_z"], r["witness_value"]
            if r["loss"] == "hinge":
                # the only kink of max(0, 1 - z)
                ok = r["failing_clause"] == "c1_negative_slope_at_zero" and z == 1.0
            elif r["loss"] == "unhinged":
                ok = (r["failing_clause"] == "vanishing_nonnegative_tail"
                      and z is not None and value == 1.0 - z and value < 0.0)
            else:
                ok = False
            self._expect(ok, f"{r['loss']}: witness {r['failing_clause']} at z={z!r} "
                             f"value {value!r} does not witness the failure", problems)

    def _recession_probe(self, op, out_dir, stdout, rc, problems):
        s = json.loads((out_dir / "recession_probe_summary.json").read_text())
        _, xs, ys, w = self._distribution(op)
        name = op.flag("--loss", "unhinged")
        eta = float(op.flag("--eta", DEFAULT_ETA))
        u, x0 = np.array(s["direction"]), np.array(s["base_point"])
        lam = np.array(s["lambdas"])
        self._expect(np.max(np.abs(u - self._centroid_direction(xs, ys, w, 1.0))) <= CENTROID,
                     "direction is not the unit label centroid", problems)
        self._expect(not np.any(x0) and tuple(lam) == RAY_GRID,
                     "base point or lambda grid differs from the defaults", problems)
        margins = ys[:, None] * (xs @ (x0[:, None] + u[:, None] * lam[None, :]))
        f1, _ = loss(name, margins)
        f2, _ = loss(name, -margins)
        values = (1.0 - eta) * (w @ f1) + eta * (w @ f2)
        phi0, dphi0 = (float(a) for a in loss(name, 0.0))
        width = float(w @ np.abs(xs @ u))
        base = float(w @ np.abs(xs @ x0))
        bounds = eta * (phi0 - dphi0 * lam * width + dphi0 * base)
        self._expect(np.allclose(s["values"], values, rtol=SUM_REL, atol=EXACT),
                     "ray values differ from (1-eta)E[phi(m)] + eta E[phi(-m)]", problems)
        self._expect(np.allclose(s["lower_bounds"], bounds, rtol=SUM_REL, atol=EXACT),
                     "lower bounds differ from the recomputed bound", problems)
        slack = float(np.min(values - bounds))
        self._expect(s["bound_holds"] == (slack >= -BOUND_SLACK),
                     f"bound_holds={s['bound_holds']} but min slack is {slack!r}", problems)

    def _robust_check(self, op, out_dir, stdout, rc, problems):
        s = json.loads((out_dir / "robust_check_summary.json").read_text())
        dist = self._distribution(op)
        _, xs, ys, w = dist
        name = op.flag("--loss", "unhinged")
        eta = float(op.flag("--eta", DEFAULT_ETA))
        r = float(op.flag("--r", DEFAULT_R))
        vc, vn = np.array(s["minimizer_clean"]), np.array(s["minimizer_noisy"])
        for label, v, reported in (("clean fit", vc, s["clean_fit_error"]),
                                   ("noisy fit", vn, s["noisy_fit_error"])):
            self._expect(np.linalg.norm(v) <= r + EXACT, f"{label} leaves the ball", problems)
            self._expect(abs(reported - error_rate(xs, ys, w, v)) <= EXACT,
                         f"{label} error {reported!r} differs from the recomputed "
                         f"{error_rate(xs, ys, w, v)!r}", problems)
        robust = abs(s["clean_fit_error"] - s["noisy_fit_error"]) <= ROBUST_TOL
        self._expect(s["robust"] == robust and rc == (0 if robust else 1),
                     f"robust={s['robust']} exit {rc} for errors "
                     f"{s['clean_fit_error']!r}, {s['noisy_fit_error']!r}", problems)
        if name == "unhinged":
            v_ref = self._centroid_direction(xs, ys, w, r)
            self._expect(max(np.max(np.abs(vc - v_ref)), np.max(np.abs(vn - v_ref))) <= CENTROID,
                         "unhinged minimizers differ from r m/||m||", problems)
        else:
            self._check_fit(dist, name, 0.0, r, vc, "clean fit", problems)
            self._check_fit(dist, name, eta, r, vn, "noisy fit", problems)

    def _eta_sweep(self, op, out_dir, stdout, rc, problems):
        rows = read_table(out_dir / "eta_sweep.csv")
        dist = self._distribution(op)
        _, xs, ys, w = dist
        name = op.flag("--loss", "unhinged")
        r = float(op.flag("--r", DEFAULT_R))
        grid = np.linspace(float(op.flag("--grid-start", 0.05)),
                           float(op.flag("--grid-stop", 0.45)),
                           int(op.flag("--grid-count", 9)))
        self._expect(len(rows) == grid.size, f"{len(rows)} rows, expected {grid.size}", problems)
        d = xs.shape[1]
        v_ref = self._centroid_direction(xs, ys, w, r)
        clean_errors = set()
        for row, eta in zip(rows, grid):
            v = np.array([float(row[f"v_{j + 1}"]) for j in range(d)])
            ce, ne = float(row["clean_error"]), float(row["noisy_fit_error"])
            clean_errors.add(ce)
            clean_obj, _ = noisy_objective(xs, ys, w, name, 0.0, v)
            robust = abs(ce - ne) <= ROBUST_TOL
            bad = [
                abs(float(row["eta"]) - eta) > EXACT,
                np.linalg.norm(v) > r + EXACT,
                not math.isclose(float(row["objective"]), clean_obj,
                                 rel_tol=SUM_REL, abs_tol=EXACT),
                abs(ne - error_rate(xs, ys, w, v)) > EXACT,
                (row["robust"] == "true") != robust,
                not float(row["minimizer_drift"]) >= 0.0,
            ]
            if name == "unhinged":
                bad += [np.max(np.abs(v - v_ref)) > CENTROID,
                        float(row["minimizer_drift"]) > EXACT]
            if any(bad):
                problems.append(f"eta={row['eta']}: row disagrees with the recomputed values")
            if name != "unhinged":
                self._check_fit(dist, name, float(row["eta"]), r, v, f"eta={row['eta']}",
                                problems)
        # every eta refits the same clean distribution
        self._expect(len(clean_errors) == 1, f"clean errors vary: {clean_errors}", problems)
        if "--plot" in op.argv:
            self._svg(out_dir / "eta_sweep.svg", problems)

    def _dynamics(self, op, out_dir, stdout, rc, problems):
        mode = op.flag("--mode", "gd")
        steps = int(op.flag("--steps", 100))
        if op.flag("--data"):
            xs, ys = self.arrays["xs"], self.arrays["ys"].astype(float)
        else:
            xs, ys = construction_sample(float(op.flag("--gamma", DEFAULT_GAMMA)))
        rows = read_table(out_dir / f"dynamics_{mode}.csv")
        summary = json.loads((out_dir / f"dynamics_{mode}_summary.json").read_text())
        d = xs.shape[1]
        t = np.array([int(r["t"]) for r in rows])
        V = np.array([[float(r[f"v_{j + 1}"]) for j in range(d)] for r in rows])
        total = np.array([float(r["loss"]) for r in rows])
        angles = [r["angle_rad"] for r in rows]
        self._expect(t.tolist() == list(range(steps + 1)),
                     f"{len(rows)} rows, expected t = 0..{steps}", problems)
        if len(rows) != steps + 1:
            return
        g = (ys[:, None] * xs).sum(axis=0)
        n = xs.shape[0]
        expected_total = n - V @ g
        self._expect(np.all(np.abs(total - expected_total)
                            <= GD_REL * (n + np.abs(V @ g))),
                     "loss column differs from n - v.g", problems)
        if mode == "gd":
            step = float(op.flag("--step-size", 0.1))
            closed = step * t[:, None] * g[None, :]
            scale = max(float(np.max(np.abs(closed))), 1.0)
            self._expect(np.max(np.abs(V - closed)) <= GD_REL * scale,
                         "gd iterates leave v0 + step t g", problems)
            self._expect(angles[0] == "" and all(float(a) <= 1e-6 for a in angles[1:]),
                         "gd iterates are not aligned with the label sum", problems)
        else:
            step = float(op.flag("--step-size", 1.0))
            mags = np.abs(g)
            ties = [int(j) for j in np.nonzero(mags == mags.max())[0]]
            j = ties[0]
            sign = 1.0 if g[j] > 0 else -1.0
            expected = np.zeros_like(V)
            expected[:, j] = sign * step * t
            self._expect(np.max(np.abs(V - expected)) <= GD_REL * step * steps,
                         f"cd iterates leave coordinate {j}", problems)
            support = set(np.nonzero(np.any(V != 0.0, axis=0))[0].tolist())
            self._expect(support <= {j}, f"cd support {sorted(support)}, expected [{j}]",
                         problems)
            self._expect(all(r["chosen_coord"] == str(j) for r in rows[1:])
                         and summary.get("argmax_coords") == ties,
                         f"cd logged coordinates differ from argmax {ties}", problems)
            ghat = g / np.linalg.norm(g)
            e = np.zeros(d)
            e[j] = sign
            along = float(e @ ghat)
            angle = math.atan2(float(np.linalg.norm(e - along * ghat)), along)
            self._expect(all(abs(float(a) - angle) <= 1e-9 for a in angles[1:]),
                         "cd angles differ from the recomputed angle", problems)
        if "--plot" in op.argv:
            self._svg(out_dir / f"dynamics_{mode}.svg", problems)
