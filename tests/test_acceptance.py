"""Acceptance gate: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion, including the measured runtime against its budget.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import helpers
from potmin import (cd_unhinged, check_rcn_robustness, corrupt_rcn, gd_unhinged,
                    make_loss, pgd_minimizer, recession_probe,
                    slope_identity_fuzz, unhinged_minimizer)
from potmin.cli import main, run_loss_report

GAMMA_STAR = (-22.0 + math.sqrt(1984.0)) / 250.0  # root of 125 g^2 + 22 g - 3
ETAS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]


def criterion(number: int, description: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"[ACCEPTANCE] criterion {number} ({description}): "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget_s:g}s)")
    assert ok, f"criterion {number} exceeded its {budget_s}s runtime budget"


def test_criterion_1_gamma_sweep_threshold(tmp_path):
    def body():
        assert main(["gamma-sweep", "--out-dir", str(tmp_path), "--grid-start", "0.01",
                     "--grid-stop", "0.3", "--grid-count", "30"]) == 0
        threshold = json.loads((tmp_path / "gamma_sweep_summary.json").read_text())["threshold"]
        assert threshold is not None
        with open(tmp_path / "gamma_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        for row in rows:
            if float(row["gamma"]) <= threshold:
                assert float(row["clean_error"]) == 0.5
            else:
                assert float(row["clean_error"]) == 0.0
        assert abs(threshold - GAMMA_STAR) <= 1e-6
        assert 0.0901 < GAMMA_STAR  # the quoted regime sits just below the root

    criterion(1, "three-point sweep: error step and closed-form threshold", 1.0, body)


def test_criterion_2_noise_invariance():
    def body():
        rng = np.random.default_rng(20260201)
        for _ in range(200):
            dist = helpers.random_distribution(rng, min_centroid_norm=0.01)
            clean_fit = unhinged_minimizer(dist, 1.0)
            for eta in ETAS:
                noisy_fit = unhinged_minimizer(corrupt_rcn(dist, eta), 1.0)
                assert np.max(np.abs(clean_fit.weights.v
                                     - noisy_fit.weights.v)) <= 1e-12
                report = check_rcn_robustness(dist, make_loss("unhinged"), 1.0, eta)
                assert abs(report.clean_fit_error
                           - report.noisy_fit_error) <= 1e-12

    criterion(2, "clean and corrupted fits coincide", 5.0, body)


def test_criterion_3_slope_identity(tmp_path):
    def body():
        rows = slope_identity_fuzz(1000, seed=20260202,
                                   out_csv=tmp_path / "slope_fuzz.csv")
        assert len(rows) == 1000
        assert max(r["residual"] for r in rows) <= 1e-12

    criterion(3, "corrupted objective is the affine map of the clean one", 2.0, body)


def test_criterion_4_pgd_matches_closed_form():
    def body():
        # the shipped unhinged loss would take the closed form itself, so
        # the fit runs on its Newton stand-in LINEAR (1 - z, phi'' = 0)
        rng = np.random.default_rng(20260203)
        for _ in range(100):
            dist = helpers.random_distribution(rng, min_centroid_norm=0.05)
            oracle = unhinged_minimizer(dist, 1.0)
            fit = pgd_minimizer(dist, helpers.LINEAR, 1.0)
            assert fit.stop_reason == "gap" and fit.iterations <= 1
            assert abs(fit.objective - oracle.objective) <= 1e-6
            cos = float(fit.weights.v @ oracle.weights.v
                        / (np.linalg.norm(fit.weights.v)
                           * np.linalg.norm(oracle.weights.v)))
            assert float(np.arccos(np.clip(cos, -1.0, 1.0))) <= 1e-4

    criterion(4, "the Newton fit of 1 - z reaches the closed-form optimum", 30.0, body)


def test_criterion_5_gradient_descent_structure():
    def body():
        # dyadic sample coordinates and a power-of-two step keep every
        # float operation exact, so the iterative path must reproduce the
        # closed form bit for bit
        rng = np.random.default_rng(20260204)
        n, d = 5, 3
        xs = rng.integers(-8, 9, size=(n, d)) / 16.0
        ys = rng.choice([-1, 1], n)
        v0 = rng.integers(-8, 9, size=d) / 16.0
        step = 2.0 ** -8
        T = 100_000
        traj = gd_unhinged(xs, ys, v0, step, T)
        t = np.arange(T + 1)
        closed = v0 + step * t[:, None] * traj.target
        assert np.max(np.abs(traj.iterates - closed)) <= 1e-12

        ortho = gd_unhinged([[1.0, 0.0]], [1], [0.0, 1.0],
                            1.0, 1_000_000)
        assert ortho.angles_to_target[-1] <= 1e-5

    criterion(5, "iterates equal the closed form; angle decays", 10.0, body)


def test_criterion_6_coordinate_descent_support():
    def body():
        rng = np.random.default_rng(20260205)
        for _ in range(100):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            xs, ys = rng.uniform(-1, 1, (n, d)), rng.choice([-1, 1], n)
            traj = cd_unhinged(xs, ys, 12)
            allowed = set(traj.argmax_coords)
            for t in range(traj.iterates.shape[0]):
                assert set(np.nonzero(traj.iterates[t])[0]) <= allowed
        # constructed ties, both tie rules
        for rule in ("lowest-index", "report-all"):
            tied = cd_unhinged([[2.0, 2.0, 1.0]], [1], 6, rule)
            assert tied.argmax_coords == (0, 1)
            for t in range(7):
                assert set(np.nonzero(tied.iterates[t])[0]) <= {0, 1}
            if rule == "report-all":
                assert tied.chosen_coords == ((0, 1),) * 6

    criterion(6, "coordinate-descent support stays inside the argmax set", 5.0, body)


def test_criterion_7_recession_bound():
    def body():
        rng = np.random.default_rng(20260808)
        losses = [make_loss(n) for n in
                  ("exponential", "mixed_linear_exponential", "logistic")]
        for _ in range(100):
            dist, eta, x0, u = helpers.random_probe_instance(rng)
            for phi in losses:
                probe = recession_probe(dist, phi, eta, x0, u)
                assert probe.lambdas[-1] == 1024.0
                assert probe.min_slack >= -1e-9
                assert probe.eventually_increasing

    criterion(7, "ray values dominate the coercivity bound and rise", 10.0, body)


def test_criterion_8_loss_report_table():
    def body():
        rows, claim_ok = run_loss_report()
        assert claim_ok
        assert [r["verdict"] for r in rows] == ["Yes", "Yes", "Yes", "No", "No"]

        # witnesses are machine-checkable: recompute both from raw evaluations
        hinge = next(r for r in rows if r["loss"] == "hinge")
        assert hinge["witness_z"] == 1.0
        phi = make_loss("hinge")
        h = 1e-6
        forward = (phi(1.0 + h) - phi(1.0)) / h
        backward = (phi(1.0) - phi(1.0 - h)) / h
        assert abs(forward - backward) == pytest.approx(
            abs(hinge["witness_value"]), rel=1e-9)

        unhinged = next(r for r in rows if r["loss"] == "unhinged")
        assert unhinged["witness_z"] == 50.0
        assert make_loss("unhinged")(50.0) == unhinged["witness_value"] == -49.0

    criterion(8, "axiom verdicts reproduce the reference table", 30.0, body)
