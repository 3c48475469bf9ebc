"""End-to-end checks of the experiment harness and its file outputs."""

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from potmin import (DiscreteDistribution, LossOverflowError, check_rcn_robustness,
                    expected_loss, make_counterexample, make_loss, mean_label_feature,
                    misclassification_error, unhinged_minimizer)
from potmin import analysis, cli, distributions
from potmin.cli import counterexample_sample, load_sample_csv, main, run_loss_report

GAMMA_STAR = (-22.0 + math.sqrt(1984.0)) / 250.0


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    return json.loads(path.read_text())


def reference_cell(value) -> str:
    """The cell rule the sweep tables were written with through csv.writer."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def test_table_bytes_match_csv_writer(tmp_path):
    rows = [{"none": None, "yes": True, "no": False, "neg_zero": -0.0, "tiny": 5e-324,
             "huge": 1e308, "count": 7, "flags": "degenerate"},
            {"none": 0.1, "yes": False, "no": True, "neg_zero": 0.0, "tiny": -5e-324,
             "huge": -1e308, "count": -3, "flags": ""}]
    args = argparse.Namespace(out_dir=str(tmp_path), format="csv")
    path = cli._write_table(args, "table", rows)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rows[0]))
        writer.writerows([reference_cell(v) for v in row.values()] for row in rows)
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestGammaSweep:
    def test_cli_run_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["gamma-sweep", "--out-dir", str(out), "--plot"])
        assert code == 0
        rows = read_csv(out / "gamma_sweep.csv")
        assert len(rows) == 30
        summary = json.loads((out / "gamma_sweep_summary.json").read_text())
        assert summary["claim_ok"] is True
        assert abs(summary["threshold"] - GAMMA_STAR) <= 1e-6

    def test_rows_rederivable_from_library(self, tmp_path):
        code = main(["gamma-sweep", "--out-dir", str(tmp_path),
                     "--grid-count", "8"])
        assert code == 0
        for row in read_csv(tmp_path / "gamma_sweep.csv"):
            gamma = float(row["gamma"])
            dist = make_counterexample(gamma)
            fit = unhinged_minimizer(dist, 1.0)
            assert float(row["v_1"]) == fit.v[0]
            assert float(row["v_2"]) == fit.v[1]
            assert float(row["objective"]) == fit.objective
            assert float(row["clean_error"]) == misclassification_error(
                dist, fit.v)
            assert float(row["v_dot_x3"]) == float(fit.v @ dist.xs[2])

    def test_errors_step_at_threshold(self, tmp_path):
        assert main(["gamma-sweep", "--out-dir", str(tmp_path), "--grid-start", "0.01",
                     "--grid-stop", "0.3", "--grid-count", "30"]) == 0
        summary = read_json(tmp_path / "gamma_sweep_summary.json")
        assert summary["claim_ok"] is True
        for row in read_csv(tmp_path / "gamma_sweep.csv"):
            expected = 0.5 if float(row["gamma"]) <= summary["threshold"] else 0.0
            assert float(row["clean_error"]) == expected

    def test_grid_starting_at_the_threshold_passes(self, tmp_path):
        # error 0.5 holds at GAMMA_STAR itself, so a grid that starts there
        # still shows the step
        start = distributions.GAMMA_STAR
        assert main(["gamma-sweep", "--out-dir", str(tmp_path), "--grid-start", repr(start),
                     "--grid-stop", "0.3", "--grid-count", "5"]) == 0
        assert read_json(tmp_path / "gamma_sweep_summary.json")["threshold"] == start
        rows = read_csv(tmp_path / "gamma_sweep.csv")
        assert float(rows[0]["gamma"]) == start
        assert [float(r["clean_error"]) for r in rows] == [0.5, 0.0, 0.0, 0.0, 0.0]

    def test_grid_above_the_threshold_fails(self, tmp_path, capsys):
        assert main(["gamma-sweep", "--out-dir", str(tmp_path), "--grid-start", "0.1",
                     "--grid-stop", "0.3"]) == 1
        summary = read_json(tmp_path / "gamma_sweep_summary.json")
        assert summary["threshold"] is None
        assert summary["claim_ok"] is False
        out = capsys.readouterr().out
        assert "no sign change of v.x3 inside the grid; threshold not located" in out
        assert "claim FAIL" in out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gamma-sweep", "--out-dir", str(a)]) == 0
        assert main(["gamma-sweep", "--out-dir", str(b)]) == 0
        assert (a / "gamma_sweep.csv").read_bytes() == (b / "gamma_sweep.csv").read_bytes()

    def test_svg_is_self_contained_and_small(self, tmp_path):
        assert main(["gamma-sweep", "--out-dir", str(tmp_path), "--plot"]) == 0
        svg_path = tmp_path / "gamma_sweep.svg"
        body = svg_path.read_text()
        assert body.startswith("<svg")
        assert "href" not in body       # no external assets
        assert svg_path.stat().st_size < 1_000_000
        ElementTree.parse(svg_path)     # well-formed XML

    def test_log_spacing(self, tmp_path):
        code = main(["gamma-sweep", "--out-dir", str(tmp_path),
                     "--grid-start", "0.01", "--grid-stop", "0.3",
                     "--grid-count", "10", "--spacing", "log"])
        assert code == 0
        rows = read_csv(tmp_path / "gamma_sweep.csv")
        gammas = [float(r["gamma"]) for r in rows]
        ratios = np.diff(np.log(gammas))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_grid_outside_unit_interval_rejected(self, tmp_path):
        code = main(["gamma-sweep", "--out-dir", str(tmp_path),
                     "--grid-start", "0.5", "--grid-stop", "1.5"])
        assert code == 2

    def test_grid_count_below_two_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid_count": 1}))
        for argv in (["--grid-count", "1"], ["--config", str(cfg_path)]):
            assert main(["gamma-sweep", "--out-dir", str(tmp_path / "out"), *argv]) == 2
            assert "grid_count must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_format(self, tmp_path):
        code = main(["gamma-sweep", "--out-dir", str(tmp_path),
                     "--format", "json", "--grid-count", "5"])
        assert code == 0
        rows = json.loads((tmp_path / "gamma_sweep.json").read_text())
        assert len(rows) == 5
        assert "v_dot_x3" in rows[0]


class TestEtaSweep:
    def test_below_threshold_all_half(self, tmp_path):
        code = main(["eta-sweep", "--out-dir", str(tmp_path), "--gamma", "0.05"])
        assert code == 0
        rows = read_csv(tmp_path / "eta_sweep.csv")
        assert len(rows) == 9
        for row in rows:
            assert float(row["clean_error"]) == 0.5
            assert float(row["noisy_fit_error"]) == 0.5
            assert row["robust"] == "true"
            assert float(row["minimizer_drift"]) <= 1e-12

    def test_above_threshold_all_zero(self, tmp_path):
        assert main(["eta-sweep", "--out-dir", str(tmp_path), "--gamma", "0.2"]) == 0
        assert read_json(tmp_path / "eta_sweep_summary.json")["claim_ok"] is True
        for row in read_csv(tmp_path / "eta_sweep.csv"):
            assert float(row["clean_error"]) == 0.0
            assert float(row["noisy_fit_error"]) == 0.0

    def test_logistic_claim_is_informational(self, tmp_path, capsys):
        assert main(["eta-sweep", "--out-dir", str(tmp_path), "--loss", "logistic",
                     "--grid-count", "3"]) == 0
        assert "eta-sweep (logistic): 3 noise rates" in capsys.readouterr().out
        summary = read_json(tmp_path / "eta_sweep_summary.json")
        assert "minimizer_route" not in summary
        assert summary["claim_ok"] is True  # no robustness claim for this loss

    @pytest.mark.parametrize("r", [1e6, 1e100])
    def test_unhinged_claim_holds_at_large_radius(self, tmp_path, capsys, r):
        # the clean and noisy closed forms differ by ulps of r, not of 1
        assert main(["eta-sweep", "--out-dir", str(tmp_path), "--r", repr(r)]) == 0
        assert capsys.readouterr().out.endswith("claim PASS\n")
        rows = read_csv(tmp_path / "eta_sweep.csv")
        assert all(row["robust"] == "true" for row in rows)

    def test_no_minimizer_route_flag(self, tmp_path, capsys):
        # the loss picks its fit; the flag is gone
        with pytest.raises(SystemExit) as exc:
            main(["eta-sweep", "--out-dir", str(tmp_path), "--minimizer", "pgd"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --minimizer pgd" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_distribution_csv_source(self, tmp_path):
        data = tmp_path / "dist.csv"
        make_counterexample(0.05).to_csv(data)
        code = main(["eta-sweep", "--out-dir", str(tmp_path),
                     "--data", str(data), "--grid-count", "3"])
        assert code == 0

    @pytest.mark.parametrize("loss", ["logistic", "hinge", "unhinged"])
    def test_clean_distribution_fit_once(self, tmp_path, monkeypatch, loss):
        # one clean fit and one fit per noise rate; every row is the one
        # check_rcn_robustness gives at its rate
        fitted = []
        pgd = analysis.pgd_minimizer

        def counted(dist, *args):
            fitted.append(dist)
            return pgd(dist, *args)

        monkeypatch.setattr(analysis, "pgd_minimizer", counted)
        assert main(["eta-sweep", "--out-dir", str(tmp_path), "--loss", loss,
                     "--grid-count", "3"]) == 0
        assert len(fitted) == 4
        dist, phi = make_counterexample(0.05), make_loss(loss)
        rows = read_csv(tmp_path / "eta_sweep.csv")
        assert len(rows) == 3
        for row in rows:
            assert list(row) == ["eta", "v_1", "v_2", "objective", "clean_error",
                                 "noisy_fit_error", "robust", "minimizer_drift", "flags"]
            report = check_rcn_robustness(dist, phi, 1.0, float(row["eta"]))
            assert [float(row["v_1"]), float(row["v_2"])] == report.minimizer_noisy.tolist()
            assert (float(row["clean_error"]), float(row["noisy_fit_error"])) == (
                report.clean_fit_error, report.noisy_fit_error)
            assert float(row["objective"]) == expected_loss(dist, phi, report.minimizer_noisy)
            assert row["robust"] == ("true" if report.robust else "false")
            assert float(row["minimizer_drift"]) == float(
                np.max(np.abs(report.minimizer_clean - report.minimizer_noisy)))

    def test_eta_grid_validated(self, tmp_path):
        code = main(["eta-sweep", "--out-dir", str(tmp_path),
                     "--grid-start", "0.1", "--grid-stop", "0.6"])
        assert code == 2

    def test_plot_draws_clean_and_noisy_errors(self, tmp_path):
        assert main(["eta-sweep", "--out-dir", str(tmp_path), "--grid-count", "3",
                     "--plot"]) == 0
        svg_path = tmp_path / "eta_sweep.svg"
        body = svg_path.read_text()
        assert body.startswith("<svg")
        assert "href" not in body       # no external assets
        lines = ElementTree.parse(svg_path).findall("{http://www.w3.org/2000/svg}polyline")
        assert len(lines) == 2
        assert all(len(line.get("points").split()) == 3 for line in lines)


@pytest.mark.parametrize("argv, message", [
    (["gamma-sweep", "--grid-start", "0.5", "--grid-stop", "1.5"],
     "gamma must lie in (0, 1), got "),
    (["eta-sweep", "--grid-start", "0.1", "--grid-stop", "0.6"],
     "noise rate must satisfy 0 < eta < 1/2, got "),
    # an infinite bound would space the grid into NaN points, with a warning
    (["gamma-sweep", "--grid-stop", "inf"], "grid bounds must be finite, got [0.01, inf]"),
    (["eta-sweep", "--grid-stop", "inf"], "grid bounds must be finite, got [0.05, inf]"),
], ids=["gamma", "eta", "gamma-inf", "eta-inf"])
def test_grid_outside_the_library_range_exits_two(tmp_path, capsys, argv, message):
    # the library rejects the first grid point out of range, before any write
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestDynamics:
    def test_gd_builtin_sample(self, tmp_path):
        code = main(["dynamics", "--mode", "gd", "--steps", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "dynamics_gd.csv")
        assert list(rows[0]) == ["t", "v_1", "v_2", "loss", "angle_rad",
                                 "chosen_coord"]
        assert rows[0]["angle_rad"] == ""      # undefined at the origin
        assert all(r["chosen_coord"] == "" for r in rows)
        # starting from zero, every defined angle is numerically zero
        for row in rows[1:]:
            assert abs(float(row["angle_rad"])) <= 1e-12
        summary = json.loads((tmp_path / "dynamics_gd_summary.json").read_text())
        assert summary["closed_form_residual_max"] <= 1e-12

    def test_gd_angles_past_the_square_root_of_the_float_range(self, tmp_path):
        # iterates of size ~1e200 square past float64; the angles were
        # written as pi/2 where every iterate lies along the target
        assert main(["dynamics", "--step-size", "1e200", "--steps", "3",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "dynamics_gd.csv")
        assert float(rows[-1]["v_1"]) > 1e200
        for row in rows[1:]:
            assert abs(float(row["angle_rad"])) <= 1e-15

    def test_gd_long_run_passes_at_rounding_level(self, tmp_path):
        # 2e4 incremental additions drift ~5e-10 from the closed form on
        # iterates of size ~2e3: rounding, well inside (T + 2) eps relative
        assert main(["dynamics", "--mode", "gd", "--steps", "20000",
                     "--out-dir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "dynamics_gd_summary.json")
        assert summary["closed_form_residual_max"] > 1e-12
        assert summary["claim_ok"] is True

    def test_gd_claim_fails_on_a_perturbed_iterate(self, tmp_path, monkeypatch):
        # the bound must still catch a 1e-9 relative error in one iterate
        gd = cli.gd_unhinged

        def perturbed(*args):
            traj = gd(*args)
            iterates = traj.iterates.copy()
            iterates[-1] *= 1.0 + 1e-9
            return dataclasses.replace(traj, iterates=iterates)

        monkeypatch.setattr(cli, "gd_unhinged", perturbed)
        assert main(["dynamics", "--mode", "gd", "--steps", "20000",
                     "--out-dir", str(tmp_path)]) == 1
        assert read_json(tmp_path / "dynamics_gd_summary.json")["claim_ok"] is False

    def test_cd_builtin_sample(self, tmp_path):
        code = main(["dynamics", "--mode", "cd", "--steps", "6",
                     "--out-dir", str(tmp_path), "--plot"])
        assert code == 0
        summary = json.loads((tmp_path / "dynamics_cd_summary.json").read_text())
        assert summary["support_ok"] is True
        rows = read_csv(tmp_path / "dynamics_cd.csv")
        chosen = {r["chosen_coord"] for r in rows[1:]}
        assert len(chosen) == 1   # tie-free sample: one coordinate throughout

    def test_cd_tie_report_all(self, tmp_path):
        data = tmp_path / "sample.csv"
        data.write_text("x1,x2,y\n2.0,2.0,1\n")
        code = main(["dynamics", "--mode", "cd", "--steps", "3",
                     "--tie-rule", "report-all", "--data", str(data),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "dynamics_cd.csv")
        assert rows[1]["chosen_coord"] == "0;1"
        summary = json.loads((tmp_path / "dynamics_cd_summary.json").read_text())
        assert summary["argmax_coords"] == [0, 1]

    def test_gd_sample_csv_and_v0(self, tmp_path):
        data = tmp_path / "sample.csv"
        data.write_text("x1,y\n1.0,1\n0.5,-1\n")
        code = main(["dynamics", "--mode", "gd", "--steps", "4",
                     "--step-size", "0.25", "--v0", "1.0",
                     "--data", str(data), "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "dynamics_gd.csv")
        # g = 0.5, increments 0.125 from v0 = 1.0
        assert [float(r["v_1"]) for r in rows] == [1.0, 1.125, 1.25, 1.375, 1.5]

    def test_stationary_sample_plot_still_renders(self, tmp_path):
        # all angles are undefined for a stationary run; the figure must
        # still be written rather than choking on an all-NaN series
        data = tmp_path / "sample.csv"
        data.write_text("x1,y\n1.0,1\n1.0,-1\n")
        code = main(["dynamics", "--mode", "gd", "--steps", "5", "--plot",
                     "--data", str(data), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "dynamics_gd.svg").exists()
        summary = json.loads((tmp_path / "dynamics_gd_summary.json").read_text())
        assert summary["stationary"] is True

    def test_sample_header_validated(self, tmp_path):
        data = tmp_path / "sample.csv"
        data.write_text("x1,weight\n1.0,0.5\n")
        code = main(["dynamics", "--mode", "gd", "--data", str(data),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv,header,body", [
        (["dynamics", "--mode", "gd"], "x1,y", "0.5,1\nnan,1\n"),
        (["robust-check", "--eta", "0.1"], "x1,y,weight", "0.5,1,0.5\ninf,1,0.5\n"),
    ])
    def test_non_finite_csv_field_exits_two(self, tmp_path, capsys, argv, header, body):
        data = tmp_path / "data.csv"
        data.write_text(f"{header}\n{body}")
        code = main(argv + ["--data", str(data), "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"{data}:3: field 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("0.5,1\nnan,1\n", "{data}:3: field 1 is not finite: 'nan'"),
        ("0.5,1\n2.0,0\n", "{data}:3: label must be -1 or 1, got 0"),
    ], ids=["nan", "label"])
    @pytest.mark.parametrize("mode", ["gd", "cd"])
    def test_bad_sample_row_exits_two_naming_its_line(self, tmp_path, capsys, mode, body,
                                                      message):
        # the reader names the file line before the library's row check runs
        data = tmp_path / "sample.csv"
        data.write_text("x1,y\n" + body)
        out = tmp_path / "out"
        assert main(["dynamics", "--mode", mode, "--data", str(data), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(data=data)}\n"
        assert not out.exists()

    def test_counterexample_sample_matches_distribution(self):
        xs, ys = counterexample_sample(0.05)
        assert len(xs) == 4
        dist = make_counterexample(0.05)
        uniform_mean = np.mean(ys[:, None] * xs, axis=0)
        np.testing.assert_allclose(uniform_mean, mean_label_feature(dist),
                                   atol=1e-15)

    def test_load_sample_roundtrip(self, tmp_path):
        data = tmp_path / "s.csv"
        data.write_text("x1,x2,y\n0.5,-1.5,1\n2.0,3.0,-1\n")
        xs, ys = load_sample_csv(data)
        assert ys.tolist() == [1, -1]
        assert xs[1].tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("body,message", [
        ("0.5,1\n\n2.0,2\n", "{path}:4: label must be -1 or 1, got 2"),
        ("0.5,1\n2.0\n", "{path}:3: expected 2 fields, got 1"),
        ("\n", "{path}: no data rows"),
        ("0.5,1\nnan,1\n", "{path}:3: field 1 is not finite: 'nan'"),
    ])
    def test_load_sample_errors_name_the_line(self, tmp_path, body, message):
        data = tmp_path / "s.csv"
        data.write_text("x1,y\n" + body)
        with pytest.raises(ValueError) as err:
            load_sample_csv(data)
        assert str(err.value) == message.format(path=data)

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_v0_under_coordinate_descent_exits_two(self, tmp_path, capsys, how):
        # coordinate descent starts at 0; a start it would ignore is an error
        out = tmp_path / "out"
        if how == "flag":
            argv = ["dynamics", "--mode", "cd", "--v0", "5", "5", "--steps", "3"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"mode": "cd", "v0": [5, 5], "steps": 3}))
            argv = ["dynamics", "--config", str(cfg_path)]
        assert main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--v0" in err and "coordinate descent starts at 0" in err
        assert not out.exists()


class TestInapplicableFlags:
    """A flag or config key the run cannot use exits 2 and writes nothing."""

    @staticmethod
    def run(tmp_path, argv, how, settings):
        if how == "flag":
            for key, value in settings.items():
                argv = [*argv, "--" + key.replace("_", "-"), str(value)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(settings))
            argv = [*argv, "--config", str(cfg_path)]
        return main([*argv, "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_tie_rule_under_gradient_descent_exits_two(self, tmp_path, capsys, how):
        argv = ["dynamics", "--mode", "gd", "--steps", "2"]
        assert self.run(tmp_path, argv, how, {"tie_rule": "report-all"}) == 2
        assert "--tie-rule does not apply to --mode gd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", ["eta-sweep", "dynamics", "robust-check",
                                         "recession-probe"])
    def test_gamma_with_data_exits_two(self, tmp_path, capsys, command, how):
        data = tmp_path / "data.csv"
        if command == "dynamics":
            data.write_text("x1,y\n0.5,1\n")
        else:
            make_counterexample(0.2).to_csv(data)
        argv = [command, "--data", str(data)]
        assert self.run(tmp_path, argv, how, {"gamma": 0.3}) == 2
        assert "--gamma does not apply with --data" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unset_flags_resolve_to_their_defaults(self, tmp_path):
        assert main(["eta-sweep", "--grid-count", "2", "--out-dir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "eta_sweep_summary.json")["source"] == (
            "counterexample(gamma=0.05)")
        assert main(["dynamics", "--mode", "cd", "--steps", "2",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "dynamics_cd_summary.json")["tie_rule"] == "lowest-index"


class TestLossReport:
    def test_verdict_pattern_and_witnesses(self, tmp_path):
        rows, claim_ok = run_loss_report()
        assert claim_ok
        assert [r["verdict"] for r in rows] == ["Yes", "Yes", "Yes", "No", "No"]
        hinge = next(r for r in rows if r["loss"] == "hinge")
        assert hinge["failing_clause"] == "c1_negative_slope_at_zero"
        assert hinge["witness_z"] == 1.0
        unhinged = next(r for r in rows if r["loss"] == "unhinged")
        assert unhinged["failing_clause"] == "vanishing_nonnegative_tail"
        assert unhinged["witness_z"] == 50.0
        assert unhinged["witness_value"] == -49.0

    def test_cli_exit_and_table(self, tmp_path, capsys):
        code = main(["loss-report", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Yes/Yes/Yes/No/No" in out

    def test_json_output(self, tmp_path, capsys):
        code = main(["loss-report", "--format", "json",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = json.loads(capsys.readouterr().out.rsplit("claim", 1)[0])
        assert len(rows) == 5


class TestRobustCheck:
    def test_passes_for_unhinged(self, tmp_path, capsys):
        code = main(["robust-check", "--eta", "0.3", "--gamma", "0.05",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["robust"] is True
        assert payload["clean_fit_error"] == 0.5

    def test_bad_eta_exits_two(self, tmp_path):
        assert main(["robust-check", "--eta", "0.6",
                     "--out-dir", str(tmp_path)]) == 2

    def test_mass_within_the_weight_tolerance_is_a_valid_error(self, tmp_path, capsys):
        # the weights sum to 1 + 8e-14, which the constructor accepts; the
        # centroid is 0, so both fits misclassify the whole mass
        data = tmp_path / "over.csv"
        data.write_text("x1,y,weight\n1,1,0.50000000000004\n1,-1,0.50000000000004\n")
        mass = float(DiscreteDistribution.from_csv(data).weights.sum())
        assert mass > 1.0
        assert main(["robust-check", "--loss", "unhinged", "--data", str(data),
                     "--out-dir", str(tmp_path / "out")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["robust"] is True
        assert payload["clean_fit_error"] == payload["noisy_fit_error"] == mass
        assert main(["eta-sweep", "--loss", "unhinged", "--data", str(data),
                     "--out-dir", str(tmp_path / "out")]) == 0


class TestRecessionProbe:
    def test_logistic_probe_passes(self, tmp_path):
        code = main(["recession-probe", "--loss", "logistic", "--eta", "0.1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(
            (tmp_path / "recession_probe_summary.json").read_text())
        assert payload["bound_holds"] is True
        assert payload["lambdas"][-1] == 1024.0

    def test_default_loss_is_logistic(self, tmp_path, capsys):
        # the subcommand's own default: unhinged, the others', is no convex potential
        assert main(["recession-probe", "--out-dir", str(tmp_path / "default")]) == 0
        default = capsys.readouterr().out
        assert main(["recession-probe", "--loss", "logistic",
                     "--out-dir", str(tmp_path / "logistic")]) == 0
        assert capsys.readouterr().out == default
        assert ((tmp_path / "default" / "recession_probe_summary.json").read_bytes()
                == (tmp_path / "logistic" / "recession_probe_summary.json").read_bytes())

    def test_unhinged_probe_is_invalid_input(self, tmp_path):
        assert main(["recession-probe", "--loss", "unhinged",
                     "--out-dir", str(tmp_path)]) == 2

    def test_exponential_overflow_names_the_clean_atom(self, tmp_path):
        # the listed known defect: the default ray grid reaches lambda = 1024,
        # where exp(-z) leaves float64 at the flipped label of atom 0
        with pytest.raises(LossOverflowError) as err:
            main(["recession-probe", "--loss", "exponential", "--out-dir", str(tmp_path)])
        assert err.value.atom_index == 0
        assert err.value.atom == ([1.0, 0.0], -1)
        assert err.value.z == pytest.approx(-841.035521922265, abs=1e-9)

    def test_logistic_overflow_at_the_base_point_names_the_clean_atom(self, tmp_path):
        # at x0 = (1e308, 1e308) the flipped label of atom 0 has margin
        # -1e308, where log(1 + exp(2e308)) leaves float64
        with pytest.raises(LossOverflowError) as err:
            main(["recession-probe", "--loss", "logistic", "--x0", "1e308", "1e308",
                  "--out-dir", str(tmp_path)])
        assert err.value.atom_index == 0
        assert err.value.atom == ([1.0, 0.0], -1)
        assert err.value.z == -1e308

    def test_explicit_direction_normalized(self, tmp_path):
        code = main(["recession-probe", "--loss", "exponential", "--eta", "0.2",
                     "--u", "2.0", "0.0", "--lambdas", "0", "1", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, field", [
        (["dynamics", "--step-size", "inf"], "step"),
        (["dynamics", "--mode", "cd", "--step-size", "inf"], "step_size"),
        (["dynamics", "--v0", "inf", "0"], "v0"),
        (["recession-probe", "--loss", "logistic", "--lambdas", "0", "inf"], "lambdas"),
        (["recession-probe", "--loss", "logistic", "--x0", "inf", "0"], "x0"),
        (["recession-probe", "--loss", "logistic", "--u", "inf", "0"], "u"),
        (["robust-check", "--loss", "logistic", "--r", "inf"], "radius"),
        (["robust-check", "--loss", "hinge", "--r", "inf"], "radius"),
        (["robust-check", "--loss", "unhinged", "--r", "inf"], "radius"),
        (["eta-sweep", "--loss", "exponential", "--r", "nan"], "radius"),
        (["gamma-sweep", "--r", "inf"], "radius"),
    ], ids=["gd-step", "cd-step", "v0", "lambdas", "x0", "u", "r-newton", "r-hinge",
            "r-closed-form", "r-nan", "r-gamma-sweep"])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, argv, field):
        # invalid input, not a claim checked on inf iterates or values
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f" {field} must be " in err and "finite" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("argv, message", [
        (["robust-check", "--loss", "unhinged", "--r", "1e308"],
         "radius 1e+308 overflows float64 in r m/||m||"),
        (["dynamics", "--step-size", "1e308", "--steps", "3"],
         "gradient descent with step 1e+308 leaves float64 within T = 3 steps"),
        (["dynamics", "--mode", "cd", "--step-size", "1e308", "--steps", "3"],
         "coordinate descent with step_size 1e+308 leaves float64 within T = 3 steps"),
    ], ids=["closed-form-radius", "gd-step", "cd-step"])
    def test_finite_input_that_overflows_exits_two(self, tmp_path, capsys, argv, message):
        # the error names the input, not the float64 vector it overflowed into
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["robust-check", "--loss", "unhinged"],
        ["eta-sweep", "--loss", "unhinged"],
        ["recession-probe", "--loss", "logistic"],
        ["recession-probe", "--loss", "logistic", "--u", "1e200", "1e200"],
    ], ids=["robust-check", "eta-sweep", "recession-probe", "recession-probe-u"])
    def test_centroid_whose_squares_overflow_is_not_an_overflow(self, tmp_path, argv):
        # ||m|| = 7.07e199 is finite though ||m||^2 is not, and so is m/||m||
        # (as is u/||u|| for such an explicit direction)
        data = tmp_path / "big.csv"
        data.write_text("x1,x2,y,weight\n1e200,0,1,0.5\n0,1e200,1,0.5\n")
        assert main([*argv, "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("mode", ["gd", "cd"])
    def test_label_sum_that_overflows_exits_two(self, tmp_path, capsys, mode):
        # no step or T makes this sample finite, so the error names the sum
        data = tmp_path / "sample.csv"
        data.write_text("x1,y\n1e308,1\n1e308,1\n-1e308,1\n-1e308,1\n")
        assert main(["dynamics", "--mode", mode, "--data", str(data),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "label sum sum_i y_i x_i leaves float64" in err and "step" not in err
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "narrow",
            "grid_start": 0.05,
            "grid_stop": 0.15,
            "grid_count": 5,
            "out_dir": str(tmp_path),
        }))
        code = main(["gamma-sweep", "--config", str(cfg_path)])
        assert code == 0
        rows = read_csv(tmp_path / "narrow.csv")
        assert len(rows) == 5
        assert float(rows[0]["gamma"]) == 0.05

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid_count": 5, "out_dir": str(tmp_path)}))
        code = main(["gamma-sweep", "--config", str(cfg_path),
                     "--grid-count", "7"])
        assert code == 0
        assert len(read_csv(tmp_path / "gamma_sweep.csv")) == 7

    def test_config_never_outlives_its_call(self, tmp_path, monkeypatch):
        # the parser is shared by every call in a process; a config is not
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid_count": 5, "out_dir": "cfg_out"}))
        assert main(["gamma-sweep", "--config", str(cfg_path)]) == 0
        assert len(read_csv(tmp_path / "cfg_out" / "gamma_sweep.csv")) == 5
        assert main(["gamma-sweep"]) == 0
        assert len(read_csv(tmp_path / "out" / "gamma_sweep.csv")) == 30
        assert cli.build_parser() is cli.build_parser()

    def test_flags_override_config_store_true_and_nargs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"plot": False, "v0": [0, 0.5], "steps": 2,
                                        "out_dir": str(tmp_path)}))
        assert main(["dynamics", "--config", str(cfg_path), "--plot", "--v0", "1", "2"]) == 0
        assert (tmp_path / "dynamics_gd.svg").exists()
        first = read_csv(tmp_path / "dynamics_gd.csv")[0]
        assert (float(first["v_1"]), float(first["v_2"])) == (1.0, 2.0)
        # without the flags, the config's values hold
        (tmp_path / "dynamics_gd.svg").unlink()
        assert main(["dynamics", "--config", str(cfg_path)]) == 0
        assert not (tmp_path / "dynamics_gd.svg").exists()
        first = read_csv(tmp_path / "dynamics_gd.csv")[0]
        assert (float(first["v_1"]), float(first["v_2"])) == (0.0, 0.5)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid_counts": 5}))
        assert main(["gamma-sweep", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("loss-report", "plot", True),
        ("dynamics", "format", "json"),
        ("robust-check", "grid_count", 5),
        ("gamma-sweep", "config", "other.json"),
    ])
    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys, command, key, value):
        # a config sets only its own subcommand's flags
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_example_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Configs are plain JSON", 1)[1].split("```json", 1)[1]
        config = {**json.loads(block.split("```", 1)[0]), "out_dir": str(tmp_path)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["gamma-sweep", "--config", str(cfg_path)]) == 0
        assert len(read_csv(tmp_path / "gamma_sweep.csv")) == config["grid_count"]

    def test_minimizer_key_rejected(self, tmp_path, capsys):
        # the loss picks its fit; no config key picks a route
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"minimizer": "pgd", "out_dir": str(tmp_path / "out")}))
        assert main(["robust-check", "--config", str(cfg_path)]) == 2
        assert "unknown config keys: minimizer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        assert main(["gamma-sweep", "--config", str(cfg_path)]) == 2
        assert "unknown config keys: seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, message", [
        ("gamma-sweep", "r", "1", "must be a number, got '1'"),
        ("gamma-sweep", "r", None, "must be a number, got None"),
        ("dynamics", "steps", "10", "must be an integer, got '10'"),
        ("gamma-sweep", "plot", "no", "must be true or false, got 'no'"),
        ("gamma-sweep", "grid_count", 2.5, "must be an integer, got 2.5"),
        ("dynamics", "v0", "abc", "must be a list of numbers, got 'abc'"),
        ("gamma-sweep", "format", "xml", "must be one of csv, json, got 'xml'"),
        ("dynamics", "mode", "x", "must be one of gd, cd, got 'x'"),
        ("gamma-sweep", "grid_spacing", "cubic", "must be one of linear, log, got 'cubic'"),
        ("gamma-sweep", "plot", None, "must be true or false, got None"),
    ])
    def test_mistyped_value_exits_two(self, tmp_path, capsys, command, key, value,
                                      message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value, "out_dir": str(tmp_path)}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"config key {key!r} {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_typed_values_accepted(self, tmp_path):
        # an integer for a float field, null where the default is None
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "step_size": 1, "v0": [0, 0.5], "steps": 5, "data": None,
            "plot": False, "out_dir": str(tmp_path),
        }))
        assert main(["dynamics", "--config", str(cfg_path)]) == 0
        assert len(read_csv(tmp_path / "dynamics_gd.csv")) == 6

    def test_malformed_json_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["gamma-sweep", "--config", str(cfg_path)]) == 2

    def test_subcommand_options_pinned(self):
        # --format and --plot only where the subcommand reads them
        common = {"-h", "--help", "--config", "--out-dir", "--experiment"}
        sweep = {"--format", "--plot", "--grid-start", "--grid-stop", "--grid-count",
                 "--spacing"}
        expected = {
            "gamma-sweep": common | sweep | {"--r"},
            "eta-sweep": common | sweep | {"--r", "--loss", "--gamma", "--data"},
            "dynamics": common | {"--plot", "--mode", "--steps", "--step-size", "--v0",
                                  "--tie-rule", "--gamma", "--data"},
            "loss-report": common | {"--format"},
            "robust-check": common | {"--r", "--eta", "--loss", "--gamma", "--data"},
            "recession-probe": common | {"--eta", "--loss", "--gamma", "--data",
                                         "--x0", "--u", "--lambdas"},
        }
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(expected)
        for name, parser in sub.choices.items():
            options = {s for a in parser._actions for s in a.option_strings}
            assert options == expected[name], name

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestEntryPoint:
    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["loss-report"], 0, "stdout", "claim PASS: verdicts Yes/Yes/Yes/No/No"),
        (["gamma-sweep", "--grid-start", "0.1", "--grid-stop", "0.3"], 1, "stdout",
         "threshold not located"),
        (["robust-check", "--eta", "0.6"], 2, "stderr", "error: "),
    ], ids=["loss-report-0", "gamma-sweep-1", "robust-check-2"])
    def test_python_m_potmin_exit_code(self, tmp_path, argv, code, stream, text):
        # __main__ -> entrypoint -> sys.exit(main()) in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        proc = subprocess.run([sys.executable, "-m", "potmin", *argv, "--out-dir", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert text in getattr(proc, stream)
