"""Experiment harness: sweeps, dynamics dumps, and axiom reports as a CLI.

Every CSV row an experiment emits is a straight transcription of library
calls; the CLI adds bookkeeping and file output, never numerics or input
checks of its own.  Each setting is one flag in ``_FLAGS``, default
included, except ``--loss``: its default depends on the subcommand
(``unhinged``, or ``logistic`` for recession-probe) and is resolved where
it is read.  A JSON ``--config`` sets only its subcommand's flag dests.
Settings resolve as default < config < flag, afresh in each ``main()``
call: the parser is built once per process and never changed.  A setting
the run cannot use (``--gamma`` with ``--data``, ``--tie-rule`` under gd,
``--v0`` under cd) has no default and exits 2.
Exit codes: 0 success, 1 a checked claim failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import svg
from .analysis import (_robustness_sweep, check_rcn_robustness, expected_loss,
                       misclassification_error, recession_probe)
from .distributions import (GAMMA_STAR, DiscreteDistribution, _csv_text,
                            _read_labeled_csv, _write_csv, make_counterexample)
from .dynamics import TIE_RULES, cd_unhinged, gd_unhinged
from .loss_zoo import LOSS_NAMES, check_def1, make_loss
from .minimizers import unhinged_minimizer

_DRIFT_TOL = 1e-12

# Method tags for the axiom report table.
_LOSS_TAGS = {
    "exponential": "AdaBoost",
    "mixed_linear_exponential": "MadaBoost",
    "logistic": "LogitBoost",
    "hinge": "SVM / margin classifiers",
    "unhinged": "symmetric robust loss",
}

_EXPECTED_VERDICTS = ("Yes", "Yes", "Yes", "No", "No")

# Every subcommand flag with its add_argument keywords, default included (none
# where it may not apply, or where the subcommand picks it); a JSON config value
# must be of the kind they give.
_FLAGS = {
    "--config": dict(help="JSON config; keys are this subcommand's flag dests"),
    "--out-dir": dict(default="out", help="output directory"),
    "--format": dict(choices=["csv", "json"], default="csv", help="table format"),
    "--plot": dict(action="store_true", default=False, help="also write an SVG figure"),
    "--experiment": dict(default="", help="experiment id used in file names"),
    "--grid-start": dict(type=float),
    "--grid-stop": dict(type=float),
    "--grid-count": dict(type=int),
    "--spacing": dict(dest="grid_spacing", choices=["linear", "log"], default="linear"),
    "--r": dict(type=float, default=1.0, help="ball radius"),
    "--eta": dict(type=float, default=0.1),
    "--loss": dict(choices=list(LOSS_NAMES),
                   help="margin loss (default unhinged; logistic for recession-probe)"),
    "--gamma": dict(type=float, help="construction parameter (without --data)"),
    "--data": dict(help="distribution CSV, or for dynamics a sample CSV (README: File formats)"),
    "--mode": dict(choices=["gd", "cd"], default="gd"),
    "--steps": dict(type=int, default=100),
    "--step-size": dict(type=float),
    "--v0": dict(type=float, nargs="+"),
    "--tie-rule": dict(choices=list(TIE_RULES)),
    "--x0": dict(type=float, nargs="+"),
    "--u": dict(type=float, nargs="+"),
    "--lambdas": dict(type=float, nargs="+"),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_kind(flag_kwargs: dict) -> tuple[str, Callable[[object], bool]]:
    """What a JSON config value must be, read from its flag's add_argument keywords."""
    if "choices" in flag_kwargs:
        choices = flag_kwargs["choices"]
        return f"one of {', '.join(choices)}", lambda value: value in choices
    if flag_kwargs.get("action") == "store_true":
        return "true or false", lambda value: isinstance(value, bool)
    if "nargs" in flag_kwargs:
        return "a list of numbers", lambda value: (isinstance(value, list)
                                                   and all(map(_is_number, value)))
    if flag_kwargs.get("type") is int:
        return "an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)
    if flag_kwargs.get("type") is float:
        return "a number", _is_number
    return "a string", lambda value: isinstance(value, str)


def _dest(flag: str) -> str:
    """The namespace attribute, and the config key, of a flag in ``_FLAGS``."""
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


def _read_config(path: str, flags: tuple[str, ...]) -> dict:
    """The JSON config at path, checked against the dests of one subcommand's flags."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    dest_kwargs = {_dest(flag): _FLAGS[flag] for flag in flags if flag != "--config"}
    unknown = sorted(set(loaded) - set(dest_kwargs))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in loaded.items():
        kind, has_kind = _config_kind(dest_kwargs[key])
        if not (has_kind(value) or value is None and dest_kwargs[key].get("default") is None):
            raise ValueError(f"{path}: config key {key!r} must be {kind}, got {value!r}")
    return loaded


def _out_path(args: argparse.Namespace, filename: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / filename


def _write_table(args: argparse.Namespace, name: str, rows: list[dict]) -> Path:
    """The rows as a JSON list, or as CSV with one column per key (a grid
    has at least two rows)."""
    path = _out_path(args, f"{name}.{args.format}")
    if args.format == "json":
        path.write_text(json.dumps(rows, indent=2) + "\n")
        return path
    _write_csv(path, list(rows[0]), [[row[key] for row in rows] for key in rows[0]])
    return path


def _write_summary(args: argparse.Namespace, name: str, summary: dict) -> None:
    _out_path(args, f"{name}_summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _grid(args: argparse.Namespace, default_start: float, default_stop: float,
          default_count: int) -> np.ndarray:
    start = default_start if args.grid_start is None else float(args.grid_start)
    stop = default_stop if args.grid_stop is None else float(args.grid_stop)
    count = default_count if args.grid_count is None else int(args.grid_count)
    if count < 2:
        raise ValueError("grid_count must be at least 2")
    if not np.isfinite([start, stop]).all():
        raise ValueError(f"grid bounds must be finite, got [{start}, {stop}]")
    if not stop > start:
        raise ValueError(f"grid requires stop > start, got [{start}, {stop}]")
    if args.grid_spacing == "log":
        if start <= 0:
            raise ValueError("log spacing requires a positive grid start")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def counterexample_sample(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The three-point construction as a uniform 4-point sample (xs, ys).

    Duplicating the heavy point reproduces the 1/4, 1/4, 1/2 masses
    under the uniform distribution on the sample.
    """
    return make_counterexample(gamma).xs[[0, 1, 2, 2]], np.ones(4)


def load_sample_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load an unweighted sample (xs, ys): header x1,...,xd,y, one point per row."""
    with open(path, "rb") as raw, _csv_text(raw) as fh:
        d, table = _read_labeled_csv(fh, path, ("y",), "sample header")
    return table[:, :d], table[:, d]


def _gamma(args: argparse.Namespace) -> float | None:
    """The construction parameter (0.05 unless set), or None when --data names the input."""
    if not args.data:
        return 0.05 if args.gamma is None else args.gamma
    if args.gamma is not None:
        raise ValueError("--gamma does not apply with --data: the input is the file")
    return None


def _load_dist(args: argparse.Namespace) -> DiscreteDistribution:
    gamma = _gamma(args)
    return (DiscreteDistribution.from_csv(args.data) if gamma is None
            else make_counterexample(gamma))


def run_gamma_sweep(args: argparse.Namespace) -> int:
    """Sweep the construction parameter and fit the centroid minimizer;
    its clean error steps from 0.5 to 0.0 at the closed-form GAMMA_STAR."""
    name = args.experiment or "gamma_sweep"
    gammas = _grid(args, 0.01, 0.3, 30)
    rows = []
    for gamma in gammas:
        dist = make_counterexample(float(gamma))
        fit = unhinged_minimizer(dist, args.r)
        v = fit.v
        rows.append({
            "gamma": float(gamma), **{f"v_{j + 1}": float(c) for j, c in enumerate(v)},
            "objective": fit.objective,
            "clean_error": misclassification_error(dist, v), "noisy_fit_error": None,
            "v_dot_x3": float(v @ dist.xs[2]),
            "flags": "degenerate" if fit.degenerate_centroid else "",
        })

    # the float pipeline misclassifies the heavy point up to GAMMA_STAR itself
    threshold = GAMMA_STAR if gammas[0] <= GAMMA_STAR < gammas[-1] else None
    claim_ok = threshold is not None and all(
        row["clean_error"] == (0.5 if row["gamma"] <= GAMMA_STAR else 0.0) for row in rows)

    table_path = _write_table(args, name, rows)
    _write_summary(args, name, {
        "experiment": name,
        "threshold": threshold,
        "claim_ok": claim_ok,
        "grid": [rows[0]["gamma"], rows[-1]["gamma"], len(rows)],
        "r": args.r,
    })
    if args.plot:
        svg.step_plot(
            _out_path(args, f"{name}.svg"),
            [row["gamma"] for row in rows],
            [row["clean_error"] for row in rows],
            title="clean error of the centroid minimizer",
            xlabel="gamma", ylabel="error",
            vlines=[threshold] if threshold is not None else (),
        )
    print(f"gamma-sweep: {len(rows)} grid points -> {table_path}")
    if threshold is None:
        print("no sign change of v.x3 inside the grid; threshold not located")
    else:
        print(f"threshold gamma* = {threshold!r}")
    print(f"claim {'PASS' if claim_ok else 'FAIL'}: error 0.5 below threshold, 0.0 above")
    return 0 if claim_ok else 1


def run_eta_sweep(args: argparse.Namespace) -> int:
    """Robustness check across noise rates on a fixed distribution."""
    name = args.experiment or "eta_sweep"
    etas = _grid(args, 0.05, 0.45, 9)
    dist = _load_dist(args)
    phi = make_loss(args.loss or "unhinged")
    rows = []
    for report in _robustness_sweep(dist, phi, args.r, etas):
        v = report.minimizer_noisy
        rows.append({
            "eta": report.eta, **{f"v_{j + 1}": float(c) for j, c in enumerate(v)},
            "objective": expected_loss(dist, phi, v),
            "clean_error": report.clean_fit_error, "noisy_fit_error": report.noisy_fit_error,
            "robust": report.robust,
            "minimizer_drift": float(np.max(np.abs(report.minimizer_clean - v))),
            "flags": "degenerate" if report.degenerate else "",
        })

    # the robustness claim is only made for the unhinged loss; both closed
    # forms lie on the radius-r sphere, so they differ by ulps of r
    claim_ok = phi.name != "unhinged" or all(
        row["robust"] and row["minimizer_drift"] <= _DRIFT_TOL * max(1.0, args.r)
        for row in rows)

    table_path = _write_table(args, name, rows)
    _write_summary(args, name, {
        "experiment": name,
        "loss": phi.name,
        "claim_ok": claim_ok,
        "r": args.r,
        "source": args.data or f"counterexample(gamma={_gamma(args)})",
    })
    if args.plot:
        xs = [row["eta"] for row in rows]
        svg.line_plot(
            _out_path(args, f"{name}.svg"),
            [(xs, [row["clean_error"] for row in rows]),
             (xs, [row["noisy_fit_error"] for row in rows])],
            title=f"clean-data errors vs noise rate ({phi.name})",
            xlabel="eta", ylabel="error",
        )
    print(f"eta-sweep ({phi.name}): {len(rows)} noise rates -> {table_path}")
    for row in rows:
        print(f"  eta={row['eta']:.3f}  clean_fit={row['clean_error']!r}  "
              f"noisy_fit={row['noisy_fit_error']!r}  robust={row['robust']}")
    print(f"claim {'PASS' if claim_ok else 'FAIL'}")
    return 0 if claim_ok else 1


def run_dynamics(args: argparse.Namespace) -> int:
    """Dump a descent trajectory and verify its structural claim."""
    name = args.experiment or f"dynamics_{args.mode}"
    gamma = _gamma(args)
    xs, ys = load_sample_csv(args.data) if gamma is None else counterexample_sample(gamma)

    if args.mode == "gd":
        if args.tie_rule is not None:
            raise ValueError("--tie-rule does not apply to --mode gd: "
                             "gradient descent picks no coordinate")
        step = 0.1 if args.step_size is None else float(args.step_size)
        v0 = np.zeros(xs.shape[1]) if args.v0 is None else np.asarray(args.v0, dtype=float)
        traj = gd_unhinged(xs, ys, v0, step, args.steps)
        t = np.arange(traj.iterates.shape[0])
        closed = v0 + step * t[:, None] * traj.target
        residual = float(np.max(np.abs(traj.iterates - closed)))
        # T sequential additions each round by at most eps/2 of an iterate,
        # so the incremental path stays within about (T + 2) eps of the
        # largest closed-form coordinate; a fixed bound fails long exact runs
        scale = max(1.0, float(np.max(np.abs(closed))))
        claim_ok = residual <= (args.steps + 2) * sys.float_info.epsilon * scale
        summary = {
            "experiment": name, "mode": "gd", "steps": args.steps,
            "step_size": step, "stationary": traj.stationary,
            "closed_form_residual_max": residual, "claim_ok": claim_ok,
        }
    else:
        if args.v0 is not None:
            raise ValueError("--v0 does not apply to --mode cd: coordinate descent starts at 0")
        step = 1.0 if args.step_size is None else float(args.step_size)
        tie_rule = args.tie_rule or TIE_RULES[0]
        traj = cd_unhinged(xs, ys, args.steps, tie_rule, step)
        # a coordinate is in some iterate's support iff its column has a nonzero
        touched = np.flatnonzero(traj.iterates.any(axis=0))
        claim_ok = set(touched.tolist()) <= set(traj.argmax_coords)
        summary = {
            "experiment": name, "mode": "cd", "steps": args.steps,
            "step_size": step, "tie_rule": tie_rule,
            "stationary": traj.stationary,
            "argmax_coords": list(traj.argmax_coords),
            "support_ok": claim_ok, "claim_ok": claim_ok,
        }

    table_path = _out_path(args, f"{name}.csv")
    traj.to_csv(table_path)
    _write_summary(args, name, summary)
    if args.plot:
        t = np.arange(traj.iterates.shape[0])
        if args.mode == "gd":
            svg.line_plot(_out_path(args, f"{name}.svg"), [(t, traj.angles_to_target)],
                          title="angle to the label-sum direction",
                          xlabel="t", ylabel="angle (rad)")
        else:
            svg.line_plot(_out_path(args, f"{name}.svg"), [(t, traj.loss_values)],
                          title="total unhinged loss along coordinate descent",
                          xlabel="t", ylabel="loss")
    print(f"dynamics ({args.mode}): {args.steps} steps -> {table_path}")
    for key in ("closed_form_residual_max", "argmax_coords", "support_ok", "stationary"):
        if key in summary:
            print(f"  {key} = {summary[key]}")
    print(f"claim {'PASS' if claim_ok else 'FAIL'}")
    return 0 if claim_ok else 1


def run_loss_report() -> tuple[list[dict], bool]:
    """Axiom verdict per shipped loss, with a witness for every failure."""
    rows = []
    for loss_name in LOSS_NAMES:
        report = check_def1(make_loss(loss_name))
        failing = [c for c in report.checks if not c.passed]
        rows.append({
            "loss": loss_name,
            "tag": _LOSS_TAGS[loss_name],
            "verdict": "Yes" if report.passed else "No",
            "failing_clause": failing[0].name if failing else None,
            "witness_z": failing[0].witness_z if failing else None,
            "witness_value": failing[0].witness_value if failing else None,
        })
    verdicts = tuple(r["verdict"] for r in rows)
    claim_ok = verdicts == _EXPECTED_VERDICTS and all(
        r["witness_z"] is not None for r in rows if r["verdict"] == "No"
    )
    return rows, claim_ok


def _print_loss_report(rows: list[dict]) -> None:
    header = f"{'loss':<26} {'tag':<26} {'axioms':<7} witness"
    print(header)
    print("-" * len(header))
    for r in rows:
        if r["failing_clause"] is None:
            witness = "-"
        else:
            witness = (f"{r['failing_clause']} at z={r['witness_z']:g} "
                       f"(value {r['witness_value']:.6g})")
        print(f"{r['loss']:<26} {r['tag']:<26} {r['verdict']:<7} {witness}")


def cmd_loss_report(args: argparse.Namespace) -> int:
    rows, claim_ok = run_loss_report()
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        _print_loss_report(rows)
    _write_summary(args, args.experiment or "loss_report",
                   {"rows": rows, "claim_ok": claim_ok})
    print(f"claim {'PASS' if claim_ok else 'FAIL'}: verdicts "
          f"{'/'.join(r['verdict'] for r in rows)}")
    return 0 if claim_ok else 1


def cmd_robust_check(args: argparse.Namespace) -> int:
    dist = _load_dist(args)
    phi = make_loss(args.loss or "unhinged")
    report = check_rcn_robustness(dist, phi, args.r, args.eta)
    print(json.dumps(report.to_dict(), indent=2))
    _write_summary(args, args.experiment or "robust_check", report.to_dict())
    return 0 if report.robust else 1


def cmd_recession_probe(args: argparse.Namespace) -> int:
    dist = _load_dist(args)
    # the unhinged loss is no convex potential, so the probe's bound needs another
    probe = recession_probe(dist, make_loss(args.loss or "logistic"), args.eta, args.x0, args.u,
                            args.lambdas)
    print(json.dumps(probe.to_dict(), indent=2))
    _write_summary(args, args.experiment or "recession_probe", probe.to_dict())
    print(f"bound {'PASS' if probe.bound_holds else 'FAIL'} "
          f"(min slack {probe.min_slack:.3e}); "
          f"eventually increasing: {probe.eventually_increasing}")
    return 0 if probe.bound_holds else 1


_COMMON_FLAGS = ("--config", "--out-dir", "--experiment")
# the table sweeps: a grid, a table format and an optional figure
_SWEEP_FLAGS = ("--format", "--plot", "--grid-start", "--grid-stop", "--grid-count",
                "--spacing")

# subcommand -> (handler, help, flags beyond the common ones)
_COMMANDS = {
    "gamma-sweep": (run_gamma_sweep, "error of the centroid minimizer across the "
                    "construction parameter, with its closed-form threshold",
                    _SWEEP_FLAGS + ("--r",)),
    "eta-sweep": (run_eta_sweep, "noise-robustness check across noise rates",
                  _SWEEP_FLAGS + ("--r", "--loss", "--gamma", "--data")),
    "dynamics": (run_dynamics, "gradient / coordinate descent trajectory dump",
                 ("--plot", "--mode", "--steps", "--step-size", "--v0", "--tie-rule",
                  "--gamma", "--data")),
    "loss-report": (cmd_loss_report, "axiom verdict table for the shipped losses",
                    ("--format",)),
    "robust-check": (cmd_robust_check, "single robustness check",
                     ("--r", "--eta", "--loss", "--gamma", "--data")),
    "recession-probe": (cmd_recession_probe, "corrupted objective along a ray versus "
                        "its coercivity bound",
                        ("--eta", "--loss", "--gamma", "--data", "--x0", "--u", "--lambdas")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; it is never changed after this call.

    No flag has a parsed default, so the namespace it returns holds only
    the subcommand and the flags typed; ``main`` adds the rest.
    """
    parser = argparse.ArgumentParser(
        prog="potmin",
        description="Potential-minimization experiments on finite labeled distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in _COMMON_FLAGS + flags:
            sp.add_argument(flag, **{**_FLAGS[flag], "default": argparse.SUPPRESS})
    return parser


def main(argv=None) -> int:
    typed = vars(build_parser().parse_args(argv))
    func, _, flags = _COMMANDS[typed.pop("command")]
    flags = _COMMON_FLAGS + flags
    try:
        config = _read_config(typed["config"], flags) if typed.get("config") else {}
        defaults = {_dest(flag): _FLAGS[flag].get("default") for flag in flags}
        # default < config < flag typed, in a namespace of this call's own
        return func(argparse.Namespace(**(defaults | config | typed)))
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
