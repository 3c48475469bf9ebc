"""Experiment harness: sweeps, dynamics dumps, and axiom reports as a CLI.

Every CSV row an experiment emits is a straight transcription of library
calls; the CLI adds bookkeeping, bisection bracketing, and file output,
never numerics of its own.  Exit codes: 0 success, 1 a checked claim
failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import svg
from .analysis import (MINIMIZER_ROUTES, _robustness_sweep, check_rcn_robustness,
                       expected_loss, misclassification_error, recession_probe)
from .distributions import (DiscreteDistribution, _read_labeled_csv, make_counterexample,
                            mean_label_feature)
from .dynamics import TIE_RULES, Trajectory, cd_unhinged, gd_unhinged
from .loss_zoo import LOSS_NAMES, check_def1, make_loss
from .minimizers import unhinged_minimizer

_DRIFT_TOL = 1e-12
_BISECT_WIDTH = 1e-9

# Method tags for the axiom report table.
_LOSS_TAGS = {
    "exponential": "AdaBoost",
    "mixed_linear_exponential": "MadaBoost",
    "logistic": "LogitBoost",
    "hinge": "SVM / margin classifiers",
    "unhinged": "symmetric robust loss",
}

_EXPECTED_VERDICTS = ("Yes", "Yes", "Yes", "No", "No")

# Every subcommand flag with its add_argument keywords.  Each flag's dest
# is an ExperimentConfig field (--config aside), and its keywords also
# give the type a JSON config value for that field must have.
_FLAGS = {
    "--config": dict(help="JSON config; keys mirror ExperimentConfig"),
    "--out-dir": dict(help="output directory"),
    "--format": dict(choices=["csv", "json"], help="table format"),
    "--plot": dict(action="store_true", default=None, help="also write an SVG figure"),
    "--experiment": dict(help="experiment id used in file names"),
    "--grid-start": dict(type=float),
    "--grid-stop": dict(type=float),
    "--grid-count": dict(type=int),
    "--spacing": dict(dest="grid_spacing", choices=["linear", "log"]),
    "--r": dict(type=float, help="ball radius"),
    "--eta": dict(type=float),
    "--loss": dict(choices=list(LOSS_NAMES)),
    "--gamma": dict(type=float, help="builtin distribution parameter (when --data is absent)"),
    "--data": dict(help="distribution CSV, or for dynamics a sample CSV (README: File formats)"),
    "--minimizer": dict(choices=list(MINIMIZER_ROUTES)),
    "--mode": dict(choices=["gd", "cd"]),
    "--steps": dict(type=int),
    "--step-size": dict(type=float),
    "--v0": dict(type=float, nargs="+"),
    "--tie-rule": dict(choices=list(TIE_RULES)),
    "--x0": dict(type=float, nargs="+"),
    "--u": dict(type=float, nargs="+"),
    "--lambdas": dict(type=float, nargs="+"),
}
_FIELD_FLAGS = {kw.get("dest", flag[2:].replace("-", "_")): kw for flag, kw in _FLAGS.items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_kind(flag_kwargs: dict) -> tuple[str, Callable[[object], bool]]:
    """What a JSON config value must be, read from its flag's add_argument keywords."""
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


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run; JSON configs mirror these fields."""

    experiment: str = ""
    grid_start: float | None = None
    grid_stop: float | None = None
    grid_count: int | None = None
    grid_spacing: str = "linear"
    loss: str = "unhinged"
    r: float = 1.0
    eta: float = 0.1
    gamma: float = 0.05
    minimizer: str | None = None
    mode: str = "gd"
    steps: int = 100
    step_size: float | None = None
    v0: list[float] | None = None
    tie_rule: str = "lowest-index"
    data: str | None = None
    x0: list[float] | None = None
    u: list[float] | None = None
    lambdas: list[float] | None = None
    out_dir: str = "out"
    format: str = "csv"
    plot: bool = False

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.grid_spacing not in ("linear", "log"):
            raise ValueError(f"grid_spacing must be linear or log, got {self.grid_spacing!r}")
        if self.grid_count is not None and self.grid_count < 2:
            raise ValueError("grid_count must be at least 2")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r!r}")

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "ExperimentConfig":
        """Defaults, then JSON config file, then the fields set in ``overrides`` (CLI flags)."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        values: dict = {}
        if config_path:
            with open(config_path) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"{config_path}: config must be a JSON object")
            unknown = sorted(set(loaded) - set(defaults))
            if unknown:
                raise ValueError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
            for key, value in loaded.items():
                kind, has_kind = _config_kind(_FIELD_FLAGS[key])
                if not (has_kind(value) or value is None and defaults[key] is None):
                    raise ValueError(
                        f"{config_path}: config key {key!r} must be {kind}, got {value!r}")
            values.update(loaded)
        values.update({k: v for k, v in overrides.items() if k in defaults and v is not None})
        return cls(**values)

    @property
    def route(self) -> str:
        """The minimizer route: as given, else closed form for the unhinged loss only."""
        return self.minimizer or ("closed-form" if self.loss == "unhinged" else "pgd")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a parameter sweep."""

    param_name: str
    param_value: float
    minimizer: tuple[float, ...]
    clean_error: float
    noisy_fit_error: float | None
    objective: float
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def row(self) -> dict:
        out = {self.param_name: self.param_value}
        out.update({f"v_{j + 1}": c for j, c in enumerate(self.minimizer)})
        out["objective"] = self.objective
        out["clean_error"] = self.clean_error
        out["noisy_fit_error"] = self.noisy_fit_error
        out.update(self.extras)
        out["flags"] = ";".join(self.flags)
        return out


@dataclass
class SweepOutcome:
    records: list[SweepRecord]
    threshold: float | None
    claim_ok: bool
    summary: dict
    table_path: Path | None = None


@dataclass
class DynamicsOutcome:
    trajectory: Trajectory
    claim_ok: bool
    summary: dict
    table_path: Path | None = None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if rows:
            writer.writerow(list(rows[0]))
            for row in rows:
                writer.writerow([_cell(v) for v in row.values()])


def _write_table(cfg: ExperimentConfig, name: str, rows: list[dict]) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.format == "json":
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(rows, indent=2) + "\n")
    else:
        path = out_dir / f"{name}.csv"
        _write_rows(path, rows)
    return path


def _write_summary(cfg: ExperimentConfig, name: str, summary: dict) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}_summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    return path


def _grid(cfg: ExperimentConfig, default_start: float, default_stop: float,
          default_count: int) -> np.ndarray:
    start = default_start if cfg.grid_start is None else float(cfg.grid_start)
    stop = default_stop if cfg.grid_stop is None else float(cfg.grid_stop)
    count = default_count if cfg.grid_count is None else int(cfg.grid_count)
    if not stop > start:
        raise ValueError(f"grid requires stop > start, got [{start}, {stop}]")
    if cfg.grid_spacing == "log":
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
    d, table = _read_labeled_csv(path, ("y",), "sample header")
    if len(table) == 0:
        raise ValueError(f"{path}: no sample rows")
    return table[:, :d], table[:, d]


def _load_dist(cfg: ExperimentConfig) -> DiscreteDistribution:
    if cfg.data:
        return DiscreteDistribution.from_csv(cfg.data)
    return make_counterexample(cfg.gamma)


def _third_point_overlap(gamma: float) -> float:
    """Centroid inner product with the heavy third point, as a function of gamma."""
    dist = make_counterexample(gamma)
    return float(mean_label_feature(dist) @ dist.xs[2])


def _bisect_threshold(lo: float, hi: float) -> float:
    f_lo = _third_point_overlap(lo)
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = _third_point_overlap(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_gamma_sweep(cfg: ExperimentConfig) -> SweepOutcome:
    """Sweep the construction parameter, fit the centroid minimizer, and
    locate the sign change of the heavy point's overlap by bisection."""
    name = cfg.experiment or "gamma_sweep"
    gammas = _grid(cfg, 0.01, 0.3, 30)
    if gammas[0] <= 0.0 or gammas[-1] >= 1.0:
        raise ValueError("gamma grid must lie inside (0, 1)")
    records = []
    for gamma in gammas:
        dist = make_counterexample(float(gamma))
        fit = unhinged_minimizer(dist, cfg.r)
        v = fit.weights.v
        records.append(SweepRecord(
            param_name="gamma",
            param_value=float(gamma),
            minimizer=tuple(float(c) for c in v),
            clean_error=misclassification_error(dist, v),
            noisy_fit_error=None,
            objective=fit.objective,
            flags=("degenerate",) if fit.degenerate_centroid else (),
            extras={"v_dot_x3": float(v @ dist.xs[2])},
        ))

    threshold = None
    for a, b in zip(records, records[1:]):
        if (a.extras["v_dot_x3"] < 0) != (b.extras["v_dot_x3"] < 0):
            threshold = _bisect_threshold(a.param_value, b.param_value)
            break
    claim_ok = threshold is not None and all(
        rec.clean_error == (0.5 if rec.param_value < threshold else 0.0)
        for rec in records
    )

    table_path = _write_table(cfg, name, [r.row() for r in records])
    summary = {
        "experiment": name,
        "threshold": threshold,
        "claim_ok": claim_ok,
        "grid": [records[0].param_value, records[-1].param_value, len(records)],
        "r": cfg.r,
    }
    _write_summary(cfg, name, summary)
    if cfg.plot:
        svg.step_plot(
            Path(cfg.out_dir) / f"{name}.svg",
            [r.param_value for r in records],
            [r.clean_error for r in records],
            title="clean error of the centroid minimizer",
            xlabel="gamma", ylabel="error",
            vlines=[threshold] if threshold is not None else (),
        )
    return SweepOutcome(records, threshold, claim_ok, summary, table_path)


def run_eta_sweep(cfg: ExperimentConfig) -> SweepOutcome:
    """Robustness check across noise rates on a fixed distribution."""
    name = cfg.experiment or "eta_sweep"
    etas = _grid(cfg, 0.05, 0.45, 9)
    if etas[0] <= 0.0 or etas[-1] >= 0.5:
        raise ValueError("eta grid must lie inside (0, 1/2)")
    dist = _load_dist(cfg)
    phi = make_loss(cfg.loss)
    records = []
    for report in _robustness_sweep(dist, phi, cfg.r, etas, cfg.route):
        drift = float(np.max(np.abs(report.minimizer_clean.v - report.minimizer_noisy.v)))
        records.append(SweepRecord(
            param_name="eta",
            param_value=report.eta,
            minimizer=tuple(float(c) for c in report.minimizer_noisy.v),
            clean_error=report.clean_fit_error,
            noisy_fit_error=report.noisy_fit_error,
            objective=expected_loss(dist, phi, report.minimizer_noisy.v),
            flags=("degenerate",) if report.degenerate else (),
            extras={"robust": report.robust, "minimizer_drift": drift},
        ))

    # the robustness claim is only made for the unhinged loss; the strict
    # zero-drift clause additionally needs the exact closed-form route
    # (PGD only stops at a 1e-9 gradient tolerance)
    if phi.name == "unhinged":
        claim_ok = all(r.extras["robust"] for r in records)
        if cfg.route == "closed-form":
            claim_ok = claim_ok and all(
                r.extras["minimizer_drift"] <= _DRIFT_TOL for r in records)
    else:
        claim_ok = True

    table_path = _write_table(cfg, name, [r.row() for r in records])
    summary = {
        "experiment": name,
        "loss": phi.name,
        "minimizer_route": cfg.route,
        "claim_ok": claim_ok,
        "r": cfg.r,
        "source": cfg.data or f"counterexample(gamma={cfg.gamma})",
    }
    _write_summary(cfg, name, summary)
    if cfg.plot:
        xs = [r.param_value for r in records]
        svg.line_plot(
            Path(cfg.out_dir) / f"{name}.svg",
            [(xs, [r.clean_error for r in records]),
             (xs, [r.noisy_fit_error for r in records])],
            title=f"clean-data errors vs noise rate ({phi.name})",
            xlabel="eta", ylabel="error",
        )
    return SweepOutcome(records, None, claim_ok, summary, table_path)


def run_dynamics(cfg: ExperimentConfig) -> DynamicsOutcome:
    """Dump a descent trajectory and verify its structural claim."""
    if cfg.mode not in ("gd", "cd"):
        raise ValueError(f"mode must be gd or cd, got {cfg.mode!r}")
    name = cfg.experiment or f"dynamics_{cfg.mode}"
    xs, ys = load_sample_csv(cfg.data) if cfg.data else counterexample_sample(cfg.gamma)
    d = xs.shape[1]

    if cfg.mode == "gd":
        step = 0.1 if cfg.step_size is None else float(cfg.step_size)
        v0 = np.zeros(d) if cfg.v0 is None else np.asarray(cfg.v0, dtype=float)
        traj = gd_unhinged(xs, ys, v0, step, cfg.steps)
        t = np.arange(traj.iterates.shape[0])
        closed = v0 + step * t[:, None] * traj.target
        residual = float(np.max(np.abs(traj.iterates - closed)))
        # T sequential additions each round by at most eps/2 of an iterate,
        # so the incremental path stays within about (T + 2) eps of the
        # largest closed-form coordinate; a fixed bound fails long exact runs
        scale = max(1.0, float(np.max(np.abs(closed))))
        claim_ok = residual <= (cfg.steps + 2) * sys.float_info.epsilon * scale
        summary = {
            "experiment": name, "mode": "gd", "steps": cfg.steps,
            "step_size": step, "stationary": traj.stationary,
            "closed_form_residual_max": residual, "claim_ok": claim_ok,
        }
    else:
        step = 1.0 if cfg.step_size is None else float(cfg.step_size)
        traj = cd_unhinged(xs, ys, cfg.steps, cfg.tie_rule, step)
        # a coordinate is in some iterate's support iff its column has a nonzero
        touched = np.flatnonzero(traj.iterates.any(axis=0))
        support_ok = set(touched.tolist()) <= set(traj.argmax_coords)
        claim_ok = support_ok
        summary = {
            "experiment": name, "mode": "cd", "steps": cfg.steps,
            "step_size": step, "tie_rule": cfg.tie_rule,
            "stationary": traj.stationary,
            "argmax_coords": list(traj.argmax_coords),
            "support_ok": support_ok, "claim_ok": claim_ok,
        }

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / f"{name}.csv"
    traj.to_csv(table_path)
    _write_summary(cfg, name, summary)
    if cfg.plot:
        t = np.arange(traj.iterates.shape[0])
        if cfg.mode == "gd":
            svg.line_plot(out_dir / f"{name}.svg",
                          [(t, traj.angles_to_target)],
                          title="angle to the label-sum direction",
                          xlabel="t", ylabel="angle (rad)")
        else:
            svg.line_plot(out_dir / f"{name}.svg",
                          [(t, traj.loss_values)],
                          title="total unhinged loss along coordinate descent",
                          xlabel="t", ylabel="loss")
    return DynamicsOutcome(traj, claim_ok, summary, table_path)


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


# ---------------------------------------------------------------------------
# subcommand wrappers


def cmd_gamma_sweep(cfg: ExperimentConfig) -> int:
    outcome = run_gamma_sweep(cfg)
    print(f"gamma-sweep: {len(outcome.records)} grid points -> {outcome.table_path}")
    if outcome.threshold is None:
        print("no sign change of v.x3 inside the grid; threshold not located")
    else:
        print(f"threshold gamma* = {outcome.threshold!r}")
    print(f"claim {'PASS' if outcome.claim_ok else 'FAIL'}: error 0.5 below "
          "threshold, 0.0 above")
    return 0 if outcome.claim_ok else 1


def cmd_eta_sweep(cfg: ExperimentConfig) -> int:
    outcome = run_eta_sweep(cfg)
    print(f"eta-sweep ({outcome.summary['loss']}, {outcome.summary['minimizer_route']}): "
          f"{len(outcome.records)} noise rates -> {outcome.table_path}")
    for rec in outcome.records:
        print(f"  eta={rec.param_value:.3f}  clean_fit={rec.clean_error!r}  "
              f"noisy_fit={rec.noisy_fit_error!r}  robust={rec.extras['robust']}")
    print(f"claim {'PASS' if outcome.claim_ok else 'FAIL'}")
    return 0 if outcome.claim_ok else 1


def cmd_dynamics(cfg: ExperimentConfig) -> int:
    outcome = run_dynamics(cfg)
    print(f"dynamics ({cfg.mode}): {outcome.summary['steps']} steps -> {outcome.table_path}")
    for key in ("closed_form_residual_max", "argmax_coords", "support_ok", "stationary"):
        if key in outcome.summary:
            print(f"  {key} = {outcome.summary[key]}")
    print(f"claim {'PASS' if outcome.claim_ok else 'FAIL'}")
    return 0 if outcome.claim_ok else 1


def cmd_loss_report(cfg: ExperimentConfig) -> int:
    rows, claim_ok = run_loss_report()
    if cfg.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        _print_loss_report(rows)
    _write_summary(cfg, cfg.experiment or "loss_report",
                   {"rows": rows, "claim_ok": claim_ok})
    print(f"claim {'PASS' if claim_ok else 'FAIL'}: verdicts "
          f"{'/'.join(r['verdict'] for r in rows)}")
    return 0 if claim_ok else 1


def cmd_robust_check(cfg: ExperimentConfig) -> int:
    dist = _load_dist(cfg)
    phi = make_loss(cfg.loss)
    report = check_rcn_robustness(dist, phi, cfg.r, cfg.eta, cfg.route)
    print(report.to_json(indent=2))
    _write_summary(cfg, cfg.experiment or "robust_check", report.to_dict())
    return 0 if report.robust else 1


def cmd_recession_probe(cfg: ExperimentConfig) -> int:
    dist = _load_dist(cfg)
    phi = make_loss(cfg.loss)
    d = dist.dimension
    x0 = np.zeros(d) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    if cfg.u is not None:
        u = np.asarray(cfg.u, dtype=float)
        norm_u = float(np.linalg.norm(u))
        if norm_u == 0.0:
            raise ValueError("direction u must be nonzero")
        u = u / norm_u
    else:
        m = mean_label_feature(dist)
        norm_m = float(np.linalg.norm(m))
        if norm_m == 0.0:
            raise ValueError("label centroid is zero; pass an explicit direction u")
        u = m / norm_m
    probe = recession_probe(dist, phi, cfg.eta, x0, u, cfg.lambdas)
    print(probe.to_json(indent=2))
    _write_summary(cfg, cfg.experiment or "recession_probe", probe.to_dict())
    print(f"bound {'PASS' if probe.bound_holds else 'FAIL'} "
          f"(min slack {probe.min_slack:.3e}); "
          f"eventually increasing: {probe.eventually_increasing}")
    return 0 if probe.bound_holds else 1


_COMMON_FLAGS = ("--config", "--out-dir", "--format", "--plot", "--experiment")
_GRID_FLAGS = ("--grid-start", "--grid-stop", "--grid-count", "--spacing")

# subcommand -> (handler, help, flags beyond the common ones)
_COMMANDS = {
    "gamma-sweep": (cmd_gamma_sweep, "error of the centroid minimizer across the "
                    "construction parameter, with threshold bisection",
                    _GRID_FLAGS + ("--r",)),
    "eta-sweep": (cmd_eta_sweep, "noise-robustness check across noise rates",
                  _GRID_FLAGS + ("--r", "--loss", "--gamma", "--data", "--minimizer")),
    "dynamics": (cmd_dynamics, "gradient / coordinate descent trajectory dump",
                 ("--mode", "--steps", "--step-size", "--v0", "--tie-rule", "--gamma",
                  "--data")),
    "loss-report": (cmd_loss_report, "axiom verdict table for the shipped losses", ()),
    "robust-check": (cmd_robust_check, "single robustness check",
                     ("--r", "--eta", "--loss", "--gamma", "--data", "--minimizer")),
    "recession-probe": (cmd_recession_probe, "corrupted objective along a ray versus "
                        "its coercivity bound",
                        ("--eta", "--loss", "--gamma", "--data", "--x0", "--u", "--lambdas")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potmin",
        description="Potential-minimization experiments on finite labeled distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in _COMMON_FLAGS + flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_sources(args.config, vars(args))
        return args.func(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
