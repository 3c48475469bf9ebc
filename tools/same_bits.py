"""Print digests of every benchmark op's output and of a fit sweep, to diff
two source trees for the same bits.

    python tools/same_bits.py [--seed 1] [--src DIR] [--work-dir DIR]

The potmin it checks is imported from ``--src`` (default: this checkout's
``src``); the ops come from this checkout's ``benchmarks/workloads.py``,
read as it is.  Each op of each workload runs through ``potmin.cli.main``
in this process, writing under one output directory (``--work-dir``,
default ``<tmp>/potmin-same-bits``), since stdout prints paths; run both
trees with the same ``--work-dir``.  For each op it prints the exit code
(or the last line of the exception raised), any warnings, and the SHA-256
of stdout, of stderr and of each output file.  Then it prints a SHA-256
over the outcomes of the sweep (``sweep``) for each loss, and one over
them all: a fit's v bytes, objective, iterations, gap and stop reason, or
the exception raised, under warnings as errors.  So a change to one fit
shows whether the other losses kept their bits.  Two trees whose outputs
differ in no line keep the same bits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# the sweep's fits: 150 random draws, each clean, as a noise view and as
# the materialized noise, at three radii, for every loss with an iterative fit
SWEEP_DRAWS = 150
SWEEP_ETA = 0.2
SWEEP_RADII = (1.0, 3.0, 10.0)
SWEEP_LOSSES = ("hinge", "exponential", "mixed_linear_exponential", "logistic")
SWEEP_MAX_ITERS = 2000
# rows at 1e200 fit at r = 1e100: s = 998 and r' about 2^741, past the
# step ball's 2^511; v = (1e200, -1e200) takes their margins past float64
BIG_ROWS = ([[1e200, 0.0], [0.0, 1e200]], [1, 1], [0.5, 0.5])
BIG_RADIUS = 1e100
BIG_V = [1e200, -1e200]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_ops(seed: int, work: Path) -> None:
    """One line per op: exit code or exception, warnings, digests of its output."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS, make_inputs, resolve_argv

    from potmin.cli import main

    for name, workload in WORKLOADS.items():
        inputs_dir = work / "inputs" / name
        inputs_dir.mkdir(parents=True)
        inputs = make_inputs(name, seed, inputs_dir)
        for op in workload.ops:
            out_dir = work / "out" / name / op.id
            argv = resolve_argv(op, inputs, out_dir)
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    outcome = f"exit {main(argv)}"
                except Exception as err:  # noqa: BLE001 -- recorded, then compared
                    outcome = traceback.format_exception_only(type(err), err)[-1].strip()
            print(f"{name} {op.id}: {outcome}")
            for w in caught:
                print(f"  warning {w.category.__name__}: {w.message}")
            print(f"  stdout {sha(stdout.getvalue().encode())}")
            print(f"  stderr {sha(stderr.getvalue().encode())}")
            for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                print(f"  {path.relative_to(out_dir)} {sha(path.read_bytes())}")


def fit_outcome(fit) -> str:
    return (f"{fit.v.tobytes().hex()} {fit.objective!r} {fit.iterations} {fit.gap!r} "
            f"{fit.stop_reason}")


def sweep() -> dict[str, tuple[int, str]]:
    """The number of outcomes and a SHA-256 over them, in order, per loss,
    then (key ``"all"``) over every outcome."""
    from potmin import (DiscreteDistribution, LOSS_NAMES, corrupt_rcn, expected_loss,
                        make_loss, minimizers, pgd_minimizer, random_distribution)
    from potmin.distributions import _NoisyView

    outcomes, per_loss = [], {}

    def record(label, loss, compute):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcome = f"{label} {compute()}"
        except Exception as err:  # noqa: BLE001 -- the outcome compared
            outcome = f"{label} {type(err).__name__}: {err}"
        outcomes.append(outcome)
        per_loss.setdefault(loss, []).append(outcome)

    rng = np.random.default_rng(0)
    saved, minimizers._MAX_ITERS = minimizers._MAX_ITERS, SWEEP_MAX_ITERS
    try:
        for draw in range(SWEEP_DRAWS):
            dist = random_distribution(rng)
            variants = {"clean": dist, "view": _NoisyView(dist, SWEEP_ETA),
                        "rcn": corrupt_rcn(dist, SWEEP_ETA)}
            for kind, fitted in variants.items():
                for r in SWEEP_RADII:
                    for loss in SWEEP_LOSSES:
                        record(f"{draw} {kind} {r} {loss}", loss,
                               lambda: fit_outcome(pgd_minimizer(fitted, make_loss(loss), r)))
    finally:
        minimizers._MAX_ITERS = saved
    big = DiscreteDistribution(*BIG_ROWS)
    for kind, fitted in {"clean": big, "view": _NoisyView(big, SWEEP_ETA)}.items():
        for loss in LOSS_NAMES:
            phi = make_loss(loss)
            record(f"big {kind} {BIG_RADIUS} {loss}", loss,
                   lambda: fit_outcome(pgd_minimizer(fitted, phi, BIG_RADIUS)))
            record(f"big {kind} expected_loss {BIG_V} {loss}", loss,
                   lambda: repr(expected_loss(fitted, phi, BIG_V)))
    per_loss["all"] = outcomes
    return {key: (len(lines), sha("\n".join(lines).encode())) for key, lines in per_loss.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="benchmark input seed")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree whose potmin is checked")
    parser.add_argument("--work-dir", type=Path,
                        default=Path(tempfile.gettempdir()) / "potmin-same-bits",
                        help="inputs and outputs go to its inputs/ and out/, emptied first")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    for sub in ("inputs", "out"):
        shutil.rmtree(args.work_dir / sub, ignore_errors=True)
    import potmin
    print(f"potmin from {Path(potmin.__file__).parent}", file=sys.stderr)
    run_ops(args.seed, args.work_dir)
    for key, (count, digest) in sweep().items():
        print(f"sweep {key}: {count} outcomes {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
