#!/usr/bin/env python3
"""potmin benchmark: four CLI workloads over the size ladder.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs its ops through
``potmin.cli.main`` in a fresh worker process (closed loop, one client,
BLAS threads pinned), checks every output with an independent checker and
checks that every table is byte-identical across passes.  Every time is
scaled to a reference machine speed (see speed.py).  With ``--trace
0`` it reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object; the
exit code is non-zero when the checker or the determinism check fails.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# fixed BLAS / OpenMP threads for the benchmark processes only
PINNED_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
# a fixed str/bytes hash seed, so dict layouts (and their speed) repeat
# from one worker process to the next
HASH_SEED = "0"
# every run must end within 180 s: the worker starts no pass after
# WORKER_DEADLINE_S and is killed once the run has taken RUN_TIMEOUT_S
RUN_TIMEOUT_S = 165
WORKER_DEADLINE_S = 130
IMPORT_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "claim_hold_ratio": "ratio",
}
TRACE_OVERHEAD = "bench.trace_overhead"
TAIL_LADDER = (999, 990, 950, 900, 750, 500)  # per mille


class BenchError(Exception):
    """The benchmark could not produce a result."""


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_iter", "overhead")):
        return "ratio"
    return "count"


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum
    (100) is used.  The benchmark calls this with a workload's minimum
    sample count, so the percentile a workload reports is fixed.
    """
    for q in TAIL_LADDER:
        if n * (1000 - q) >= 10 * 1000:
            return q / 10
    return 100.0


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    s = sorted(samples)
    # p as the exact decimal it is written as, so 99.9% of 10000 is 9990
    return s[max(1, math.ceil(Fraction(str(p)) * len(s) / 100)) - 1]


def _fresh_import() -> None:
    """A fresh interpreter imports potmin.cli (numpy included)."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import potmin.cli", str(SRC)], env=_env(), timeout=60,
                   capture_output=True, check=True)


def _env() -> dict:
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    return env


def _source_record() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "potmin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = out.stdout.strip() or None
    return {"potmin_git_sha": sha, "potmin_src_sha256": h.hexdigest()}


def _classify(op, record, problems):
    """(error, known defect) for one op's outcome."""
    exc = record["exc"]
    if exc is not None:
        return True, exc[0] == op.known_defect
    if record["rc"] not in (0, 1) or problems:
        return True, False
    return False, False


def _judge(wl, ops, res, checker, verdict) -> dict:
    """Check every op's outputs, their determinism and its claim verdict."""
    all_passes = [res["warmup"]] + res["passes"]
    errors, known, fixed, claim_fails, details = 0, 0, 0, 0, []
    deterministic = True
    for i, op in enumerate(wl.ops):
        outcomes = {json.dumps([p["ops"][i]["rc"], (p["ops"][i]["exc"] or [None])[0],
                                p["ops"][i]["digests"]], sort_keys=True)
                    for p in all_passes}
        last = all_passes[-1]["ops"][i]
        problems = []
        if len(outcomes) > 1:
            deterministic = False
            problems.append("outputs differ between passes")
        if last["exc"] is None:
            problems += checker.check(op, ops[i]["out_dir"], last["stdout"], last["rc"])
        error, is_known = _classify(op, last, problems)
        errors += error
        known += error and is_known
        got = verdict(op.command, last["stdout"])
        if op.expected_verdict is not None:
            fixed += 1
            claim_fails += got != op.expected_verdict
        if error or problems or (op.expected_verdict and got != op.expected_verdict):
            what = (f"raised {last['exc'][0]}" if last["exc"]
                    else f"exit {last['rc']}, verdict {got}")
            tag = " [known defect]" if is_known else ""
            details.append(f"{op.id}: {what}{tag}" + "".join(f"\n      {p}" for p in problems))

    n_ops, n_passes = len(wl.ops), len(res["passes"])
    failed = (errors - known) * n_passes
    return {
        "workload": wl.name,
        "correct": deterministic and failed == 0,
        "attempted": n_ops * n_passes,
        "failed": failed,
        "error_ratio": errors / n_ops,
        "claim_fail_ratio": claim_fails / fixed if fixed else 0.0,
        "details": details,
        "passes": sum(not p["traced"] for p in res["passes"]),
    }


def _layer_metrics(res) -> dict:
    untraced = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]
    for p in traced:  # layer times to reference speed, at the pass's scale
        factor = p["wall_s"] / p["raw_wall_s"]
        for k in p["layers"]:
            if per_layer_unit(k) == "s":
                p["layers"][k] *= factor
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    layers[TRACE_OVERHEAD] = (statistics.median(p["wall_s"] for p in traced)
                              / statistics.median(p["wall_s"] for p in untraced))
    return {k: (v, per_layer_unit(k)) for k, v in layers.items()}


def _end_to_end(wl, res, result, gen_s, import_s) -> tuple[dict, dict]:
    untraced = [p for p in res["passes"] if not p["traced"]]
    latencies = [o["ref_ms"] for p in untraced for o in p["ops"]]
    per_op = [statistics.median(p["ops"][i]["ref_ms"] for p in untraced)
              for i in range(len(wl.ops))]
    tail_p = tail_percentile(wl.min_passes * len(wl.ops))
    warmup_s = res["warmup"]["wall_s"]
    values = {
        "setup_s": gen_s + import_s + warmup_s,
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": percentile(latencies, tail_p),
        "peak_rss_mb": res["maxrss_mb"],
        "ok_ratio": 1.0 - result["error_ratio"],
        "claim_hold_ratio": 1.0 - result["claim_fail_ratio"],
    }
    notes = {
        "setup_s": f"inputs {gen_s:.3f} s + import {import_s:.3f} s "
                   f"(median of {IMPORT_SAMPLES}) + warm-up pass {warmup_s:.3f} s",
        "wall_s": "measured median "
                  f"{statistics.median(p['raw_wall_s'] for p in untraced):.3f} s",
        "op_p50_ms": f"median over {len(per_op)} ops of each op's median latency",
        "op_tail_ms": f"p{tail_p:g} of {len(latencies)} op latencies",
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}, notes


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import speed
    from checker import Checker, verdict
    from workloads import WORKLOADS, make_inputs, resolve_argv

    wl = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        monitor = speed.Monitor()
        monitor.start()
        try:
            inputs = make_inputs(name, seed, work)
            spans = [(t0, time.perf_counter())]
            for _ in range(IMPORT_SAMPLES):
                start = time.perf_counter()
                _fresh_import()
                spans.append((start, time.perf_counter()))
        finally:
            monitor.stop()
        gen_s, *imports = [(b - a) * monitor.scale(a, b) for a, b in spans]
        import_s = statistics.median(imports)
        ops = [{"id": op.id, "command": op.command, "out_dir": str(work / "out" / op.id),
                "argv": resolve_argv(op, inputs, work / "out" / op.id)} for op in wl.ops]
        job = {"src": str(SRC), "ops": ops, "seconds": seconds, "trace": trace,
               "min_passes": wl.min_passes, "deadline_s": WORKER_DEADLINE_S}
        (work / "job.json").write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json"),
             str(work / "result.json")],
            env=_env(), capture_output=True, text=True,
            timeout=max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - t0)))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads((work / "result.json").read_text())

        result = _judge(wl, ops, res, Checker(inputs.arrays), verdict)
        result["env"] = {**res["env"], "seed": seed, "nproc": os.cpu_count(),
                         "cpu": sorted(os.sched_getaffinity(0)), "threads": PINNED_THREADS}
        if trace:
            result["metrics"], result["notes"] = _layer_metrics(res), {}
        else:
            result["metrics"], result["notes"] = _end_to_end(wl, res, result, gen_s, import_s)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def _report(r: dict) -> None:
    print(f"== {r['workload']}: {r['passes']} timed passes, {r['attempted']} ops attempted, "
          f"correct={r['correct']}")
    for k, (v, unit) in r["metrics"].items():
        note = r["notes"].get(k)
        print(f"  {k:<40} {v:>14.6g} {unit:<6}" + (f"  ({note})" if note else ""))
    print(f"  {'error_ratio':<40} {r['error_ratio']:>14.6g} ratio")
    print(f"  {'claim_fail_ratio':<40} {r['claim_fail_ratio']:>14.6g} ratio")
    for d in r["details"]:
        print(f"    {d}")
    print(f"  env: {json.dumps(r['env'], sort_keys=True)}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "potmin" / "__init__.py").is_file():
        print(f"error: no potmin source under {SRC}", file=sys.stderr)
        return 2

    import speed
    speed.pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            _report(results[-1])
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"source: {json.dumps(_source_record(), sort_keys=True)}")

    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": unit}
                    for r in results for k, (v, unit) in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    for _k, _v in PINNED_THREADS.items():
        os.environ[_k] = _v  # before numpy loads in this process
    sys.exit(main())
