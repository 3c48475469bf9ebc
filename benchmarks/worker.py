"""Benchmark worker: one fresh process per workload run.

Usage: python worker.py JOB.json RESULT.json

Imports potmin from the checkout's ``src``, runs one untimed warm-up pass
and then timed passes over the workload's ops, each a call of
``potmin.cli.main`` (a closed loop with one client), and writes latencies
(measured, and scaled to reference speed by the ``speed.Monitor`` thread
that runs throughout),
exit statuses, output digests and, in a traced run, per-layer metrics to
RESULT.json.  The process holds nothing but potmin and this loop, so its
peak RSS is the workload's.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import speed

# commands whose only result is what they print
STDOUT_RESULT = {"loss-report", "robust-check", "recession-probe"}


def _digests(out_dir: Path, command: str, stdout: str) -> tuple[dict, int]:
    """SHA-256 of each output except ``*_summary.json``, and the table bytes."""
    digests, table_bytes = {}, 0
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith("_summary.json"):
            continue
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix != ".svg":
            table_bytes += path.stat().st_size
    if command in STDOUT_RESULT:
        digests["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests, table_bytes


def run_pass(cli, ops, tracer=None) -> dict:
    gc.collect()
    records, table_bytes = [], 0
    for op in ops:
        out_dir = Path(op["out_dir"])
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.begin_op(op["id"])
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as e:  # argparse rejects its input with exit 2
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # noqa: BLE001 - every failure is recorded, none stops the run
            exc = [type(e).__name__, str(e)]
        t1 = time.perf_counter()
        if tracemalloc.is_tracing():  # a failed dynamics call leaves it running
            tracemalloc.stop()
        digests, nbytes = _digests(out_dir, op["command"], out.getvalue())
        table_bytes += nbytes
        records.append({"t0": t0, "t1": t1, "ms": (t1 - t0) * 1e3, "rc": rc, "exc": exc,
                        "digests": digests, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    # the pass's time inside cli.main, without the bookkeeping between ops
    result = {"raw_wall_s": sum(r["ms"] for r in records) / 1e3,
              "ops": records, "traced": tracer is not None}
    if tracer is not None:
        result["layers"] = tracer.pass_metrics(table_bytes)
    return result


def scale_pass(p: dict, monitor: speed.Monitor) -> None:
    """Add each op's latency at reference speed, and the pass's sum of them."""
    for r in p["ops"]:
        r["ref_ms"] = r["ms"] * monitor.scale(r.pop("t0"), r.pop("t1"))
    p["wall_s"] = sum(r["ref_ms"] for r in p["ops"]) / 1e3


def _environment(np) -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version"))
                for k in ("blas", "lapack") if k in deps}
    except Exception:  # noqa: BLE001 - the BLAS report is informative only
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import numpy as np
    import potmin.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"potmin was imported from {cli.__file__}, not from {job['src']}",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    monitor = speed.Monitor()
    monitor.start()
    try:
        warmup, passes = _measure(cli, job, start)
    finally:
        monitor.stop()
    for p in [warmup, *passes]:
        scale_pass(p, monitor)

    result = {
        "warmup": warmup,
        "passes": passes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(np),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


def _measure(cli, job, start):
    """The warm-up pass and the timed passes."""
    ops, seconds, deadline = job["ops"], job["seconds"], job["deadline_s"]
    warmup = run_pass(cli, ops)
    passes = []
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).parent))
        from tracing import Tracer
        tracer = Tracer()
    # in a traced run, passes alternate untraced / traced so the tracing
    # overhead is measured in the same run
    t_measure = time.perf_counter()
    while True:
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        need = job["min_passes"] if tracer is None else 1
        done = (len(untraced) >= need and (tracer is None or len(traced) >= need)
                and time.perf_counter() - t_measure >= seconds)
        last = (passes[-1] if passes else warmup)["raw_wall_s"]
        late = time.perf_counter() - start + last > deadline
        if done or (late and len(untraced) >= 1 and (tracer is None or traced)):
            break
        trace_next = tracer is not None and len(traced) < len(untraced)
        if trace_next:
            tracer.install()
            try:
                passes.append(run_pass(cli, ops, tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(cli, ops))
    return warmup, passes


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
