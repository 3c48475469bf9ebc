"""Self-tests of the benchmark: python -m pytest benchmarks -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from checker import Checker, read_table  # noqa: E402
from tracing import END, NAME, PARENT, START, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs, resolve_argv  # noqa: E402


def _run_op(op, inputs, out_dir):
    import potmin.cli

    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = potmin.cli.main(resolve_argv(op, inputs, out_dir))
    return rc, out.getvalue()


def _op(workload, op_id):
    return next(op for op in WORKLOADS[workload].ops if op.id == op_id)


@pytest.mark.parametrize("workload, op_id, table", [
    ("construction-3atom", "eta-sweep-unhinged", "eta_sweep.csv"),
    ("construction-3atom", "gamma-sweep", "gamma_sweep.csv"),
    ("construction-3atom", "eta-sweep-logistic", "eta_sweep.csv"),
])
def test_checker_rejects_one_flipped_v_entry(tmp_path, workload, op_id, table):
    op, inputs = _op(workload, op_id), Inputs()
    rc, stdout = _run_op(op, inputs, tmp_path)
    checker = Checker(inputs.arrays)
    assert checker.check(op, tmp_path, stdout, rc) == []

    path = tmp_path / table
    rows = read_table(path)
    rows[len(rows) // 2]["v_1"] = repr(-float(rows[len(rows) // 2]["v_1"]))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(",".join(r.values()) + "\n" for r in rows)
    assert checker.check(op, tmp_path, stdout, rc)


def test_checker_flags_missing_output(tmp_path):
    op = _op("construction-3atom", "robust-check-unhinged")
    assert Checker(None).check(op, tmp_path, "", 0)


def test_checker_accepts_generated_pgd_fit(tmp_path):
    inputs = make_inputs("pgd-1e3", 3, tmp_path)
    op = _op("pgd-1e3", "robust-check-exponential")
    rc, stdout = _run_op(op, inputs, tmp_path / "out")
    checker = Checker(inputs.arrays)
    assert checker.check(op, tmp_path / "out", stdout, rc) == []
    summary = tmp_path / "out" / "robust_check_summary.json"
    s = json.loads(summary.read_text())
    s["minimizer_noisy"] = [0.5 * c for c in s["minimizer_noisy"]]
    summary.write_text(json.dumps(s))
    assert any("objective" in p for p in checker.check(op, tmp_path / "out", stdout, rc))


def test_self_times_of_a_known_span_tree():
    #   a [0, 10]
    #   +- b [1, 4]
    #   |  +- c [2, 3]
    #   +- d [5, 9]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 9.0, 0]]
    spans = [s + [None, None] for s in spans]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


@pytest.mark.parametrize("n, p", [(1, 100.0), (19, 100.0), (20, 50.0), (39, 50.0),
                                  (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    if p < 100.0:
        samples = list(range(1, n + 1))
        value = run.percentile(samples, p)
        assert sum(s > value for s in samples) >= 10


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert run.percentile(samples, 50.0) == 5.0
    assert run.percentile(samples, 90.0) == 9.0
    assert run.percentile(samples, 100.0) == 10.0
    assert run.percentile(samples, 0.0) == 1.0


def test_every_binding_site_resolves_to_its_wrapper(tmp_path):
    import potmin
    import potmin.analysis
    import potmin.cli
    import potmin.distributions

    original = potmin.cli.check_rcn_robustness
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = tracer.wrappers
        assert potmin.cli.check_rcn_robustness is wrapped["analysis.check_rcn_robustness"]
        assert potmin.analysis.corrupt_rcn is wrapped["distributions.corrupt_rcn"]
        assert potmin.corrupt_rcn is wrapped["distributions.corrupt_rcn"]
        assert potmin.analysis.pgd_minimizer is wrapped["minimizers.pgd_minimizer"]
        originals = {id(w.__wrapped__) for w in wrapped.values()}
        for name, mod in sys.modules.items():
            if name == "potmin" or name.startswith("potmin."):
                leftover = [a for a, v in vars(mod).items() if id(v) in originals]
                assert not leftover, (name, leftover)

        op = _op("construction-3atom", "robust-check-logistic")
        tracer.begin_op(op.id)
        _run_op(op, Inputs(), tmp_path)
        names = [s[NAME] for s in tracer.spans]
        assert names[0] == "cli.main"
        for required in ("analysis.check_rcn_robustness", "distributions.corrupt_rcn",
                         "minimizers.pgd_minimizer", "loss_zoo.eval", "loss_zoo.deriv",
                         "distributions.margins", "distributions.construct"):
            assert required in names
        for s in tracer.spans:
            if s[PARENT] >= 0:
                parent = tracer.spans[s[PARENT]]
                assert parent[START] <= s[START] <= s[END] <= parent[END]
        metrics = tracer.pass_metrics(0)
        assert metrics["minimizers.pgd_calls"] == 2
        assert metrics["distributions.corrupt_rcn_calls"] == 1
        assert metrics["minimizers.pgd_iters"] > 0
    finally:
        tracer.uninstall()
    assert potmin.cli.check_rcn_robustness is original


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: run.per_layer_unit(name) for name in Tracer().pass_metrics(0)}
    layers[run.TRACE_OVERHEAD] = run.per_layer_unit(run.TRACE_OVERHEAD)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_monitor_scales_by_the_mean_kernel_time_near_an_interval():
    monitor = speed.Monitor()  # not started: the samples are set by hand
    monitor.times.extend([0.0, 1.0, 2.0, 3.0, 4.0])
    monitor.kernel_ms.extend([1.0, 2.0, 2.0, 5.0, 8.0])
    ref = speed.REFERENCE_MS
    assert monitor.scale(1.0, 3.0) == pytest.approx(ref / 3.0)          # samples 1, 2, 3
    assert monitor.scale(1.9, 2.1) == pytest.approx(ref / 2.0)          # sample 2 only
    assert monitor.scale(1.4, 1.5) == pytest.approx(ref / 2.0)          # none near: 1 and 2
    assert monitor.scale(4.5, 4.6) == pytest.approx(ref / 8.0)          # after the last
    assert monitor.scale(-0.1, 0.0, pad_s=0.0) == pytest.approx(ref)    # sample 0


def test_monitor_drops_samples_taken_while_tracemalloc_traces():
    import time
    import tracemalloc

    monitor = speed.Monitor(period_s=0.005)
    monitor.start()
    try:
        time.sleep(0.05)
        tracemalloc.start()
        t0 = time.perf_counter()
        time.sleep(0.1)
        t1 = time.perf_counter()
        tracemalloc.stop()
        time.sleep(0.05)
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        monitor.stop()
    assert len(monitor.times) > 0
    assert not [t for t in monitor.times if t0 <= t <= t1]
