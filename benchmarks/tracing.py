"""Traced runs: spans around the public functions of every potmin module.

The wrappers are installed from the benchmark's own files, so no file of
potmin changes.  Modules bind library names at import time (``cli`` does
``from .analysis import check_rcn_robustness``), so each wrapper replaces
the name in every potmin module that binds it.  Losses are timed by
wrapping ``make_loss`` so that it returns a ``PotentialFunction`` whose
``eval``/``deriv`` are timed.  Spans stay in memory and are reduced to
per-layer metrics when a pass ends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("distributions", "loss_zoo", "minimizers", "analysis", "dynamics", "cli", "svg")

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children never
    overlap and their durations simply add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _fingerprint(dist) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in (dist.xs, dist.ys, dist.weights):
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Installs timed wrappers into a loaded ``potmin`` and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}
        self._fits: set = set()

    # -- span recording -------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self._fits.clear()

    def timed(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args, kwargs)`` runs ahead of the span and its value is
        handed to ``after(state, args, kwargs, result)``, whose dict is
        stored as the span's attributes.  Neither hook is inside the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][END] = clock()
            if after:
                spans[sid][ATTRS] = after(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every binding of potmin's public functions with a wrapper."""
        import potmin.cli  # noqa: F401  (loads every layer)
        from potmin import distributions, dynamics

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "potmin" or k.startswith("potmin.")) and m is not None]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"potmin.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                wrapper = (self._make_loss(fn) if name == "loss_zoo.make_loss"
                           else self.timed(name, fn, *hooks.get(name, ())))
                self.wrappers[name] = wrapper
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, attr, wrapper)

        dd, traj = distributions.DiscreteDistribution, dynamics.Trajectory
        for cls, attr, name in ((dd, "__post_init__", "distributions.construct"),
                                (dd, "margins", "distributions.margins"),
                                (dd, "to_csv", "distributions.to_csv"),
                                (traj, "to_csv", "dynamics.to_csv")):
            wrapper = self.timed(name, cls.__dict__[attr], *hooks.get(name, ()))
            self.wrappers[name] = wrapper
            self._patch(cls, attr, wrapper)
        from_csv = dd.__dict__["from_csv"].__func__
        wrapper = self.timed("distributions.from_csv", from_csv,
                             *hooks["distributions.from_csv"])
        self.wrappers["distributions.from_csv"] = wrapper
        self._patch(dd, "from_csv", classmethod(wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.wrappers.clear()

    def _patch(self, owner, attr, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _make_loss(self, make_loss):
        timed_make = self.timed("loss_zoo.make_loss", make_loss)

        def wrapper(name):
            phi = timed_make(name)
            return dataclasses.replace(phi, eval=self.timed("loss_zoo.eval", phi.eval),
                                       deriv=self.timed("loss_zoo.deriv", phi.deriv))

        wrapper.__wrapped__ = make_loss
        return wrapper

    def _hooks(self) -> dict:
        def atoms(state, args, kwargs, result):
            return {"in": state, "out": len(args[0].ys)}

        def pgd_before(args, kwargs):
            dist, phi, r = args[0], args[1], float(args[2])
            key = (_fingerprint(dist), phi.name, r)
            repeat = key in self._fits
            self._fits.add(key)
            return repeat

        def pgd_after(repeat, args, kwargs, fit):
            return {"iters": fit.iterations, "converged": fit.converged, "repeat": repeat}

        def alloc_before(args, kwargs):
            tracemalloc.start()

        def alloc_after(state, args, kwargs, traj):
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return {"steps": traj.n_steps, "peak": peak}

        def path_bytes(index):
            return lambda state, args, kwargs, result: {"bytes": os.path.getsize(args[index])}

        return {
            "distributions.construct": (lambda args, kwargs: len(args[0].ys), atoms),
            "distributions.from_csv": (None, path_bytes(1)),
            "minimizers.pgd_minimizer": (pgd_before, pgd_after),
            "dynamics.gd_unhinged": (alloc_before, alloc_after),
            "dynamics.cd_unhinged": (alloc_before, alloc_after),
            "dynamics.to_csv": (None, path_bytes(1)),
            "svg.step_plot": (None, path_bytes(0)),
            "svg.line_plot": (None, path_bytes(0)),
        }

    # -- reduction ------------------------------------------------------

    def pass_metrics(self, table_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans = self.spans
        own = self_times(spans)
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        attrs: dict[str, list[dict]] = defaultdict(list)
        margins_in_pgd = 0
        for s, t in zip(spans, own):
            busy[s[NAME]] += t
            calls[s[NAME]] += 1
            if s[ATTRS] is not None:
                attrs[s[NAME]].append(s[ATTRS])
            if (s[NAME] == "distributions.margins" and s[PARENT] >= 0
                    and spans[s[PARENT]][NAME] == "minimizers.pgd_minimizer"):
                margins_in_pgd += 1
        spans.clear()

        def total(name, key):
            return sum(a[key] for a in attrs[name])

        atoms_in = total("distributions.construct", "in")
        atoms_out = total("distributions.construct", "out")
        pgd_calls = calls["minimizers.pgd_minimizer"]
        pgd_iters = total("minimizers.pgd_minimizer", "iters")
        dyn = attrs["dynamics.gd_unhinged"] + attrs["dynamics.cd_unhinged"]
        cli_self = sum(t for n, t in busy.items()
                       if n.startswith("cli.") and n != "cli.load_sample_csv")
        plots = ("svg.step_plot", "svg.line_plot")
        return {
            "distributions.construct_calls": calls["distributions.construct"],
            "distributions.construct_s": busy["distributions.construct"],
            "distributions.atoms_in": atoms_in,
            "distributions.atoms_out": atoms_out,
            # atoms kept per atom given; vacuously 1 without a construction
            "distributions.merge_ratio": atoms_out / atoms_in if atoms_in else 1.0,
            "distributions.from_csv_s": busy["distributions.from_csv"],
            "distributions.from_csv_bytes": total("distributions.from_csv", "bytes"),
            "distributions.corrupt_rcn_calls": calls["distributions.corrupt_rcn"],
            "distributions.corrupt_rcn_s": busy["distributions.corrupt_rcn"],
            "distributions.margins_calls": calls["distributions.margins"],
            "distributions.margins_s": busy["distributions.margins"],
            "loss_zoo.eval_calls": calls["loss_zoo.eval"],
            "loss_zoo.eval_s": busy["loss_zoo.eval"],
            "loss_zoo.deriv_calls": calls["loss_zoo.deriv"],
            "loss_zoo.deriv_s": busy["loss_zoo.deriv"],
            "loss_zoo.check_s": busy["loss_zoo.check_def1"] + busy["loss_zoo.check_def3"],
            "minimizers.pgd_calls": pgd_calls,
            "minimizers.pgd_s": busy["minimizers.pgd_minimizer"],
            "minimizers.pgd_iters": pgd_iters,
            # vacuously 1 when no fit ran
            "minimizers.pgd_converged_ratio": (
                total("minimizers.pgd_minimizer", "converged") / pgd_calls
                if pgd_calls else 1.0),
            "minimizers.pgd_repeat_fits": total("minimizers.pgd_minimizer", "repeat"),
            "minimizers.margins_per_iter": margins_in_pgd / pgd_iters if pgd_iters else 0.0,
            "minimizers.closed_form_calls": calls["minimizers.unhinged_minimizer"],
            "minimizers.closed_form_s": busy["minimizers.unhinged_minimizer"],
            "analysis.robustness_calls": calls["analysis.check_rcn_robustness"],
            "analysis.robustness_s": busy["analysis.check_rcn_robustness"],
            "analysis.expected_loss_calls": calls["analysis.expected_loss"],
            "analysis.expected_loss_s": busy["analysis.expected_loss"],
            "analysis.misclassification_s": busy["analysis.misclassification_error"],
            "analysis.recession_probe_s": busy["analysis.recession_probe"],
            "dynamics.gd_s": busy["dynamics.gd_unhinged"],
            "dynamics.cd_s": busy["dynamics.cd_unhinged"],
            "dynamics.steps": sum(a["steps"] for a in dyn),
            "dynamics.to_csv_s": busy["dynamics.to_csv"],
            "dynamics.to_csv_bytes": total("dynamics.to_csv", "bytes"),
            "dynamics.peak_alloc_mb": max((a["peak"] for a in dyn), default=0) / 2**20,
            "cli.self_s": cli_self,
            "cli.load_sample_csv_s": busy["cli.load_sample_csv"],
            "cli.table_bytes": table_bytes,
            "svg.plot_calls": sum(calls[p] for p in plots),
            "svg.plot_s": sum(busy[p] for p in plots),
            "svg.bytes": sum(total(p, "bytes") for p in plots),
        }
