"""Machine-speed calibration, so that timings from a drifting CPU compare.

On a shared virtual machine the speed of one vCPU steps by up to about 1.8x
within seconds, independently of the other vCPUs.  The benchmark therefore
times a short fixed kernel, which uses nothing from potmin, in the process
it measures and on the same pinned CPU, and scales each timed interval to a
reference speed:

    reference time = measured time * REFERENCE_MS / kernel time

where the kernel time is the mean of the kernel's times during the interval
and shortly before and after it.  A reference time reads as the interval would
take on a machine where the kernel takes ``REFERENCE_MS``.  A slower potmin
still shows in full, because the kernel does not change with it.

A ``Monitor`` thread runs the kernel every ``period_s`` and times it in
thread CPU time, so that a speed step in the middle of a long call is seen;
this takes about 3% of the CPU.
"""

from __future__ import annotations

import array
import bisect
import os
import statistics
import threading
import time
import tracemalloc

import numpy as np

# about the kernel's time on the machine the bounds were tuned on; only the
# scale of reference times depends on it
REFERENCE_MS = 1.0

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1000, 10))
_W = _rng.standard_normal(10)
_Z = _rng.standard_normal(2000)


def _kernel() -> None:
    # a mix like potmin's: interpreted loops, small-array numpy calls and
    # float formatting
    acc = 0.0
    for i in range(3000):
        acc += (i % 7) * 0.5
    for _ in range(20):
        m = _X @ _W
        np.log1p(np.exp(-np.abs(_Z))).sum()
        acc += float(m[0])
    ",".join(map(repr, _Z[:300].tolist()))


def pin_to_one_cpu() -> None:
    """Pin this process (and the children it starts) to its lowest allowed CPU.

    The kernel must run on the CPU the timed work runs on, since each vCPU
    drifts on its own.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Monitor:
    """A thread that times the kernel every ``period_s`` in thread CPU time."""

    def __init__(self, period_s: float = 0.04):
        self.period_s = period_s
        # perf_counter at each sample and the kernel's ms; flat arrays, so
        # that the samples kept hold no Python objects among the measured
        # program's (which moved its peak RSS by up to 7%)
        self.times = array.array("d")
        self.kernel_ms = array.array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            traced = tracemalloc.is_tracing()
            t = time.perf_counter()
            c0 = time.thread_time()
            _kernel()
            ms = (time.thread_time() - c0) * 1e3
            # tracemalloc (on inside traced dynamics calls) slows the kernel's
            # allocations, not the machine: such a sample is dropped
            if not (traced or tracemalloc.is_tracing()):
                self.kernel_ms.append(ms)
                self.times.append(t)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float, pad_s: float = 0.2) -> float:
        """Factor from measured to reference time for the interval [t0, t1].

        Uses the samples taken in it and within ``pad_s`` of it, so that a
        call shorter than the period still has several; a speed step lasts
        seconds.
        """
        lo = bisect.bisect_left(self.times, t0 - pad_s)
        hi = bisect.bisect_right(self.times, t1 + pad_s)
        if lo == hi:  # the thread was kept from running: the nearest samples
            lo, hi = max(0, lo - 1), hi + 1
        if lo >= len(self.times):
            raise ValueError("no speed sample near the interval")
        return REFERENCE_MS / statistics.mean(self.kernel_ms[lo:hi])
