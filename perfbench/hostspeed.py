"""Host-speed calibration: time measured on a shared host, rescaled to a
reference speed.

On a shared host the speed of a core drifts by tens of percent within
seconds (other tenants on the same physical core), and the same fixed loop
takes 9 ms in one second and 13 ms in the next.  A pass that takes seconds
therefore reads differently from run to run although the program did the
same work.

`SpeedSampler` runs a fixed calibration kernel (numpy and pure Python, about
1.5 ms) every `PERIOD_S` in a thread of the benchmark
process.  The benchmark pins itself, its BLAS and its child processes to
one CPU, so the kernel shares that core with the work being measured and
its CPU time (`time.thread_time`, which excludes time spent waiting for the
core) reads the core's speed while the work runs.  For an interval of work,
`reference_seconds` takes the interval's wall time, removes the CPU time
the kernel itself took from the work, and multiplies by
REFERENCE_KERNEL_S / (mean kernel CPU time in the interval): the seconds the
interval would have taken on a host where the kernel takes exactly
REFERENCE_KERNEL_S.  A change to the program moves that figure as it moves
the wall time; a change of host speed does not.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from statistics import quantiles
from time import perf_counter, thread_time

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 1.5e-3  # the kernel's CPU time on the reference host


def pin_to_one_cpu():
    """Pin this process (and every thread and child it starts later) to the
    highest-numbered CPU it may use, and keep BLAS to one thread, so the
    calibration kernel and the measured work share one core.  Call before
    numpy is imported, because OpenBLAS starts its threads on import."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel(small, large):
    """The fixed calibration work: BLAS on cache-resident matrices plus an
    interpreter loop, the two kinds of work the workloads do.  Each kind
    alone tracked the workloads' speed less closely than the two together."""
    for _ in range(20):
        small @ small
    for _ in range(8):
        large @ large
    total = 0
    for i in range(18000):
        total += i
    return total


class SpeedSampler:
    """Background thread: one timed kernel every PERIOD_S until `stop`.

    Use as a context manager around the measured region."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrices = rng.standard_normal((64, 64)), rng.standard_normal((96, 96))
        self.starts, self.ends, self.cpu = [], [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            w0, c0 = perf_counter(), thread_time()
            kernel(*self._matrices)
            c1, w1 = thread_time(), perf_counter()
            self.starts.append(w0)
            self.ends.append(w1)
            self.cpu.append(c1 - c0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def reference_seconds(self, t0, t1):
        """Wall time of [t0, t1] (perf_counter stamps, which child processes
        share), less the kernel's own CPU time in it, at reference speed."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.ends, t1)
        inside = range(lo, hi)
        stolen = sum(self.cpu[i] for i in inside)
        if len(inside) < 2:  # short interval: the samples on either side of it
            inside = range(max(0, lo - 1), min(len(self.cpu), hi + 1))
        if not inside:
            raise RuntimeError("no speed samples: the sampler did not run")
        mean_kernel = sum(self.cpu[i] for i in inside) / len(inside)
        return (t1 - t0 - stolen) * REFERENCE_KERNEL_S / mean_kernel

    def summary(self):
        """Kernel CPU-time deciles, for the detail record."""
        if len(self.cpu) < 2:
            return {"samples": len(self.cpu)}
        deciles = quantiles(self.cpu, n=10)
        return {"samples": len(self.cpu), "kernel_p10_ms": deciles[0] * 1e3,
                "kernel_p50_ms": deciles[4] * 1e3, "kernel_p90_ms": deciles[8] * 1e3}
