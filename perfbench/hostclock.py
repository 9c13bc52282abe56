"""Host-clock calibration against a reference kernel in its own process.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes.  A run that lands in a slow stretch would read
as a regression of the program.  So the benchmark times a fixed
reference kernel around every timed sample: a pure-Python loop, dict
updates, small float32 matmuls and a sort-based ``np.unique``, the same
mix the program spends its host time on.  It reports host times scaled
to the speed at which the kernel takes :data:`NOMINAL_S`.

A sample that took ``t`` host seconds between kernel timings ``r0`` and
``r1`` counts as ``t * NOMINAL_S / ((r0 + r1) / 2)`` calibrated seconds.
If the host slows uniformly, the sample and the kernel slow together and
the calibrated time stays put.

The kernel runs in a helper interpreter (this file run as a script) that
never imports the program, while the workload process waits on a pipe.
Each timing runs on the CPU the workload process last ran on, so it sees
the speed of the core the samples ran on.  The state of the workload's
process — threads contending for its GIL, profiling or tracing hooks,
``tracemalloc``, garbage-collector settings — cannot slow the kernel.
What the calibration cannot tell apart from a slow host is a program
change that keeps the host's cores busy while the kernel runs (threads
or processes left working between samples): that slows the kernel too,
and is partly divided out.  Linux only: it reads ``/proc/self/stat`` and
uses ``os.sched_setaffinity``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

import numpy as np

#: the reference kernel's duration on the host the benchmark was defined
#: on (2-core x86-64 container, NumPy with single-threaded OpenBLAS)
NOMINAL_S = 0.006


class ReferenceKernel:
    """The fixed work whose duration measures the host's speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((96, 96)).astype(np.float32)
        self._keys = rng.integers(0, 1 << 30, 20_000)

    def time(self) -> float:
        """Host seconds of one run of the kernel."""
        t0 = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(5_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(10):
            self._matrix @ self._matrix
        np.unique(self._keys)
        return perf_counter() - t0


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of ``/proc/self/stat``)."""
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


class HostClock:
    """Times the reference kernel between samples, in a helper process.

    Use as a context manager: the helper is stopped and waited for on exit.
    """

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        #: every kernel timing taken, in seconds
        self.kernel_times = [self._kernel()]

    def __enter__(self) -> HostClock:
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        self._helper.wait()

    def _kernel(self) -> float:
        self._helper.stdin.write(f"{current_cpu()}\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def prime(self) -> None:
        """Time the kernel right before a sample (after untimed work)."""
        self.kernel_times.append(self._kernel())

    def scale(self) -> float:
        """Time the kernel again; returns the factor that turns the host
        seconds of the sample since the previous timing into calibrated
        seconds (``NOMINAL_S`` over the mean of the two timings)."""
        self.kernel_times.append(self._kernel())
        return NOMINAL_S / (sum(self.kernel_times[-2:]) / 2)


if __name__ == "__main__":
    # the helper: one kernel timing per CPU number read, on that CPU,
    # until stdin closes
    kernel = ReferenceKernel()
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(repr(kernel.time()), flush=True)
