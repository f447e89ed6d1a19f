"""Host-speed reference: a fixed kernel timed while the workload runs.

On a shared host the CPU's speed can move by a quarter within seconds,
and CPU time moves with wall time, so a raw time of a job says as much
about the neighbours as about mkpolys.  `Pacer` measures the speed
the job actually got: a SIGPROF timer interrupts the job every INTERVAL_S
of CPU time and runs `kernel`, a fixed pure-Python loop of the kind the
engine runs (Fraction arithmetic into a dict with tuple keys).  The kernel
uses only the standard library, never mkpolys, so no change to the engine
can change it.

A time is reported in *reference seconds*: the measured seconds scaled to
a host on which the kernel takes REF_KERNEL_S,

    reference_s = measured_s * REF_KERNEL_S * mean(1 / kernel_s)

over the kernel samples taken while it ran.  The mean of 1 / kernel_s is
the mean speed over the job's time, sampled uniformly, so a slow stretch
weighs as long as it lasted.  The time spent in the kernel itself is
taken out of the measured time first.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_KERNEL_S = 0.001   # kernel time that defines a reference second
INTERVAL_S = 0.025     # CPU time between two samples during a job
WARMUP = 5             # kernel calls before the first timed sample


def kernel():
    d = {}
    f = Fraction(1, 3)
    for i in range(1, 120):
        k = (i % 7, i % 3)
        d[k] = d.get(k, 0) + f * i
        f = f * Fraction(i + 1, i + 2) + 1
    return len(d)


def scale(inv_sum, count):
    """Factor from measured to reference seconds, from `count` kernel
    samples whose inverse durations sum to `inv_sum`."""
    return REF_KERNEL_S * inv_sum / count


class Pacer:
    """Kernel samples taken on demand or by a SIGPROF timer.

    `inv_sum` and `count` accumulate 1 / kernel_s and the number of
    samples, `busy` the time spent in the kernel.  Differences of `mark()`
    give them over any stretch.  The kernel's CPU time is taken to be its
    wall time: where the process CPU clock advances in scheduler ticks, it
    is too coarse to time one sample."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.inv_sum = 0.0
        self.count = 0
        self.busy = 0.0
        self._previous = None
        for _ in range(WARMUP):
            kernel()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.busy += t1 - t0
        self.inv_sum += 1.0 / (t1 - t0)
        self.count += 1

    def _on_timer(self, _signum, _frame):
        self.sample()

    def install(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self):
        return (self.inv_sum, self.count, self.busy)
