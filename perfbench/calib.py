"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same operation on the same input can take twice as long
from one second to the next (measured on a 2-vCPU Xeon virtual machine: the
kernel's time switches between about 1.8 and 3.4 ms in spells of one to a
few seconds, and one min513 operation on fixed inputs between 2.5 and 4.5 s,
with CPU time equal to wall time, so this is not time taken from the process
but a slower CPU).  The benchmark therefore times this kernel every quarter
second, also in the middle of an operation, and scales each operation's wall
time by the mean of ``REF_NS / kernel time`` over the samples taken while it
ran: the time the operation would have taken on a machine where the kernel
takes REF_NS.  The kernel has the same mix as the library (Python calls and
loops, small numpy uint8/int64 arrays, GF(2) row reduction), and does not use
the library, so library changes never move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter_ns

import numpy as np

# The kernel's median time on the shared 2-vCPU Xeon virtual machine the
# benchmark was tuned on; scaled times read as milliseconds of that machine.
REF_NS = 3_500_000
# Between SpeedLog.start and stop the kernel is timed this often.  Speed
# spells last a second or more; the samples cost about 2% of the run.
SAMPLE_EVERY_S = 0.25

_RNG = random.Random(20180319)
_MATS = [np.array([[_RNG.getrandbits(1) for _ in range(c)] for _ in range(r)],
                  dtype=np.uint8)
         for r, c in ((12, 24), (30, 62), (62, 124))]


def _row_reduce(m: np.ndarray) -> int:
    a = m.copy()
    rows, cols = a.shape
    pr = 0
    for c in range(cols):
        if pr == rows:
            break
        hit = np.nonzero(a[pr:, c])[0]
        if hit.size == 0:
            continue
        p = pr + int(hit[0])
        if p != pr:
            a[[pr, p]] = a[[p, pr]]
        sel = a[:, c].astype(bool)
        sel[pr] = False
        a[sel] ^= a[pr]
        pr += 1
    return pr


def _python_mix(n: int) -> int:
    acc = 0
    table = {}
    for i in range(n):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + i
        acc ^= key
    return acc + len(table)


def kernel() -> int:
    """Run the kernel once; returns its wall time in ns."""
    t0 = perf_counter_ns()
    for m in _MATS:
        _row_reduce(m)
    prod = _MATS[1].astype(np.int64) @ _MATS[1].T.astype(np.int64) % 2
    _python_mix(6000 + int(prod[0, 0]))
    return perf_counter_ns() - t0


class SpeedLog:
    """Kernel timings, taken on demand (``sample``) and, between ``start``
    and ``stop``, every SAMPLE_EVERY_S seconds of wall time from a SIGALRM
    handler, so in the middle of a long operation too.

    Python runs the handler between two bytecodes of the main thread, so the
    operation it interrupts is paused, not disturbed.  ``clock`` is a
    nanosecond clock that stands still while the kernel runs: time an
    operation with it and the samples taken inside are not counted.
    ``scale(t0, t1)`` takes perf_counter_ns times.
    """

    def __init__(self):
        self.times: list[int] = []
        self.costs: list[int] = []
        self.paused_ns = 0

    def sample(self) -> None:
        t0 = perf_counter_ns()
        # the first run after other work is slow from cold caches; the
        # faster of two is the machine's speed
        cost = min(kernel(), kernel())
        t1 = perf_counter_ns()
        self.times.append((t0 + t1) // 2)
        self.costs.append(cost)
        self.paused_ns += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> int:
        while True:
            paused = self.paused_ns
            now = perf_counter_ns()
            if self.paused_ns == paused:  # no sample ran between the reads
                return now - paused

    def scale(self, t0: int, t1: int) -> float:
        """Mean of REF_NS / kernel time over the samples taken between t0 and
        t1, or, if there are none, over the last one before t0 and the first
        one after t1."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        if i == j:
            i, j = max(i - 1, 0), min(j + 1, len(self.times))
        return statistics.fmean(REF_NS / c for c in self.costs[i:j])
