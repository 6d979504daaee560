"""The machine's speed, sampled while the flow runs, to normalize its times.

On a shared VM the same work takes a varying amount of CPU time: the host
changes the core's clock and lets other guests share its caches and its
hyperthread sibling. A fixed pure-Python loop runs up to 40% faster or
slower from one few-second stretch to the next. The flow's times are
therefore reported in seconds at a reference speed: the measured CPU time,
scaled by how long a fixed calibration chunk took at the same moments
compared with ``REF_CHUNK_S``.

``Speedometer.start`` arms ``ITIMER_PROF``; every ``INTERVAL_S`` of process
CPU time the SIGPROF handler runs ``chunk()`` once and records when and how
long. The samples are spread over the run in proportion to the CPU time
spent, as the flow's own work is. ``elapsed`` subtracts the handler's time
from an interval, and ``factor`` turns the samples taken during it into the
scale to the reference speed.

The chunk is the benchmark's own code and imports nothing from fpsynt, so a
change to fpsynt never changes the yardstick. It mixes what fpsynt's
search does most: ``Fraction`` arithmetic, small tuples, dict updates and
method calls. The cyclic collector is off while it runs, so it never
collects garbage that fpsynt made.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# The thread's CPU clock. While ITIMER_PROF is armed, time.process_time()
# misreads short intervals on Linux: a 0.6 ms chunk read as 0.05 ms.
clock = time.thread_time

INTERVAL_S = 0.025
MIN_SAMPLES = 8
# About the time one chunk() takes in the handler, during the flow, on the
# machine the reference figures in README.md were measured on (Intel Xeon,
# Python 3.11), so that there the scaled times read as plain CPU seconds.
REF_CHUNK_S = 0.00060


def chunk() -> int:
    """About 0.6 ms of Fraction, tuple and dict work; the result is unused."""
    acc = Fraction(0)
    seen: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 41):
        q = Fraction(i, 3 + i % 11)
        acc = acc + q * q - Fraction(1, i)
        key = (i % 7, acc.denominator % 5)
        seen[key] = max(seen.get(key, q), q)
    return len(seen) + (acc.numerator & 1)


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = len(values) // 8
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class Speedometer:
    def __init__(self):
        self.times: list[float] = []  # clock() when each sample started
        self.chunks: list[float] = []  # how long its chunk() took
        self.overhead = 0.0  # clock() seconds spent in the handler so far
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = clock()
        chunk()
        end = clock()
        if enabled:
            gc.enable()
        self.times.append(start)
        self.chunks.append(end - start)
        self.overhead += clock() - start
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        while len(self.chunks) < MIN_SAMPLES:  # a run too short to be sampled
            self._sample(None, None)

    def net_clock(self) -> float:
        """clock() less the time spent in the handler so far."""
        return clock() - self.overhead

    def mark(self) -> tuple[float, float]:
        """A point in the run: (clock(), handler overhead so far)."""
        return clock(), self.overhead

    @staticmethod
    def elapsed(a: tuple[float, float], b: tuple[float, float]) -> float:
        """CPU seconds from mark ``a`` to mark ``b``, without the handler's."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def factor(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """REF_CHUNK_S over the chunk time sampled from ``a`` to ``b``; when
        fewer than MIN_SAMPLES fall inside, the MIN_SAMPLES nearest to the
        interval's middle are used."""
        inside = [c for t, c in zip(self.times, self.chunks) if a[0] <= t <= b[0]]
        if len(inside) < MIN_SAMPLES:
            mid = (a[0] + b[0]) / 2
            nearest = sorted(range(len(self.times)), key=lambda k: abs(self.times[k] - mid))
            inside = [self.chunks[k] for k in nearest[:MIN_SAMPLES]]
        return REF_CHUNK_S / _trimmed_mean(inside)

    def seconds(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Seconds at the reference speed from mark ``a`` to mark ``b``."""
        return self.elapsed(a, b) * self.factor(a, b)
