"""Machine-speed sampler that runs beside one timed call.

This machine's speed drifts by tens of percent within minutes, and the
drift hits every process at once, so a workload's raw duration mostly
measures when it ran.  A sampler thread in the child times a small fixed
chunk of pure-Python work (Fraction sums and an integer loop, no dsextra
code) every PERIOD_S for as long as the call runs.  The mean chunk time,
taken over the same interval and in the same process as the call, is
the machine's pace during that call; run.py divides durations by it.

A chunk is timed in the sampler thread's own CPU time, so time the
thread spends waiting for a CPU does not count: a program that runs
more processes than there are CPUs cannot make the machine look slower.
A chunk is about 0.3 ms, so the sampler takes about 1.5% of the call's
time.  It is far shorter than the interpreter's 5 ms switch interval,
so the main thread does not interrupt it.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.02


def chunk() -> int:
    """The fixed unit of work the sampler times."""
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i % 97 + 1, 2 * i + 1)
    s = 0
    for i in range(1500):
        s += i * i % 7
    return acc.denominator.bit_length() + s


class Pace:
    """Context manager: samples chunk times while its body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            chunk()
            self.samples.append(time.thread_time() - t0)

    def __enter__(self) -> "Pace":
        chunk()  # first-call costs stay out of the samples
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self) -> float:
        """Mean chunk time; one chunk timed here if the body was too short."""
        if not self.samples:
            t0 = time.thread_time()
            chunk()
            self.samples.append(time.thread_time() - t0)
        return statistics.fmean(self.samples)
