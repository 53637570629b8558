"""Speed-normalized timing for a shared host.

On a shared host the same instructions run up to 20-50% slower for seconds
at a time, for reasons outside the benchmark.  Measured on a 2-core x86-64
sandbox: over a five-minute series of one operation, the median of 25-second
windows spread 22% from window to window, and CPU time tracked wall time, so
it is not waiting.  Medians within a run do not remove that.

So while an interval is measured, a timer interrupts it every ``PERIOD_S``
to time a small fixed probe that does not use cliffcheck.  The interval's
own time is its wall time minus the probe time, and its normalized time is
that multiplied by ``PROBE_REFERENCE_S`` over the mean probe time: seconds at
a fixed reference speed.  On the series above, one 3-second operation's raw
time spread 23% and its normalized time 3%.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Seconds the probe takes at reference speed: about its typical value on the
# sandbox above, so that normalized and raw seconds are close there.
PROBE_REFERENCE_S = 0.0007


def _probe_work() -> None:
    # interpreter-bound arithmetic, like walking expression trees, then small
    # numpy contractions, like the per-point einsums
    acc = 0.0
    for i in range(3000):
        acc += (i % 7) * 0.5 - (i % 3)
    a = np.linspace(0.0, 1.0, 64).reshape(4, 4, 4)
    g = np.eye(4) + 0.1
    for _ in range(30):
        a = np.einsum("ijk,kl->ijl", a, g)
        a = a / np.max(np.abs(a))


def probe_seconds(repeats: int = 20) -> float:
    """Mean time of the probe over ``repeats`` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        _probe_work()
    return (time.perf_counter() - start) / repeats


class Interval:
    """One measured interval: ``raw`` seconds and the speed ``factor`` during it."""

    def __init__(self):
        self.samples: list = []
        self.raw = 0.0
        self.factor = 1.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.sample()  # at least one sample, however short the interval
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.raw = wall - sum(self.samples[1:])
        self.factor = PROBE_REFERENCE_S / statistics.fmean(self.samples)
        return False

    @property
    def seconds(self) -> float:
        """The interval in seconds at reference speed."""
        return self.raw * self.factor
