"""Machine speed sampled during the timed commands, to normalise their times.

The reference machine is a shared 2-vCPU virtual machine whose speed
drifts by 10-30% from minute to minute, in process CPU time as much as
in wall time, while hypervisor steal stays near zero.  Raw seconds of
the same pass therefore spread too widely between runs to bound a
regression.  :class:`SpeedProbe` times a fixed reference kernel (plain
Python arithmetic and small NumPy matrix products, no cpdlab code) from
a ``SIGALRM`` handler every ``interval`` seconds while a pass runs.  A
command's time divided by the mean kernel time sampled while it ran,
times the kernel's time on the reference machine, is in reference
seconds (``ref-s``): what the time would have been at the reference
machine's speed.  Each command gets its own samples because the speed
changes within a second.  Over repeated scan-serve passes this halved
the spread of one command's time, for example from 21% to 10% for
``detect cusum`` and from 7% to 4% for grid-check.

Times taken with :meth:`SpeedProbe.clock` leave out the kernel's own time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Mean kernel time on the reference machine (2-vCPU Xeon VM, Python
# 3.11, NumPy 2.4.6, one OpenBLAS thread).  Only scales the reported
# numbers; changing it changes every ref-s metric by the same factor.
REFERENCE_KERNEL_S = 0.0007

# Samples behind each speed estimate; short commands borrow the ones
# taken just before them.
MIN_SAMPLES = 5

_A = np.random.default_rng(0).standard_normal((32, 100))
_W = np.random.default_rng(1).standard_normal((100, 100))


def kernel() -> float:
    """A fixed mix of interpreter work and small matrix products (about 0.7 ms)."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    for _ in range(20):
        total += float(np.maximum(_A @ _W - 0.1, 0.0).sum())
    return total


class SpeedProbe:
    """Times :func:`kernel` periodically while :meth:`sampling` is active."""

    def __init__(self, interval: float = 0.025, raw_clock=time.perf_counter):
        self.interval = interval
        self.raw_clock = raw_clock
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """Seconds of ``raw_clock`` not spent in the kernel."""
        return self.raw_clock() - self.spent

    def sample(self) -> None:
        start = self.raw_clock()
        kernel()
        elapsed = self.raw_clock() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def _handler(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample now, ``MIN_SAMPLES`` times, then every ``interval`` seconds in the block."""
        for _ in range(MIN_SAMPLES):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, stop: int, floor: int = 0) -> float:
        """Reference seconds per measured second between two marks.

        Uses the samples taken between the marks, reaching back before
        ``start`` (but not before ``floor``) until it has ``MIN_SAMPLES``.
        """
        first = max(floor, min(start, stop - MIN_SAMPLES))
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[first:stop])
