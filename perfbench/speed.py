"""Host speed samples, to report times at the reference machine's speed.

The speed of the host moves by tens of percent within seconds, and by a
factor of two over minutes, because the machine is shared.  A fixed
reference kernel, timed before, during and after each piece of measured
work, tracks that drift: a time is reported as ``seconds * REF_NOMINAL_S
/ ref``, where ``ref`` is the harmonic mean of the kernel times taken
around and inside the work.  The kernel touches nothing of heatglue, so
no change to the program can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Median time of :func:`reference_kernel` on the reference machine.
REF_NOMINAL_S = 6e-4
#: Interval of the in-work speed samples (they take about 3 % of it).
SAMPLE_EVERY_S = 0.02


def reference_kernel() -> float:
    """A fixed mix of interpreter and small-array numpy work, the kind of
    work heatglue does."""
    s = 0.0
    for k in range(2000):
        s += math.sqrt(k) * (k % 7)
    a = np.arange(64.0)
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 1.0)
    d = {str(k): k for k in range(500)}
    return s + float(a[0]) + len(d)


def speed_probe() -> float:
    """Median time of three reference kernels, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalized(seconds: float, ref: float) -> float:
    """Seconds at the reference machine's speed."""
    return seconds * REF_NOMINAL_S / ref


class SpeedSampler:
    """Times the reference kernel every ``SAMPLE_EVERY_S`` seconds inside a
    ``with`` block, from a SIGALRM handler in the calling thread.

    Two probes around a request of a few seconds miss the drift inside
    it.  The handler's own time is summed in ``spent`` so that the caller
    can take it out of the measured time, and a span recorder, if one is
    given, takes it out of the span that was open.
    """

    def __init__(self, rec=None):
        self.rec = rec
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        if self.rec is not None:
            self.rec.exclude(took)

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False
