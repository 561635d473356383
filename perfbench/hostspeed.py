"""Host speed, sampled while a pass runs, so timings from different hours agree.

A shared host runs this benchmark's single thread at a speed that drifts by
a quarter or more over tens of seconds, the same for the program and for
any other code; a pass of a few seconds falls wholly into a fast or a slow
phase, so medians of raw times spread past any useful bound.  ``Sampler``
interrupts the pass every ``PERIOD_S`` with SIGALRM and times one run of
``kernel`` (a fixed mix of interpreted arithmetic and small numpy calls
that does not touch ``toricray``).  The relative speed of a sample is
``REFERENCE_KERNEL_S`` over its time; the speed of an interval is the mean
of its samples, each weighted by the time since the previous one.

A time in reference seconds is the measured time, less the time spent in
the handler, times that mean speed: the work the pass did, in seconds of a
host that runs ``kernel`` in ``REFERENCE_KERNEL_S``.  The reference is the
kernel's median on the 2-vCPU Xeon host the benchmark was defined on; it
only sets the unit, and a change to ``toricray`` cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.025
REFERENCE_KERNEL_S = 5.5e-4

_V = np.linspace(0.1, 1.0, 15)
_M = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def kernel():
    s = 0.0
    for i in range(40):
        x = np.sin(_V * i) + np.exp(-_V)
        s += float(x.sum())
        for j in range(60):
            s += (i * j) % 7
    return s + float((_M @ _M[:, 0]).sum())


class Sampler:
    """Samples host speed from SIGALRM until ``stop``; main thread only."""

    def __init__(self):
        self.samples = []  # (monotonic time at the sample's end, speed, cost)

    def _handler(self, signum, frame):
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        self.samples.append((t1, REFERENCE_KERNEL_S / (t1 - t0), t1 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0, t1):
        """(mean relative speed, seconds spent sampling) within [t0, t1],
        both monotonic times."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        if not inside:
            raise RuntimeError(f"no host-speed sample in a {t1 - t0:.3f} s "
                               "window")
        weight = total = spent = 0.0
        prev = t0
        for t, speed, cost in inside:
            weight += t - prev
            total += speed * (t - prev)
            spent += cost
            prev = t
        return total / weight, spent

    def reference_seconds(self, seconds, t0, t1):
        """`seconds` measured over [t0, t1], in reference seconds."""
        speed, spent = self.window(t0, t1)
        return (seconds - spent) * speed
