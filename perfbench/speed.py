"""Machine-speed sampling, so that reported times survive speed drift.

On a shared virtual machine the speed of a core drifts by a factor of up
to two over seconds, which swamps the differences a benchmark must detect.
A fixed reference loop, run every ``PERIOD_S`` of process CPU time from a
SIGPROF handler, samples the current speed while the operations run.  The
time of an operation is then rescaled to the reference speed, the speed at
which the loop takes ``REF_S``: work done at half speed counts half.  The
loop is plain Python with small numpy calls, like the program's own inner
loops, so the two slow down together.  The loop's own time is taken out
of the operation it interrupted.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
REF_S = 1e-3
_A = np.arange(8.0)


def reference_loop() -> float:
    total = 0.0
    for i in range(150):
        total += float(np.sum(np.abs(_A * i) ** 1.5))
    return total


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:  # an operation's time limit may expire in here
            t0 = perf_counter()
            reference_loop()
            self.starts.append(t0)
            self.durations.append(perf_counter() - t0)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the work in [t0, t1] would take at the reference speed.

        Uses the samples taken inside the interval, or for an interval too
        short to hold one, the samples just before and after it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        probe_s = sum(inside)
        if not inside:
            inside = self.durations[max(lo - 1, 0):lo + 1]
        if not inside:
            return t1 - t0
        slowdown = sum(inside) / len(inside) / REF_S
        return (t1 - t0 - probe_s) / slowdown
