"""The machine's speed, sampled with a fixed reference kernel during a run.

The machines this benchmark runs on share their cores with other work:
the speed of one and the same pure-Python computation drifts by a third
or more within a minute and flips between a fast and a slow state within
a second, in CPU time as much as in wall time, so raw seconds from
different runs are not comparable.  While a run measures, a SIGALRM
handler in the main thread runs a small exact-arithmetic kernel
(Gaussian elimination on a fixed rational matrix and a sort of rational
points, in plain ``fractions``) every ``INTERVAL_S`` and records the
kernel's CPU time.  Every op time is then scaled by ``NOMINAL_S`` over the
median kernel time sampled during the op: a reported time is the time the
op would take on a machine that runs the kernel in ``NOMINAL_S``.  The
handler's own time is taken out of the op times.

The kernel never calls nama, so a change to nama leaves the kernel's time
alone and moves the scaled times one for one.  Its work (small rationals,
lists, tuples, function calls) is the kind nama's kernels do, so it slows
down and speeds up with them: on a 2-core virtual machine whose raw times
for one repeated k = 32 envelope swung between 82 and 130 ms over 100 s,
their ratio to the kernel's time stayed within 2.5 % of its mean
(coefficient of variation 1.5 % against 12 % raw, over 8 s windows).
The kernel's CPU time, not its wall time, is the sample, so waiting for
the interpreter lock while run_suite's workers hold it does not count.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

# Kernel CPU time, in seconds, at the speed times are scaled to: about the
# median on a 2-core virtual machine with Python 3.11.7.
NOMINAL_S = 0.0015
# Time between two kernel samples during ops.
INTERVAL_S = 0.1
# Samples this long before an op starts or after it ends still count for it.
WINDOW_S = 0.15

_MATRIX = [[Fraction(1, i + j + 1) + (i == j) for j in range(7)] for i in range(7)]


def _kernel() -> Tuple[Fraction, int]:
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = a[c][c]
        det *= pivot
        for r in range(c + 1, len(a)):
            f = a[r][c] / pivot
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    points = sorted({(Fraction(i * 7 % 13, 13), Fraction(i * 5 % 11, 11)) for i in range(60)})
    return det, len(points)


class SpeedClock:
    """Samples the kernel every `interval` seconds while entered (main
    thread only).

    ``paused`` is the wall time spent in the handler so far: subtract its
    growth over an op from the op's time.  ``factor(start, end)`` is the
    scale for an op that ran from ``start`` to ``end`` (perf_counter)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.at: List[float] = []
        self.cpu: List[float] = []
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrived while the kernel ran
            return
        self._busy = True
        start, cpu = time.perf_counter(), time.thread_time()
        _kernel()
        self.cpu.append(time.thread_time() - cpu)
        end = time.perf_counter()
        self.at.append(end)
        self.paused += end - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample near the op: take the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.cpu[lo:hi])

    def summary(self) -> Dict[str, float]:
        return {
            "nominal_s": NOMINAL_S,
            "samples": len(self.cpu),
            "median_s": statistics.median(self.cpu),
            "min_s": min(self.cpu),
            "max_s": max(self.cpu),
            "paused_s": self.paused,
        }
