"""Wall time at a fixed reference speed of the machine.

The shared 2-core machine this benchmark was built on changes speed by up to
1.8x from one second to the next: reference_work() below runs in 0.8 ms for a
few seconds, then in 1.3 ms, then in 0.8 ms again, and for minutes at a time
it stays near 1.4 ms.  The change shows in CPU time as well as in wall time
(another tenant on the same physical core, not time taken away), so neither
clock alone gives steady numbers.

``Speed`` times ``reference_work()``, fixed stdlib-only work that does not
touch balancelat, twice right before and twice right after each timed call,
and every ``TICK_S`` seconds inside it (from a SIGALRM handler).  Each sample
gives the factor REFERENCE_MS / its time; the call's wall time, less the time
spent in the handler, is multiplied by the mean factor of its samples.  This
cancels the change of speed that balancelat and the reference share, while a
change to balancelat itself moves only the call's own time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, TypeVar

T = TypeVar("T")

# Median time of reference_work() on the machine named above in its fast
# phases, under CPython 3.11.  Times are reported at this speed.
REFERENCE_MS = 0.80
# More samples give a steadier factor; each one interrupts the timed call and
# costs it some cache.  Every 20 ms the samples take 4-7 % of a call's time.
TICK_S = 0.02
EDGE_SAMPLES = 2


def reference_work() -> int:
    """Euclid's algorithm on word-sized ints, Fraction products and sums,
    string building, a sort, a dict build and big-int squaring: the kinds of
    work balancelat's layers do.  All it allocates is freed before it
    returns, so samples taken during a timed call leave that call's garbage
    collections where they were."""
    acc = 0
    for i in range(1, 300):
        a, b = i * 7919 + 1, i * 104729 + 3
        while b:
            a, b = b, a % b
        acc += a
    q = Fraction(0)
    for i in range(1, 50):
        q += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
    text = "".join(str(i * i) for i in range(600))
    table = dict.fromkeys(sorted((i * 7919) % 1009 for i in range(1500)), 0)
    x = 3
    for _ in range(200):
        x = x * x % ((1 << 127) - 1)
    return acc + len(text) + len(table) + x + q.denominator


def reference_ms() -> float:
    """One timed run of reference_work(), with the collector off so that
    the heap the timed calls left behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return (time.perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Times calls in seconds at the reference speed (see the module doc)."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # every reference_ms() taken, for the log
        self.last = self._edge()
        self._inside: list[float] = []
        self._paused = 0.0

    def _factor(self) -> float:
        ms = reference_ms()
        self.samples.append(ms)
        return REFERENCE_MS / ms

    def _edge(self) -> list[float]:
        return [self._factor() for _ in range(EDGE_SAMPLES)]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._inside.append(self._factor())
        self._paused += time.perf_counter() - start

    def run(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """(fn(), wall seconds, seconds at the reference speed), both
        without the time the samples inside the call took."""
        self._inside, self._paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - self._paused
        after = self._edge()
        factor = statistics.fmean([*self.last, *self._inside, *after])
        self.last = after
        return result, own, own * factor
