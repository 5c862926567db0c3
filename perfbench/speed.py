"""Machine speed, sampled during a run, to rescale the run's timings.

The shared host this benchmark is meant for runs it at a speed that
drifts by up to 2x within a minute: the same pure-Python work takes
22 ms in one five-second spell and 36 ms in the next, on both vCPUs, in
CPU time as in wall time.  No statistic of raw times survives that.  So
a run samples the machine's speed while it works: every ``PERIOD_S``
seconds a timer signal interrupts the program, and the handler, in the
program's own thread, times a fixed reference loop that uses no code of
the program.  Wall time is then rescaled to what it would have been at
``REFERENCE_S`` per loop::

    scaled(a, b) = sum over the pieces of [a, b] of
                   piece length * REFERENCE_S / loop time around the piece

The loop time around a piece is the mean of the running medians (over
``WINDOW`` samples) of the samples before and after it.  The time spent
in the loop itself is left out.

This cancels a change of machine speed only as far as the program and
the loop slow down alike.  The loop multiplies big integers: it
allocates almost no container, so it does not trigger garbage
collections of the program's objects, the likely reason a loop of dicts
and tuples tracked the program worse.  Timing the loop from a second thread tracked it far
worse still: the GIL hand-over around each sample costs more than the
loop.  A change to the program moves the rescaled times as much as it
moves raw wall time.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_right
from time import perf_counter

PERIOD_S = 0.01  # between samples
WINDOW = 7  # samples in the running median
REFERENCE_S = 180e-6  # loop time at the reference speed, about the quiet host's
BIG_INTEGERS = [k**k for k in range(50, 74)]  # 282 to 449 bits


def reference_loop() -> int:
    """A truncated product of two polynomials with big-integer coefficients."""
    big = BIG_INTEGERS
    out = [0] * len(big)
    for i, a in enumerate(big):
        for j in range(len(big) - i):
            out[i + j] += a * big[j]
    return out[-1]


def loop_time() -> float:
    """Median time of nine reference loops, measured here and now."""
    times = []
    for _ in range(9):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def running_median(values, window: int = WINDOW) -> list[float]:
    half = window // 2
    return [
        statistics.median(values[max(0, k - half) : k + half + 1])
        for k in range(len(values))
    ]


class SpeedProbe:
    """Samples the reference loop from a SIGALRM timer while the ``with``
    block runs in the main thread; afterwards ``scaled(a, b)`` rescales
    any interval inside it."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._handler = None
        self._weights: list[float] = []
        self._cum: list[float] = []

    def _sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()
        self.finish()

    def finish(self) -> None:
        """Weights of the program pieces between samples, and their prefix sums.

        Piece 0 ends at the first sample; piece k (k >= 1) runs from the
        end of sample k-1 to the start of sample k; the last piece has no end.
        """
        loops = running_median([e - s for s, e in zip(self.starts, self.ends)])
        n = len(loops)
        self._weights = [REFERENCE_S / loops[0]]
        self._weights += [2 * REFERENCE_S / (loops[k - 1] + loops[k]) for k in range(1, n)]
        self._weights.append(REFERENCE_S / loops[-1])
        self._cum = [0.0, 0.0]  # at the start of piece 1 and its own start
        for k in range(1, n):
            piece = self.starts[k] - self.ends[k - 1]
            self._cum.append(self._cum[-1] + piece * self._weights[k])

    def clock(self, x: float) -> float:
        """The rescaled clock at perf_counter() reading ``x``: seconds at the
        reference speed since the first sample started."""
        k = bisect_right(self.starts, x)
        if k == 0:
            return (x - self.starts[0]) * self._weights[0]
        return self._cum[k] + max(0.0, x - self.ends[k - 1]) * self._weights[k]

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed between perf_counter() readings a < b."""
        return self.clock(b) - self.clock(a)

    @property
    def samples(self) -> int:
        return len(self.starts)

    def median_loop(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
