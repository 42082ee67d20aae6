"""Machine-speed calibration for the timed metrics.

The shared host this benchmark was built on changes speed by up to 2x, for
seconds to minutes at a time, and a fixed pure-Python loop slows down in step
with the library (correlation 0.985 over one-second blocks).  So a timer signal
runs a short fixed reference loop every `INTERVAL_S` seconds, in the main
thread between bytecodes, and records how long it took.  A timed interval
is then reported as its length minus the reference loops that ran inside it,
scaled by the mean of `REFERENCE_S / loop time` over the loops near it: the
interval's time on a machine that runs the loop in `REFERENCE_S`.

The loop uses only the standard library and runs with the garbage collector
off, so no change to twistrb can change its time; a change to the library
moves a scaled time exactly as it moves the raw one.
"""
from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.25
# Loops whose midpoints lie within this distance of a timed interval set its scale.
WINDOW_S = 0.5
# The loop's time on the reference machine: a 2-vCPU cloud VM in its fast state.
REFERENCE_S = 0.004


def reference_loop() -> Fraction:
    """Fixed pure-Python Fraction arithmetic, like the library's inner loops."""
    acc = Fraction(0)
    for k in range(1, 1000):
        acc += Fraction(k % 7 - 3, k % 5 + 1) * Fraction(3, k % 11 + 2)
    return acc


class SpeedProbe:
    """Runs `reference_loop` on SIGALRM every INTERVAL_S s between start() and stop()."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.mids.append((t0 + t1) / 2)

    def start(self) -> None:
        reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def loop_time(self) -> float:
        """Median reference-loop time over the run."""
        d = sorted(e - s for s, e in zip(self.starts, self.ends))
        return d[len(d) // 2] if d else float("nan")

    def scaled(self, a: float, b: float) -> float:
        """Seconds of work in [a, b] at the reference speed."""
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        inside = sum(min(b, e) - max(a, s) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        i = bisect.bisect_left(self.mids, a - WINDOW_S)
        j = bisect.bisect_right(self.mids, b + WINDOW_S)
        if i == j:
            raise RuntimeError(f"no reference loop ran within {WINDOW_S} s of a timed interval")
        factor = sum(REFERENCE_S / (self.ends[k] - self.starts[k]) for k in range(i, j)) / (j - i)
        return (b - a - inside) * factor
