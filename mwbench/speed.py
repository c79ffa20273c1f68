"""Reference-speed normalization of measured times.

On a virtual machine whose cores are shared with other tenants (a 2-core
Xeon KVM guest, for one) the speed switches between states up to 1.8x
apart within fractions of a second, and every pure-Python computation
speeds up and slows down together.  So while the worker runs, an interval
timer interrupts it every ``PERIOD_S`` seconds and times a fixed
pure-Python probe (big-integer arithmetic, tuple and dictionary work, like
the library's own hot loops).  A probe taking ``p`` seconds means the
machine runs at ``NOMINAL_PROBE_S / p`` of the reference speed at that
moment.  This module imports nothing the library imports, so that set-up
can be probed from its first line.

A job's reported time is its own time (the probes it was interrupted by
taken out) times the mean speed the probes saw while it ran, so a reported
second is a second at the reference speed.  A change to the library moves
the job times, not the probes.  Raw times are reported beside the
normalized ones.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

NOMINAL_PROBE_S = 0.00025
PERIOD_S = 0.025
# A job shorter than a few periods holds too few probes of its own; it is
# scaled by the probes within this many seconds of it.
MIN_PROBES = 8
WINDOW_S = 0.25


def _probe() -> int:
    acc = 1
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 300):
        acc = acc * (i % 13 + 2) // (i % 7 + 1) + i
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + acc % 1009
    return acc


class SpeedProbe:
    """Timer-driven probes of the machine's speed, and the scaling they imply."""

    def __init__(self):
        self.stamps: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds spent inside probes so far

    def _on_timer(self, _signum, _frame) -> None:
        start = perf_counter()
        _probe()
        end = perf_counter()
        self.stamps.append(start)
        self.speeds.append(NOMINAL_PROBE_S / (end - start))
        self.spent += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over [start, end]."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < MIN_PROBES:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:  # no probe near: take the nearest one
            k = min(lo, len(self.stamps) - 1)
            return self.speeds[k]
        return sum(self.speeds[lo:hi]) / (hi - lo)

    def overall(self) -> float:
        return sum(self.speeds) / len(self.speeds)
