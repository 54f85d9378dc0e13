"""Host-speed meter: the yardstick that the benchmark's times are read in.

The benchmark's host is a small virtual machine on a shared machine, and
its speed wanders: the same query takes anywhere from 1x to 2x its best
time, in phases that last from seconds to minutes. A time read off the
clock therefore measures the host as much as the program, and the median
of a run does not average the swing away. A probe run before or after a
query does not track it either, because the speed changes within seconds.

So the benchmark pins itself and its children to one CPU, and a thread
of its own process runs a fixed unit of interpreter work (tuple-keyed
dict stores, Fraction and small-int arithmetic, the kinds of work brmult
does) over and over while the query runs. The thread runs at a low
priority, so it gets short slices of the CPU between the query's slices
and sees the host as the query does at the same moments. Its *speed* is
units per second of its own CPU time. A query's *metered* time is its
CPU time times the meter's speed over ``REFERENCE_RATE``: the seconds the
query would have taken on a host where the meter does that many units a
second. The unit is fixed code of the benchmark's own, so no change to
the program being measured moves it.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from bisect import bisect_left
from fractions import Fraction

# Meter units per CPU second of a calm host; sets the scale of metered
# times only. It makes a metered second about a clock second of a query
# that has a CPU to itself in a calm phase of a 2-vCPU virtual machine.
REFERENCE_RATE = 900.0
# The meter's niceness: the query keeps most of the CPU.
NICE = 10
# The speed for an interval is taken over the interval and WINDOW_S
# seconds before it, and over at least MIN_UNITS units.
WINDOW_S = 1.0
MIN_UNITS = 20
_WIDTH = 300


def unit() -> int:
    """A fraction of a millisecond of the interpreter work brmult does."""
    table = {}
    acc = 0
    for i in range(_WIDTH):
        table[(i, i & 7, i % 3)] = Fraction(i, 3) + 1
        acc += i * i % 7
    return acc + len(table)


class Meter:
    """Runs ``unit`` in a thread from ``__enter__`` to ``__exit__``.

    After each unit it records the thread's CPU time and then the
    monotonic time, so every stamp has its CPU time.
    """

    def __init__(self):
        self.cpu = array("d")
        self.stamps = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-meter", daemon=True)

    def __enter__(self) -> "Meter":
        self._thread.start()
        while len(self.stamps) < MIN_UNITS and self._thread.is_alive():
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        while not self._stop.is_set():
            unit()
            self.cpu.append(time.thread_time())
            self.stamps.append(time.monotonic())

    def speed(self, start: float, end: float) -> float:
        """Units per CPU second of the meter around the interval ``start``..``end``."""
        j = bisect_left(self.stamps, end)
        i = max(0, min(bisect_left(self.stamps, start - WINDOW_S), j - MIN_UNITS))
        return (j - 1 - i) / (self.cpu[j - 1] - self.cpu[i])

    def read(self, outcome) -> tuple:
        """Metered (wall, setup) seconds of a finished child."""
        scale = self.speed(outcome.start, outcome.end) / REFERENCE_RATE
        return outcome.cpu * scale, outcome.cpu_setup * scale

    def rate(self, start: float, end: float) -> float:
        """Units per clock second between ``start`` and ``end``."""
        return (bisect_left(self.stamps, end) - bisect_left(self.stamps, start)) / (end - start)


class Clock:
    """Reads children off the clock; traced runs use it in place of a Meter."""

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def read(self, outcome) -> tuple:
        return outcome.wall, outcome.setup

    def rate(self, start: float, end: float) -> None:
        return None
