"""Machine-speed gauge for untraced runs.

The speed of the machine the benchmark runs on is not constant: on a
shared host, the same exploration takes 4.7 s in one minute and 9 s a
few minutes later.  Such drift would swamp any change to the program,
so every untraced run also measures the machine while it runs, with a
fixed piece of reference work that runs no program code and resembles
the workload's own cost:

* tasks that run in the worker's process: a ``SIGALRM`` interval timer
  interrupts them every :data:`INTERVAL_S` of wall time and the handler
  times one :func:`reference_unit` of interpreter work;
* tasks that run in child processes (the CLI workload, whose cost is
  mostly interpreter start-up): after each task the worker times one
  :func:`interpreter_start`, so the reference never competes with the
  child.

A task's *scaled* time is its wall time, less the handler's own time,
times its ``speed``: the reference's nominal time over the median time
of the samples taken during the task and within :data:`WINDOW_S` of it.
It estimates the task's wall time on a machine where the reference takes
its nominal time.  A change to the program moves it exactly as it moves
the wall time; a change in the machine's speed during the run largely
cancels out.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import subprocess
import sys
import time

#: wall time between two timer samples
INTERVAL_S = 0.25
#: a task's speed is the median over the samples taken during it and
#: this long before and after it (single samples are noisy)
WINDOW_S = 1.0
#: median times of the two references on the machine the numbers in
#: bench/README.md were measured on
UNIT_NOMINAL_S = 0.0045
START_NOMINAL_S = 0.034

_KEYS = [(i, f"k{i}") for i in range(4096)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_SHUFFLED = random.Random(0).sample(_KEYS, len(_KEYS))


def _lookups(rounds: int) -> int:
    total = 0
    for _ in range(rounds):
        for key in _SHUFFLED:
            total += _TABLE[key] & 7
    return total


def reference_unit() -> float:
    """Seconds for 65536 lookups of tuple keys in a 4096-entry dict.  It
    allocates no GC-tracked object, so the program's collector is
    undisturbed, and touches its data once before the clock starts, so
    its time does not depend on what the program left in the caches."""
    _lookups(1)
    t0 = time.perf_counter()
    _lookups(16)
    return time.perf_counter() - t0


def interpreter_start() -> float:
    """Seconds to start and stop a bare interpreter (``python -c pass``).
    Output is captured: with a timeout and no pipes, ``subprocess`` would
    poll for the exit with sleeps of up to 50 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Gauge:
    """Samples the reference while active (a context manager): from a
    timer signal for ``in_process`` tasks, else when the caller calls
    :meth:`sample` between tasks."""

    def __init__(self, in_process: bool):
        self.timer = in_process
        self._reference, self._nominal = (
            (reference_unit, UNIT_NOMINAL_S) if in_process
            else (interpreter_start, START_NOMINAL_S))
        #: end time and duration of every sample, in order
        self.times: list[float] = []
        self.samples: list[float] = []
        #: total seconds spent sampling
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Gauge":
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = self._reference()
        self.times.append(time.perf_counter())
        self.samples.append(seconds)
        self.spent += self.times[-1] - t0

    def speed(self, t0: float | None = None,
              t1: float | None = None) -> float:
        """Speed relative to the nominal machine over ``[t0, t1]``
        widened by :data:`WINDOW_S` on each side (default: the whole
        run)."""
        samples = self.samples
        if t0 is not None:
            lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
            samples = samples[lo:hi] or samples[max(0, lo - 1):lo]
        return self._nominal / statistics.median(samples)
