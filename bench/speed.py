"""Operation times at a fixed reference speed of the machine.

The machine this benchmark was written on changes speed by a factor up to 1.8
within seconds and drifts by a further tenth over minutes; CPU time follows
wall time, so the slowdown is the hardware's, not the scheduler's.  A run's
plain wall times therefore measure how much of each phase it caught more than
they measure the program.

``Clock`` runs a fixed reference computation (exact Gaussian elimination over
``Fraction``, the kind of work gcdeform does, but none of gcdeform's code)
before and after every timed call and, from an interval timer, every TICK_S
of wall time inside it.  The call's wall time, less the time the timer took,
is scaled by REFERENCE_S over the mean of those reference times: the call's
time on a machine where the reference takes REFERENCE_S.  The timer is a
signal handler in the one thread, so it starts no thread or process.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.003  # the reference computation's time at the reference speed
TICK_S = 0.04  # wall time between two references inside a timed call

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(8)] for _ in range(8)]


def _eliminate(matrix: list[list[Fraction]]) -> int:
    rows = [list(r) for r in matrix]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_s() -> float:
    """Wall time of one reference computation (two eliminations of _MATRIX)."""
    start = time.perf_counter()
    _eliminate(_MATRIX)
    _eliminate(_MATRIX)
    return time.perf_counter() - start


class Clock:
    """Times calls at the reference speed; use as a context manager.

    With ``tick`` the interval timer runs while the clock is open; traced runs
    leave it off, since its time would land in the spans of the call."""

    def __init__(self, tick: bool = True) -> None:
        self.tick = tick
        self.refs: list[float] = []  # reference times between calls
        self.ticks: list[float] = []  # reference times taken by the timer
        self.tick_s = 0.0  # wall time spent in the timer's handler
        self._busy = False

    def __enter__(self) -> "Clock":
        for _ in range(3):  # the first runs are slower: warm the reference up
            reference_s()
        if self.tick:
            self._previous = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.refs.append(self._reference())
        return self

    def __exit__(self, *exc) -> None:
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_tick(self, signum, frame) -> None:
        if self._busy:  # a tick that falls inside a reference is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.ticks.append(reference_s())
        self.tick_s += time.perf_counter() - start
        self._busy = False

    def _reference(self) -> float:
        self._busy = True
        try:
            return reference_s()
        finally:
            self._busy = False

    def time(self, fn, *args):
        """Call ``fn(*args)``; returns (result, wall seconds, seconds at the
        reference speed).  The reference also runs when ``fn`` raises."""
        first, spent = len(self.ticks), self.tick_s
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start - (self.tick_s - spent)
            inside = self.ticks[first:]
            self.refs.append(self._reference())
        refs = [self.refs[-2], *inside, self.refs[-1]]
        return result, wall, wall * REFERENCE_S * len(refs) / sum(refs)
