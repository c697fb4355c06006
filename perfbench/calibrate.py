"""Reference kernel that tracks how fast the machine runs from moment to moment.

The shared 2-core hosts this benchmark runs on move between fast and slow
states: the same computation takes up to twice as long in a slow one, and a
state lasts from seconds to minutes, longer than averaging inside a run can
cover.  The timed run therefore runs a fixed kernel, built from the standard
library only, just before and just after every timing and, where the work runs
in this process, every INTERVAL_S from a timer signal, so also inside a long
request.  Each timing is scaled by

    REF_NOMINAL_S / (mean time of the kernel runs before, inside and after it)

and the kernel runs inside it are subtracted from it.  A reported time is the
time the engine would take on a machine on which the kernel takes
REF_NOMINAL_S.  The kernel never calls the engine, so a change to the engine
moves the scaled times by the same factor as the raw ones; the raw times are
printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

REF_NOMINAL_S = 1e-3
INTERVAL_S = 0.1

_N = 9
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + (9 if i == j else 0)
            for j in range(_N)] for i in range(_N)]


def kernel() -> Fraction:
    """Exact Gaussian elimination of a fixed 9x9 rational matrix (about 1 ms)."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for k in range(_N):
        pivot = a[k][k]
        det *= pivot
        for i in range(k + 1, _N):
            f = a[i][k] / pivot
            for j in range(k, _N):
                a[i][j] -= f * a[k][j]
    return det


class Speedometer:
    """Context manager: runs the kernel just before and just after every
    ``span`` and, with ``timer``, every INTERVAL_S from a timer signal while
    active.

    ``stolen`` is the total time the timer's kernel runs have taken, and
    ``scale`` the factor of the last span.
    """

    def __init__(self, timer: bool) -> None:
        self.timer = timer
        self.times: list[float] = []
        self.stolen = 0.0
        self.scale = 1.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.times.append(took)
        self.stolen += took

    def _probe(self) -> float:
        stolen, start = self.stolen, time.perf_counter()
        kernel()
        return time.perf_counter() - start - (self.stolen - stolen)

    def __enter__(self) -> "Speedometer":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def span(self):
        """Yields a namespace whose ``stolen`` is set, on exit, to the kernel
        time inside the body; sets ``scale`` from the kernel runs just before,
        inside and just after the body."""
        before = self._probe()
        first, stolen = len(self.times), self.stolen
        out = SimpleNamespace(stolen=0.0)
        yield out
        out.stolen = self.stolen - stolen
        inside = self.times[first:]
        self.scale = REF_NOMINAL_S / statistics.fmean(inside + [before, self._probe()])
