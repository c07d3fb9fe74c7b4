"""Host time in reference-host seconds.

A shared host's speed can swing (on the 2-core reference host) by
+-25% and more over seconds: the same cell takes 0.29 s in one minute
and 0.36 s in the next.  Those swings hit any code alike, so each timed
call is bracketed by two short fixed loops and its wall time is divided
by how slow they ran around it:

* a compute loop: heap pushes and pops, generator sends, dict updates
  (the engine's own kinds of work), which swings about 1.5x as much as
  the simulator does;
* a memory loop: a pointer chase through an 8 MB array, which swings
  about 1.4x less.

Their geometric mean tracks the simulator's swings with an elasticity
near 1.  A cell's time relative to the loops depends on the simulator's
code, not on the host's momentary load.  ``COMPUTE_REF_S`` and
``MEMORY_REF_S`` are the loops' median times on the reference host
(2 cores, Python 3.11.7), so reference seconds read as wall seconds on
that host at its median speed.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from array import array
from typing import Any, Callable, List, Tuple

#: Median loop times on the reference host, seconds.
COMPUTE_REF_S = 3.8e-3
MEMORY_REF_S = 2.5e-3
COMPUTE_STEPS = 3000
MEMORY_STEPS = 12000
MEMORY_WORDS = 1 << 20


def _compute_loop() -> None:
    heap: list = []
    sums: dict = {}

    def accumulate():
        total = 0
        while True:
            total += yield total

    acc = accumulate()
    next(acc)
    for i in range(COMPUTE_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1000, i, None))
        sums[i % 97] = sums.get(i % 97, 0) + acc.send(i)
        if len(heap) > 64:
            heapq.heappop(heap)


def _chain() -> array:
    """A full-period LCG over the array's indices: one pseudo-random
    cycle through every word."""
    mask = MEMORY_WORDS - 1
    return array("q", ((i * 1103515245 + 12345) & mask
                       for i in range(MEMORY_WORDS)))


def _memory_loop(chain: array) -> None:
    index = 0
    for _ in range(MEMORY_STEPS):
        index = chain[index]


class Calibrator:
    """Runs the two loops; owns the memory loop's array."""

    def __init__(self) -> None:
        self._chain = _chain()

    def slowness(self) -> float:
        """How much slower than on the reference host the loops ran just
        now (1.0 = reference median)."""
        started = time.perf_counter()
        _compute_loop()
        middle = time.perf_counter()
        _memory_loop(self._chain)
        ended = time.perf_counter()
        return math.sqrt((middle - started) / COMPUTE_REF_S
                         * (ended - middle) / MEMORY_REF_S)


class Clock:
    """Times calls.  The loops run once between consecutive calls; a
    call's scale comes from the four runs nearest to it (two on each
    side), whose median rides out the jitter of any single run while
    still following the host's swings, which last seconds."""

    def __init__(self) -> None:
        self._calibrator = Calibrator()
        self.slowness: List[float] = [self._calibrator.slowness()]

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, int]:
        """Run ``fn``; return (result, wall seconds, call index).  Once
        the loops after it have run, ``wall * scale(index)`` is in
        reference-host seconds."""
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - started
            self.slowness.append(self._calibrator.slowness())
        return result, wall, len(self.slowness) - 2

    def scale(self, index: int) -> float:
        """Reference seconds per wall second around call ``index``."""
        nearest = self.slowness[max(0, index - 1):index + 3]
        return 1.0 / statistics.median(nearest)
