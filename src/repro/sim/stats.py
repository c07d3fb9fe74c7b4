"""Measurement helpers: throughput, latency distributions, CPU busy time.

The paper reports throughput (IOPS / MB/s / ops/s), average and 99th
percentile latency, and "CPU efficiency" defined in §6.1 as throughput
divided by CPU utilization where utilization is sampled the way ``top``
reports it.  :class:`BusyTracker` reproduces that definition by integrating
busy virtual time per core.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.sim.engine import Environment

__all__ = ["Counter", "LatencyRecorder", "ThroughputMeter", "BusyTracker"]


class Counter:
    """A named monotonically increasing event counter."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


class LatencyRecorder:
    """Collects individual operation latencies (seconds)."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self._samples.append(latency)

    @classmethod
    def merged(cls, recorders) -> "LatencyRecorder":
        """One recorder holding every sample of ``recorders``."""
        out = cls()
        for recorder in recorders:
            out._samples.extend(recorder._samples)
        return out

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0


class ThroughputMeter:
    """Counts completed operations/bytes over a measurement window."""

    def __init__(self, env: Environment):
        self.env = env
        self._ops = 0
        self._bytes = 0
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None

    def start_window(self) -> None:
        """Begin measuring; completions before this are warm-up."""
        self._window_start = self.env.now
        self._ops = 0
        self._bytes = 0

    def stop_window(self) -> None:
        self._window_end = self.env.now

    def complete(self, nbytes: int = 0, ops: int = 1) -> None:
        if self._window_start is None or self._window_end is not None:
            return  # outside the measurement window
        self._ops += ops
        self._bytes += nbytes

    @property
    def elapsed(self) -> float:
        if self._window_start is None:
            return 0.0
        end = self._window_end if self._window_end is not None else self.env.now
        return max(0.0, end - self._window_start)

    @property
    def ops(self) -> int:
        return self._ops

    @property
    def ops_per_sec(self) -> float:
        return self._ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def bytes_per_sec(self) -> float:
        return self._bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mb_per_sec(self) -> float:
        return self.bytes_per_sec / 1e6


class BusyTracker:
    """Integrates busy time so utilization matches what ``top`` reports.

    Components call ``begin()``/``end()`` around CPU work.  Nested sections
    are allowed (a core running the block layer inside an interrupt handler)
    and count once — wall-clock busy time, not a sum over sections.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._depth = 0
        self._busy_since = 0.0
        self._busy_total = 0.0
        self._window_start: Optional[float] = None
        self._window_busy_base = 0.0
        self._window_end: Optional[float] = None
        self._window_end_busy: Optional[float] = None

    def begin(self) -> None:
        if self._depth == 0:
            self._busy_since = self.env.now
        self._depth += 1

    def end(self) -> None:
        if self._depth <= 0:
            raise RuntimeError("BusyTracker.end() without begin()")
        self._depth -= 1
        if self._depth == 0:
            self._busy_total += self.env.now - self._busy_since

    def _busy_now(self) -> float:
        running = self.env.now - self._busy_since if self._depth > 0 else 0.0
        return self._busy_total + running

    def start_window(self) -> None:
        self._window_start = self.env.now
        self._window_busy_base = self._busy_now()
        self._window_end = None
        self._window_end_busy = None

    def stop_window(self) -> None:
        self._window_end = self.env.now
        self._window_end_busy = self._busy_now()

    @property
    def busy_time(self) -> float:
        """Busy seconds inside the measurement window."""
        if self._window_start is None:
            return self._busy_now()
        end_busy = (
            self._window_end_busy
            if self._window_end_busy is not None
            else self._busy_now()
        )
        return end_busy - self._window_busy_base

    def utilization(self) -> float:
        """Busy fraction of the window (0..1)."""
        if self._window_start is None:
            if self.env.now <= 0:
                return 0.0
            return self._busy_now() / self.env.now
        end = self._window_end if self._window_end is not None else self.env.now
        elapsed = end - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed
