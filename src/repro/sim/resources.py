"""Queueing primitives: FIFO stores and counted resources.

These are the building blocks for hardware queues (NVMe submission queues,
NIC queue pairs) and for mutual exclusion (per-core run queues, the single
in-flight-request constraint of the synchronous baselines).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import (
    _GRANTED,
    _TRIGGERED,
    Environment,
    Event,
    SimulationError,
)

__all__ = ["Store", "Resource"]


class Store:
    """An unbounded (or bounded) FIFO channel between processes.

    ``put(item)`` returns an event that fires once the item is accepted;
    an item accepted at once gets the already-processed granted marker, so
    it schedules nothing.  ``get()`` returns an event that fires with the
    oldest item once one is available.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying blocked items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            return _GRANTED
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return _GRANTED
        event = Event(self.env)
        event._blocked_item = item  # type: ignore[attr-defined]
        self._putters.append(event)
        return event

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_blocked_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: the oldest item, or None if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_blocked_putter()
        return item

    def _admit_blocked_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter = self._putters.popleft()
            self._items.append(putter._blocked_item)  # type: ignore[attr-defined]
            putter.succeed()


class _Grant(Event):
    """A queued request: fires when :meth:`Resource.release` hands it the
    slot."""

    __slots__ = ("resource",)

    def _abandon(self) -> None:
        """Called by ``Process.interrupt`` on the waiter it detaches.  A
        still-queued request leaves the queue; a grant that already fired
        (release at this same timestamp, before the waiter resumed) gives
        its slot straight back instead of leaking it."""
        if self._state == _TRIGGERED:
            self.resource.release()
        else:
            self.resource._waiters.remove(self)


class Resource:
    """A counted resource with FIFO grant order (like a semaphore).

    ``request()`` yields an event that fires when a slot is granted;
    ``release()`` frees one slot.  Used to model limited hardware
    concurrency (e.g. flash chips, DMA engines).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Request a slot; yield the returned event *immediately*.

        A free slot is taken at once and the shared granted marker is
        returned: the yielding process continues in the same step, with
        no event scheduled, so the slot is held from this call.  Otherwise
        the request queues FIFO; interrupting the waiting process takes it
        out of the queue (or hands back a grant that already fired).
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return _GRANTED
        event = _Grant(self.env)
        event.resource = self
        self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()``."""
        yield self.request()
