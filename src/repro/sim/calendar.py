"""Calendar-queue scheduler with batched same-timestamp dispatch.

:class:`CalendarEnvironment` is a drop-in :class:`~repro.sim.engine.
Environment` with a different scheduling core tuned for the shape of
storage workloads: huge numbers of timeouts, heavily clustered on shared
timestamps (every completion in an interrupt batch, every tenant arrival
in a tick).  Instead of one binary-heap entry per timeout it keeps

* ``_buckets``: a dict mapping each *exact* timestamp to the FIFO list of
  timeouts scheduled for it.  Event ids grow monotonically, so a bucket
  is eid-ordered by construction — batched dispatch walks it by index
  with no heap traffic at all;
* ``_times``: a small heap of distinct timestamps (one push per *new*
  timestamp, not per event);
* the inherited ``_heap`` for everything that is not a timeout
  (``succeed``/``fail`` wakeups, process completions), so non-timeout
  scheduling is byte-for-byte the engine's.

The run loop merges the two streams by ``(time, eid)`` — exactly the
order the heap engine dispatches in — so results are **bit-identical**
to :class:`~repro.sim.engine.Environment` (asserted against real
saturation cells in ``tests/sim/test_calendar.py``).  On top of the
bucketing, the loop inlines the overwhelmingly common dispatch case
(event's sole callback resumes a process) straight into the generator
``send``, eliminating the ``_resume``/``_step`` call frames that
dominate the serial profile.

Pick it via ``engine="calendar"`` on :func:`repro.harness.saturate.
probe_saturation` / ``repro saturate --engine calendar``, or construct
one directly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional

from repro.sim.engine import (
    _CANCELLED,
    _GRANTED,
    _PENDING,
    _PROCESSED,
    _RESUME,
    Event,
    Interrupt,
    Environment,
    SimulationError,
    Timeout,
)

__all__ = ["CalendarEnvironment"]

_INF = float("inf")


class CalendarEnvironment(Environment):
    """Bucketed-timestamp scheduler behind the ``Environment`` API."""

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        #: timestamp -> [(eid, Timeout), ...] in eid (arrival) order.
        self._buckets: dict = {}
        #: Heap of bucket timestamps (one entry per live bucket; stale
        #: entries from consumed buckets are stripped lazily).
        self._times: List[float] = []
        #: Total entries across all buckets (live + cancelled).
        self._bucket_count = 0

    # -- scheduling structures ---------------------------------------------

    def _bucket_insert(self, timeout: Timeout, when: float) -> None:
        """Called by ``Timeout.__init__`` instead of a heappush."""
        bucket = self._buckets.get(when)
        eid = next(self._eid)
        if bucket is None:
            self._buckets[when] = [(eid, timeout)]
            heappush(self._times, when)
        else:
            bucket.append((eid, timeout))
        self._bucket_count += 1

    def timeout(self, delay: float, value=None) -> Timeout:
        """Build + schedule a timeout in one frame.

        This is the single most-executed call in the simulator; the
        generic path costs three frames (factory, ``Timeout.__init__``,
        ``_bucket_insert``).  Field writes and bucket insert are identical
        to those paths — eid allocation order included, which is what
        keeps dispatch order bit-identical to the heap engine.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._state = 1  # _TRIGGERED
        t._ok = True
        t._value = value
        t.delay = delay
        when = self._now + delay
        eid = next(self._eid)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(eid, t)]
            heappush(self._times, when)
        else:
            bucket.append((eid, t))
        self._bucket_count += 1
        return t

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (self._cancelled > 64
                and self._cancelled * 2 > len(self._heap) + self._bucket_count):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the heap *and* the buckets.

        Bucket lists are filtered in place (the batched run loop walks the
        current bucket by index after popping it out of the dict, so dict
        surgery here can never touch the list being dispatched).
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[2]._state != _CANCELLED]
        heapify(self._heap)
        buckets = self._buckets
        for when in list(buckets):
            bucket = buckets[when]
            bucket[:] = [entry for entry in bucket
                         if entry[1]._state != _CANCELLED]
            if not bucket:
                del buckets[when]
        self._bucket_count = sum(len(b) for b in buckets.values())
        self._times[:] = buckets.keys()
        heapify(self._times)
        self._cancelled = 0

    def live_heap_size(self) -> int:
        return len(self._heap) + self._bucket_count - self._cancelled

    # -- single-step interface (run_until_event and friends) ---------------

    def _next_bucket(self):
        """(time, bucket) of the earliest live bucket entry, or (None,
        None).  Consumes cancelled prefixes and empty buckets."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets.get(t)
            while bucket and bucket[0][1]._state == _CANCELLED:
                del bucket[0]
                self._cancelled -= 1
                self._bucket_count -= 1
            if bucket:
                return t, bucket
            buckets.pop(t, None)
            heappop(times)
        return None, None

    def peek(self) -> float:
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        b_t, _bucket = self._next_bucket()
        h_t = heap[0][0] if heap else None
        if h_t is None:
            return b_t if b_t is not None else _INF
        if b_t is None:
            return h_t
        return h_t if h_t < b_t else b_t

    def step(self) -> None:
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        b_t, bucket = self._next_bucket()
        h_t = heap[0][0] if heap else None
        if h_t is None and b_t is None:
            raise SimulationError("no more events to step")
        if b_t is None or (h_t is not None
                           and (h_t < b_t
                                or (h_t == b_t
                                    and heap[0][1] < bucket[0][0]))):
            when, _eid, event = heappop(heap)
        else:
            when = b_t
            event = bucket[0][1]
            del bucket[0]
            self._bucket_count -= 1
            if not bucket:
                self._buckets.pop(when, None)
                heappop(self._times)
        self._now = when
        event._state = _PROCESSED
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for callback in callbacks:
                callback(event)

    # -- the batched run loop ----------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Merge-dispatch both streams by ``(time, eid)``, one timestamp
        batch at a time, with the process-resume case inlined."""
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        heap = self._heap
        times = self._times
        buckets = self._buckets
        pop = heappop
        while True:
            while heap and heap[0][2]._state == _CANCELLED:
                pop(heap)
                self._cancelled -= 1
            h_t = heap[0][0] if heap else _INF
            while times and times[0] not in buckets:
                pop(times)  # stale: bucket consumed or compacted away
            b_t = times[0] if times else _INF
            t = h_t if h_t <= b_t else b_t
            if t == _INF or (until is not None and t > until):
                break
            self._now = t
            # Own the bucket for this timestamp: once out of the dict,
            # cancel()-triggered compaction cannot reshuffle it under the
            # index walk.  Same-timestamp arrivals during dispatch create
            # a fresh bucket (with strictly larger eids) that is adopted
            # when this one drains — merge order stays exact.
            bucket = buckets.pop(t, None)
            i = 0
            while True:
                while heap and heap[0][2]._state == _CANCELLED:
                    pop(heap)
                    self._cancelled -= 1
                h_ready = bool(heap) and heap[0][0] == t
                while bucket is not None:
                    if i < len(bucket):
                        if bucket[i][1]._state == _CANCELLED:
                            i += 1
                            self._cancelled -= 1
                            self._bucket_count -= 1
                            continue
                        break
                    bucket = buckets.pop(t, None)
                    i = 0
                b_ready = bucket is not None and i < len(bucket)
                if h_ready and (not b_ready or heap[0][1] < bucket[i][0]):
                    event = pop(heap)[2]
                elif b_ready:
                    event = bucket[i][1]
                    i += 1
                    self._bucket_count -= 1
                else:
                    break
                event._state = _PROCESSED
                cbs = event.callbacks
                if not cbs:
                    continue
                event.callbacks = []
                if (len(cbs) == 1
                        and getattr(cbs[0], "__func__", None) is _RESUME):
                    # Fast path: the sole callback resumes a process.
                    # Inline _resume + _step (send/throw, park on the next
                    # yielded event) without the two call frames.
                    cb = cbs[0]
                    proc = cb.__self__
                    if proc._state != _PENDING:
                        continue
                    proc._waiting_on = None
                    proc._pending_resume = None
                    self._active_process = proc
                    gen = proc._generator
                    try:
                        if event._ok:
                            target = gen.send(event._value)
                        else:
                            target = gen.throw(event._value)
                    except StopIteration as stop:
                        self._active_process = None
                        proc.succeed(stop.value)
                        continue
                    except Interrupt:
                        self._active_process = None
                        proc.succeed(None)
                        continue
                    except BaseException:
                        self._active_process = None
                        raise
                    self._active_process = None
                    if target is _GRANTED:
                        # Uncontended grant: continue in-step, exactly
                        # as Process._step does on the heap engine.
                        proc._step()
                    elif isinstance(target, Event):
                        if target._state != _PROCESSED:
                            proc._waiting_on = target
                            target.callbacks.append(cb)
                        else:
                            proc._wait_for(target)
                    else:
                        proc._step(throw=TypeError(
                            f"process yielded a non-event: {target!r}"))
                    continue
                for callback in cbs:
                    callback(event)
        if self.live_heap_size() == 0:
            # Nothing live can ever fire again: a watched waiter is stuck.
            self._raise_if_deadlocked()
        if until is not None:
            self._now = until
