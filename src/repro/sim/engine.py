"""Event-heap scheduler and generator-based processes.

The engine models virtual time in **seconds** (floats).  All hardware and
protocol latencies in the reproduction are expressed in seconds so that
throughput numbers come out directly in operations per second.

The programming model is cooperative coroutines::

    def worker(env):
        yield env.timeout(1e-6)          # wait 1 microsecond
        result = yield some_event        # wait for an event, receive value

    env = Environment()
    env.process(worker(env))
    env.run(until=1.0)

Events may *succeed* (carrying a value) or *fail* (carrying an exception,
which is re-raised inside every waiting process).  A :class:`Process` is
itself an event that fires when the generator returns, so processes can wait
on each other.

Performance notes
-----------------

This module is the host-side hot path of every experiment: a figure sweep
processes tens of millions of events, each of which allocates an
:class:`Event` (or :class:`Timeout`), pushes and pops a heap entry and runs
a callback.  The implementation therefore trades a little uniformity for
speed:

* every event class declares ``__slots__`` (no per-instance dict; faster
  attribute access and much less allocator pressure).  The ``bio`` and
  ``_blocked_item`` slots exist so higher layers (the ordered stacks and
  :mod:`repro.sim.resources`) can annotate events without re-introducing a
  ``__dict__``;
* :class:`Timeout` bypasses ``Event.__init__``/``succeed`` and schedules
  itself with one direct ``heappush`` — it is the single most-allocated
  object in the simulator;
* :meth:`Environment.run` inlines the pop-advance-dispatch loop (what
  :meth:`Environment.step` does once) with the heap and ``heappop`` bound
  to locals, and only swaps an event's callback list when it is non-empty;
* an uncontended ``Resource.request()`` (and an accepted ``Store.put``)
  returns the shared, already-processed ``_GRANTED`` marker, and
  :meth:`Process._step` continues the generator in the same step when it
  is yielded: no event, no heap entry, no event id.  This is why a
  request must be yielded *immediately*: the slot is held from the call;
* :meth:`Environment.spawn` starts a process nobody can wait on, whose end
  pushes no completion entry (an exception still propagates out of
  :meth:`Environment.run`).

An in-step continuation runs before same-timestamp events already queued,
where the dropped hop ran after them.  Exactness is therefore verified, not
proven: every golden, figure table, check verdict and
``perfbench/references.json`` digest is the test; a moved digest means the
fast path must narrow.  ``tests/sim/test_engine.py``,
``tests/sim/test_fast_paths.py`` and ``tests/harness/test_sweep.py`` pin
the semantics down.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "SimDeadlock",
    "Interrupt",
    "Event",
    "Timeout",
    "Condition",
    "Process",
    "Environment",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class SimDeadlock(SimulationError):
    """The event heap drained while liveness-watched waiters were pending.

    Virtual time has no external inputs: once the heap is empty nothing can
    ever fire a pending event, so a drained heap with registered waiters is
    a genuine deadlock (e.g. a completion orphaned by a dropped message).
    Components register must-fire events via
    :meth:`Environment.watch_liveness` to turn silent hangs into this
    diagnosable failure.
    """


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value given to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, callbacks not yet run
_PROCESSED = 2  # callbacks have run
_CANCELLED = 3  # heap entry is dead; the run loop skips it


class Event:
    """A one-shot occurrence in virtual time that processes can wait on."""

    __slots__ = (
        "env",
        "callbacks",
        "_state",
        "_ok",
        "_value",
        # Annotation slots for higher layers (see module docstring).
        "bio",
        "_blocked_item",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._ok = True
        self._value: Any = None

    # -- inspection -------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters have been resumed)."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the failure exception)."""
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        heappush(env._heap, (env._now, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; ``exception`` is raised in waiters."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        heappush(env._heap, (env._now, next(env._eid), self))
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


#: The shared granted marker (see the performance notes above).  Its
#: callback list is a tuple, so registering on it fails loudly.
_GRANTED = Event(None)
_GRANTED.callbacks = ()
_GRANTED._state = _PROCESSED


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay.

    Timeouts are born triggered: the constructor writes the five event
    fields directly and pushes one heap entry, skipping the generic
    ``__init__``/``succeed`` path (this is the hottest allocation site in
    the whole simulator).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        self.delay = delay
        if env._buckets is None:
            heappush(env._heap, (env._now + delay, next(env._eid), self))
        else:
            # Calendar scheduler (repro.sim.calendar): exact-timestamp
            # buckets instead of one heap entry per timeout.
            env._bucket_insert(self, env._now + delay)

    def cancel(self) -> None:
        """Disarm a timeout that lost a race (e.g. the other arm of an
        ``any_of`` fired first).

        The heap entry cannot be removed cheaply, so the timeout is marked
        dead and the run loop skips it without advancing the clock; once
        enough dead entries accumulate the environment compacts the heap in
        one pass.  Without this, every completed watchdog arm would stay a
        live heap entry until its expiry time — a real leak on long runs.
        No-op if the timeout already fired.

        Cancellation is a *condition-visible* terminal state: a
        :class:`Condition` watching this timeout is told the member can
        never fire (so an ``all_of`` over a cancelled arm fails loudly
        instead of hanging forever).  Other registered callbacks are
        dropped — a waiter that truly depends on the timeout should be
        liveness-watched, which turns the hang into :class:`SimDeadlock`.
        """
        if self._state != _TRIGGERED:
            return
        self._state = _CANCELLED
        callbacks = self.callbacks
        self.callbacks = []
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Condition):
                owner._on_member_cancelled(self)
        self.env._note_cancelled()


class Condition(Event):
    """Fires when ``evaluate`` says enough of the watched events fired.

    Used for :meth:`Environment.all_of` and :meth:`Environment.any_of`.
    The condition value is a dict mapping each fired event to its value.
    """

    __slots__ = ("_events", "_evaluate", "_fired", "_dead")

    def __init__(
        self,
        env: "Environment",
        events: Iterable[Event],
        evaluate: Callable[[int, int], bool],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._fired = 0
        self._dead = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            state = event._state
            if state == _PROCESSED:
                self._on_event(event)
            elif state == _CANCELLED:
                self._on_member_cancelled(event)
            else:
                event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._fired += 1
        if self._evaluate(self._fired, len(self._events)):
            self.succeed(
                {ev: ev._value for ev in self._events if ev._state != _PENDING}
            )

    def _on_member_cancelled(self, event: Event) -> None:
        """A watched member was cancelled and can never fire.

        The condition stays pending while the remaining live members could
        still satisfy ``evaluate`` (an ``any_of`` with a live arm); once
        satisfaction is impossible (an ``all_of`` over any cancelled arm,
        or an ``any_of`` whose every arm died) it fails loudly instead of
        silently never firing.
        """
        if self._state != _PENDING:
            return
        self._dead += 1
        total = len(self._events)
        # Best case: every still-live member eventually fires.
        reachable = total - self._dead
        if not self._evaluate(reachable, total):
            self.fail(SimulationError(
                f"condition can never fire: {self._dead} of {total} "
                "watched event(s) were cancelled"
            ))


def _all_fired(fired: int, total: int) -> bool:
    return fired == total


def _any_fired(fired: int, total: int) -> bool:
    return fired >= 1


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_generator", "_waiting_on", "_pending_resume")

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: The scheduled immediate-resume event while the process waits on
        #: an already-processed target; ``interrupt()`` must disarm it.
        self._pending_resume: Optional[Event] = None
        # Bootstrap: resume the generator at the current simulation time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
            # A queued resource request leaves its queue; one whose grant
            # already fired hands the slot back (see resources._Grant).
            abandon = getattr(target, "_abandon", None)
            if abandon is not None:
                abandon()
        pending = self._pending_resume
        if pending is not None:
            # The process was interrupted inside the processed-target
            # immediate-resume window: disarm the scheduled resume, or it
            # would deliver a spurious second wakeup after the Interrupt.
            self._pending_resume = None
            if pending._state == _TRIGGERED:
                pending._state = _CANCELLED
                pending.callbacks = []
                self.env._note_cancelled()
        wakeup = Event(self.env)
        wakeup.callbacks.append(
            lambda _ev: self._step(throw=Interrupt(cause))
        )
        wakeup.succeed()

    # -- internal ----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._pending_resume = None
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._state != _PENDING:
            return
        env = self.env
        gen = self._generator
        while True:
            env._active_process = self
            try:
                if throw is not None:
                    target = gen.throw(throw)
                else:
                    target = gen.send(send)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(stop.value)
                return
            except Interrupt:
                # Interrupt escaped the generator: treat as clean
                # termination.
                env._active_process = None
                self.succeed(None)
                return
            except BaseException:
                env._active_process = None
                raise
            env._active_process = None
            if target is _GRANTED:
                # Uncontended grant: continue in the same step.
                send = throw = None
                continue
            if isinstance(target, Event):
                break
            # Non-event yield: throw into the generator and loop, so a
            # generator that catches the error and returns (or yields a
            # real event next) goes through the same StopIteration /
            # registration paths as a plain send — no raw StopIteration
            # can leak out of callback dispatch.
            send = None
            throw = TypeError(f"process yielded a non-event: {target!r}")
        if target._state == _PROCESSED:
            self._wait_for(target)
        else:
            # The common case of _wait_for, inlined: park on the target.
            self._waiting_on = target
            target.callbacks.append(self._resume)

    def _wait_for(self, target: Event) -> None:
        """Park the process on ``target`` (the tail half of a step)."""
        if target._state == _PROCESSED:
            # Already fired and callbacks ran: resume immediately (same
            # time).  Tracked in _pending_resume so interrupt() can disarm.
            immediate = Event(self.env)
            self._pending_resume = immediate
            immediate.callbacks.append(
                lambda _ev: self._resume(target)
            )
            immediate.succeed()
        else:
            # Pending, triggered, or cancelled.  A cancelled target can
            # never fire: the process parks forever (pinned semantics —
            # liveness-watch the waiter to turn that into SimDeadlock).
            self._waiting_on = target
            target.callbacks.append(self._resume)


class _Detached(Process):
    """A process whose end pushes no completion entry (see
    :meth:`Environment.spawn`)."""

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":
        self._state = _PROCESSED
        self._value = value
        return self


#: The unbound resume function, so batched dispatchers (repro.sim.calendar)
#: can recognize "this event's sole callback resumes a process" and inline
#: the generator step without the _resume/_step call frames.
_RESUME = Process._resume


class Environment:
    """The simulation clock plus the pending-event heap."""

    #: Calendar-scheduler hook: None on the heap engine.  When a subclass
    #: (repro.sim.calendar.CalendarEnvironment) sets an instance dict here,
    #: ``Timeout.__init__`` routes through ``_bucket_insert`` instead of
    #: pushing a heap entry.
    _buckets = None

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List = []
        #: Dead (cancelled) entries still sitting in the heap; the run
        #: loops skip them and :meth:`_compact_heap` sweeps them in bulk.
        self._cancelled = 0
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Liveness registry: token -> (event, description).  Checked when
        #: the heap drains; see :class:`SimDeadlock`.
        self._liveness: dict = {}
        self._liveness_ids = count()
        #: Optional :class:`repro.sim.trace.Tracer`; instrumented
        #: components emit via :meth:`trace` when one is attached.
        self.tracer = None
        #: Optional :class:`repro.sim.obs.Observability`; when attached
        #: (``Observability(env)``) components record lifecycle spans and
        #: publish metrics.  None (the default) keeps every instrumentation
        #: site a single attribute check — behavior is bit-identical to an
        #: uninstrumented run.
        self.obs = None

    def trace(self, category: str, event: str, **fields) -> None:
        """Emit a trace event if a tracer is attached (cheap otherwise)."""
        if self.tracer is not None:
            self.tracer.emit(self._now, category, event, **fields)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between steps)."""
        return self._active_process

    # -- factory helpers ----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def spawn(self, generator: Generator) -> None:
        """Start a fire-and-forget process.

        Returns nothing, so nobody can wait on it, and its end schedules
        nothing.  An exception it raises still propagates out of
        :meth:`run`, exactly as from :meth:`process`.
        """
        _Detached(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, _all_fired)

    def any_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, _any_fired)

    # -- liveness watching ---------------------------------------------------

    def watch_liveness(self, event: Event, description: str = "") -> int:
        """Register ``event`` as one that *must* eventually fire.

        Returns a token for :meth:`unwatch_liveness`.  If the event heap
        ever drains while a watched event is still pending, the run loop
        raises :class:`SimDeadlock` naming the stuck waiters instead of
        returning as if the simulation finished cleanly.
        """
        token = next(self._liveness_ids)
        self._liveness[token] = (event, description)
        return token

    def unwatch_liveness(self, token: int) -> None:
        self._liveness.pop(token, None)

    def _raise_if_deadlocked(self) -> None:
        if not self._liveness:
            return
        pending = [
            description or repr(event)
            for event, description in self._liveness.values()
            if not event.triggered
        ]
        if pending:
            shown = "; ".join(pending[:8])
            more = f" (+{len(pending) - 8} more)" if len(pending) > 8 else ""
            raise SimDeadlock(
                f"event heap drained at t={self._now} with "
                f"{len(pending)} pending waiter(s): {shown}{more}"
            )

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heappush(self._heap, (self._now + delay, next(self._eid), event))

    def _note_cancelled(self) -> None:
        """Account one newly-dead scheduled entry; compact when they pile
        up.  Subclasses with extra scheduling structures override this."""
        self._cancelled += 1
        if self._cancelled > 64 and self._cancelled * 2 > len(self._heap):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries in one pass and re-heapify.

        Filters in place: the run loops bind ``self._heap`` to a local, so
        rebinding the attribute here would strand them on a stale list.
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[2]._state != _CANCELLED]
        heapify(self._heap)
        self._cancelled = 0

    def live_heap_size(self) -> int:
        """Number of heap entries that can still fire (excludes cancelled)."""
        return len(self._heap) - self._cancelled

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process the single next (live) event."""
        heap = self._heap
        while heap:
            when, _eid, event = heappop(heap)
            if event._state == _CANCELLED:
                self._cancelled -= 1
                continue
            self._now = when
            event._state = _PROCESSED
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
            return
        raise SimulationError("no more events to step")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or virtual time reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        the last event fires earlier, so throughput windows are exact.

        Both loops inline :meth:`step` (pop, advance the clock, run the
        event's callbacks) with the heap bound to a local — this is the
        innermost host-side loop of every experiment.
        """
        heap = self._heap
        pop = heappop
        if until is None:
            while heap:
                when, _eid, event = pop(heap)
                if event._state == _CANCELLED:
                    self._cancelled -= 1
                    continue
                self._now = when
                event._state = _PROCESSED
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
            self._raise_if_deadlocked()
            return
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while heap and heap[0][0] <= until:
            when, _eid, event = pop(heap)
            if event._state == _CANCELLED:
                self._cancelled -= 1
                continue
            self._now = when
            event._state = _PROCESSED
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
        if not heap or self._cancelled >= len(heap):
            # The heap is empty, or every remaining entry is a cancelled
            # husk past `until`: nothing can ever fire again, so a watched
            # waiter is genuinely stuck.
            self._raise_if_deadlocked()
        self._now = until

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` fires; returns its value. Raises on failure."""
        while not event.triggered:
            upcoming = self.peek()
            if upcoming == float("inf"):
                self._raise_if_deadlocked()
                raise SimulationError("event can never fire: heap is empty")
            if upcoming > limit:
                raise SimulationError(f"event did not fire before t={limit}")
            self.step()
        # Drain same-timestamp callbacks so waiters observe the value too.
        while self.peek() <= self._now:
            self.step()
        if not event.ok:
            raise event.value
        return event.value
