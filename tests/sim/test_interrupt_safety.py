"""Interrupting processes must not leak resources or corrupt trackers."""

import pytest

from repro.hw.cpu import Core
from repro.sim import Environment, Interrupt, Resource, Store


def test_interrupt_releases_held_core():
    """A process interrupted mid-``core.run`` releases the core (the
    try/finally in Core.run) so later work is not blocked forever."""
    env = Environment()
    core = Core(env, 0)
    log = []

    def victim(env):
        try:
            yield from core.run(100.0)
        except Interrupt:
            log.append(("interrupted", env.now))

    def other(env):
        yield from core.run(1.0)
        log.append(("other-done", env.now))

    victim_proc = env.process(victim(env))
    env.process(other(env))

    def interrupter(env):
        yield env.timeout(2.0)
        victim_proc.interrupt()

    env.process(interrupter(env))
    env.run()
    assert ("interrupted", 2.0) in log
    # The other work proceeds right after the interrupt freed the core.
    assert ("other-done", 3.0) in log
    # Busy accounting closed cleanly: only the actually-busy time counted.
    assert core.tracker.busy_time == pytest.approx(3.0)


def test_interrupt_removes_stale_resource_waiter():
    """Interrupting a process blocked on request() must not leave a ghost
    waiter that would swallow a grant."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder(env):
        yield resource.request()
        yield env.timeout(10.0)
        resource.release()

    def impatient(env):
        try:
            yield resource.request()
            log.append("impatient got it")
            resource.release()
        except Interrupt:
            log.append("impatient gave up")

    def patient(env):
        yield env.timeout(1.0)
        yield resource.request()
        log.append(("patient got it", env.now))
        resource.release()

    env.process(holder(env))
    impatient_proc = env.process(impatient(env))
    env.process(patient(env))

    def interrupter(env):
        yield env.timeout(2.0)
        impatient_proc.interrupt()

    env.process(interrupter(env))
    env.run()
    assert "impatient gave up" in log
    # The interrupted waiter is skipped at grant time (it has no callbacks
    # left), so the patient process gets the holder's release.
    got = [entry for entry in log if entry and entry[0] == "patient got it"]
    assert got, f"patient process starved: {log}"


def test_interrupt_after_grant_fired_gives_the_slot_back():
    """The holder's release at t=10 fires the queued grant, and the waiter
    is interrupted at that same timestamp before the grant pops.  The
    fired grant must go back to the resource: otherwise the slot stays
    held forever and every later waiter starves."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder(env):
        yield resource.request()
        yield env.timeout(10.0)
        resource.release()

    def victim(env):
        try:
            yield resource.request()
            log.append("victim got it")
            resource.release()
        except Interrupt:
            log.append(("victim interrupted", env.now))

    def late(env):
        yield env.timeout(1.0)
        yield resource.request()
        log.append(("late got it", env.now))
        resource.release()

    env.process(holder(env))
    victim_proc = env.process(victim(env))
    env.process(late(env))

    def interrupter(env):
        # Two hops, so this t=10 wakeup is scheduled after the holder's.
        yield env.timeout(1.0)
        yield env.timeout(9.0)
        victim_proc.interrupt()

    env.process(interrupter(env))
    env.run()
    assert ("victim interrupted", 10.0) in log
    assert "victim got it" not in log
    assert ("late got it", 10.0) in log
    assert resource.in_use == 0 and resource.queued == 0


def test_interrupted_store_getter_does_not_swallow_the_next_item():
    """A waits on get() and is interrupted at t=1; B waits from t=2; the
    item put at t=3 must reach B, not A's abandoned getter."""
    env = Environment()
    store = Store(env)
    log = []

    def getter(env, name, start):
        yield env.timeout(start)
        try:
            item = yield store.get()
            log.append((name, item, env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))

    a = env.process(getter(env, "A", 0.0))
    env.process(getter(env, "B", 2.0))

    def control(env):
        yield env.timeout(1.0)
        a.interrupt()
        yield env.timeout(2.0)
        yield store.put("x")

    env.process(control(env))
    env.run()
    assert log == [("A", "interrupted", 1.0), ("B", "x", 3.0)]
    assert len(store) == 0 and not store._getters


def test_interrupt_after_item_handed_passes_the_item_on():
    """The put at t=5 hands the item to the waiting getter, and the
    getter is interrupted at that same timestamp before its event pops.
    The item goes back to the head of the store, ahead of later items,
    and the next get receives it."""
    env = Environment()
    store = Store(env)
    log = []

    def victim(env):
        try:
            item = yield store.get()
            log.append(("victim", item))
        except Interrupt:
            log.append(("victim interrupted", env.now))

    victim_proc = env.process(victim(env))

    def control(env):
        yield env.timeout(5.0)
        yield store.put("first")
        victim_proc.interrupt()
        yield store.put("second")
        item = yield store.get()
        log.append(("late", item, env.now))

    env.process(control(env))
    env.run()
    assert log == [("victim interrupted", 5.0), ("late", "first", 5.0)]
    assert store.items == ("second",)


def test_interrupted_blocked_put_is_never_admitted():
    """A put blocked on a full store and then interrupted leaves the
    putter queue: a later get frees room without admitting its item."""
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def filler(env):
        yield store.put("kept")
        try:
            yield store.put("dropped")
            log.append("dropped admitted")
        except Interrupt:
            log.append(("put interrupted", env.now))

    filler_proc = env.process(filler(env))

    def control(env):
        yield env.timeout(1.0)
        filler_proc.interrupt()
        yield env.timeout(1.0)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(control(env))
    env.run()
    assert log == [("put interrupted", 1.0), ("got", "kept", 2.0)]
    assert len(store) == 0 and not store._putters
