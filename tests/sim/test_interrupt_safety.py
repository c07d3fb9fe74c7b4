"""Interrupting processes must not leak resources or corrupt trackers."""

import pytest

from repro.hw.cpu import Core
from repro.sim import Environment, Interrupt, Resource


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
