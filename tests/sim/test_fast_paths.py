"""Engine fast paths that schedule nothing: uncontended grants, detached
processes and accepted puts.

Each of these used to push a heap entry that did no modelled work.  The
tests pin both halves of the contract: nothing is scheduled (no heap entry,
no event id consumed), and the observable behaviour is what the hop used
to deliver.
"""

import pytest

from repro.sim import Environment, Resource, Store
from repro.sim.engine import _GRANTED


def _eids_used(env) -> int:
    """Event ids consumed so far (the next number the counter hands out)."""
    return int(repr(env._eid)[len("count("):-1])


def test_uncontended_request_schedules_nothing():
    env = Environment()
    resource = Resource(env, capacity=2)
    before = _eids_used(env)
    first = resource.request()
    second = resource.request()
    assert first is _GRANTED and second is _GRANTED
    assert first.processed and first.ok
    assert _eids_used(env) == before
    assert env._heap == []
    assert resource.in_use == 2


def test_uncontended_grant_continues_in_the_same_step():
    env = Environment()
    resource = Resource(env)
    log = []

    def worker(env):
        used = _eids_used(env)
        yield resource.request()
        # No hop: nothing else ran and no event id was consumed.
        log.append(("granted", env.now, _eids_used(env) - used))
        resource.release()

    def bystander(env):
        log.append(("bystander", env.now))
        yield env.timeout(0)

    env.process(worker(env))
    env.process(bystander(env))
    env.run()
    assert log == [("granted", 0.0, 0), ("bystander", 0.0)]


def test_contended_grants_stay_fifo():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def worker(env, tag, arrive):
        yield env.timeout(arrive)
        yield resource.request()
        order.append((tag, env.now))
        yield env.timeout(1.0)
        resource.release()

    for tag, arrive in (("a", 0.0), ("b", 0.1), ("c", 0.2), ("d", 0.3)):
        env.process(worker(env, tag, arrive))
    env.run(until=0.5)
    assert resource.queued == 3
    env.run()
    assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]
    assert resource.in_use == 0 and resource.queued == 0


def test_granted_marker_rejects_callback_registration():
    with pytest.raises(AttributeError):
        _GRANTED.callbacks.append(lambda _ev: None)


def test_any_of_over_a_granted_request_fires_at_once():
    env = Environment()
    resource = Resource(env)
    log = []

    def worker(env):
        yield env.any_of([resource.request(), env.timeout(5.0)])
        log.append(env.now)

    env.process(worker(env))
    env.run()
    assert log == [0.0]
    assert resource.in_use == 1


def test_spawned_process_leaves_no_heap_entry():
    env = Environment()
    log = []

    def job(env):
        yield env.timeout(1.0)
        log.append(env.now)

    assert env.spawn(job(env)) is None
    env.run(until=1.0)
    assert log == [1.0]
    # Bootstrap plus one timeout; finishing scheduled nothing.
    assert _eids_used(env) == 2
    assert env._heap == []

    waited = Environment()
    waited.process(job(waited))
    waited.run(until=1.0)
    assert _eids_used(waited) == 3


def test_spawned_process_exception_surfaces():
    env = Environment()

    def broken(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.spawn(broken(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_spawned_process_that_never_waits_finishes_silently():
    env = Environment()
    log = []

    def quick(env):
        log.append("ran")
        return
        yield  # pragma: no cover - makes this a generator

    env.spawn(quick(env))
    env.run()
    assert log == ["ran"]
    assert env._heap == []


def test_accepted_store_put_pushes_nothing():
    env = Environment()
    store = Store(env)
    before = _eids_used(env)
    put = store.put("x")
    assert put.processed and put.ok
    assert _eids_used(env) == before
    assert env._heap == []
    assert store.items == ("x",)


def test_put_to_a_waiting_getter_schedules_only_the_getter():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        got.append((yield store.get()))

    env.process(consumer(env))
    env.run()
    before = _eids_used(env)
    store.put("y")
    assert _eids_used(env) == before + 1  # the getter's wakeup
    env.run()
    assert got == ["y"]


def test_blocked_put_still_waits_for_room():
    env = Environment()
    store = Store(env, capacity=1)
    store.put("a")
    blocked = store.put("b")
    assert not blocked.triggered
    assert store.try_get() == "a"
    env.run()
    assert blocked.processed
    assert store.items == ("b",)
