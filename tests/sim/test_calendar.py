"""Calendar-queue engine: bit-identity with the heap engine + unit behavior.

The calendar engine is only allowed to change *host-side* cost, never
simulation results: every test here either asserts exact equality against
an `Environment` run of the same model or pins a lifecycle behavior the
heap engine already pinned in test_engine.py.
"""

import pytest

from repro.sim import (
    CalendarEnvironment,
    Environment,
    Interrupt,
    SimulationError,
)


def _both():
    return [Environment(), CalendarEnvironment()]


def _ticker_trace(env, procs=7, ticks=11):
    log = []

    def ticker(tag):
        for i in range(ticks):
            yield env.timeout((tag + 1) * 1e-6)
            log.append((env.now, tag, i))

    for tag in range(procs):
        env.process(ticker(tag))
    env.run()
    return log


def test_ticker_trace_bit_identical_to_heap():
    heap_log, calendar_log = (_ticker_trace(env) for env in _both())
    assert heap_log == calendar_log


def test_same_time_events_fire_fifo():
    env = CalendarEnvironment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_mixed_heap_and_bucket_events_interleave_in_order():
    # Manual events go through the heap path even on the calendar engine;
    # timeouts go through buckets.  The merged dispatch must still be
    # globally (time, eid)-ordered.
    env = CalendarEnvironment()
    order = []
    gate = env.event()

    def waiter(env):
        order.append(("gate", (yield gate), env.now))

    def ticker(env):
        yield env.timeout(1e-6)
        order.append(("tick", None, env.now))
        gate.succeed("open")
        yield env.timeout(1e-6)
        order.append(("tock", None, env.now))

    env.process(waiter(env))
    env.process(ticker(env))
    env.run()
    assert order == [
        ("tick", None, pytest.approx(1e-6)),
        ("gate", "open", pytest.approx(1e-6)),
        ("tock", None, pytest.approx(2e-6)),
    ]


def test_peek_and_step_match_heap_engine():
    for env in _both():
        env.timeout(3e-6)
        early = env.timeout(1e-6)
        early.cancel()
        assert env.peek() == pytest.approx(3e-6)
        env.step()
        assert env.now == pytest.approx(3e-6)
        assert env.live_heap_size() == 0


def test_run_until_event_on_calendar_engine():
    env = CalendarEnvironment()

    def worker(env):
        yield env.timeout(5e-6)
        return "paid off"

    proc = env.process(worker(env))
    assert env.run_until_event(proc) == "paid off"
    assert env.now == pytest.approx(5e-6)


def test_run_until_advances_clock_exactly():
    env = CalendarEnvironment()
    env.timeout(1e-6)
    env.run(until=7e-6)
    assert env.now == pytest.approx(7e-6)


def test_cancellation_accounting_is_exact():
    env = CalendarEnvironment()
    keep = env.timeout(1.0)
    doomed = [env.timeout(0.5) for _ in range(200)]
    assert env.live_heap_size() == 201
    for timeout in doomed:
        timeout.cancel()
    # Bulk compaction must have swept the shared 0.5s bucket without
    # touching the live entry.
    assert env.live_heap_size() == 1
    env.run()
    assert keep.processed
    assert env.now == pytest.approx(1.0)


def test_cancel_mid_dispatch_within_owned_bucket():
    # A process that cancels a *later* same-timestamp timeout while the
    # run loop is walking that very bucket: the cancelled arm must be
    # skipped, not double-fired or lost.  Run on both engines and demand
    # identical traces.
    def model(env):
        fired = []
        box = {}

        def killer(env):
            yield env.timeout(1e-6)  # smaller eid than the victim below
            box["victim"].cancel()
            fired.append("killer")

        def spawner(env):
            box["victim"] = env.timeout(1e-6, value="victim")

            def waiter(env):
                fired.append((yield box["victim"]))

            env.process(waiter(env))
            return
            yield  # pragma: no cover - makes spawner a generator

        env.process(killer(env))
        env.process(spawner(env))
        env.run()
        return fired

    heap_fired, calendar_fired = (model(env) for env in _both())
    assert calendar_fired == ["killer"]
    assert heap_fired == calendar_fired


def test_watchdog_pattern_stays_flat_on_calendar():
    env = CalendarEnvironment()

    def one_arm(env):
        done = env.event()
        expiry = env.timeout(1e-3)

        def complete(env):
            yield env.timeout(1e-6)
            done.succeed()

        env.process(complete(env))
        yield env.any_of([done, expiry])
        expiry.cancel()

    def driver(env):
        for _ in range(200):
            yield env.process(one_arm(env))

    env.process(driver(env))
    env.run()
    assert env.live_heap_size() == 0


def test_lifecycle_regressions_hold_on_calendar_engine():
    # The four engine-lifecycle fixes, re-run on the calendar engine.
    env = CalendarEnvironment()
    a = env.timeout(1e-6)
    b = env.timeout(2e-6)
    cond = env.all_of([a, b])
    caught = []

    def waiter(env):
        try:
            yield cond
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    b.cancel()
    env.run()
    assert len(caught) == 1 and "can never fire" in caught[0]

    from repro.sim import SimDeadlock

    env = CalendarEnvironment()
    env.watch_liveness(env.event(), "stuck waiter")
    env.timeout(10.0).cancel()
    with pytest.raises(SimDeadlock, match="stuck waiter"):
        env.run(until=1.0)

    env = CalendarEnvironment()

    def bad(env):
        try:
            yield 42
        except TypeError:
            pass
        return "ok"

    proc = env.process(bad(env))
    env.run()
    assert proc.ok and proc.value == "ok"

    env = CalendarEnvironment()
    trace = []
    gate = env.event()
    gate.succeed()

    def victim(env):
        yield env.timeout(1e-6)
        try:
            yield gate
            trace.append("stale resume")
        except Interrupt:
            trace.append("interrupted")
        yield env.event()

    proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(1e-6)
        proc.interrupt()

    env.process(attacker(env))
    env.run()
    assert trace == ["interrupted"]


def test_interrupt_delivery_matches_heap_engine():
    def model(env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(1.0)
            except Interrupt as interrupt:
                log.append((env.now, "interrupted", interrupt.cause))
            yield env.timeout(1e-6)
            log.append((env.now, "done", None))

        proc = env.process(sleeper(env))

        def waker(env):
            yield env.timeout(0.25)
            proc.interrupt("wake")

        env.process(waker(env))
        env.run()
        return log

    heap_log, calendar_log = (model(env) for env in _both())
    assert heap_log == calendar_log


def test_saturation_cell_bit_identical_to_heap():
    # The acceptance bar: one real saturation cell, every reported metric
    # float-for-float identical across engines.
    from repro.harness.saturate import probe_saturation

    kwargs = dict(
        system="rio", layout="optane", offered_kiops=50.0,
        initiators=1, tenants=2, duration=5e-4, seed=7,
    )
    heap_cell = probe_saturation(engine="heap", **kwargs)
    calendar_cell = probe_saturation(engine="calendar", **kwargs)
    assert heap_cell == calendar_cell


def test_loaded_saturation_cell_bit_identical_to_heap():
    # A full-size cell at 400 kIOPS on two initiators: thousands of
    # contended and uncontended core, NIC and SSD grants, so the calendar
    # engine's inlined resume must continue in-step on the granted marker
    # exactly where the heap engine does.
    from repro.harness.saturate import probe_saturation

    heap_cell = probe_saturation("rio", "optane", 400.0, engine="heap")
    calendar_cell = probe_saturation("rio", "optane", 400.0,
                                     engine="calendar")
    assert heap_cell == calendar_cell


def test_unknown_engine_rejected():
    from repro.harness.saturate import probe_saturation

    with pytest.raises(ValueError, match="unknown engine"):
        probe_saturation(
            system="rio", layout="optane", offered_kiops=50.0,
            engine="wheel",
        )
