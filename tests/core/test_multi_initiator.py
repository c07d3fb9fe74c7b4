"""Tests for the multi-initiator extension (§4.9)."""

import pytest

from repro.cluster import Cluster, StreamDirectory
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def make_multi(num_initiators=2, targets=((OPTANE_905P,),), streams=4):
    """A shared-target cluster plus one Rio device per initiator node,
    each on its own directory-assigned global stream range."""
    env = Environment()
    cluster = Cluster(env, target_ssds=targets, num_initiators=num_initiators)
    rios = [
        RioDevice(node, num_streams=streams,
                  stream_base=cluster.directory.allocate(streams))
        for node in cluster.nodes
    ]
    return env, cluster, rios


def test_stream_directory_allocates_disjoint_ranges():
    directory = StreamDirectory()
    a = directory.allocate(8)
    b = directory.allocate(8)
    c = directory.allocate(4)
    assert (a, b, c) == (0, 8, 16)
    with pytest.raises(ValueError):
        directory.allocate(0)


def test_initiators_share_targets_but_not_drivers():
    env, multi, rios = make_multi()
    assert len(multi.nodes) == 2
    assert multi.nodes[0].driver is not multi.nodes[1].driver
    assert multi.nodes[0].namespaces[0].target is \
        multi.nodes[1].namespaces[0].target
    # Both Rio devices reuse the one target policy (no state wipe).
    assert rios[0].policies[0] is rios[1].policies[0]


def test_concurrent_initiators_preserve_per_stream_order():
    env, multi, rios = make_multi()
    release_orders = {0: [], 1: []}

    def writer(node, order):
        core = node.cpus.pick(0)
        events = []
        for i in range(25):
            done = yield from rios[node.index].write(
                core, 0, lba=node.index * 1_000_000 + i * 2, nblocks=1,
                payload=[(node.index, i + 1)],
            )
            events.append(done)
            env.process(track(order, i, done))
        yield env.all_of(events)

    def track(order, i, done):
        yield done
        order.append(i)

    procs = [
        env.process(writer(node, release_orders[node.index]))
        for node in multi.nodes
    ]
    env.run_until_event(env.all_of(procs))
    assert release_orders[0] == list(range(25))
    assert release_orders[1] == list(range(25))


def test_attributes_carry_global_stream_ids():
    env, multi, rios = make_multi(streams=4)
    core = multi.nodes[1].cpus.pick(0)

    def proc(env):
        done = yield from rios[1].write(core, 2, lba=0, nblocks=1)
        yield done

    env.run_until_event(env.process(proc(env)))
    records = list(multi.targets[0].pmr.records().values())
    assert records
    # Initiator 1 owns streams 4..7; its local stream 2 is global 6.
    assert all(r.stream_id == 6 for r in records)


def test_both_initiators_write_durably():
    env, multi, rios = make_multi()

    def writer(node):
        core = node.cpus.pick(0)
        events = []
        for i in range(10):
            done = yield from rios[node.index].write(
                core, 0, lba=node.index * 100 + i, nblocks=1,
                payload=[(node.index, i)],
            )
            events.append(done)
        yield env.all_of(events)

    procs = [env.process(writer(node)) for node in multi.nodes]
    env.run_until_event(env.all_of(procs))
    ssd = multi.targets[0].ssds[0]
    for node in multi.nodes:
        for i in range(10):
            assert ssd.durable_payload(node.index * 100 + i) == (node.index, i)


def test_crash_recovery_with_two_initiators():
    """A coordinator (initiator 0) recovers the whole cluster: prefixes
    are computed per global stream, covering both initiators' streams."""
    env, multi, rios = make_multi()

    def writer(node):
        core = node.cpus.pick(0)
        for i in range(50):
            yield from rios[node.index].write(
                core, 0, lba=node.index * 1_000_000 + i * 2, nblocks=1,
                payload=[(node.index, i + 1)],
            )

    for node in multi.nodes:
        env.process(writer(node))
    env.run(until=60e-6)
    for target in multi.targets:
        target.crash()
    env.run(until=env.now + 100e-6)
    for target in multi.targets:
        target.restart()

    holder = {}

    def recover(env):
        core = multi.nodes[0].cpus.pick(0)
        holder["report"] = yield from rios[0].recovery() \
            .run_initiator_recovery(core)

    env.run_until_event(env.process(recover(env)))
    report = holder["report"]
    # Streams of both initiators appear (global ids 0 and 4).
    assert 0 in report.prefixes
    assert 4 in report.prefixes
    # Prefix property per stream, against ground truth.
    for node, rio in zip(multi.nodes, rios):
        stream = rio.sequencer.stream_base  # local stream 0
        prefix = report.prefixes.get(stream, 0)
        ssd = multi.targets[0].ssds[0]
        for i in range(50):
            payload = ssd.durable_payload(node.index * 1_000_000 + i * 2)
            if i + 1 <= prefix:
                assert payload == (node.index, i + 1)
            else:
                assert payload is None
