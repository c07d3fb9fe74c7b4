"""StreamDirectory: disjointness, wire translation.

The directory is the paper's "distributed sequencer service" reduced to a
range allocator (§4.9); the invariants that make sharing targets safe are
(a) allocated global ranges never overlap, and (b) each initiator's
*local* stream ids are translated to its global range before they reach
the wire — the shared targets and PMR logs must only ever see global ids.
"""

import pytest

from repro.cluster import Cluster, StreamDirectory
from repro.core.api import RioDevice
from repro.core.attributes import OrderingAttribute
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def build(num_initiators, streams=4):
    """A shared-target cluster plus one Rio device per initiator node."""
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),),
                      num_initiators=num_initiators)
    rios = [
        RioDevice(node, num_streams=streams,
                  stream_base=cluster.directory.allocate(streams))
        for node in cluster.nodes
    ]
    return env, cluster, rios


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------


def test_unbounded_directory_allocates_monotonically():
    directory = StreamDirectory()
    assert [directory.allocate(3) for _ in range(4)] == [0, 3, 6, 9]


def test_invalid_count():
    with pytest.raises(ValueError):
        StreamDirectory().allocate(0)


# ----------------------------------------------------------------------
# Disjointness across initiators
# ----------------------------------------------------------------------


def test_assigned_ranges_are_disjoint_across_initiators():
    _env, multi, rios = build(num_initiators=3)
    ranges = [
        range(rio.sequencer.stream_base,
              rio.sequencer.stream_base + rio.num_streams)
        for rio in rios
    ]
    claimed = [sid for r in ranges for sid in r]
    assert len(claimed) == len(set(claimed)), "global stream ranges overlap"
    assert multi.directory.allocations == [(0, 4), (4, 4), (8, 4)]


# ----------------------------------------------------------------------
# Local -> global translation at the wire boundary
# ----------------------------------------------------------------------


def test_local_stream_ids_reach_the_wire_translated():
    env, multi, rios = build(num_initiators=2)

    def writer(node):
        core = node.cpus.pick(0)
        # Both initiators use *local* stream 1.
        done = yield from rios[node.index].write(
            core, 1, lba=node.index * 1_000_000, nblocks=1,
            payload=[("node", node.index)],
        )
        yield done

    for node in multi.nodes:
        env.process(writer(node))
    env.run(until=5e-3)

    target = multi.targets[0]
    wire_streams = {stream for stream, _pos, _epoch, _t in target.audit_log}
    # local 1 -> global stream_base + 1 for each node; the shared target
    # must never observe the raw local id of the second node colliding
    # with the first node's range.
    expected = {rio.sequencer.stream_base + 1 for rio in rios}
    assert wire_streams == expected == {1, 5}

    logged = {
        record.stream_id
        for _off, (_nbytes, record) in sorted(target.pmr._records.items())
        if isinstance(record, OrderingAttribute)
    }
    assert logged <= expected
    assert logged, "no ordering attributes reached the PMR log"
