"""Sharded ordered-stack facade over an N-initiator :class:`~repro.cluster.Cluster`.

:class:`ShardedStack` puts any compared system (rio / horae / linux /
barrier / orderless) on every node of a cluster and routes each global
stream to the node that owns it.

Stream sharding works by *congruence*, not translation: global stream
``s`` is owned by node ``s % N``, so each node's stack only ever sees
stream ids from its own residue class — disjoint across nodes by
construction, which is all the shared targets' per-stream ordering state
needs (§4.5: streams are fully independent).  Rio is the one exception:
its sequencer indexes streams densely, so the facade maps ``s`` to the
node-local index ``s // N`` and the node's
:class:`~repro.core.api.RioDevice` (configured with a disjoint
wire-stream range from the cluster's
:class:`~repro.cluster.StreamDirectory`) translates to the wire.

Recovery after a full-cluster crash runs once, from node 0: the PMR
attribute logs on the shared targets are keyed by global wire stream id,
so the coordinator's scan covers every initiator's streams (§4.9; proven
by ``tests/core/test_multi_initiator.py`` and the multi-initiator cells
of the ``repro check`` matrix).

``ScaleOutCluster`` is another name for :class:`~repro.cluster.Cluster`,
which it was folded into; it stays because the benchmark harness in
``perfbench/`` imports and instruments the assembly under that name.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.block.request import Bio, WriteFlags
from repro.cluster import Cluster, ScaleNode
from repro.core.api import RioDevice
from repro.hw.cpu import Core

__all__ = ["ScaleOutCluster", "ShardedStack"]

ScaleOutCluster = Cluster

#: Systems whose per-node stack is a RioDevice with dense local streams.
_RIO_SYSTEMS = ("rio", "rio-nomerge")


class ShardedStack:
    """One ordered-stack facade over per-node stacks of a scale cluster.

    Looks like an :class:`~repro.systems.base.OrderedStack` (so the crash
    oracle's workloads and the load generators drive it unchanged) but
    routes every submission to the owning node: global stream ``s`` goes
    to node ``s % N``, on that node's core of the caller's core index, so
    CPU work lands on — and is accounted to — the host that actually
    issues the I/O.
    """

    def __init__(
        self,
        cluster: Cluster,
        system: str,
        num_streams: int,
    ):
        from repro.systems.base import make_stack

        if num_streams < 1:
            raise ValueError("need at least one stream")
        self.cluster = cluster
        self.env = cluster.env
        self.system = system
        self.num_streams = num_streams
        self.name = f"sharded-{system}"
        n = cluster.num_initiators
        self.stacks: List[Any] = []
        self._submit_fns: List[Any] = []
        for node in cluster.nodes:
            if system in _RIO_SYSTEMS:
                # Dense local stream indices 0..k-1; the directory hands
                # the node a disjoint wire-stream range.
                owned = len(range(node.index, num_streams, n))
                stream_base = cluster.directory.allocate(max(owned, 1))
                device = RioDevice(
                    node,
                    num_streams=max(owned, 1),
                    stream_base=stream_base,
                    merging_enabled=(system != "rio-nomerge"),
                )
                self.stacks.append(device)
                self._submit_fns.append(device.submit)
            else:
                stack = make_stack(system, node,
                                   num_streams=num_streams)
                self.stacks.append(stack)
                self._submit_fns.append(stack.submit_ordered)
        self.volume = cluster.volume()
        if hasattr(self.stacks[0], "recovery"):
            # Coordinator recovery (node 0) covers all global streams:
            # the targets' PMR logs are keyed by wire stream id.
            self.recovery = self.stacks[0].recovery

    def node_for(self, stream_id: int) -> ScaleNode:
        return self.cluster.nodes[stream_id % self.cluster.num_initiators]

    def local_stream(self, stream_id: int) -> int:
        """The stream id the owning node's stack sees."""
        if self.system in _RIO_SYSTEMS:
            return stream_id // self.cluster.num_initiators
        return stream_id

    def submit_ordered(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        node = self.node_for(bio.stream_id)
        bio.stream_id = self.local_stream(bio.stream_id)
        node_core = node.cpus.pick(core.index)
        submit = self._submit_fns[node.index]
        return (yield from submit(node_core, bio, end_of_group, flush, kick))

    def write_ordered(
        self,
        core: Core,
        stream_id: int,
        lba: int,
        nblocks: int,
        payload: Optional[List[Any]] = None,
        end_of_group: bool = True,
        flush: bool = False,
        ipu: bool = False,
        kick: Optional[bool] = None,
        deadline: Optional[float] = None,
        tenant: Optional[int] = None,
    ):
        bio = Bio(
            op="write",
            lba=lba,
            nblocks=nblocks,
            payload=payload,
            stream_id=stream_id,
            flags=WriteFlags(ipu=ipu),
            deadline=deadline,
            tenant=tenant,
        )
        return (yield from self.submit_ordered(core, bio, end_of_group,
                                               flush, kick))
