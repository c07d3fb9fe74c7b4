"""Ordered Linux NVMe over RDMA: synchronous execution for storage order.

The stock stack has no ordering primitive, so upper layers enforce order
the expensive way (§2.2): the next ordered group is issued only after the
previous group's data blocks flowed through the whole stack and were made
durable — a completion wait, plus a FLUSH command on SSDs with a volatile
write cache.  On PLP SSDs the block layer drops the FLUSH but the
synchronous transfer wait remains (Lesson 2); on flash the per-group FLUSH
dominates everything (Lesson 1).

Each stream is an independent ordered chain (threads in the benchmarks
write private areas), and the synchronous wait charges the context-switch
pair that blocking costs the submitting core (Lesson 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.block.mq import BlockLayer, Plug
from repro.block.request import Bio
from repro.cluster import Cluster
from repro.hw.cpu import Core
from repro.sim.engine import Event
from repro.systems.base import OrderedStack

__all__ = ["LinuxOrderedStack"]


@dataclass
class _StreamChain:
    """Per-stream serialization state."""

    group_bios: List[Bio] = field(default_factory=list)
    group_events: List[Event] = field(default_factory=list)
    chain_tail: Optional[Event] = None  # completion of the previous group


class LinuxOrderedStack(OrderedStack):
    name = "linux"

    def __init__(
        self,
        cluster: Cluster,
        volume=None,
        num_streams: Optional[int] = None,
        merging_enabled: bool = True,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.volume = volume if volume is not None else cluster.volume()
        self.block_layer = BlockLayer(
            self.env,
            cluster.driver,
            self.volume,
            costs=cluster.costs,
            merging_enabled=merging_enabled,
        )
        self._chains: Dict[int, _StreamChain] = {}
        #: Devices with volatile caches need a FLUSH per group for ordering.
        self._needs_flush = any(
            not ns.target.ssds[ns.nsid].profile.plp
            for ns in self.volume.namespaces
        )

    def submit_ordered(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        """Stage the group; at the boundary, chain it behind its
        predecessor: wait, dispatch, wait for completion (+FLUSH)."""
        chain = self._chains.setdefault(bio.stream_id, _StreamChain())
        if flush:
            bio.flags.flush = True
        event = Event(self.env)
        event.bio = bio  # error/status visibility for callers
        chain.group_bios.append(bio)
        chain.group_events.append(event)
        yield from core.run(0.05e-6)  # bookkeeping
        if end_of_group:
            bios, chain.group_bios = chain.group_bios, []
            events, chain.group_events = chain.group_events, []
            predecessor = chain.chain_tail
            group_done = Event(self.env)
            chain.chain_tail = group_done
            self.env.spawn(
                self._run_group(core, bios, events, predecessor, group_done)
            )
        return event

    def _run_group(
        self,
        core: Core,
        bios: List[Bio],
        events: List[Event],
        predecessor: Optional[Event],
        group_done: Event,
    ):
        # Synchronous execution: wait until the previous group is durable.
        if predecessor is not None and not predecessor.triggered:
            yield predecessor
            # The submitting thread slept and was woken: context switch.
            yield from core.context_switch()

        # The final write of the group carries the ordering FLUSH on
        # volatile-cache devices (and any explicitly requested flush).
        if self._needs_flush:
            bios[-1].flags.flush = True

        plug = Plug()
        completions = []
        for bio in bios:
            done = yield from self.block_layer.submit_bio(core, bio, plug=plug)
            completions.append(done)
        yield from self.block_layer.finish_plug(core, plug)
        yield self.env.all_of(completions)
        yield from core.context_switch()

        for event in events:
            if not event.triggered:
                event.succeed()
        group_done.succeed()
