"""HORAE [OSDI'20] extended to NVMe over RDMA (§6.1 "Compared systems").

HORAE separates ordering control from the request flow: before a group's
data blocks may be dispatched, its *ordering metadata* must be persisted in
the target's PMR through a dedicated control path.  Per the paper's
extension (§6.1): the control path is built atop the initiator driver and
uses two-sided RDMA SEND operations; the target driver forwards the
metadata to PMR by a persistent MMIO write.

The control path is **synchronous and serialized per stream** — the next
group's control write starts only after the previous control write is
acknowledged (§3.2 Lesson 2: "the control path is executed synchronously
before the data path").  After control, data blocks flow asynchronously
(merging allowed), which is why HORAE beats Linux but trails Rio: every
group still pays a network round trip plus PMR write of control latency,
and the extra SENDs cost CPU on both sides.

Durability: like Rio, HORAE removes the per-group FLUSH (its recovery uses
the control-path metadata); an explicitly requested flush (fsync) is still
honored on volatile-cache devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.block.mq import BlockLayer, Plug
from repro.block.request import Bio
from repro.cluster import Cluster
from repro.hw.cpu import Core
from repro.net.fabric import Message
from repro.nvmeof.target import TargetContext, TargetPolicy
from repro.sim.engine import Event
from repro.systems.base import OrderedStack

__all__ = ["HoraeStack", "HoraeTargetPolicy", "ORDERING_METADATA_SIZE"]

#: HORAE's ordering metadata is smaller than Rio's attribute (§6.5).
ORDERING_METADATA_SIZE = 16


class HoraeTargetPolicy(TargetPolicy):
    """Target-side control path: forward ordering metadata to PMR."""

    def __init__(self):
        self.target = None
        self._next_offset = 0
        self.control_writes = 0

    def attach(self, target) -> None:
        self.target = target

    def on_control(self, ctx: TargetContext, message: Message):
        if message.kind == "horae_ctrl":
            rpc_id, metadata = message.payload
            offset = self._next_offset
            self._next_offset = (
                offset + ORDERING_METADATA_SIZE
            ) % (ctx.pmr.size - ORDERING_METADATA_SIZE)
            # Persistent MMIO write of the ordering metadata (§6.1).
            yield from ctx.pmr.persist(
                ctx.core, offset, ORDERING_METADATA_SIZE, metadata
            )
            self.control_writes += 1
            yield from ctx.core.run(self.target.costs.response_post)
            ctx.endpoint.post_send(
                Message(kind="rpc_resp", payload=(rpc_id, True), nbytes=16)
            )
        elif message.kind == "horae_read_meta":
            rpc_id, _payload = message.payload
            records = [
                record
                for record in self.target.pmr.records().values()
                if isinstance(record, dict) and "epoch" in record
            ]
            yield from ctx.core.run(0.04e-6 * max(1, len(records)))
            ctx.endpoint.post_send(
                Message(
                    kind="rpc_resp",
                    payload=(rpc_id, records),
                    nbytes=max(
                        ORDERING_METADATA_SIZE,
                        ORDERING_METADATA_SIZE * len(records),
                    ),
                )
            )
        elif message.kind == "horae_discard":
            rpc_id, extents = message.payload
            for nsid, lba, nblocks in extents:
                ssd = self.target.ssds[nsid]
                yield from ctx.core.run(0.2e-6)
                yield ctx.env.timeout(2e-6)
                ssd.discard(lba, nblocks)
            ctx.endpoint.post_send(
                Message(kind="rpc_resp", payload=(rpc_id, len(extents)),
                        nbytes=16)
            )

    def on_restart(self) -> None:
        self._next_offset = 0


@dataclass
class _HoraeStream:
    group_bios: List[Bio] = field(default_factory=list)
    group_events: List[Event] = field(default_factory=list)
    #: Serialization point: the previous group's control-path completion.
    control_tail: Optional[Event] = None
    epoch: int = 0


class HoraeStack(OrderedStack):
    name = "horae"

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
        self.driver = cluster.driver
        self._streams: Dict[int, _HoraeStream] = {}
        self.policies: List[HoraeTargetPolicy] = []
        for target in self.volume.targets():
            if isinstance(target.policy, HoraeTargetPolicy):
                # Shared target (multi-initiator scale-out): reuse the
                # installed policy so another initiator's PMR ring offset
                # is not reset.  Correct because all cross-group state is
                # keyed per stream and initiators own disjoint stream ids.
                self.policies.append(target.policy)
                continue
            policy = HoraeTargetPolicy()
            target.install_policy(policy)
            self.policies.append(policy)
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
        stream = self._streams.setdefault(bio.stream_id, _HoraeStream())
        if flush and self._needs_flush:
            bio.flags.flush = True
        event = Event(self.env)
        event.bio = bio  # error/status visibility for callers
        stream.group_bios.append(bio)
        stream.group_events.append(event)
        yield from core.run(0.05e-6)
        if end_of_group:
            bios, stream.group_bios = stream.group_bios, []
            events, stream.group_events = stream.group_events, []
            predecessor = stream.control_tail
            control_done = Event(self.env)
            stream.control_tail = control_done
            stream.epoch += 1
            self.env.spawn(
                self._run_group(
                    core, bio.stream_id, stream.epoch, bios, events,
                    predecessor, control_done,
                )
            )
        return event

    # ------------------------------------------------------------------

    def _fragment_map(self, bios: List[Bio]):
        """Per involved target: control endpoint + device-local extents.

        Alongside each extent the control path carries the per-block
        content checksums (HORAE's write verification material): recovery
        validates an epoch by *reading its data back and comparing*, not
        by asking whether the LBA holds anything durable — on a used
        (prefilled) drive every LBA does, which proves nothing about
        this epoch.  ``None`` when the workload carries no payload.
        """
        endpoints = {}
        extents: Dict[str, List] = {}
        checksums: Dict[str, List] = {}
        for bio in bios:
            for ns, request in self.block_layer.split_bio(bio):
                endpoints.setdefault(ns.target.name, ns.endpoints[0])
                extents.setdefault(ns.target.name, []).append(
                    (ns.nsid, request.lba, request.nblocks)
                )
                checksums.setdefault(ns.target.name, []).append(
                    tuple(request.payload)
                    if request.payload is not None
                    else None
                )
        return endpoints, extents, checksums

    def _run_group(
        self,
        core: Core,
        stream_id: int,
        epoch: int,
        bios: List[Bio],
        events: List[Event],
        predecessor: Optional[Event],
        control_done: Event,
    ):
        # ---- Control path: synchronous, serialized per stream ----
        if predecessor is not None and not predecessor.triggered:
            yield predecessor
            yield from core.context_switch()
        endpoints, extents, checksums = self._fragment_map(bios)
        waiters = []
        for target_name, endpoint in endpoints.items():
            metadata = {
                "stream": stream_id,
                "epoch": epoch,
                "extents": extents[target_name],
                "checksums": checksums[target_name],
                "target": target_name,
            }
            waiter = yield from self.driver.rpc(
                core, endpoint, "horae_ctrl", metadata,
                nbytes=ORDERING_METADATA_SIZE,
            )
            waiters.append(waiter)
        for waiter in waiters:
            yield waiter
        # Control metadata durable everywhere: the data path may proceed —
        # and, crucially, so may the *next* group's control path.
        control_done.succeed()

        # ---- Data path: asynchronous ----
        plug = Plug()
        completions = []
        for bio in bios:
            done = yield from self.block_layer.submit_bio(core, bio, plug=plug)
            completions.append(done)
        yield from self.block_layer.finish_plug(core, plug)
        yield self.env.all_of(completions)
        for event in events:
            if not event.triggered:
                event.succeed()

    # ------------------------------------------------------------------
    # Recovery (§6.5)
    # ------------------------------------------------------------------

    def recovery(self) -> "HoraeRecovery":
        return HoraeRecovery(self)


class HoraeRecovery:
    """HORAE's crash recovery: reload ordering metadata, validate the
    in-flight epochs by reading their data blocks, discard the suffix.

    The reload is cheaper than Rio's (16 B metadata vs 32 B attributes and
    no per-server list merge); the data-recovery phase — validation reads
    plus discards — dominates, as in §6.5.
    """

    def __init__(self, stack: "HoraeStack"):
        self.stack = stack

    def _endpoint_for(self, target):
        for ns in self.stack.volume.namespaces:
            if ns.target is target:
                return ns.endpoints[0]
        raise ValueError(f"no namespace on {target.name}")

    @staticmethod
    def _record_durable(target, record: dict) -> bool:
        """One metadata record's extents: does durable media hold *this
        epoch's* data?

        With checksums in the metadata the verdict compares the validation
        read against the epoch's own content — the fix for the
        used-drive hole where ``is_durable`` (does the LBA hold *any*
        durable version?) trivially passes on a prefilled device and a
        torn epoch survives recovery.  Records without checksums (no
        payload modelled) keep the presence check, which is exact on a
        factory-blank drive.
        """
        sums = record.get("checksums") or [None] * len(record["extents"])
        for (nsid, lba, nblocks), expected in zip(record["extents"], sums):
            ssd = target.ssds[nsid]
            if expected is None:
                if not all(
                    ssd.is_durable(block)
                    for block in range(lba, lba + nblocks)
                ):
                    return False
            elif any(
                ssd.durable_payload(lba + i) != expected[i]
                for i in range(nblocks)
            ):
                return False
        return True

    def run_initiator_recovery(self, core):
        """Generator: returns a :class:`repro.core.recovery.RecoveryReport`."""
        from repro.core.recovery import RecoveryReport

        report = RecoveryReport(mode="initiator")
        env = self.stack.env
        started = env.now

        # ---- phase 1: reload ordering metadata ----
        waiters = []
        for target in self.stack.volume.targets():
            endpoint = self._endpoint_for(target)
            waiter = yield from self.stack.driver.rpc(
                core, endpoint, "horae_read_meta", None
            )
            waiters.append(waiter)
        records = []
        for waiter in waiters:
            result = yield waiter
            records.extend(result)
        report.records_scanned = len(records)
        yield from core.run(0.03e-6 * max(1, len(records)))
        report.rebuild_seconds = env.now - started

        # ---- phase 2: validate epochs by reading data, then discard ----
        data_started = env.now
        targets = {t.name: t for t in self.stack.volume.targets()}
        per_stream: Dict[int, List[dict]] = {}
        for record in records:
            per_stream.setdefault(record["stream"], []).append(record)

        # Validation reads: one read per extent, issued concurrently.
        read_events = []
        for record in records:
            target = targets.get(record.get("target"))
            if target is None:
                continue
            for nsid, lba, nblocks in record["extents"]:
                bio = Bio(op="read", lba=0, nblocks=nblocks)
                # Issue the read directly to the right namespace.
                for ns in self.stack.volume.namespaces:
                    if ns.target is target and ns.nsid == nsid:
                        from repro.block.request import BlockRequest

                        request = BlockRequest(op="read", lba=lba,
                                               nblocks=nblocks, bios=[bio])
                        request.qp_index = 0
                        done = yield from self.stack.driver.submit(
                            core, ns, request
                        )
                        read_events.append(done)
                        break
        for event in read_events:
            yield event

        # Verdicts from the validated content; compute per-stream prefixes.
        # An epoch is the *atomic* unit of ordering: with a multi-target
        # volume one epoch leaves one metadata record per involved target,
        # and the epoch is durable only if every record's extents are —
        # validating records individually would let an epoch torn across
        # targets survive on the target whose half happened to persist.
        discards: Dict[str, List] = {}
        for stream_id, stream_records in per_stream.items():
            per_epoch: Dict[int, List[dict]] = {}
            for record in stream_records:
                per_epoch.setdefault(record["epoch"], []).append(record)
            prefix_ok = True
            prefix_epoch = 0
            for epoch in sorted(per_epoch):
                epoch_records = per_epoch[epoch]
                durable = all(
                    targets.get(record.get("target")) is not None
                    and self._record_durable(targets[record["target"]], record)
                    for record in epoch_records
                )
                if prefix_ok and durable:
                    prefix_epoch = epoch
                else:
                    # Beyond the prefix: discard the *whole* epoch on every
                    # involved target, including its durable fragments.
                    prefix_ok = False
                    for record in epoch_records:
                        target = targets.get(record.get("target"))
                        if target is not None:
                            discards.setdefault(target.name, []).extend(
                                record["extents"]
                            )
            report.prefixes[stream_id] = prefix_epoch

        waiters = []
        for target_name, extents in discards.items():
            report.discarded_extents += len(extents)
            endpoint = self._endpoint_for(targets[target_name])
            waiter = yield from self.stack.driver.rpc(
                core, endpoint, "horae_discard", extents,
                nbytes=max(16, 16 * len(extents)),
            )
            waiters.append(waiter)
        for waiter in waiters:
            yield waiter
        report.data_recovery_seconds = env.now - data_started
        return report
