"""NVMe-oF initiator: server, driver, remote namespaces.

The initiator driver turns block requests into NVMe-oF commands, posts them
as two-sided SENDs on the queue pair the block layer selected (Rio's
Principle 2 keys on this), and completes them when the response SEND comes
back through the completion interrupt handler.

Data for writes never passes through this driver: the *target* pulls it
with a one-sided RDMA READ, so only the 64-byte command costs initiator
CPU — which is exactly why merging k requests into one command divides the
per-byte CPU cost by k (Lesson 3, Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

from repro.block.request import BlockRequest
from repro.hw.cpu import Core, CpuSet
from repro.hw.nic import Nic
from repro.net.fabric import Message, QpEndpoint, QueuePair
from repro.nvmeof.command import (
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    STATUS_BROWNOUT,
    STATUS_DEADLINE,
    STATUS_QFULL,
    STATUS_TIMEOUT,
    NvmeCommand,
    NvmeResponse,
    RioFields,
)
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts
from repro.sim.engine import Environment, Event
from repro.sim.rng import DeterministicRNG

__all__ = [
    "InitiatorServer",
    "RemoteNamespace",
    "InitiatorDriver",
    "DriverHardening",
    "RpcTimeout",
    "RECONNECT_DELAY",
]

#: Latency of tearing down and re-arming a broken queue pair (modem-level
#: RC reconnect: destroy QP, re-exchange, transition to RTS).
RECONNECT_DELAY = 20e-6


class RpcTimeout(Exception):
    """A control-plane RPC exhausted its retry budget without a reply."""


@dataclass
class DriverHardening:
    """Transient-fault hardening knobs for :class:`InitiatorDriver`.

    Everything defaults to *off* so that a stock driver schedules no extra
    events and behaves bit-identically to the unhardened one — the fault
    plane must be zero-cost when inactive.

    ``command_timeout``/``rpc_timeout``
        Per-attempt expiry in virtual seconds (None disables the watchdog).
    ``max_retries``
        Retransmissions allowed after the first attempt; when exhausted the
        command error-completes with ``STATUS_TIMEOUT`` (an RPC waiter
        fails with :class:`RpcTimeout`).
    ``backoff``
        Multiplier applied to the expiry after every retry (exponential
        backoff).
    ``jitter``
        Fractional randomization of every backoff delay (``0.1`` spreads
        each delay over ±10%), drawn from the driver's forked
        :class:`~repro.sim.rng.DeterministicRNG` stream — seeded, so runs
        stay reproducible, but synchronized expiries decorrelate instead
        of retransmitting in lock-step.  ``0.0`` (the default) performs no
        RNG draws at all.
    ``watch_liveness``
        Register every pending completion with
        :meth:`repro.sim.engine.Environment.watch_liveness`, so an orphaned
        waiter raises a diagnosable ``SimDeadlock`` instead of hanging.
    ``retry_budget_ratio`` / ``retry_budget_cap``
        Token-bucket retry budget (:class:`repro.robust.admission.RetryBudget`):
        each fresh command earns ``ratio`` of a retransmission token, each
        retransmission spends one.  An empty bucket *suppresses* the
        retransmission (the watchdog keeps waiting) so retries stay a
        bounded fraction of fresh traffic.  ``None`` (default) disables
        budgeting — retransmissions are limited only by ``max_retries``.
    ``qfull_backoff`` / ``qfull_max_requeues`` / ``qfull_batch``
        Reaction to a target-side admission shed (``STATUS_QFULL``): shed
        commands join a per-(target, stream) requeue queue drained by a
        pacer that re-posts a wave of them *in position order* every
        ``qfull_backoff`` seconds (jittered per wave, never per command —
        jittering individual commands would scramble the position order
        the target's dense gate depends on).  The wave size adapts AIMD:
        it grows by one after a wave with no bounce and halves after a
        bounced wave, probing the target's admission window like a
        congestion window, bounded above by ``qfull_batch``.  An ordered
        stream's shed position is a hole only the exact same command can
        fill, so the driver keeps re-posting, throttled, until it gets in.
        ``None`` (default) error-completes sheds instead.  A command
        re-posted ``qfull_max_requeues`` times without ever being admitted
        error-completes and kills its stream.
    ``deadline_margin``
        Fast-fail margin for deadline-carrying requests: fail locally when
        ``now + margin * service_ewma(target)`` exceeds the deadline.
    ``fail_fast``
        After an ordered stream suffers a timeout abort, fail its later
        submissions immediately (sticky dead stream) instead of posting
        into a hole the target-side gate can never fill.
    """

    command_timeout: Optional[float] = None
    rpc_timeout: Optional[float] = None
    max_retries: int = 0
    backoff: float = 2.0
    watch_liveness: bool = False
    jitter: float = 0.0
    retry_budget_ratio: Optional[float] = None
    retry_budget_cap: float = 8.0
    qfull_backoff: Optional[float] = None
    qfull_max_requeues: int = 16
    qfull_batch: int = 32
    deadline_margin: float = 1.0
    fail_fast: bool = False


@dataclass
class _PendingCommand:
    """Driver-side state of one in-flight NVMe-oF command."""

    done: Event
    cmd: NvmeCommand
    ns: "RemoteNamespace"
    request: Optional[BlockRequest]
    endpoint: QpEndpoint
    nbytes: int
    attempts: int = 0
    liveness_token: Optional[int] = None
    #: ``fabric.transfer`` span (observability attached only).
    span: Any = None
    #: The watchdog's currently armed expiry Timeout; cancelled eagerly at
    #: response time so a completed command leaves no live heap entry.
    expiry: Any = None
    #: True from the first QFULL shed until completion/abort: the command
    #: lives in a requeue queue and the pacer owns its retransmission (the
    #: watchdog must not — a watchdog duplicate would arrive out of
    #: position order and bounce off the target's dense admission rule).
    queued: bool = False
    #: Sub-state of ``queued``: True while resting between waves, False
    #: while a pacer re-post is on the wire awaiting its verdict (the
    #: pacer must not post a second copy until the first resolves).
    backing_off: bool = False
    #: QFULL re-posts performed so far.
    requeues: int = 0
    #: Virtual time of the latest post (fresh, retry or requeue) — the
    #: service-latency sample for health scoring and the service EWMA.
    posted_at: float = 0.0


@dataclass
class _PendingRpc:
    """Driver-side state of one in-flight control-plane RPC."""

    waiter: Event
    rpc_id: int
    kind: str
    payload: Any
    nbytes: int
    endpoint: QpEndpoint
    attempts: int = 0
    liveness_token: Optional[int] = None
    #: See :attr:`_PendingCommand.expiry`.
    expiry: Any = None


class InitiatorServer:
    """The host running applications, the file system and the block layer."""

    def __init__(self, env: Environment, name: str, cpus: CpuSet, nic: Nic):
        self.env = env
        self.name = name
        self.cpus = cpus
        self.nic = nic

    def __repr__(self) -> str:
        return f"<InitiatorServer {self.name} cores={len(self.cpus)}>"


class RemoteNamespace:
    """One remote SSD as seen from the initiator.

    Bundles the target server, the namespace id on that target, and the
    initiator-side queue-pair endpoints of the connection to that target.

    ``qp_steering`` selects how block-layer queue indices map onto queue
    pairs: ``"pin"`` (default) is the historical modulo mapping, and
    ``"flow-hash"`` scatters flows RSS-style while keeping each flow on
    one QP.  Both are *stable per flow key* — which is what ordered
    streams need, since per-QP FIFO delivery is Rio's Principle 2.
    (``"round-robin"``/``"least-loaded"`` are rejected here: migrating a
    stream between QPs mid-flight forfeits FIFO delivery, so they are
    only meaningful for target-side interrupt steering.)
    """

    def __init__(
        self,
        target,
        nsid: int,
        endpoints: List[QpEndpoint],
        qp_steering: str = "pin",
    ):
        if not endpoints:
            raise ValueError("a namespace needs at least one queue pair")
        if qp_steering not in ("pin", "flow-hash"):
            raise ValueError(
                f"qp_steering must be 'pin' or 'flow-hash', "
                f"not {qp_steering!r} (ordered streams need a stable "
                f"per-flow queue pair)"
            )
        self.target = target
        self.nsid = nsid
        self.endpoints = endpoints
        self.qp_steering = qp_steering

    @property
    def num_queues(self) -> int:
        return len(self.endpoints)

    def endpoint_for(self, qp_index: int) -> QpEndpoint:
        if self.qp_steering == "flow-hash":
            from repro.hw.cpu import _flow_hash

            return self.endpoints[_flow_hash(qp_index) % len(self.endpoints)]
        return self.endpoints[qp_index % len(self.endpoints)]

    def __repr__(self) -> str:
        return f"<RemoteNamespace {self.target.name}/ns{self.nsid}>"


class InitiatorDriver:
    """Builds commands, posts SENDs, dispatches completion interrupts."""

    def __init__(
        self,
        env: Environment,
        server: InitiatorServer,
        costs: CpuCosts = DEFAULT_COSTS,
        hardening: Optional[DriverHardening] = None,
        steering: str = "pin",
        rng: Optional[DeterministicRNG] = None,
        health=None,
    ):
        self.env = env
        self.server = server
        self.costs = costs
        self.hardening = hardening if hardening is not None else DriverHardening()
        #: Optional :class:`repro.robust.health.HealthMonitor` fed one
        #: observation per completion/abort; ordered submissions to a
        #: target whose breaker is open fail fast with ``STATUS_BROWNOUT``.
        self.health = health
        base_rng = rng if rng is not None else DeterministicRNG(0x5EED).fork(server.name)
        #: Backoff-jitter stream, forked so it never perturbs a caller's
        #: draw sequence; untouched (zero draws) while ``jitter == 0``.
        self._rng = base_rng.fork("driver-backoff")
        cfg = self.hardening
        self.retry_budget = None
        if cfg.retry_budget_ratio is not None:
            # Imported here, not at module top: repro.robust.admission
            # imports the command opcodes through the repro.nvmeof package,
            # so a top-level import would be circular.
            from repro.robust.admission import RetryBudget

            self.retry_budget = RetryBudget(
                ratio=cfg.retry_budget_ratio, cap=cfg.retry_budget_cap
            )
        #: (target name, stream id) -> status of the abort that killed it.
        self._dead_streams: Dict[Tuple[str, int], int] = {}
        #: (target name, stream id or None) -> shed commands awaiting the
        #: requeue pacer; the key's pacer process is live while the key is
        #: in ``_requeue_pacing``.
        self._requeue_queues: Dict[Tuple[str, Any], List[_PendingCommand]] = {}
        self._requeue_pacing: set = set()
        #: Bounce feedback for the pacer's AIMD wave sizing: sheds whose
        #: verdict returned since the key's last wave.
        self._requeue_bounced: Dict[Tuple[str, Any], int] = {}
        #: Per-target EWMA of successful command service time (deadline
        #: fast-fail's expected-cost estimate).
        self._service_ewma: Dict[str, float] = {}
        #: Completion-IRQ steering over the host's cores.  ``pin`` with
        #: flow key = per-connection endpoint index reproduces the
        #: historical ``cpus.pick(index)`` assignment bit-exactly.
        self.irq_steering = server.cpus.steering(steering)
        self._cids = count(1)
        self._rpc_ids = count(1)
        self._pending: Dict[int, _PendingCommand] = {}
        self._pending_rpcs: Dict[int, _PendingRpc] = {}
        self.commands_sent = 0
        self.retries = 0
        self.rpc_retries = 0
        self.commands_timed_out = 0
        self.rpcs_timed_out = 0
        self.reconnects = 0
        self.commands_resubmitted = 0
        self.qfull_responses = 0
        self.commands_requeued = 0
        self.commands_fast_failed = 0
        self.streams_killed = 0
        self._registered_endpoints: set = set()
        self._last_irq: Dict[int, float] = {}
        obs = env.obs
        if obs is not None:
            m = obs.metrics
            m.register_gauge("driver.pending_commands", self.pending_count)
            m.register_gauge("driver.pending_rpcs", self.pending_rpc_count)
            m.register_gauge("driver.commands_sent", lambda: self.commands_sent)
            m.register_gauge("driver.retries", lambda: self.retries)
            m.register_gauge("driver.commands_timed_out",
                             lambda: self.commands_timed_out)
            m.register_gauge("driver.reconnects", lambda: self.reconnects)
            m.register_gauge("driver.commands_resubmitted",
                             lambda: self.commands_resubmitted)
            m.register_gauge("driver.commands_requeued",
                             lambda: self.commands_requeued)
            m.register_gauge("driver.commands_fast_failed",
                             lambda: self.commands_fast_failed)

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------

    def register_connection(self, endpoints: List[QpEndpoint]) -> None:
        """Install response handling on initiator-side endpoints."""
        for index, endpoint in enumerate(endpoints):
            if id(endpoint) in self._registered_endpoints:
                continue
            self._registered_endpoints.add(id(endpoint))
            endpoint.set_receive_handler(self._make_handler(index))
            endpoint.qp.on_breakdown(self._on_qp_breakdown)

    def _make_handler(self, flow: int):
        def handler(message: Message):
            irq_core = self.irq_steering.select(flow)
            yield from self._handle_response(irq_core, message)

        return handler

    def _irq_cost(self, core: Core) -> float:
        """Completion-interrupt entry cost, amortized under coalescing."""
        now = self.env.now
        last = self._last_irq.get(core.index, -1.0)
        self._last_irq[core.index] = now
        if last >= 0 and now - last < self.costs.irq_coalesce_window:
            return 0.0
        return self.costs.irq_entry

    def _handle_response(self, core: Core, message: Message):
        yield from core.run(self._irq_cost(core))
        if message.kind == "nvme_resp":
            response, read_payload = message.payload
            entry = self._pending.get(response.cid)
            if entry is None:
                return  # duplicate/stale response (retry, replay)
            cfg = self.hardening
            if response.status == STATUS_QFULL and cfg.qfull_backoff is not None:
                if entry.queued:
                    # The pacer's posted copy bounced (or a stale duplicate
                    # shed): the entry is still in its queue — rest it for
                    # the next wave, and feed the bounce back into the
                    # pacer's AIMD wave sizing.
                    entry.backing_off = True
                    attr = entry.request.attr if entry.request is not None \
                        else None
                    key = (entry.ns.target.name,
                           attr.stream_id if attr is not None else None)
                    self._requeue_bounced[key] = (
                        self._requeue_bounced.get(key, 0) + 1
                    )
                    return
                self.qfull_responses += 1
                request = entry.request
                deadline = request.deadline if request is not None else None
                if entry.requeues < cfg.qfull_max_requeues and (
                    deadline is None or self.env.now < deadline
                ):
                    self._enqueue_requeue(entry)
                    return
                status = (
                    STATUS_DEADLINE
                    if deadline is not None and self.env.now >= deadline
                    else STATUS_QFULL
                )
                self._abort_command(entry, status,
                                    cause="qfull requeues exhausted")
                return
            del self._pending[response.cid]
            self._unwatch(entry)
            if entry.expiry is not None:
                entry.expiry.cancel()  # no live heap entry outlives us
                entry.expiry = None
            now = self.env.now
            ok = response.status == 0
            latency = now - entry.posted_at
            target_name = entry.ns.target.name
            if ok:
                previous = self._service_ewma.get(target_name)
                self._service_ewma[target_name] = (
                    latency if previous is None
                    else 0.2 * latency + 0.8 * previous
                )
            elif response.status == STATUS_QFULL:
                # Final shed (no requeue configured): the stream now has a
                # hole at the gate that nothing will fill.
                if entry.request is not None and entry.request.attr is not None:
                    self._kill_stream(
                        entry.ns, entry.request.attr.stream_id, STATUS_QFULL
                    )
            if self.health is not None and response.status != STATUS_QFULL:
                # Admission sheds are deliberate protection, not sickness.
                self.health.observe(target_name, latency, ok, now)
            done, cmd = entry.done, entry.cmd
            obs = self.env.obs
            cspan = None
            if obs is not None and entry.span is not None:
                cspan = obs.spans.open(
                    "completion", parent=entry.span, host="initiator",
                    cid=cmd.cid, core=core.index,
                )
            yield from core.run(self.costs.completion_interrupt)
            if read_payload is not None:
                cmd.payload = read_payload
            if response.status and entry.request is not None:
                entry.request.status = response.status
            if obs is not None and entry.span is not None:
                obs.spans.close(cspan, status=response.status)
                obs.spans.close(entry.span, status=response.status,
                                attempts=entry.attempts)
            if not done.triggered:
                done.succeed(cmd)
        elif message.kind == "rpc_resp":
            rpc_id, payload = message.payload
            entry = self._pending_rpcs.pop(rpc_id, None)
            yield from core.run(self.costs.completion_interrupt)
            if entry is not None:
                self._unwatch(entry)
                if entry.expiry is not None:
                    entry.expiry.cancel()  # no live heap entry outlives us
                    entry.expiry = None
                if not entry.waiter.triggered:
                    entry.waiter.succeed(payload)

    def _unwatch(self, entry) -> None:
        if entry.liveness_token is not None:
            self.env.unwatch_liveness(entry.liveness_token)
            entry.liveness_token = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, core: Core, ns: RemoteNamespace, request: BlockRequest):
        """Generator: turn ``request`` into a command and post it.

        Charges the per-command CPU cost on ``core`` and returns the
        completion :class:`Event` (value: the command).  Callers wait with
        ``done = yield from driver.submit(...)`` then ``yield done``.

        Three robustness checks may fail the request locally (an already
        triggered event is returned, ``request.status`` set) without ever
        touching the wire: a sticky dead stream, a deadline whose remaining
        budget is below the expected service cost, and an open circuit
        breaker on an ordered stream's (unmigratable) target.
        """
        now = self.env.now
        attr = request.attr
        if self._dead_streams and attr is not None:
            status = self._dead_streams.get((ns.target.name, attr.stream_id))
            if status is not None:
                return self._fast_fail(request, status, cause="dead stream")
        if request.deadline is not None:
            expect = self._service_ewma.get(ns.target.name, 0.0)
            if now + self.hardening.deadline_margin * expect > request.deadline:
                if attr is not None:
                    self._kill_stream(ns, attr.stream_id, STATUS_DEADLINE)
                return self._fast_fail(request, STATUS_DEADLINE,
                                       cause="deadline budget exhausted")
        if (
            self.health is not None
            and attr is not None
            and self.health.is_open(ns.target.name, now)
        ):
            # Unordered flows steer around an open breaker; an ordered
            # stream cannot migrate, so brown it out explicitly.
            self._kill_stream(ns, attr.stream_id, STATUS_BROWNOUT)
            return self._fast_fail(request, STATUS_BROWNOUT,
                                   cause="circuit breaker open")
        obs = self.env.obs
        fspan = None
        if obs is not None:
            fspan = obs.spans.open(
                "fabric.transfer",
                parent=request.bios[0].obs_span if request.bios else None,
                host="initiator", op=request.op, target=ns.target.name,
                stream=request.stream_id,
                bios=tuple(b.bio_id for b in request.bios),
            )
            if request.obs is None:
                request.obs = {}
            request.obs["fabric"] = fspan
        yield from core.run(self.costs.command_build_and_post)
        cmd = self.command_from_request(request, ns)
        done = Event(self.env)
        endpoint = ns.endpoint_for(request.qp_index)
        if fspan is not None:
            fspan.attrs["cid"] = cmd.cid
            fspan.attrs["qp"] = endpoint.qp.index
        nbytes = NvmeCommand.WIRE_SIZE
        if endpoint.qp.transport == "tcp":
            # NVMe/TCP: data travels inline through the socket — the host
            # pays stack + copy CPU, and the wire carries the data here
            # (there is no later one-sided READ).
            data_blocks = cmd.nblocks if cmd.opcode == OP_WRITE else 0
            yield from core.run(
                self.costs.tcp_stack_per_message
                + self.costs.tcp_copy_per_block * data_blocks
            )
            nbytes += cmd.nbytes if cmd.opcode == OP_WRITE else 0
        entry = _PendingCommand(
            done=done, cmd=cmd, ns=ns, request=request,
            endpoint=endpoint, nbytes=nbytes, span=fspan,
            posted_at=self.env.now,
        )
        self._pending[cmd.cid] = entry
        self.commands_sent += 1
        if self.retry_budget is not None:
            self.retry_budget.earn()
        if (
            attr is not None
            and self._requeue_pacing
            and self._requeue_queues.get((ns.target.name, attr.stream_id))
        ):
            # The stream is already wave-paced behind shed predecessors:
            # posting now would only bounce off the target's dense
            # admission rule.  Join the requeue queue directly (local
            # backpressure — blk-mq's requeue-list idiom — saving the
            # wire round-trip and the target's receive work).
            self._enqueue_requeue(entry)
            self.env.trace("driver", "local_requeue", cid=cmd.cid,
                           stream=attr.stream_id, cause="stream wave-paced")
        else:
            endpoint.post_send(
                Message(kind="nvme_cmd", payload=cmd, nbytes=nbytes)
            )
        cfg = self.hardening
        if cfg.watch_liveness:
            entry.liveness_token = self.env.watch_liveness(
                done,
                f"nvme cid={cmd.cid} op={cmd.opcode} "
                f"target={ns.target.name} qp={endpoint.qp.index}",
            )
        if cfg.command_timeout is not None:
            self.env.spawn(self._command_watchdog(entry))
        return done

    def command_from_request(
        self, request: BlockRequest, ns: RemoteNamespace
    ) -> NvmeCommand:
        """Map a block request onto one NVMe-oF command (Table 1 fields)."""
        opcode = {"write": OP_WRITE, "read": OP_READ, "flush": OP_FLUSH}[request.op]
        rio: Optional[RioFields] = None
        if request.attr is not None:
            rio = request.attr.to_rio_fields()
        return NvmeCommand(
            opcode=opcode,
            cid=next(self._cids),
            nsid=ns.nsid,
            slba=request.lba,
            nblocks=request.nblocks,
            fua=request.fua,
            flush_after=request.flush and request.op == "write",
            barrier=request.barrier,
            rio=rio,
            payload=request.payload,
            context=request,
        )

    # ------------------------------------------------------------------
    # Control-plane RPC (Horae control path, recovery)
    # ------------------------------------------------------------------

    def rpc(
        self,
        core: Core,
        endpoint: QpEndpoint,
        kind: str,
        payload: Any,
        nbytes: int = 32,
    ):
        """Generator: two-sided control round trip; returns the reply event.

        Used for Horae's ordering-metadata SENDs and for recovery RPCs.
        The target policy answers via an ``rpc_resp`` message carrying the
        same rpc id.
        """
        yield from core.run(self.costs.command_build_and_post)
        rpc_id = next(self._rpc_ids)
        waiter = Event(self.env)
        entry = _PendingRpc(
            waiter=waiter, rpc_id=rpc_id, kind=kind, payload=payload,
            nbytes=nbytes, endpoint=endpoint,
        )
        self._pending_rpcs[rpc_id] = entry
        endpoint.post_send(
            Message(kind=kind, payload=(rpc_id, payload), nbytes=nbytes)
        )
        cfg = self.hardening
        if cfg.watch_liveness:
            entry.liveness_token = self.env.watch_liveness(
                waiter, f"rpc {kind} id={rpc_id} qp={endpoint.qp.index}"
            )
        if cfg.rpc_timeout is not None:
            self.env.spawn(self._rpc_watchdog(entry))
        return waiter

    # ------------------------------------------------------------------
    # Transient-fault hardening: expiry, retries, reconnect
    # ------------------------------------------------------------------

    def _command_watchdog(self, entry: _PendingCommand):
        """Per-command expiry: retry with exponential backoff, then
        error-complete (``STATUS_TIMEOUT``) when the budget runs out.

        A retry re-posts the *same* command (same CID, same ordering
        attribute): the target's duplicate suppression makes re-execution
        of ordered writes idempotent, and the driver drops whichever
        response arrives second.
        """
        cfg = self.hardening
        delay = cfg.command_timeout
        while True:
            armed = delay
            if cfg.jitter > 0.0:
                armed = self._rng.jitter(delay, cfg.jitter)
            expiry = self.env.timeout(armed)
            entry.expiry = expiry
            yield self.env.any_of([entry.done, expiry])
            if entry.done.triggered:
                expiry.cancel()  # disarm: don't leak a live heap entry
                return
            if entry.cmd.cid not in self._pending:
                return  # completed/aborted concurrently
            if entry.queued:
                continue  # the requeue pacer owns the command: a watchdog
                #           duplicate would arrive out of position order
            if entry.attempts >= cfg.max_retries:
                self.commands_timed_out += 1
                if cfg.fail_fast and entry.request is not None \
                        and entry.request.attr is not None:
                    self._kill_stream(entry.ns, entry.request.attr.stream_id,
                                      STATUS_TIMEOUT)
                if self.health is not None:
                    self.health.observe(entry.ns.target.name, None, False,
                                        self.env.now)
                self._abort_command(entry, STATUS_TIMEOUT,
                                    cause="retry budget exhausted")
                return
            if (
                self.retry_budget is not None
                and not self.retry_budget.try_spend()
            ):
                # Bucket empty: suppress this retransmission and keep
                # waiting — no storm, the original post may still answer.
                delay *= cfg.backoff
                self.env.trace(
                    "driver", "retry_suppressed", cid=entry.cmd.cid,
                    attempt=entry.attempts, cause="retry budget empty",
                )
                continue
            entry.attempts += 1
            self.retries += 1
            delay *= cfg.backoff
            self.env.trace(
                "driver", "retry", cid=entry.cmd.cid, attempt=entry.attempts,
                next_timeout=delay, cause="command expiry",
            )
            entry.posted_at = self.env.now
            self._repost_command(entry)

    def _rpc_watchdog(self, entry: _PendingRpc):
        cfg = self.hardening
        delay = cfg.rpc_timeout
        while True:
            armed = delay
            if cfg.jitter > 0.0:
                armed = self._rng.jitter(delay, cfg.jitter)
            expiry = self.env.timeout(armed)
            entry.expiry = expiry
            yield self.env.any_of([entry.waiter, expiry])
            if entry.waiter.triggered:
                expiry.cancel()  # disarm: don't leak a live heap entry
                return
            if entry.rpc_id not in self._pending_rpcs:
                return
            if entry.attempts >= cfg.max_retries:
                self._pending_rpcs.pop(entry.rpc_id, None)
                self._unwatch(entry)
                self.rpcs_timed_out += 1
                self.env.trace(
                    "driver", "rpc_abort", rpc_id=entry.rpc_id,
                    kind=entry.kind, attempts=entry.attempts,
                    cause="retry budget exhausted",
                )
                if not entry.waiter.triggered:
                    entry.waiter.fail(RpcTimeout(
                        f"rpc {entry.kind!r} id={entry.rpc_id} got no reply "
                        f"after {entry.attempts + 1} attempts"
                    ))
                return
            entry.attempts += 1
            self.rpc_retries += 1
            delay *= cfg.backoff
            self.env.trace(
                "driver", "rpc_retry", rpc_id=entry.rpc_id, kind=entry.kind,
                attempt=entry.attempts, next_timeout=delay,
                cause="rpc expiry",
            )
            self._repost_rpc(entry)

    def _enqueue_requeue(self, entry: _PendingCommand) -> None:
        """Queue a shed command for the per-(target, stream) requeue pacer,
        starting the pacer if this stream has none running."""
        attr = entry.request.attr if entry.request is not None else None
        key = (
            entry.ns.target.name,
            attr.stream_id if attr is not None else None,
        )
        entry.queued = True
        entry.backing_off = True
        self._requeue_queues.setdefault(key, []).append(entry)
        if key not in self._requeue_pacing:
            self._requeue_pacing.add(key)
            self.env.process(self._requeue_pacer(key))

    def _requeue_pacer(self, key):
        """Drain one stream's shed commands in position-ordered waves.

        Unlike a timeout, QFULL is an *explicit* pacing signal: the target
        is up, told us exactly why the command bounced, and frees admission
        slots at its service rate — so the right reaction is a short fixed
        wave period, not per-command exponential backoff (which reliably
        parks whole streams in multi-millisecond sleeps under sustained
        overload, leaving the admission window idle between ever-sparser
        waves).  Re-posting each wave *in position order* matters just as
        much: the target admits an ordered stream's positions densely, so
        independently jittered per-command timers would scramble the order
        and cap throughput at O(1) admissions per wave — or worse, let an
        admitted later position camp on an admission slot at the gate
        while the hole's command is still asleep here.  One pacer per
        (target, stream) re-posts one wave of queued commands per period,
        lowest position first.

        Crucially, an entry *stays in the queue* from its first shed until
        it completes or aborts: a posted entry whose verdict (admitted
        completion, or another shed) is still on the wire is simply skipped
        this wave, never re-posted and never removed.  Removing entries for
        the bounce round-trip punches transient holes right at the dense
        admission frontier — the sorted wave then admits only the few
        positions in front of the first hole, capping goodput at a small
        constant per wave regardless of how much admission room is free.

        The wave size is AIMD-adapted (grow by one on a clean wave, halve
        when sheds bounced since the last one, capped at ``qfull_batch``):
        the pacer probes the target's free admission share the way a
        congestion window probes a bottleneck.  Overshooting is not merely
        wasted — each excess post costs the target receive work, and a
        wave wider than the delivery rate covers in one period smears
        across its successor, so the next wave's low positions arrive
        interleaved *behind* this wave's stale high ones and the dense
        frontier sheds on its own retransmissions.
        """
        cfg = self.hardening
        queue = self._requeue_queues[key]
        wave = min(cfg.qfull_batch, 8)
        #: A posted entry whose verdict hasn't returned after a full
        #: timeout-scale stall lost it (message drop): rest and re-post.
        stale_after = (
            cfg.command_timeout
            if cfg.command_timeout is not None
            else 4 * cfg.qfull_backoff
        )
        try:
            while queue:
                delay = cfg.qfull_backoff
                if cfg.jitter > 0.0:
                    delay = self._rng.jitter(delay, cfg.jitter)
                yield self.env.timeout(delay)
                queue[:] = [
                    e for e in queue
                    if not e.done.triggered and e.cmd.cid in self._pending
                ]
                queue.sort(
                    key=lambda e: (
                        e.request.attr.server_pos
                        if e.request is not None and e.request.attr is not None
                        else e.cmd.cid
                    )
                )
                if self._requeue_bounced.pop(key, 0):
                    wave = max(1, wave // 2)
                else:
                    wave = min(cfg.qfull_batch, wave + 1)
                posted = 0
                for entry in queue:
                    if posted >= wave:
                        break
                    if not entry.backing_off:
                        if self.env.now - entry.posted_at >= stale_after:
                            entry.backing_off = True
                        continue
                    request = entry.request
                    if (
                        request is not None
                        and request.deadline is not None
                        and self.env.now >= request.deadline
                    ):
                        self._abort_command(
                            entry, STATUS_DEADLINE,
                            cause="deadline expired in requeue queue",
                        )
                        continue
                    if entry.requeues >= cfg.qfull_max_requeues:
                        self._abort_command(
                            entry, STATUS_QFULL,
                            cause="qfull requeues exhausted",
                        )
                        continue
                    entry.requeues += 1
                    self.commands_requeued += 1
                    entry.backing_off = False
                    entry.posted_at = self.env.now
                    self.env.trace("driver", "requeue", cid=entry.cmd.cid,
                                   requeue=entry.requeues, cause="target qfull")
                    self._repost_command(entry)
                    posted += 1
        finally:
            self._requeue_pacing.discard(key)
            self._requeue_bounced.pop(key, None)

    def _abort_command(
        self, entry: _PendingCommand, status: int, cause: str
    ) -> None:
        """Error-complete a pending command locally (timeout exhaustion,
        QFULL-requeue exhaustion).  An ordered stream is killed sticky when
        the shed/deadline machinery aborts it — its position history now
        has a permanent hole at the target gate."""
        self._pending.pop(entry.cmd.cid, None)
        self._unwatch(entry)
        if entry.expiry is not None:
            entry.expiry.cancel()
            entry.expiry = None
        request = entry.request
        if request is not None:
            request.status = status
            if status in (STATUS_QFULL, STATUS_DEADLINE) \
                    and request.attr is not None:
                self._kill_stream(entry.ns, request.attr.stream_id, status)
        if entry.span is not None:
            obs = self.env.obs
            if obs is not None:
                obs.spans.close(entry.span, status=status, aborted=1,
                                attempts=entry.attempts)
        self.env.trace(
            "driver", "command_abort", cid=entry.cmd.cid,
            attempts=entry.attempts, cause=cause,
        )
        if not entry.done.triggered:
            entry.done.succeed(entry.cmd)

    def _kill_stream(
        self, ns: RemoteNamespace, stream_id: int, status: int
    ) -> None:
        key = (ns.target.name, stream_id)
        if key not in self._dead_streams:
            self._dead_streams[key] = status
            self.streams_killed += 1
            self.env.trace("driver", "stream_dead", target=ns.target.name,
                           stream=stream_id, status=status)

    def _fast_fail(self, request: BlockRequest, status: int, cause: str):
        """Complete ``request`` locally without posting anything: returns
        an already-triggered event, ``request.status`` set."""
        self.commands_fast_failed += 1
        request.status = status
        self.env.trace("driver", "fast_fail", op=request.op,
                       stream=request.stream_id, status=status, cause=cause)
        done = Event(self.env)
        done.succeed(None)
        return done

    def _repost_command(self, entry: _PendingCommand) -> None:
        """Retransmit without CPU charge (timer/IRQ context)."""
        request = entry.request
        if request is not None and request.qp_index is not None:
            entry.endpoint = entry.ns.endpoint_for(request.qp_index)
        entry.endpoint.post_send(
            Message(kind="nvme_cmd", payload=entry.cmd, nbytes=entry.nbytes)
        )

    def _repost_rpc(self, entry: _PendingRpc) -> None:
        entry.endpoint.post_send(
            Message(
                kind=entry.kind,
                payload=(entry.rpc_id, entry.payload),
                nbytes=entry.nbytes,
            )
        )

    def _on_qp_breakdown(self, qp: QueuePair) -> None:
        self.env.process(self._reconnect_and_resubmit(qp))

    def _reconnect_and_resubmit(self, qp: QueuePair):
        """Epoch-bumping reconnect after a QP breakdown.

        The breakdown already bumped both endpoints' epochs (discarding
        everything in flight).  After the reconnect delay, every pending
        command that was traveling on the broken QP is resubmitted in
        original submission order (CIDs are monotonic), so the per-QP FIFO
        delivery the ordering design leans on (Principle 2) is restored.
        """
        self.reconnects += 1
        yield self.env.timeout(RECONNECT_DELAY)
        self.env.trace("driver", "reconnect", qp=qp.index,
                       cause="qp breakdown")
        commands = sorted(
            (e for e in self._pending.values() if e.endpoint.qp is qp),
            key=lambda e: e.cmd.cid,
        )
        for entry in commands:
            self.commands_resubmitted += 1
            self.env.trace("driver", "resubmit", cid=entry.cmd.cid,
                           qp=qp.index, cause="qp breakdown")
            self._repost_command(entry)
        rpcs = sorted(
            (e for e in self._pending_rpcs.values() if e.endpoint.qp is qp),
            key=lambda e: e.rpc_id,
        )
        for entry in rpcs:
            self.env.trace("driver", "resubmit_rpc", rpc_id=entry.rpc_id,
                           kind=entry.kind, qp=qp.index,
                           cause="qp breakdown")
            self._repost_rpc(entry)

    # ------------------------------------------------------------------
    # Bookkeeping / leak checks
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        return len(self._pending)

    def pending_rpc_count(self) -> int:
        return len(self._pending_rpcs)

    def assert_no_leaks(self) -> None:
        """Raise if any pending-table entry leaked (used by tests after a
        workload has fully quiesced)."""
        if self._pending or self._pending_rpcs:
            cids = sorted(self._pending)[:8]
            rpcs = sorted(self._pending_rpcs)[:8]
            raise AssertionError(
                f"driver leaked {len(self._pending)} pending command(s) "
                f"(cids {cids}) and {len(self._pending_rpcs)} pending "
                f"rpc(s) (ids {rpcs})"
            )
