"""Chaos harness: ordered workloads under randomized transient faults.

Each *trial* builds a fresh cluster with driver hardening enabled
(per-command expiry + retries, RPC timeouts, liveness watching), installs a
seeded :class:`~repro.sim.faults.FaultPlan` (probabilistic message
loss/corruption/delay plus at least one queue-pair breakdown and one target
stall), runs a multi-stream ordered-write workload over one of the
reproduced stacks, and audits the outcome:

* **forward progress** — every group completes before the virtual-time
  limit and nothing deadlocks (a drained heap with pending liveness-watched
  completions raises :class:`~repro.sim.engine.SimDeadlock`);
* **in-order completion** — per stream, groups complete in submission
  order (checked for stacks that promise it: Rio and Linux);
* **no duplicate applies / prefix property** — the target-side audit log
  must show each ``(stream, position)`` submitted to the SSD exactly once
  and in strictly increasing position order, even though the initiator
  retransmits commands under loss (§4.4's idempotence argument);
* **no leaks** — the driver's pending tables must be empty after the run.

:func:`measure_degradation` runs a timed fault burst only (no
probabilistic loss) and bins completions into before/during/after windows
so graceful degradation — a dip during the burst, recovery after — can be
asserted quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.block.request import Bio
from repro.cluster import Cluster
from repro.harness.experiment import LAYOUTS
from repro.nvmeof.initiator import DriverHardening
from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.faults import FaultPlan
from repro.sim.rng import DeterministicRNG

__all__ = [
    "CHAOS_HARDENING",
    "ChaosResult",
    "build_fault_plan",
    "run_chaos_trial",
    "chaos_suite_sweep",
    "run_chaos_suite",
    "measure_degradation",
    "build_scale_fault_plan",
    "run_tenant_chaos_trial",
]

#: Hardening profile used by every chaos trial: generous retry budget so
#: sub-5% message loss cannot plausibly exhaust it, expiry long enough to
#: ride out a target stall without spurious aborts dominating.
CHAOS_HARDENING = DriverHardening(
    command_timeout=400e-6,
    rpc_timeout=400e-6,
    max_retries=10,
    backoff=1.5,
    watch_liveness=True,
)

#: Private LBA area per workload stream (blocks), far apart per stream.
STREAM_AREA_BLOCKS = 1_000_000


@dataclass
class ChaosResult:
    """Audited outcome of one chaos trial."""

    system: str
    seed: int
    threads: int
    groups_per_thread: int
    deadlocked: bool = False
    deadlock_reason: str = ""
    completed_groups: int = 0
    elapsed: float = 0.0
    #: (stream, group_index, completion_time) in completion order.
    completion_log: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Streams whose groups completed out of submission order.
    completion_order_violations: List[Tuple[int, List[int]]] = field(
        default_factory=list
    )
    #: (stream, server_pos, epoch) keys applied to an SSD more than once.
    duplicate_applies: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Per-stream position regressions in the target submission order.
    submission_order_violations: List[Tuple[int, int, int]] = field(
        default_factory=list
    )
    #: Writes completed in error (bio.status != 0).
    errors: List[Tuple[int, int, int]] = field(default_factory=list)
    leak_error: str = ""
    # -- fault / recovery accounting --
    fault_counts: Dict[str, int] = field(default_factory=dict)
    messages_dropped: int = 0
    messages_corrupted: int = 0
    messages_delayed: int = 0
    retries: int = 0
    rpc_retries: int = 0
    reconnects: int = 0
    commands_resubmitted: int = 0
    commands_timed_out: int = 0
    duplicates_suppressed: int = 0
    #: Live (non-cancelled) event-heap entries at the end of the run.
    #: Completed watchdog arms must disarm their expiry timeouts; a large
    #: value here means commands are leaking armed timers (see
    #: ``Timeout.cancel``).
    heap_live_entries: int = 0
    #: Per-host driver reconnect/retry counts, indexed by initiator host.
    node_reconnects: List[int] = field(default_factory=list)
    node_retries: List[int] = field(default_factory=list)
    #: SMART snapshot per device (``"t0/q0"`` keys) at the end of the run:
    #: lets qualification trials assert the fault burst actually landed in
    #: the GC / cache-pressure regime, not on an idle factory-fresh drive.
    device_health: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Tenant trials only: per-class latency accounting over the measured
    #: window (``{class: {count, mean_us, p50_us, p99_us, p999_us}}``),
    #: so noisy-neighbor chaos regressions can bound the quiet class's
    #: tail while the aggressor is being shed (empty for classless trials).
    class_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Admission sheds by reason across all targets (tenant trials).
    sheds_by_reason: Dict[str, float] = field(default_factory=dict)

    @property
    def total_groups(self) -> int:
        return self.threads * self.groups_per_thread

    @property
    def ok(self) -> bool:
        """True when every robustness invariant held for this trial."""
        return (
            not self.deadlocked
            and self.completed_groups == self.total_groups
            and not self.completion_order_violations
            and not self.duplicate_applies
            and not self.submission_order_violations
            and not self.errors
            and not self.leak_error
        )

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"{self.system:>8} seed={self.seed:<4} {status}: "
            f"{self.completed_groups}/{self.total_groups} groups in "
            f"{self.elapsed * 1e3:.2f}ms  "
            f"drops={self.messages_dropped} corrupt={self.messages_corrupted} "
            f"retries={self.retries} reconnects={self.reconnects} "
            f"dups_suppressed={self.duplicates_suppressed} "
            f"faults={self.fault_counts}"
        )


def build_fault_plan(
    seed: int,
    num_qps: int,
    num_targets: int,
    horizon: float = 400e-6,
    max_loss: float = 0.05,
) -> FaultPlan:
    """A randomized plan meeting the chaos-suite floor: probabilistic
    loss/corruption/delay at or below ``max_loss`` each, plus at least one
    queue-pair breakdown and one target stall inside ``horizon``.  The
    default horizon is short enough that the timed faults land while the
    default trial workload is still in flight on every stack."""
    rng = DeterministicRNG(seed).fork("chaos-plan")
    plan = FaultPlan(
        seed=seed * 7919 + 13,
        message_loss=rng.uniform(0.005, max_loss),
        corruption=rng.uniform(0.0, 0.01),
        delay_probability=rng.uniform(0.0, 0.03),
        delay_range=(5e-6, 40e-6),
    )
    for _ in range(rng.randint(1, 2)):
        plan.qp_breakdown(
            at=rng.uniform(0.15 * horizon, 0.75 * horizon),
            qp_index=rng.randint(0, num_qps - 1),
        )
    for _ in range(rng.randint(1, 2)):
        plan.target_stall(
            at=rng.uniform(0.15 * horizon, 0.75 * horizon),
            target_index=rng.randint(0, num_targets - 1),
            duration=rng.uniform(50e-6, 200e-6),
        )
    return plan


def _ordered_workload(
    env: Environment,
    cluster: Cluster,
    stack,
    thread_id: int,
    groups: int,
    writes_per_group: int,
    depth: int,
    on_write_done,
):
    """Generator: issue ``groups`` ordered groups on one stream, keeping at
    most ``depth`` groups in flight (Rio pipelines; Linux chains anyway).
    Every write's completion calls ``on_write_done(stream, group, bio,
    last)``, ``last`` marking the group's final write."""
    core = cluster.initiator.cpus.pick(thread_id)
    base = thread_id * STREAM_AREA_BLOCKS
    inflight: List[Event] = []
    for group in range(groups):
        for w in range(writes_per_group):
            last = w == writes_per_group - 1
            bio = Bio(op="write", nblocks=1, stream_id=thread_id,
                      lba=base + (group * writes_per_group + w) * 2)
            event = yield from stack.submit_ordered(
                core, bio, end_of_group=last, kick=last,
            )
            event.callbacks.append(on_write_done(thread_id, group, bio, last))
        inflight.append(event)
        while len(inflight) >= depth:
            yield inflight.pop(0)
    for event in inflight:
        if not event.triggered:
            yield event


def run_chaos_trial(
    system: str = "rio",
    seed: int = 0,
    layout: str = "optane",
    threads: int = 4,
    groups_per_thread: int = 12,
    writes_per_group: int = 2,
    depth: int = 4,
    plan: Optional[FaultPlan] = None,
    limit: float = 50e-3,
    prefill: float = 0.0,
    plan_spec: Optional[dict] = None,
    initiators: int = 1,
    victim: Optional[int] = None,
    faults: bool = True,
) -> ChaosResult:
    """One seeded trial: build, inject, run, audit.

    The cluster has ``initiators`` hosts fanning in to the layout's
    targets, and stream ``s`` lives on host ``s % initiators``.  Without
    an explicit plan, ``faults`` builds one: :func:`build_fault_plan`
    when ``victim`` is None, else a breakdown-only plan confined to host
    ``victim``'s queue pairs (:func:`build_scale_fault_plan`), which keeps
    the bystander hosts' paths fault-free.  ``faults=False`` runs the
    identical seeded trial fault-free, a baseline to bound the bystanders'
    completion times against.

    ``prefill`` fills that fraction of each device's logical capacity
    before the workload starts (see :meth:`NvmeSsd.prefill`) so trials on
    the qualification layout run with steady-state GC and cache eviction
    pressure active — the regime where a crash lands mid-drain.

    ``plan_spec`` is the JSON-encodable alternative to ``plan`` (a
    :meth:`FaultPlan.to_dict` document, i.e. a ScenarioSpec ``faults``
    section): unlike a live ``FaultPlan`` it survives
    :class:`~repro.harness.sweep.RunSpec` encoding, so spec-driven chaos
    sweeps can fan trials out across worker processes and memoize them.
    """
    from repro.scale import ShardedStack

    if plan_spec is not None:
        if plan is not None:
            raise ValueError("pass plan or plan_spec, not both")
        plan = FaultPlan.from_dict(plan_spec)
    env = Environment()
    cluster = Cluster(
        env,
        LAYOUTS[layout],
        num_initiators=initiators,
        initiator_cores=max(threads, 2),
        target_cores=8,
        num_qps=max(threads, 2),
        seed=seed,
        hardening=CHAOS_HARDENING,
    )
    if prefill:
        for target in cluster.targets:
            for ssd in target.ssds:
                ssd.prefill(prefill)
    stack = ShardedStack(cluster, system, num_streams=threads)
    if plan is None and faults:
        if victim is None:
            plan = build_fault_plan(
                seed, num_qps=max(threads, 2),
                num_targets=len(cluster.targets),
            )
        else:
            qps_per_node = len(cluster.fabric.queue_pairs) // initiators
            plan = build_scale_fault_plan(
                seed, (victim * qps_per_node, (victim + 1) * qps_per_node),
            )
    if plan is not None:
        plan.install(cluster)

    result = ChaosResult(
        system=system,
        seed=seed,
        threads=threads,
        groups_per_thread=groups_per_thread,
    )
    # Unordered stacks complete a group's writes in any order, so the run
    # is done when every write has completed, not every group's last one.
    total_writes = threads * groups_per_thread * writes_per_group
    all_done = Event(env)
    bios: List = []

    def on_write_done(stream: int, group: int, bio, last: bool):
        def callback(_event: Event) -> None:
            if last:
                result.completion_log.append((stream, group, env.now))
            bios.append((stream, group, bio))
            if len(bios) == total_writes and not all_done.triggered:
                all_done.succeed()

        return callback

    for thread_id in range(threads):
        env.process(
            _ordered_workload(
                env,
                cluster,
                stack,
                thread_id,
                groups_per_thread,
                writes_per_group,
                depth,
                on_write_done,
            )
        )

    try:
        env.run_until_event(all_done, limit=limit)
    except SimulationError as exc:  # includes SimDeadlock
        result.deadlocked = True
        result.deadlock_reason = f"{type(exc).__name__}: {exc}"

    result.completed_groups = len(result.completion_log)
    result.elapsed = env.now
    result.heap_live_entries = env.live_heap_size()

    # -- audits --------------------------------------------------------
    if system in ("rio", "linux"):
        per_stream: Dict[int, List[int]] = {}
        for stream, group, _t in result.completion_log:
            per_stream.setdefault(stream, []).append(group)
        for stream, order in sorted(per_stream.items()):
            if order != sorted(order):
                result.completion_order_violations.append((stream, order))
    for stream, group, bio in bios:
        if bio.status:
            result.errors.append((stream, group, bio.status))
    if not result.deadlocked:
        for node in cluster.nodes:
            try:
                node.driver.assert_no_leaks()
            except AssertionError as exc:
                result.leak_error = f"node {node.index}: {exc}"
    _audit_cluster(result, cluster, plan)
    return result


#: :meth:`repro.cluster.Cluster.counters` entries a ChaosResult carries.
_RESULT_COUNTERS = (
    "retries", "rpc_retries", "reconnects", "commands_resubmitted",
    "commands_timed_out", "duplicates_suppressed",
)


def _audit_cluster(result: ChaosResult, cluster: Cluster,
                   plan: Optional[FaultPlan]) -> None:
    """The target-side audits, device health, fault and recovery
    counters every chaos trial reports."""
    for target in cluster.targets:
        result.duplicate_applies.extend(target.duplicate_applies())
        result.submission_order_violations.extend(
            target.submission_order_violations()
        )
        for ssd in target.ssds:
            result.device_health[ssd.name] = ssd.smart()
    if plan is not None:
        result.fault_counts = plan.counts()
        result.messages_dropped = plan.messages_dropped
        result.messages_corrupted = plan.messages_corrupted
        result.messages_delayed = plan.messages_delayed
    counters = cluster.counters()
    for name in _RESULT_COUNTERS:
        setattr(result, name, counters[name])
    result.sheds_by_reason = {
        key[len("shed_"):]: float(n) for key, n in counters.items()
        if key.startswith("shed_")
    }
    result.node_reconnects = [node.driver.reconnects for node in cluster.nodes]
    result.node_retries = [node.driver.retries for node in cluster.nodes]


def chaos_suite_sweep(
    systems: Tuple[str, ...] = ("rio", "horae", "linux"),
    trials: int = 30,
    base_seed: int = 1000,
    **trial_kwargs,
):
    """The chaos suite as a :class:`~repro.harness.sweep.Sweep`.

    Each trial is one spec (seeded, independent, returning a picklable
    :class:`ChaosResult`), so the suite fans out across worker processes
    and memoizes like the figure sweeps.  Raises ``TypeError`` if
    ``trial_kwargs`` contains something spec-encodable kwargs can't carry
    (e.g. a pre-built :class:`~repro.sim.faults.FaultPlan`) — use
    :func:`run_chaos_suite`, which falls back to the inline loop.
    """
    from repro.harness.sweep import RunSpec, Sweep

    specs = [
        RunSpec.make(
            run_chaos_trial,
            label=f"chaos/{system}/seed{base_seed + i}",
            system=system,
            seed=base_seed + i,
            **trial_kwargs,
        )
        for system in systems
        for i in range(trials)
    ]
    return Sweep(name="chaos-suite", specs=specs)


def run_chaos_suite(
    systems: Tuple[str, ...] = ("rio", "horae", "linux"),
    trials: int = 30,
    base_seed: int = 1000,
    jobs: Optional[int] = None,
    cache=None,
    **trial_kwargs,
) -> List[ChaosResult]:
    """``trials`` seeded trials per system; returns every result.

    ``jobs``/``cache`` route the trials through a
    :class:`~repro.harness.sweep.SweepRunner` (parallel workers and/or the
    on-disk result cache).  Left at None the suite runs inline — and it
    always does when ``trial_kwargs`` carries objects a spec can't encode,
    such as an explicit ``plan``.
    """
    if jobs is not None or cache is not None:
        from repro.harness.sweep import SweepRunner

        try:
            sweep = chaos_suite_sweep(
                systems=systems, trials=trials, base_seed=base_seed,
                **trial_kwargs,
            )
        except TypeError:
            pass  # unencodable kwargs: fall through to the inline loop
        else:
            return SweepRunner(jobs=jobs or 1, cache=cache).map(sweep.specs)
    results: List[ChaosResult] = []
    for system in systems:
        for i in range(trials):
            results.append(
                run_chaos_trial(system=system, seed=base_seed + i, **trial_kwargs)
            )
    return results


def measure_degradation(
    system: str = "rio",
    seed: int = 7,
    threads: int = 4,
    groups_per_thread: int = 120,
    fault_start: float = 500e-6,
    fault_end: float = 900e-6,
) -> Dict[str, float]:
    """Throughput before/during/after a timed fault burst.

    The plan has *no* probabilistic faults — only a queue-pair breakdown
    and a target stall inside ``[fault_start, fault_end)`` — so the
    before/after windows are clean and the dip is attributable.
    Returns completions-per-second rates for the three windows.
    """
    plan = FaultPlan(seed=seed)
    plan.qp_breakdown(at=fault_start, qp_index=0)
    plan.target_stall(
        at=fault_start + 20e-6,
        target_index=0,
        duration=(fault_end - fault_start) * 0.6,
    )
    result = run_chaos_trial(
        system=system,
        seed=seed,
        threads=threads,
        groups_per_thread=groups_per_thread,
        plan=plan,
    )
    before = [t for _s, _g, t in result.completion_log if t < fault_start]
    during = [
        t for _s, _g, t in result.completion_log if fault_start <= t < fault_end
    ]
    after = [t for _s, _g, t in result.completion_log if t >= fault_end]
    end = result.elapsed
    return {
        "ok": float(result.ok),
        "before_rate": len(before) / fault_start if fault_start else 0.0,
        "during_rate": len(during) / (fault_end - fault_start),
        "after_rate": (
            len(after) / (end - fault_end) if end > fault_end else 0.0
        ),
        "completed": float(result.completed_groups),
        "total": float(result.total_groups),
    }


# ----------------------------------------------------------------------
# Victim-host fault plans, and the tenant storm under faults
# ----------------------------------------------------------------------


def build_scale_fault_plan(
    seed: int,
    victim_qp_range: Tuple[int, int],
    horizon: float = 200e-6,
) -> FaultPlan:
    """A breakdown-only plan confined to one initiator host's queue pairs.

    ``victim_qp_range`` is the half-open ``[lo, hi)`` slice of
    ``fabric.queue_pairs`` owned by the victim host (hosts connect in
    index order, so host ``i`` owns one contiguous run of QP indices).
    No probabilistic loss is injected: the bystander hosts' fabric paths
    stay fault-free by construction, which is exactly what makes the
    blast-radius assertions in ``benchmarks/test_chaos.py`` sharp.
    """
    lo, hi = victim_qp_range
    if hi <= lo:
        raise ValueError("victim owns no queue pairs")
    rng = DeterministicRNG(seed).fork("scale-chaos-plan")
    plan = FaultPlan(seed=seed * 7919 + 29)
    for _ in range(rng.randint(1, 2)):
        plan.qp_breakdown(
            at=rng.uniform(0.15 * horizon, 0.75 * horizon),
            qp_index=rng.randint(lo, hi - 1),
        )
    return plan


def run_tenant_chaos_trial(
    system: str = "rio",
    seed: int = 0,
    layout: str = "optane",
    gold_kiops: float = 20.0,
    aggressor_kiops: float = 40.0,
    aggressor_lanes: int = 30,
    aggressor_blocks: int = 32,
    pace_kiops: float = 0.1,
    qos: bool = True,
    quantum: float = 8.0,
    duration: float = 3e-3,
    warmup: float = 2e-3,
    faults: bool = True,
) -> ChaosResult:
    """The noisy-neighbor storm with transient faults layered on.

    Same seeded testbed as
    :func:`repro.harness.tenants.probe_noisy_neighbor` — one quiet gold
    tenant vs. a bronze aggressor of large writes at a multiple of the
    media pipe's capacity, QoS admission pacing the aggressor when
    ``qos`` — plus, when ``faults``, a queue-pair breakdown on one of the
    aggressor's lanes and a target stall, both landing inside the
    measured window.  The per-class latencies go to
    :attr:`ChaosResult.class_latency` so the regression can bound the
    gold tail while faults and shedding are both active; the usual
    target-side audits (duplicate applies, submission order) apply
    unchanged.
    """
    from repro.harness.tenants import _StormPlane, _storm_testbed
    from repro.scale import run_open_loop

    cluster, stack, config = _storm_testbed(
        system, layout, gold_kiops, aggressor_kiops, aggressor_lanes,
        aggressor_blocks, pace_kiops, qos, quantum, duration, warmup,
        "pin", seed,
    )
    plan: Optional[FaultPlan] = None
    if faults:
        # Break an aggressor lane's queue pair (gold's lane 0 pins to QP
        # 0 — the faults stress recovery, not the quiet tenant's path)
        # and stall the target briefly, both inside the measured window.
        plan = FaultPlan(seed=seed * 7919 + 41)
        burst_at = warmup + 0.2 * duration
        plan.qp_breakdown(at=burst_at, qp_index=1 + aggressor_lanes // 2)
        plan.target_stall(at=burst_at + 0.1 * duration, target_index=0,
                          duration=150e-6)
        plan.install(cluster)

    plane = _StormPlane()
    run_open_loop(cluster, stack, config, plane=plane)

    result = ChaosResult(
        system=system, seed=seed, threads=config.tenants,
        groups_per_thread=0,
    )
    result.elapsed = cluster.env.now
    result.class_latency = plane.class_summary()
    result.heap_live_entries = cluster.env.live_heap_size()
    _audit_cluster(result, cluster, plan)
    # No group structure in an open-loop storm: per-class op counts live
    # in class_latency; `ok` reduces to the target-side audits.
    return result
