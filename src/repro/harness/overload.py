"""Overload and gray-failure experiment: the robustness plane under fire.

Two seeded scenarios exercise :mod:`repro.robust` end to end:

* **Metastable overload** (:func:`overload_curves`) — drive the scale-out
  cluster 2-4x past the device's service capacity with the protection
  plane off and on, and record completed *and persisted* goodput,
  shed-rate and timeout-rate per load point.  Unprotected, in-device
  queueing exceeds the command timeout and the timeout retransmissions
  are acknowledged by the target's duplicate suppression while the
  original still queues — completions decouple from persistence and
  *outrun the device* (the completion mirage: completed goodput ~2x what
  the media can persist, with the persistence backlog growing without
  bound), until the retransmission load saturates the receive cores and
  goodput collapses in a storm of timeout aborts — the classic metastable
  failure.  Protected, the target sheds excess load *before* paying for
  it (admission control), the drivers pace shed commands in
  position-ordered AIMD waves under a retry budget, and completed
  goodput stays pinned to the persist rate at the device knee with zero
  failed operations.

* **Gray target** (:func:`gray_result`) — degrade one target's service
  times mid-run (``FaultPlan.degrade``: a fail-slow device, nothing
  errors).  Per-target health breakers trip on the fast/slow-EWMA latency
  ratio; ordered streams pinned to the sick shard brown out explicitly
  while *unordered* flows fail over to the healthy shard, and bystander
  tenants keep their tail latency.

Both scenarios run as independent, seeded cells on the sweep runner
(:mod:`repro.harness.sweep`), so ``--jobs N`` fans them out and a warm
cache replays them bit-identically (spec-order reduce, as with
``repro saturate``).  Entry point: ``repro overload`` (CLI).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.harness.experiment import LAYOUTS, FigureResult, build_cluster
from repro.harness.sweep import RunSpec, Sweep, run_sweep

__all__ = [
    "DEFAULT_OVERLOAD_KIOPS",
    "PROTECTIONS",
    "probe_overload",
    "overload_sweep",
    "overload_curves",
    "probe_gray",
    "gray_result",
]

#: Offered-load grid (kIOPS) for the metastable scenario: ~0.8x, ~2x and
#: ~4x the device-limited knee of the default single-Optane layout
#: (~515k 4KiB ordered writes/s: the 905P's 2.2 GB/s media pipe and
#: 7-deep chip parallelism both land there).
DEFAULT_OVERLOAD_KIOPS = (400, 1100, 2200)

#: Protection profiles compared by ``repro overload``.
PROTECTIONS = ("off", "full")

#: Virtual-seconds knobs shared by both protection profiles.
_COMMAND_TIMEOUT_OFF = 100e-6
_COMMAND_TIMEOUT_FULL = 1.5e-3
_QFULL_BACKOFF = 20e-6


def _hardening(protection: str):
    """The driver hardening of one protection profile.

    ``off`` is a conventional timeout-and-retransmit driver: a per-attempt
    expiry tuned to healthy-path latency (~100 us, well under the
    in-device queueing that builds past the knee), no jitter, no budget,
    no QFULL handling — the configuration that turns overload metastable.
    Past the knee its retransmissions are duplicate-acked by the target
    while the original command still queues in the device (completions
    decouple from persistence); when the retransmission load saturates
    the receive cores, the ~475 us retry ladder expires before the gate
    is even reached and goodput collapses in timeout aborts.
    ``full`` is the robustness plane: a timeout with headroom, jittered
    backoff, a token-bucket retry budget, QFULL requeues and sticky
    fail-fast dead streams, paired with target-side admission control
    that bounds in-target queueing well below the timeout.
    """
    from repro.nvmeof.initiator import DriverHardening

    if protection == "off":
        return DriverHardening(
            command_timeout=_COMMAND_TIMEOUT_OFF,
            max_retries=3,
            backoff=1.5,
        )
    if protection == "full":
        return DriverHardening(
            command_timeout=_COMMAND_TIMEOUT_FULL,
            max_retries=5,
            backoff=2.0,
            jitter=0.25,
            retry_budget_ratio=0.1,
            retry_budget_cap=8.0,
            qfull_backoff=_QFULL_BACKOFF,
            qfull_max_requeues=256,
            fail_fast=True,
        )
    raise ValueError(f"unknown protection {protection!r} (have {PROTECTIONS})")


def _admission_config():
    from repro.robust.admission import AdmissionConfig

    return AdmissionConfig(
        max_inflight_ordered=128,
        max_inflight_unordered=128,
    )


def _counter_row(cluster) -> Dict[str, float]:
    """The robustness-plane counters every overload and gray row reports."""
    c = cluster.counters()
    received, shed = c["commands_received"], c["commands_shed"]
    return {
        "commands_received": float(received),
        "commands_shed": float(shed),
        "shed_rate": shed / received if received else 0.0,
        "timeouts": float(c["commands_timed_out"]),
        "retries": float(c["retries"]),
        "retries_suppressed": float(c["retries_suppressed"]),
        "requeues": float(c["commands_requeued"]),
        "fast_fails": float(c["commands_fast_failed"]),
        "dead_streams": float(c["streams_killed"]),
    }


def probe_overload(
    system: str,
    layout: str,
    offered_kiops: float,
    protection: str,
    initiators: int = 2,
    tenants: int = 4,
    duration: float = 2e-3,
    warmup: float = 0.5e-3,
    seed: int = 42,
) -> Dict[str, float]:
    """One metastable-overload cell: fresh testbed, one status-aware run.

    Top-level and scalar-valued so the sweep runner can execute it in a
    worker process and key it in the content-addressed result cache.
    """
    from repro.scale import OpenLoopConfig, ShardedStack, run_open_loop
    from repro.scale.loadgen import TENANT_AREA_BLOCKS
    from repro.sim.rng import DeterministicRNG
    from repro.sim.stats import LatencyRecorder

    cluster = build_cluster(layout, seed=seed, num_initiators=initiators,
                            hardening=_hardening(protection))
    env = cluster.env
    if protection == "full":
        cluster.install_admission(_admission_config())
    stack = ShardedStack(cluster, system, num_streams=max(tenants, 1))

    def _persisted() -> float:
        return float(sum(
            ssd.commands_served
            for target in cluster.targets for ssd in target.ssds
        ))

    marks: Dict[str, float] = {}

    def persist_window():
        yield env.timeout(warmup)
        marks["start"] = _persisted()

    def next_lba_for(tenant: int):
        # Stride 4: 1-block writes that are never LBA-consecutive.
        rng = DeterministicRNG(seed).fork(f"overload{tenant}").fork("lba")
        base = tenant * TENANT_AREA_BLOCKS
        return lambda: base + rng.randint(0, TENANT_AREA_BLOCKS // 4 - 1) * 4

    env.process(persist_window())
    run = run_open_loop(
        cluster, stack,
        OpenLoopConfig(offered_iops=offered_kiops * 1e3, tenants=tenants,
                       duration=duration, warmup=warmup, seed=seed),
        next_lba_for=next_lba_for, rng_prefix="overload",
    )
    good = LatencyRecorder.merged(run.good_latency)
    # Completed vs persisted separates real goodput from the completion
    # mirage: an unprotected driver's timeout retransmissions get
    # duplicate-acked while the original still queues in the device, so
    # completions can exceed what the media actually persists.
    persisted_kiops = (_persisted() - marks.get("start", 0.0)) / duration / 1e3
    timeout_fails = run.failures_by_cause.get("timeout", 0)
    total_ops = run.good_ops + run.failed_ops
    goodput_kiops = run.goodput_iops / 1e3
    result = {
        "offered_kiops": offered_kiops,
        "goodput_kiops": goodput_kiops,
        "persisted_kiops": persisted_kiops,
        "completion_debt_kiops": goodput_kiops - persisted_kiops,
        "good_ops": float(run.good_ops),
        "failed_ops": float(run.failed_ops),
        "timeout_rate": timeout_fails / total_ops if total_ops else 0.0,
        "p50_us": good.p50 * 1e6,
        "p99_us": good.p99 * 1e6,
        "p999_us": good.p999 * 1e6,
    }
    result.update(_counter_row(cluster))
    return result


def overload_sweep(
    systems: Sequence[str] = ("rio",),
    protections: Sequence[str] = PROTECTIONS,
    loads_kiops: Sequence[float] = DEFAULT_OVERLOAD_KIOPS,
    layout: str = "optane",
    initiators: int = 2,
    tenants: int = 4,
    duration: float = 2e-3,
    seed: int = 42,
) -> Sweep:
    """The metastable-overload experiment as independent cells + reduce."""
    loads = sorted(loads_kiops)
    cells = [
        (system, protection, load)
        for system in systems
        for protection in protections
        for load in loads
    ]
    specs = [
        RunSpec.make(
            probe_overload,
            label=f"overload/{system}/{protection}/{load:g}k",
            system=system, layout=layout, offered_kiops=load,
            protection=protection, initiators=initiators, tenants=tenants,
            duration=duration, seed=seed,
        )
        for system, protection, load in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Overload",
            description=(
                f"metastable-overload sweep, {layout}, {initiators} "
                f"initiator(s) x {tenants} tenant(s): goodput, shed-rate "
                "and timeout-rate vs offered load, protection off vs full"
            ),
            headers=[
                "system", "protection", "offered_kiops", "goodput_kiops",
                "persisted_kiops", "shed_rate", "timeout_rate",
                "dead_streams", "p999_us",
            ],
        )
        for (system, protection, _load), run in zip(cells, results):
            result.add(
                system=system,
                protection=protection,
                offered_kiops=run["offered_kiops"],
                goodput_kiops=round(run["goodput_kiops"], 1),
                persisted_kiops=round(run["persisted_kiops"], 1),
                shed_rate=round(run["shed_rate"], 3),
                timeout_rate=round(run["timeout_rate"], 3),
                dead_streams=int(run["dead_streams"]),
                p999_us=round(run["p999_us"], 2),
            )
        for system in systems:
            knee = _knee_goodput(result, system)
            if knee <= 0:
                continue
            top = max(loads)
            protected = _goodput_at(result, system, "full", top)
            naked = _goodput_at(result, system, "off", top)
            result.notes.append(
                f"{system} @ {top:g}k offered: protected goodput "
                f"{protected:g}k ({protected / knee:.0%} of the "
                f"{knee:g}k knee), unprotected {naked:g}k "
                f"({naked / knee:.0%})"
            )
            mirage = [
                row for row in result.series(system=system, protection="off")
                if row["goodput_kiops"]
                > 1.2 * max(row["persisted_kiops"], 1e-9)
            ]
            for row in mirage:
                result.notes.append(
                    f"{system} unprotected @ {row['offered_kiops']:g}k: "
                    f"completion mirage — {row['goodput_kiops']:g}k "
                    f"completed vs {row['persisted_kiops']:g}k persisted "
                    "(timeout retransmissions duplicate-acked while the "
                    "original still queues in the device)"
                )
        return result

    return Sweep(name="overload", specs=specs, reduce=reduce)


def _knee_goodput(result: FigureResult, system: str) -> float:
    """Best protected goodput over the grid — the knee reference the
    2x-overload acceptance compares against."""
    rows = result.series(system=system, protection="full")
    return max((row["goodput_kiops"] for row in rows), default=0.0)


def _goodput_at(result: FigureResult, system: str, protection: str,
                offered: float) -> float:
    rows = [
        row for row in result.series(system=system, protection=protection)
        if row["offered_kiops"] == offered
    ]
    return rows[0]["goodput_kiops"] if rows else 0.0


def overload_curves(
    systems: Sequence[str] = ("rio",),
    protections: Sequence[str] = PROTECTIONS,
    loads_kiops: Sequence[float] = DEFAULT_OVERLOAD_KIOPS,
    layout: str = "optane",
    initiators: int = 2,
    tenants: int = 4,
    duration: float = 2e-3,
    seed: int = 42,
) -> FigureResult:
    """Run the metastable-overload sweep on the process-wide runner."""
    return run_sweep(overload_sweep(
        systems=systems, protections=protections, loads_kiops=loads_kiops,
        layout=layout, initiators=initiators, tenants=tenants,
        duration=duration, seed=seed,
    ))


# ----------------------------------------------------------------------
# Gray-target (fail-slow) scenario
# ----------------------------------------------------------------------

def probe_gray(
    system: str = "rio",
    layout: str = "2optane-2targets",
    offered_kiops: float = 120,
    tenants: int = 4,
    unordered_tenants: int = 2,
    duration: float = 4e-3,
    warmup: float = 1e-3,
    degrade_at: float = 2e-3,
    degrade_factor: float = 8.0,
    seed: int = 42,
) -> Dict[str, float]:
    """One gray-target cell: degrade target 0 mid-run, measure isolation.

    Ordered tenants are pinned to shards by LBA congruence (tenant ``t``
    writes LBAs ``≡ t mod width`` on the striped volume, so its 1-block
    writes land on target ``t mod width`` only).  Unordered tenants pick
    their target per-op through the health monitor and fail over when the
    breaker on the sick target opens.
    """
    from repro.block.request import BlockRequest
    from repro.scale import OpenLoopConfig, ShardedStack, run_open_loop
    from repro.scale.loadgen import TENANT_AREA_BLOCKS
    from repro.sim.faults import FaultPlan
    from repro.sim.rng import DeterministicRNG

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    profiles = LAYOUTS[layout]
    width = sum(len(t) for t in profiles)
    if len(profiles) < 2:
        raise ValueError("the gray scenario needs at least two targets")
    cluster = build_cluster(layout, seed=seed, hardening=_hardening("full"))
    env = cluster.env
    cluster.install_admission(_admission_config())
    monitors = cluster.attach_health()
    stack = ShardedStack(cluster, system, num_streams=max(tenants, 1))
    plan = FaultPlan(seed=seed).degrade(
        at=warmup + degrade_at, target_index=0, factor=degrade_factor,
    )
    plan.install(cluster)

    sick_member = 0  # target 0 == volume member 0 (one SSD per target)

    def next_lba_for(tenant: int):
        rng = DeterministicRNG(seed).fork(f"gray-lba{tenant}")
        base = tenant * TENANT_AREA_BLOCKS
        member = tenant % width

        def next_lba() -> int:
            slot = rng.randint(0, TENANT_AREA_BLOCKS // (2 * width) - 1)
            # Stride 2*width keeps writes non-consecutive; the congruence
            # class pins every 1-block write to one stripe member.
            return base + slot * 2 * width + member

        return next_lba

    # ---- unordered flows: health-steered driver-level writes ----
    node = cluster.nodes[0]
    unordered_ops = {"good": 0, "failed": 0, "by_target": {}}
    end_time = warmup + duration

    def unordered_body(flow: int):
        rng = DeterministicRNG(seed).fork(f"gray-unordered{flow}")
        core = node.cpus.pick(tenants + flow)
        rate = (offered_kiops * 1e3) / max(unordered_tenants, 1) / 4
        arrival = 0.0
        while True:
            arrival += rng.expovariate(rate)
            if arrival >= end_time:
                return
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            index = cluster.healthy_target_for(0, env.now)
            ns = node.namespaces[index]
            request = BlockRequest(
                op="write", lba=rng.randint(0, 1 << 20) * 2, nblocks=1,
                qp_index=core.index,
            )
            done = yield from node.driver.submit(core, ns, request)
            yield done
            if warmup <= env.now <= end_time:
                name = ns.target.name
                unordered_ops["by_target"][name] = (
                    unordered_ops["by_target"].get(name, 0) + 1
                )
                if request.status == 0:
                    unordered_ops["good"] += 1
                else:
                    unordered_ops["failed"] += 1

    for flow in range(unordered_tenants):
        env.process(unordered_body(flow))

    run = run_open_loop(
        cluster, stack,
        OpenLoopConfig(offered_iops=offered_kiops * 1e3, tenants=tenants,
                       duration=duration, warmup=warmup, seed=seed),
        next_lba_for=next_lba_for, rng_prefix="overload",
    )
    per_tenant = run.good_latency

    sick = [t for t in range(tenants) if t % width == sick_member]
    bystanders = [t for t in range(tenants) if t % width != sick_member]
    bystander_p999 = max(
        (per_tenant[t].p999 for t in bystanders if per_tenant[t].count),
        default=0.0,
    )
    sick_good = sum(
        1 for t in sick if per_tenant[t].count
    )
    monitor = monitors[0]
    sick_name = cluster.targets[0].name
    healthy = [t.name for t in cluster.targets[1:]]
    result = {
        "offered_kiops": offered_kiops,
        "goodput_kiops": run.goodput_iops / 1e3,
        "failed_ops": float(run.failed_ops),
        "brownouts": float(run.failures_by_cause.get("brownout", 0)),
        "bystander_p999_us": bystander_p999 * 1e6,
        "sick_tenants_active": float(sick_good),
        "breaker_trips": float(monitor.target(sick_name).trips),
        "sick_breaker_open": float(
            monitor.states().get(sick_name) != "closed"
        ),
        "healthy_breakers_closed": float(all(
            monitor.states().get(name, "closed") == "closed"
            for name in healthy
        )),
        "failovers": float(monitor.failovers),
        "unordered_good": float(unordered_ops["good"]),
        "unordered_failed": float(unordered_ops["failed"]),
        "unordered_on_sick": float(
            unordered_ops["by_target"].get(sick_name, 0)
        ),
        "unordered_on_healthy": float(sum(
            n for name, n in unordered_ops["by_target"].items()
            if name != sick_name
        )),
    }
    result.update(_counter_row(cluster))
    return result


def gray_result(
    duration: float = 4e-3,
    seed: int = 42,
    offered_kiops: float = 120,
    degrade_factor: float = 8.0,
) -> FigureResult:
    """Run the gray-target scenario as a one-cell sweep (cached, seeded)."""
    spec = RunSpec.make(
        probe_gray,
        label=f"overload/gray/{seed}",
        duration=duration, seed=seed, offered_kiops=offered_kiops,
        degrade_factor=degrade_factor,
    )

    def reduce(results: List[Dict]) -> FigureResult:
        run = results[0]
        result = FigureResult(
            name="Gray target",
            description=(
                "fail-slow target 0 (service x"
                f"{degrade_factor:g} mid-run): breaker trips, ordered "
                "brownouts, unordered failover, bystander isolation"
            ),
            headers=["metric", "value"],
        )
        for key in (
            "offered_kiops", "goodput_kiops", "brownouts",
            "bystander_p999_us", "breaker_trips", "sick_breaker_open",
            "healthy_breakers_closed", "failovers", "unordered_on_sick",
            "unordered_on_healthy", "shed_rate", "dead_streams",
        ):
            value = run[key]
            result.add(metric=key, value=round(value, 3))
        return result

    return run_sweep(Sweep(name="overload-gray", specs=[spec], reduce=reduce))
