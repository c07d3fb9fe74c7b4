"""The open-loop load generator for the scale-out plane.

:func:`run_open_loop` offers a fixed-rate Poisson arrival process,
independent of completions.  Latency is measured from the *intended
arrival time*, so queueing delay counts: past the saturation knee the
arrival queue grows and tail latency explodes — exactly the
throughput-latency hockey stick ``repro saturate`` plots.  (The closed
loop at fixed queue depth, like the paper's FIO jobs, is
:func:`repro.apps.fio.run_block_workload`.)

Completions are split by status: goodput (every bio status 0) and
failures by cause (shed, timeout, deadline, brownout), so shedding and
fast-fails are visible next to the all-completions throughput.

Tenants reuse the :mod:`repro.apps` workload shapes (``rand``/``seq``
write patterns and the §3.1 ``journal`` 2-block + 1-block commit shape),
each on a private LBA area and a private stream — one tenant, one
ordered stream, as the paper's per-thread streams.  The generator
drives any :class:`~repro.systems.base.OrderedStack`, including the
sharded multi-initiator facade
(:class:`repro.scale.cluster.ShardedStack`), which routes each tenant's
stream to its owning initiator host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.nvmeof.command import (
    STATUS_BROWNOUT,
    STATUS_DEADLINE,
    STATUS_QFULL,
    STATUS_TIMEOUT,
)
from repro.sim.engine import Environment
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder

__all__ = [
    "OpenLoopConfig",
    "LoadgenResult",
    "run_open_loop",
]

#: Private LBA area per tenant, in blocks (mirrors the fio driver).
TENANT_AREA_BLOCKS = 16_000_000

#: Open-loop admission bound per tenant: keeps memory finite when the
#: offered rate is far past saturation.  Latency is still charged from
#: the intended arrival time, so the knee remains visible.
OPEN_LOOP_INFLIGHT_CAP = 256


@dataclass(frozen=True)
class OpenLoopConfig:
    """Fixed-rate Poisson arrivals, split across tenants.

    With ``weights=None`` (the default) the rate splits *evenly* — the
    historical behaviour, bit-identical to before the knob existed.
    ``weights`` (one positive weight per tenant) splits the total in
    proportion: tenant ``i`` offers ``offered_iops * w_i / sum(w)``.

    ``blocks`` (one positive size per tenant) likewise overrides
    ``write_blocks`` per tenant, so asymmetric mixes — a small-write
    latency tenant next to a bandwidth hog — run in one open loop;
    ``blocks=None`` keeps every tenant at ``write_blocks``, bit-identical
    to before the knob existed.
    """

    offered_iops: float
    tenants: int = 4
    duration: float = 2e-3
    warmup: float = 0.5e-3
    write_blocks: int = 1
    pattern: str = "rand"  # rand | seq | journal
    durable: bool = False
    seed: int = 1234
    weights: Optional[Tuple[float, ...]] = None
    blocks: Optional[Tuple[int, ...]] = None


@dataclass
class LoadgenResult:
    """Measured outcome of one load-generator run."""

    system: str
    tenants: int
    offered_iops: float = 0.0
    ops: int = 0
    elapsed: float = 0.0
    #: Every completion in the window, whatever its status.
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    initiator_busy_cores: float = 0.0
    target_busy_cores: float = 0.0
    #: ``ops`` split by status: every bio succeeded, or one failed.
    good_ops: int = 0
    failed_ops: int = 0
    failures_by_cause: Dict[str, int] = field(default_factory=dict)
    #: Per tenant: latencies of the completions counted in ``good_ops``.
    good_latency: List[LatencyRecorder] = field(default_factory=list)

    @property
    def achieved_iops(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    @property
    def goodput_iops(self) -> float:
        return self.good_ops / self.elapsed if self.elapsed else 0.0

    @property
    def iops_per_busy_core(self) -> float:
        """§6.1 CPU efficiency at this load point (initiator side)."""
        if self.initiator_busy_cores <= 0:
            return 0.0
        return self.achieved_iops / self.initiator_busy_cores


_CAUSES = {
    STATUS_QFULL: "shed",
    STATUS_TIMEOUT: "timeout",
    STATUS_DEADLINE: "deadline",
    STATUS_BROWNOUT: "brownout",
}


def _cause_of(status: int) -> str:
    return _CAUSES.get(status, "error")


def _validate(pattern: str, tenants: int) -> None:
    if pattern not in ("rand", "seq", "journal"):
        raise ValueError(f"pattern must be rand|seq|journal, got {pattern!r}")
    if tenants < 1:
        raise ValueError("need at least one tenant")


def _make_lba_chooser(rng: DeterministicRNG, pattern: str, base: int,
                      op_blocks: int):
    """Address generator for one tenant (fio's rand/seq idiom)."""
    cursor = [0]

    def next_lba() -> int:
        if pattern == "seq":
            lba = base + cursor[0]
            cursor[0] += op_blocks
            if cursor[0] > TENANT_AREA_BLOCKS - op_blocks:
                cursor[0] = 0
            return lba
        slot = rng.randint(0, TENANT_AREA_BLOCKS // (op_blocks + 2) - 1)
        return base + slot * (op_blocks + 2)  # +2: never LBA-consecutive

    return next_lba


def _issue_op(stack, core, stream, next_lba, config, tenant, nblocks):
    """Generator: issue one workload op of ``nblocks`` blocks; returns
    (events, nops).

    ``tenant`` (multi-tenant plane) tags the bios with the issuing tenant
    id; None issues anonymously, exactly as before the plane existed.
    """
    extra = {} if tenant is None else {"tenant": tenant}
    if config.pattern == "journal":
        lba = next_lba()
        e1 = yield from stack.write_ordered(
            core, stream, lba=lba, nblocks=2, end_of_group=True, kick=False,
            **extra,
        )
        e2 = yield from stack.write_ordered(
            core, stream, lba=lba + 2, nblocks=1, end_of_group=True,
            flush=config.durable, kick=True, **extra,
        )
        return [e1, e2], 2
    done = yield from stack.write_ordered(
        core, stream, lba=next_lba(), nblocks=nblocks, end_of_group=True,
        flush=config.durable, **extra,
    )
    return [done], 1


def _tenant_rates(config: OpenLoopConfig) -> List[float]:
    """Per-tenant offered rates: even split, or weight-proportional."""
    if config.weights is None:
        # The historical even split, kept textually identical so legacy
        # results (and their cache digests) are bit-exact.
        return [config.offered_iops / config.tenants] * config.tenants
    if len(config.weights) != config.tenants:
        raise ValueError(
            f"weights length {len(config.weights)} != tenants {config.tenants}"
        )
    if any(w <= 0 for w in config.weights):
        raise ValueError("tenant weights must all be positive")
    total = sum(config.weights)
    return [config.offered_iops * w / total for w in config.weights]


def _tenant_blocks(config: OpenLoopConfig) -> List[int]:
    """Per-tenant write sizes: uniform ``write_blocks``, or the mix."""
    if config.blocks is None:
        return [config.write_blocks] * config.tenants
    if len(config.blocks) != config.tenants:
        raise ValueError(
            f"blocks length {len(config.blocks)} != tenants {config.tenants}"
        )
    if any(b < 1 for b in config.blocks):
        raise ValueError("per-tenant block counts must all be >= 1")
    return list(config.blocks)


def run_open_loop(cluster, stack, config: OpenLoopConfig, plane=None,
                  next_lba_for=None,
                  rng_prefix: str = "loadgen-open") -> LoadgenResult:
    """Run a fixed-rate Poisson workload to the end of its window.

    ``plane`` (a :class:`repro.tenants.traffic.TenantTrafficPlane` or
    any duck-typed equivalent) layers the multi-tenant plane over the
    generator: arrivals are drawn at the diurnal *peak* rate and thinned
    by ``plane.keep`` (an exact Poisson modulation), each op is issued as
    a Zipf-picked member tenant of its stream (``plane.pick``) and its
    latency is recorded per class (``plane.record``).  ``plane=None`` is
    the stock anonymous generator, bit-identical to before the plane
    existed — the tenant RNG is only ever forked when a plane is given.

    ``next_lba_for(tenant)`` returns a tenant's address generator in
    place of the pattern's (the gray scenario pins tenants to shards by
    LBA congruence).  Tenant ``t`` draws its arrivals from the RNG fork
    named ``f"{rng_prefix}{t}"``.

    ``ops``, ``latency`` and the plane count every completion in the
    window; ``good_ops``/``failed_ops``/``failures_by_cause`` split them
    by status and ``good_latency`` holds the good ones per tenant.
    """
    _validate(config.pattern, config.tenants)
    if config.offered_iops <= 0:
        raise ValueError("offered_iops must be > 0")
    env: Environment = cluster.env
    result = LoadgenResult(system=stack.name, tenants=config.tenants,
                           offered_iops=config.offered_iops)
    result.good_latency = [LatencyRecorder() for _ in range(config.tenants)]
    end_time = config.warmup + config.duration
    rates = _tenant_rates(config)
    blocks = _tenant_blocks(config)
    peak = plane.peak_factor() if plane is not None else 1.0

    def watch(tenant, arrival, events, nops, tracker, who):
        yield tracker
        now = env.now
        if not config.warmup <= now <= end_time:
            return
        result.ops += nops
        status = 0
        for event in events:
            bio = getattr(event, "bio", None)
            if bio is not None and bio.status:
                status = bio.status
                break
        if status:
            result.failed_ops += nops
            cause = _cause_of(status)
            result.failures_by_cause[cause] = (
                result.failures_by_cause.get(cause, 0) + nops)
        else:
            result.good_ops += nops
        if arrival >= config.warmup:
            latency = now - arrival
            result.latency.record(latency)
            if not status:
                result.good_latency[tenant].record(latency)
            if plane is not None and who is not None:
                plane.record(who, latency)

    def tenant_body(tenant: int):
        rng = DeterministicRNG(config.seed).fork(f"{rng_prefix}{tenant}")
        plane_rng = rng.fork("tenant-plane") if plane is not None else None
        core = cluster.initiator.cpus.pick(tenant)
        if next_lba_for is not None:
            next_lba = next_lba_for(tenant)
        else:
            next_lba = _make_lba_chooser(
                rng.fork("lba"), config.pattern, tenant * TENANT_AREA_BLOCKS,
                3 if config.pattern == "journal" else blocks[tenant],
            )
        arrival = 0.0
        inflight: List = []
        while True:
            arrival += rng.expovariate(rates[tenant] * peak)
            if arrival >= end_time:
                return
            if plane is not None and not plane.keep(plane_rng, arrival):
                continue  # diurnal trough: thin the peak-rate arrival
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            # (if arrival <= now we are backlogged: issue immediately,
            # charging the queueing delay to this op's latency)
            who = plane.pick(tenant, plane_rng) if plane is not None else None
            events, nops = yield from _issue_op(
                stack, core, tenant, next_lba, config, tenant=who,
                nblocks=blocks[tenant],
            )
            tracker = env.all_of(events)
            env.spawn(watch(tenant, arrival, events, nops, tracker, who))
            inflight.append(tracker)
            while len(inflight) >= OPEN_LOOP_INFLIGHT_CAP:
                yield env.any_of(inflight)
                inflight = [t for t in inflight if not t.triggered]

    def measurement():
        yield env.timeout(config.warmup)
        cluster.start_cpu_window()
        yield env.timeout(config.duration)
        cluster.stop_cpu_window()

    env.process(measurement())
    for tenant in range(config.tenants):
        env.process(tenant_body(tenant))
    env.run(until=end_time)
    result.elapsed = config.duration
    result.initiator_busy_cores = cluster.initiator_busy_cores(config.duration)
    result.target_busy_cores = cluster.target_busy_cores(config.duration)
    return result
