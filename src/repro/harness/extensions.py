"""Beyond the paper's figures: ablations and extension studies.

These back the design-choice ablations DESIGN.md calls out and the
paper's forward-looking claims:

* :func:`ablation_qp_affinity` — Principle 2 (§4.5): stream→QP affinity
  vs spraying requests across queue pairs;
* :func:`ablation_attribute_persistence` — §4.3.2's claim that storing
  ordering attributes "does not introduce much overhead";
* :func:`sensitivity_faster_ssd` — §3.1's prediction that faster SSDs
  make synchronous ordering relatively more expensive;
* :func:`transport_comparison` — §4.5's claim that Principle 2 (and the
  whole design) carries to TCP transports;
* :func:`multi_initiator_scaling` — the §4.9 extension: multiple
  initiator servers sharing one target array.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.fio import run_block_workload
from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.harness.experiment import FigureResult, build_cluster, fio_run
from repro.hw.ssd import OPTANE_905P
from repro.sim.engine import Environment
from repro.systems import make_stack
from repro.systems.rio import RioStack

__all__ = [
    "ablation_qp_affinity",
    "ablation_attribute_persistence",
    "sensitivity_faster_ssd",
    "transport_comparison",
    "multi_initiator_scaling",
    "barrier_comparison",
    "oltp_comparison",
]


def oltp_comparison(
    threads: Sequence[int] = (1, 4, 8),
    duration: float = 4e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> FigureResult:
    """MySQL-style OLTP (redo group commit + IPU page cleaning) on the
    three file systems — the §3.1 motivation workload generalized."""
    from repro.apps.oltp import run_oltp
    from repro.fs.filesystem import make_filesystem

    result = FigureResult(
        name="Extension: OLTP (MySQL-style)",
        description="redo-logged transactions with in-place page cleaning",
        headers=["fs", "threads", "ktps", "cleaner_runs"],
    )
    for kind in kinds:
        for count in threads:
            cluster = build_cluster(layout)
            fs = make_filesystem(kind, cluster,
                                 num_journals=(1 if kind == "ext4" else 24))
            run = run_oltp(cluster, fs, threads=count, duration=duration,
                           warmup=duration / 10)
            result.add(fs=kind, threads=count, ktps=run.tps / 1e3,
                       cleaner_runs=run.cleaner_runs)
    return result


def barrier_comparison(
    threads: Sequence[int] = (1, 4, 8, 12),
    duration: float = 3e-3,
    layout: str = "p5800x",
) -> FigureResult:
    """BarrierFS-style ordering vs Rio (§2.2's scalability argument).

    The paper could not run BarrierFS ("we do not have barrier-enabled
    storage"); the simulator can.  Barrier ordering avoids the FLUSH and
    the completion wait, but enforcing the *intermediate* order serializes
    persistence through one lane and funnels every core through one queue:
    on a fast drive it flatlines while Rio — which relaxes intermediate
    order — scales to device saturation.  This is exactly the paper's
    "intermediate storage order is not a necessity and can be relaxed".
    """
    result = FigureResult(
        name="Extension: barrier interface (§2.2)",
        description=f"BarrierFS-style stack vs Rio on {layout}: 4KB random "
        "ordered writes",
        headers=["system", "threads", "kiops"],
    )
    for system in ("barrier", "rio", "linux"):
        for count in threads:
            run = fio_run(system, layout, threads=count, duration=duration,
                          queue_depth=16)
            result.add(system=system, threads=count, kiops=run.iops / 1e3)
    return result


def ablation_qp_affinity(
    threads: int = 2,
    duration: float = 3e-3,
    layout: str = "optane",
    queue_depth: int = 8,
) -> FigureResult:
    """Stream→QP affinity on vs off: ordering stalls at the target.

    Run below device saturation so gate arrivals reflect *delivery* order
    (at saturation, data-fetch queueing shuffles arrivals for everyone)."""
    result = FigureResult(
        name="Ablation: Principle 2",
        description="stream->QP affinity vs spraying across queue pairs "
        "(4KB random ordered writes)",
        headers=["affinity", "kiops", "ooo_arrivals", "stall_ms"],
    )
    for affinity in (True, False):
        cluster = build_cluster(layout)
        stack = RioStack(cluster, num_streams=threads, qp_affinity=affinity)
        run = run_block_workload(cluster, stack, threads=threads,
                                 duration=duration, queue_depth=queue_depth)
        policy = stack.device.policies[0]
        result.add(
            affinity=affinity,
            kiops=run.iops / 1e3,
            ooo_arrivals=policy.out_of_order_arrivals,
            stall_ms=policy.stall_time * 1e3,
        )
    return result


def ablation_attribute_persistence(
    threads: int = 1,
    duration: float = 3e-3,
    layout: str = "optane",
) -> FigureResult:
    """Rio's PMR attribute writes vs the orderless baseline: the extra
    target CPU per operation is the cost of recoverable ordering."""
    result = FigureResult(
        name="Ablation: attribute persistence",
        description="target-side CPU cost of persisting ordering "
        "attributes (per 100K IOPS)",
        headers=["system", "kiops", "target_cpu", "tgt_cpu_per_100kiops",
                 "pmr_writes"],
    )
    for system in ("orderless", "rio"):
        cluster = build_cluster(layout)
        stack = make_stack(system, cluster, num_streams=threads)
        run = run_block_workload(cluster, stack, threads=threads,
                                 duration=duration)
        result.add(
            system=system,
            kiops=run.iops / 1e3,
            target_cpu=run.target_busy_cores,
            tgt_cpu_per_100kiops=run.target_busy_cores
            / max(run.iops / 1e5, 1e-9),
            pmr_writes=cluster.targets[0].pmr.writes,
        )
    return result


def sensitivity_faster_ssd(
    threads: int = 4,
    duration: float = 3e-3,
) -> FigureResult:
    """§3.1: with faster SSDs, synchronous ordering falls further behind.

    Enough threads that Rio can actually exploit the faster device; the
    synchronous systems stay latency-bound per thread."""
    result = FigureResult(
        name="Sensitivity: faster SSDs",
        description="Rio's advantage over synchronous ordering grows with "
        "device speed (4 threads, 4KB random ordered writes)",
        headers=["ssd", "system", "kiops", "rio_ratio"],
    )
    for layout in ("optane", "p5800x"):
        runs = {
            system: fio_run(system, layout, threads=threads,
                            duration=duration)
            for system in ("linux", "horae", "rio")
        }
        rio_iops = runs["rio"].iops
        for system, run in runs.items():
            result.add(
                ssd=layout,
                system=system,
                kiops=run.iops / 1e3,
                rio_ratio=rio_iops / run.iops if run.iops else None,
            )
    return result


def transport_comparison(
    threads: int = 2,
    duration: float = 3e-3,
) -> FigureResult:
    """RDMA vs TCP: the ordering story survives the transport change."""
    result = FigureResult(
        name="Extension: NVMe/TCP",
        description="ordered 4KB writes over RDMA vs TCP transports",
        headers=["transport", "system", "kiops", "initiator_cpu"],
    )
    for transport in ("rdma", "tcp"):
        for system in ("linux", "rio"):
            env = Environment()
            cluster = Cluster(env, target_ssds=((OPTANE_905P,),),
                              transport=transport)
            stack = make_stack(system, cluster, num_streams=threads)
            run = run_block_workload(cluster, stack, threads=threads,
                                     duration=duration)
            result.add(
                transport=transport,
                system=system,
                kiops=run.iops / 1e3,
                initiator_cpu=run.initiator_busy_cores,
            )
    return result


def multi_initiator_scaling(
    initiator_counts: Sequence[int] = (1, 2, 4),
    streams_per_initiator: int = 4,
    duration: float = 3e-3,
) -> FigureResult:
    """§4.9: aggregate ordered throughput of N initiators sharing two
    target servers (each initiator drives its own stream range)."""
    result = FigureResult(
        name="Extension: multiple initiators (§4.9)",
        description="aggregate ordered 4KB write throughput, two shared "
        "Optane targets",
        headers=["initiators", "total_kiops", "per_initiator_kiops"],
    )
    for count in initiator_counts:
        env = Environment()
        cluster = Cluster(
            env,
            target_ssds=((OPTANE_905P,), (OPTANE_905P,)),
            num_initiators=count,
        )
        done = [0]

        def writer(node, rio, stream):
            core = node.cpus.pick(stream)
            area = (node.index * streams_per_initiator + stream) * 8_000_000
            inflight = []
            i = 0
            while env.now < duration:
                event = yield from rio.write(
                    core, stream, lba=area + i * 2, nblocks=1,
                )
                i += 1
                inflight.append(event)
                if len(inflight) >= 32:
                    yield env.any_of(inflight)
                    for e in inflight:
                        if e.triggered:
                            done[0] += 1
                    inflight = [e for e in inflight if not e.triggered]

        for node in cluster.nodes:
            rio = RioDevice(
                node, num_streams=streams_per_initiator,
                stream_base=cluster.directory.allocate(streams_per_initiator),
            )
            for stream in range(streams_per_initiator):
                env.process(writer(node, rio, stream))
        env.run(until=duration)
        result.add(
            initiators=count,
            total_kiops=done[0] / duration / 1e3,
            per_initiator_kiops=done[0] / duration / 1e3 / count,
        )
    return result
