"""Testbed assembly: initiator hosts + target servers + fabric + namespaces.

Reproduces the paper's physical setup (§6.1): one initiator and up to two
target servers, each with 2×18-core Xeon Gold 5220 CPUs, connected by
200 Gbps ConnectX-6 RDMA; target 1 holds a PM981 flash and a 905P Optane
SSD, target 2 a PM981 and a P4800X; each target has a 2 MB PMR.

:class:`Cluster` is the one testbed constructor, used by the experiment
harness, the scale-out plane, the crash checker, the examples and the
tests::

    env = Environment()
    cluster = Cluster(env, target_ssds=((FLASH_PM981, OPTANE_905P),))
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    core = cluster.initiator.cpus.pick(0)

``target_ssds`` is one inner sequence per target server; ``transport``
selects ``"rdma"`` or ``"tcp"``; pass a
:class:`~repro.nvmeof.initiator.DriverHardening` to arm timeouts/retries
(the fault plane's recovery side).  ``steering`` selects the target- and
initiator-side IRQ/completion steering policy
(:data:`repro.hw.cpu.STEERING_POLICIES`), ``qp_steering`` the
block-queue-to-QP mapping.  Striped (multi-SSD) block access goes through
:meth:`Cluster.volume`.

``num_initiators`` > 1 builds the paper's §4.9 multi-initiator sketch:
N private initiator hosts (:class:`ScaleNode`: own CPU set, NIC, driver
and connections) fan in to the shared targets over one fabric.  Each node
*is* its host's view of the cluster, so any stack — a
:class:`~repro.core.api.RioDevice`, a compared system, or the
:class:`~repro.scale.cluster.ShardedStack` facade over all nodes — is
built on a node exactly as on a single-initiator cluster.  Rio devices on
different nodes take disjoint global stream ranges from
:attr:`Cluster.directory`::

    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), num_initiators=2)
    rios = [RioDevice(node, num_streams=4,
                      stream_base=cluster.directory.allocate(4))
            for node in cluster.nodes]

The cluster-level ``initiator``/``driver``/``namespaces``/``volume()``
are node 0's: the coordinator, which also runs whole-cluster recovery
(the targets' PMR attribute logs are keyed by global stream id).

For where this testbed sits in the overall stack — and what the layers it
wires together actually do — see ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.block.volume import LogicalVolume
from repro.hw.cpu import CpuSet
from repro.hw.nic import Nic
from repro.hw.pmr import PersistentMemoryRegion
from repro.hw.ssd import NvmeSsd, SsdProfile
from repro.net.fabric import Fabric
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts
from repro.nvmeof.initiator import (
    DriverHardening,
    InitiatorDriver,
    InitiatorServer,
    RemoteNamespace,
)
from repro.nvmeof.target import TargetServer
from repro.sim.engine import Environment
from repro.sim.rng import DeterministicRNG

__all__ = ["Cluster", "ScaleNode", "StreamDirectory"]

#: 2 × 18 cores per server, as in the paper's testbed.
DEFAULT_CORES = 36

#: Counters :meth:`Cluster.counters` sums over the hosts' drivers ...
_DRIVER_COUNTERS = (
    "retries", "rpc_retries", "reconnects", "commands_resubmitted",
    "commands_timed_out", "commands_requeued", "commands_fast_failed",
    "streams_killed",
)
#: ... and over the targets.
_TARGET_COUNTERS = (
    "commands_received", "commands_shed", "duplicates_suppressed",
)


class StreamDirectory:
    """Allocates disjoint global stream-id ranges to initiators.

    The paper's "distributed sequencer" (§4.9) reduced to its essence: a
    monotonically advancing range allocator.  (Allocation happens at
    setup time, so its cost is irrelevant — exactly the paper's argument
    for why distributed concurrency control is not the slow part.)
    Because streams are fully independent (§4.5), disjoint ranges are all
    the shared targets' per-stream ordering state needs.
    """

    def __init__(self) -> None:
        self._next_base = 0
        self.allocations: List[tuple] = []

    def allocate(self, count: int) -> int:
        if count < 1:
            raise ValueError("need at least one stream")
        base = self._next_base
        self._next_base += count
        self.allocations.append((base, count))
        return base


class ScaleNode:
    """One initiator host — CPU set, NIC, driver, connections — and its
    view of the cluster (the attributes a stack reads from a cluster)."""

    def __init__(
        self,
        cluster: "Cluster",
        index: int,
        initiator: InitiatorServer,
        driver: InitiatorDriver,
        namespaces: List[RemoteNamespace],
    ):
        self.env = cluster.env
        self.costs = cluster.costs
        self.targets = cluster.targets
        self.index = index
        self.initiator = initiator
        self.driver = driver
        self.namespaces = namespaces

    @property
    def cpus(self) -> CpuSet:
        return self.initiator.cpus

    def volume(
        self,
        namespaces: Optional[List[RemoteNamespace]] = None,
        stripe_blocks: int = 1,
    ) -> LogicalVolume:
        """A logical volume over ``namespaces`` (default: all of this
        host's namespaces)."""
        if namespaces is None:
            namespaces = self.namespaces
        return LogicalVolume(namespaces, stripe_blocks)

    def __repr__(self) -> str:
        return f"<ScaleNode {self.index} ({self.initiator.name})>"


class Cluster:
    """N initiator hosts sharing M target servers over one fabric."""

    def __init__(
        self,
        env: Environment,
        target_ssds: Sequence[Sequence[SsdProfile]],
        num_initiators: int = 1,
        initiator_cores: int = DEFAULT_CORES,
        target_cores: int = DEFAULT_CORES,
        num_qps: Optional[int] = None,
        costs: CpuCosts = DEFAULT_COSTS,
        seed: int = 42,
        transport: str = "rdma",
        pmr_size: Optional[int] = None,
        hardening: Optional[DriverHardening] = None,
        steering: str = "pin",
        qp_steering: str = "pin",
    ):
        if num_initiators < 1:
            raise ValueError("need at least one initiator host")
        if not target_ssds:
            raise ValueError("need at least one target server")
        self.env = env
        self.costs = costs
        self.transport = transport
        self.steering = steering
        self.num_initiators = num_initiators
        self.rng = DeterministicRNG(seed)
        self.fabric = Fabric(env, self.rng.fork("fabric"), transport=transport)
        self.directory = StreamDirectory()
        num_qps = num_qps or initiator_cores

        # ---- shared target servers ----
        self.targets: List[TargetServer] = []
        for tid, profiles in enumerate(target_ssds):
            if not profiles:
                raise ValueError(f"target {tid} has no SSDs")
            name = f"target{tid}"
            ssds = [
                NvmeSsd(env, profile, rng=self.rng.fork(f"{name}-ssd{sid}"),
                        name=f"{name}-ssd{sid}")
                for sid, profile in enumerate(profiles)
            ]
            self.targets.append(
                TargetServer(
                    env,
                    name=name,
                    cpus=CpuSet(env, target_cores, name=f"{name}-cpu"),
                    nic=Nic(env, name=f"{name}-nic"),
                    ssds=ssds,
                    pmr=PersistentMemoryRegion(
                        env,
                        **({"size": pmr_size} if pmr_size else {}),
                        name=f"{name}-pmr",
                    ),
                    costs=costs,
                    steering=steering,
                )
            )

        # ---- per-initiator hosts, connected in index order ----
        self.nodes: List[ScaleNode] = []
        for iid in range(num_initiators):
            server = InitiatorServer(
                env,
                name=f"initiator{iid}",
                cpus=CpuSet(env, initiator_cores, name=f"initiator{iid}-cpu"),
                nic=Nic(env, name=f"initiator{iid}-nic"),
            )
            driver = InitiatorDriver(
                env, server, costs=costs, hardening=hardening,
                steering=steering,
            )
            namespaces: List[RemoteNamespace] = []
            for target in self.targets:
                qps = self.fabric.connect(server.nic, target.nic, num_qps)
                initiator_eps = [qp.endpoints[0] for qp in qps]
                target_eps = [qp.endpoints[1] for qp in qps]
                target.attach_connection(target_eps)
                driver.register_connection(initiator_eps)
                for sid in range(len(target.ssds)):
                    namespaces.append(
                        RemoteNamespace(target, nsid=sid,
                                        endpoints=initiator_eps,
                                        qp_steering=qp_steering)
                    )
            self.nodes.append(
                ScaleNode(self, iid, server, driver, namespaces)
            )

        # The coordinator (node 0) is "the initiator" of the cluster.
        self.initiator = self.nodes[0].initiator
        self.driver = self.nodes[0].driver
        self.namespaces = self.nodes[0].namespaces

    def volume(
        self,
        namespaces: Optional[List[RemoteNamespace]] = None,
        stripe_blocks: int = 1,
    ) -> LogicalVolume:
        """A logical volume over ``namespaces`` (default: all of the
        coordinator's namespaces)."""
        return self.nodes[0].volume(namespaces, stripe_blocks)

    # -- robustness plane --------------------------------------------------

    def attach_health(self, config=None) -> List[Any]:
        """Install a :class:`~repro.robust.health.HealthMonitor` on every
        node's driver (one monitor per node: health is judged from each
        initiator's own completion stream).  Returns the monitors,
        node-indexed."""
        from repro.robust.health import HealthMonitor

        monitors = []
        for node in self.nodes:
            monitor = HealthMonitor(config, env=self.env)
            node.driver.health = monitor
            monitors.append(monitor)
        return monitors

    def install_admission(self, config=None) -> None:
        """Install target-side admission control on every shared target."""
        for target in self.targets:
            target.install_admission(config)

    def healthy_target_for(self, node_index: int, now: float) -> int:
        """Index of the healthiest target by node ``node_index``'s monitor
        (for steering *unordered* flows; ordered streams cannot migrate).
        Falls back to target 0 when no monitor is attached."""
        driver = self.nodes[node_index].driver
        if driver.health is None:
            return 0
        names = [t.name for t in self.targets]
        best = driver.health.pick(names, now)
        return names.index(best)

    # -- measurement helpers -----------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Robustness counters of the whole cluster: driver counters
        summed over the hosts (plus ``retries_suppressed`` by retry
        budgets), target counters summed over the targets, and admission
        sheds (``sheds`` in total, ``shed_<reason>`` per reason)."""
        drivers = [node.driver for node in self.nodes]
        out = {name: sum(getattr(d, name) for d in drivers)
               for name in _DRIVER_COUNTERS}
        out["retries_suppressed"] = sum(
            d.retry_budget.suppressed for d in drivers
            if d.retry_budget is not None
        )
        for name in _TARGET_COUNTERS:
            out[name] = sum(getattr(t, name) for t in self.targets)
        out["sheds"] = 0
        for target in self.targets:
            if target.admission is None:
                continue
            out["sheds"] += target.admission.shed
            for reason, n in target.admission.shed_by_reason.items():
                key = f"shed_{reason}"
                out[key] = out.get(key, 0) + n
        return out

    def start_cpu_window(self) -> None:
        for node in self.nodes:
            node.cpus.start_window()
        for target in self.targets:
            target.cpus.start_window()

    def stop_cpu_window(self) -> None:
        for node in self.nodes:
            node.cpus.stop_window()
        for target in self.targets:
            target.cpus.stop_window()

    def initiator_busy_cores(self, elapsed: float) -> float:
        """Busy cores summed over every initiator host."""
        return sum(node.cpus.busy_cores(elapsed) for node in self.nodes)

    def target_busy_cores(self, elapsed: float) -> float:
        return sum(t.cpus.busy_cores(elapsed) for t in self.targets)
