"""N-initiator Cluster + ShardedStack: topology, sharding, steering knobs."""

import pytest

from repro.cluster import Cluster
from repro.harness.experiment import LAYOUTS
from repro.nvmeof.initiator import DriverHardening
from repro.scale import ShardedStack
from repro.sim.engine import Environment

SYSTEMS = ("rio", "horae", "linux", "barrier")


def build(layout="optane", initiators=2, **kwargs):
    env = Environment()
    cluster = Cluster(
        env, LAYOUTS[layout], num_initiators=initiators, seed=7, **kwargs
    )
    return env, cluster


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


def test_nodes_have_private_hosts_and_shared_targets():
    _env, cluster = build("2optane-2targets", initiators=3)
    assert len(cluster.nodes) == 3
    assert len(cluster.targets) == 2
    servers = {node.initiator.name for node in cluster.nodes}
    assert servers == {"initiator0", "initiator1", "initiator2"}
    drivers = {id(node.driver) for node in cluster.nodes}
    assert len(drivers) == 3  # one driver per host, never shared
    for node in cluster.nodes:
        # Every host has its own connection set to every target.
        assert len(node.namespaces) == sum(
            len(t.ssds) for t in cluster.targets
        )


def test_coordinator_compat_surface_is_node_zero():
    _env, cluster = build()
    assert cluster.initiator is cluster.nodes[0].initiator
    assert cluster.driver is cluster.nodes[0].driver
    assert cluster.namespaces is cluster.nodes[0].namespaces


def test_every_setting_reaches_every_host_and_target():
    """One assembly takes the union of the settings: PMR size lands on
    every shared target and driver hardening on every host's driver."""
    hardening = DriverHardening(command_timeout=1e-3, max_retries=2)
    _env, cluster = build("2optane-2targets", initiators=2,
                          pmr_size=64 * 1024, hardening=hardening)
    assert [t.pmr.size for t in cluster.targets] == [64 * 1024] * 2
    assert [node.driver.hardening for node in cluster.nodes] == \
        [hardening] * 2


def test_nodes_are_their_hosts_cluster_view():
    """A node carries what a stack reads from a cluster, scoped to its
    own host: shared targets, private driver and namespaces."""
    _env, cluster = build(initiators=2)
    for node in cluster.nodes:
        assert node.env is cluster.env
        assert node.costs is cluster.costs
        assert node.targets is cluster.targets
        assert node.cpus is node.initiator.cpus
        assert node.volume().namespaces == node.namespaces


def test_rejects_empty_topologies():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, LAYOUTS["optane"], num_initiators=0)
    with pytest.raises(ValueError):
        Cluster(env, [])


def test_qp_ranges_per_host_are_contiguous():
    """Hosts connect in index order: host i owns one contiguous run of
    fabric QP indices (the chaos harness targets a victim host by it)."""
    _env, cluster = build(initiators=2, num_qps=4)
    per_node = len(cluster.fabric.queue_pairs) // 2
    names = [qp.endpoints[0].nic.name for qp in cluster.fabric.queue_pairs]
    assert names[:per_node] == ["initiator0-nic"] * per_node
    assert names[per_node:] == ["initiator1-nic"] * per_node


# ----------------------------------------------------------------------
# Stream sharding
# ----------------------------------------------------------------------


def test_streams_shard_by_residue():
    _env, cluster = build(initiators=3)
    stack = ShardedStack(cluster, "linux", num_streams=7)
    for stream in range(7):
        assert stack.node_for(stream) is cluster.nodes[stream % 3]


def test_rio_streams_are_dense_per_node_with_disjoint_wire_ranges():
    _env, cluster = build(initiators=2)
    stack = ShardedStack(cluster, "rio", num_streams=5)
    # Global streams 0,2,4 -> node 0 locals 0,1,2; 1,3 -> node 1 locals 0,1.
    assert [stack.local_stream(s) for s in range(5)] == [0, 0, 1, 1, 2]
    bases = [device.sequencer.stream_base for device in stack.stacks]
    assert bases == [0, 3]  # node 0 owns 3 wire streams, node 1 owns 2


def test_non_rio_streams_pass_through_globally():
    """Congruence sharding: each node sees only its residue class, so the
    shared targets' per-stream state never collides across hosts."""
    _env, cluster = build(initiators=2)
    stack = ShardedStack(cluster, "horae", num_streams=4)
    assert [stack.local_stream(s) for s in range(4)] == [0, 1, 2, 3]


@pytest.mark.parametrize("system", SYSTEMS)
def test_ordered_writes_complete_on_every_system(system):
    env, cluster = build(initiators=2)
    stack = ShardedStack(cluster, system, num_streams=4)
    done = []

    def writer(stream):
        core = cluster.initiator.cpus.pick(stream)
        for group in range(3):
            yield from stack.write_ordered(
                core, stream, lba=stream * 1_000_000 + group * 8, nblocks=1,
            )
        done.append(stream)

    for stream in range(4):
        env.process(writer(stream))
    env.run(until=5e-3)
    assert sorted(done) == [0, 1, 2, 3]


def test_submissions_run_on_the_owning_hosts_cores():
    env, cluster = build(initiators=2)
    stack = ShardedStack(cluster, "linux", num_streams=2)

    def writer(stream):
        core = cluster.initiator.cpus.pick(stream)
        yield from stack.write_ordered(core, stream, lba=stream * 64,
                                       nblocks=1)

    for stream in range(2):
        env.process(writer(stream))
    cluster.start_cpu_window()
    env.run(until=2e-3)
    cluster.stop_cpu_window()
    # Both hosts burned CPU: stream 1's work landed on node 1, not node 0.
    for node in cluster.nodes:
        assert node.cpus.busy_time() > 0


def test_recovery_attribute_only_for_recovering_systems():
    _env, cluster = build(initiators=2)
    assert hasattr(ShardedStack(cluster, "rio", num_streams=2), "recovery")
    _env, cluster = build(initiators=2)
    assert not hasattr(
        ShardedStack(cluster, "linux", num_streams=2), "recovery"
    )


# ----------------------------------------------------------------------
# Steering knobs
# ----------------------------------------------------------------------


def test_same_seed_and_steering_is_bit_identical():
    """The sweep cache's contract: a (seed, steering) pair fully pins the
    simulation — two fresh builds complete at float-identical times."""
    def run_one(steering):
        env, cluster = build(initiators=2, steering=steering)
        stack = ShardedStack(cluster, "rio", num_streams=4)
        times = []

        def writer(stream):
            core = cluster.initiator.cpus.pick(stream)
            event = None
            for group in range(4):
                event = yield from stack.write_ordered(
                    core, stream, lba=stream * 4096 + group * 8, nblocks=1,
                )
            yield event
            times.append((stream, env.now))

        for stream in range(4):
            env.process(writer(stream))
        env.run(until=2e-3)
        return sorted(times)

    assert run_one("pin") == run_one("pin")
    assert run_one("flow-hash") == run_one("flow-hash")


@pytest.mark.parametrize("steering",
                         ("round-robin", "least-loaded", "flow-hash"))
def test_alternate_steering_policies_still_complete_in_order(steering):
    env, cluster = build(initiators=2, steering=steering)
    stack = ShardedStack(cluster, "rio", num_streams=2)
    completions = {0: [], 1: []}

    def writer(stream):
        core = cluster.initiator.cpus.pick(stream)
        events = []
        for group in range(6):
            event = yield from stack.write_ordered(
                core, stream, lba=stream * 1_000_000 + group * 8, nblocks=1,
            )
            events.append((group, event))
        for group, event in events:
            if not event.triggered:
                yield event
            completions[stream].append(group)

    for stream in range(2):
        env.process(writer(stream))
    env.run(until=5e-3)
    assert completions[0] == list(range(6))
    assert completions[1] == list(range(6))


def test_qp_steering_rejects_flow_migrating_policies():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, LAYOUTS["optane"], num_initiators=2,
                qp_steering="round-robin")


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------


def test_busy_core_accounting_sums_over_hosts():
    env, cluster = build(initiators=2)
    stack = ShardedStack(cluster, "linux", num_streams=2)

    def writer(stream):
        core = cluster.initiator.cpus.pick(stream)
        for group in range(8):
            yield from stack.write_ordered(core, stream,
                                           lba=stream * 64 + group * 2,
                                           nblocks=1)

    for stream in range(2):
        env.process(writer(stream))
    cluster.start_cpu_window()
    env.run(until=2e-3)
    cluster.stop_cpu_window()
    total = cluster.initiator_busy_cores(2e-3)
    per_node = sum(node.cpus.busy_cores(2e-3) for node in cluster.nodes)
    assert total == pytest.approx(per_node)
    assert total > 0
    assert cluster.target_busy_cores(2e-3) > 0
