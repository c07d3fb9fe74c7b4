"""Unit tests for the Cluster testbed builder."""

import pytest

from repro.cluster import Cluster
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.sim import Environment


def test_cluster_requires_targets():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, target_ssds=())
    with pytest.raises(ValueError):
        Cluster(env, target_ssds=((),))


def test_cluster_builds_paper_testbed():
    env = Environment()
    cluster = Cluster(
        env,
        target_ssds=((FLASH_PM981, OPTANE_905P), (FLASH_PM981, OPTANE_905P)),
    )
    assert len(cluster.targets) == 2
    assert len(cluster.namespaces) == 4
    assert len(cluster.initiator.cpus) == 36  # 2 x 18 cores
    assert all(len(t.cpus) == 36 for t in cluster.targets)
    assert all(t.pmr.size == 2 * 1024 * 1024 for t in cluster.targets)


def test_volume_defaults_to_all_namespaces():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P, OPTANE_905P),))
    assert cluster.volume().width == 2
    assert cluster.volume(cluster.namespaces[:1]).width == 1


def test_empty_namespace_list_is_not_the_default():
    """An explicitly empty selection is an error, not "all namespaces"."""
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    with pytest.raises(ValueError, match="at least one namespace"):
        cluster.volume(cluster.namespaces[1:])
    with pytest.raises(ValueError, match="at least one namespace"):
        cluster.nodes[0].volume([])


def test_num_qps_configurable():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), num_qps=4)
    assert cluster.namespaces[0].num_queues == 4


def test_seeds_give_identical_topology_different_jitter():
    def qp_delay(seed):
        env = Environment()
        cluster = Cluster(env, target_ssds=((OPTANE_905P,),), seed=seed)
        return cluster.fabric.queue_pairs[0].propagation_delay

    assert qp_delay(1) == qp_delay(1)
    assert qp_delay(1) != qp_delay(2)


def test_cpu_window_helpers():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    cluster.start_cpu_window()

    def work(env):
        yield from cluster.initiator.cpus.pick(0).run(1e-3)
        yield from cluster.targets[0].cpus.pick(0).run(0.5e-3)

    env.run_until_event(env.process(work(env)))
    cluster.stop_cpu_window()
    elapsed = env.now
    assert cluster.initiator_busy_cores(elapsed) == pytest.approx(
        1e-3 / elapsed
    )
    assert cluster.target_busy_cores(elapsed) == pytest.approx(
        0.5e-3 / elapsed
    )
