"""The open-loop load generator: rates, latency accounting, shapes."""

import pytest

from repro.block.request import Bio
from repro.cluster import Cluster
from repro.harness.experiment import LAYOUTS
from repro.scale import OpenLoopConfig, ShardedStack, run_open_loop
from repro.nvmeof.command import STATUS_QFULL
from repro.sim.engine import Environment


def make_testbed(system="rio", initiators=2, tenants=4, **kwargs):
    env = Environment()
    cluster = Cluster(
        env, LAYOUTS["optane"], num_initiators=initiators, seed=11, **kwargs
    )
    stack = ShardedStack(cluster, system, num_streams=tenants)
    return cluster, stack


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


def test_open_loop_tracks_offered_rate_below_saturation():
    cluster, stack = make_testbed()
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=50_000, duration=2e-3, seed=9,
    ))
    assert run.offered_iops == 50_000
    # Far below the knee: achieved within 20% of offered (Poisson noise
    # over a 2ms window, but nowhere near saturation).
    assert run.achieved_iops == pytest.approx(50_000, rel=0.2)
    assert run.latency.count > 0
    assert run.initiator_busy_cores > 0
    assert run.target_busy_cores > 0
    assert run.iops_per_busy_core > 0


def test_open_loop_saturates_past_the_knee():
    """Offered >> capacity: achieved plateaus and tail latency explodes
    (latency is charged from intended arrival, so queueing delay counts)."""
    cluster, stack = make_testbed(system="linux", tenants=2)
    below = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=25_000, tenants=2, duration=2e-3, seed=9,
    ))
    cluster, stack = make_testbed(system="linux", tenants=2)
    above = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=120_000, tenants=2, duration=2e-3, seed=9,
    ))
    assert above.achieved_iops < 120_000 * 0.75  # nowhere near offered
    assert above.achieved_iops > below.achieved_iops  # but more than idle
    assert above.latency.p99 > 5 * below.latency.p99  # hockey stick


def test_open_loop_is_deterministic():
    results = []
    for _ in range(2):
        cluster, stack = make_testbed()
        run = run_open_loop(cluster, stack, OpenLoopConfig(
            offered_iops=100_000, duration=1e-3, seed=9,
        ))
        results.append((run.ops, run.latency.p50, run.latency.p99,
                        run.initiator_busy_cores))
    assert results[0] == results[1]


def test_open_loop_journal_pattern_counts_both_writes():
    cluster, stack = make_testbed()
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=20_000, duration=1e-3, pattern="journal", seed=5,
    ))
    assert run.ops > 0
    assert run.ops % 2 == 0  # journal ops land as 2-write pairs


def test_open_loop_seq_pattern_advances_and_wraps():
    cluster, stack = make_testbed()
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=20_000, duration=1e-3, pattern="seq", seed=5,
    ))
    assert run.ops > 0


def test_open_loop_inflight_cap_bounds_admission(monkeypatch):
    import repro.scale.loadgen as loadgen

    monkeypatch.setattr(loadgen, "OPEN_LOOP_INFLIGHT_CAP", 2)
    cluster, stack = make_testbed(system="linux", tenants=1)
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=500_000, tenants=1, duration=1e-3, seed=5,
    ))
    # Admission throttled to ~2 in flight, yet the run still made progress.
    assert 0 < run.achieved_iops < 500_000


def test_open_loop_rejects_bad_config():
    cluster, stack = make_testbed()
    with pytest.raises(ValueError):
        run_open_loop(cluster, stack, OpenLoopConfig(offered_iops=0))
    with pytest.raises(ValueError):
        run_open_loop(cluster, stack, OpenLoopConfig(
            offered_iops=1000, pattern="mystery",
        ))
    with pytest.raises(ValueError):
        run_open_loop(cluster, stack, OpenLoopConfig(
            offered_iops=1000, tenants=0,
        ))


class StatusStack:
    """Completes each write 10 us after issue, every third one shed."""

    name = "status-stub"

    def __init__(self, env):
        self.env = env
        self.writes = 0

    def write_ordered(self, core, stream, lba, nblocks, end_of_group=True,
                      flush=False, tenant=None):
        self.writes += 1
        done = self.env.timeout(10e-6)
        done.bio = Bio(op="write", lba=lba, nblocks=nblocks, stream_id=stream)
        if self.writes % 3 == 0:
            done.bio.status = STATUS_QFULL
        return done
        yield  # a generator, like every stack's write_ordered


def test_open_loop_splits_completions_by_status():
    cluster = Cluster(Environment(), LAYOUTS["optane"], seed=11)
    run = run_open_loop(cluster, StatusStack(cluster.env), OpenLoopConfig(
        offered_iops=200_000, tenants=2, duration=1e-3, seed=4,
    ))
    assert run.good_ops > 0 and run.failed_ops > 0
    assert run.good_ops + run.failed_ops == run.ops
    assert run.failures_by_cause == {"shed": run.failed_ops}
    assert run.goodput_iops == run.good_ops / run.elapsed
    # `latency` holds every completion; `good_latency` only the good
    # ones, per tenant.
    assert len(run.good_latency) == 2
    good = sum(recorder.count for recorder in run.good_latency)
    assert 0 < good < run.latency.count
