"""Open/closed-loop load generators: rates, latency accounting, shapes."""

import pytest

from repro.cluster import Cluster
from repro.harness.experiment import LAYOUTS
from repro.scale import (
    ClosedLoopConfig,
    OpenLoopConfig,
    ShardedStack,
    run_closed_loop,
    run_open_loop,
)
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


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------


def test_closed_loop_self_limits_to_completion_rate():
    cluster, stack = make_testbed()
    run = run_closed_loop(cluster, stack, ClosedLoopConfig(
        queue_depth=4, duration=1e-3, seed=3,
    ))
    assert run.ops > 0
    assert run.latency.count > 0
    assert run.achieved_iops > 0
    assert run.initiator_busy_cores > 0


def test_closed_loop_think_time_lowers_throughput():
    cluster, stack = make_testbed()
    eager = run_closed_loop(cluster, stack, ClosedLoopConfig(
        queue_depth=1, duration=1e-3, seed=3,
    ))
    cluster, stack = make_testbed()
    thinking = run_closed_loop(cluster, stack, ClosedLoopConfig(
        queue_depth=1, think_time=50e-6, duration=1e-3, seed=3,
    ))
    assert thinking.achieved_iops < eager.achieved_iops


def test_closed_loop_rejects_zero_depth():
    cluster, stack = make_testbed()
    with pytest.raises(ValueError):
        run_closed_loop(cluster, stack, ClosedLoopConfig(queue_depth=0))
