"""Deterministic host-cost ceiling on one real closed-loop block cell.

Engine events per acknowledged IO do not depend on the host, so this
catches a hot-path regression (a hop put back on the per-IO path) without
any wall-clock noise.  The cell is the 4 KB QD32 rio/optane fio cell at
seed 1: 627 acknowledged bios cost 35,309 engine events (56.3 per IO);
before uncontended grants continued in-step and unwatched completions
stopped scheduling, the same cell cost 53,972 (86.1 per IO).
"""

from repro.apps.fio import run_block_workload
from repro.block.request import Bio
from repro.harness.experiment import build_cluster, build_stack
from repro.sim import Environment

EVENTS_PER_ACKED_IO_CEILING = 60.0


def test_rio_optane_4k_events_per_acked_io_ceiling(monkeypatch):
    acked = [0]
    complete = Bio.complete

    def counting_complete(bio, env):
        if bio.status == 0:
            acked[0] += 1
        complete(bio, env)

    monkeypatch.setattr(Bio, "complete", counting_complete)
    env = Environment()
    cluster = build_cluster("optane", env=env, seed=1)
    stack = build_stack("rio", cluster, num_streams=8)
    run = run_block_workload(
        cluster, stack, threads=8, queue_depth=32,
        duration=1e-3, warmup=0.25e-3, seed=1,
    )
    # The modelled result is pinned: only host cost may move.
    assert (run.ops, acked[0]) == (512, 627)
    # The engine numbers every scheduled event from one counter.
    events = int(repr(env._eid)[len("count("):-1])
    assert events / acked[0] <= EVENTS_PER_ACKED_IO_CEILING, (
        f"{events} events for {acked[0]} acked IOs "
        f"({events / acked[0]:.1f} per IO)"
    )
