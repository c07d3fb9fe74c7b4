"""Tests for ``env.trace`` instant events on the observability hook."""

from collections import Counter

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment
from repro.sim.obs import InstantEvent, Observability


def test_trace_records_instant_events():
    env = Environment()
    obs = Observability(env)
    env.trace("ssd", "write", lba=5, dev="ssd0")
    assert len(obs.events) == 1
    event = obs.events[0]
    assert isinstance(event, InstantEvent)
    assert event.category == "ssd"
    assert event.fields == (("dev", "ssd0"), ("lba", 5))
    assert "ssd" in str(event)


def test_capacity_drops_overflow():
    env = Environment()
    obs = Observability(env, capacity=2)
    for i in range(5):
        env.trace("c", "e", i=i)
    assert len(obs.events) == 2
    assert obs.dropped == 3


def test_environment_without_obs_is_silent():
    env = Environment()
    env.trace("anything", "happens")  # must not raise


def test_end_to_end_rio_tracing():
    env = Environment()
    obs = Observability(env)
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(4):
            done = yield from rio.write(core, 0, lba=i, nblocks=1,
                                        kick=(i == 3))
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    counts = Counter(f"{e.category}.{e.event}" for e in obs.events)
    assert counts["rio.sched.merge"] == 3  # 4 writes merged into 1
    assert counts["rio.log.append"] == 1
    assert counts["rio.seq.release"] == 4
    ssd_writes = [span for span in obs.spans.by_name("ssd.service")
                  if span.attrs["op"] == "write"]
    assert len(ssd_writes) == 1
