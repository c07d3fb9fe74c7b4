"""The benchmark's workloads: real simulation cells, built from outside.

Each cell builds a fresh testbed through the program's public probe and
builder functions, runs one in-simulation load generator to the end of
its window and returns its modelled outputs as a flat dict.  The cell
list of a workload is fixed; ``seed`` only reseeds the testbed and the
load generator, so every seed runs the same cells over the same windows.

Modelled outputs are results of the simulation, not of the host: the
same (cell, seed) gives bit-identical outputs on any machine, which is
what the digest check relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.apps.fio import run_block_workload
from repro.apps.varmail import run_varmail
from repro.check import check_cell
from repro.fs.filesystem import make_filesystem
from repro.harness.experiment import LAYOUTS, build_cluster, build_stack
from repro.harness.saturate import probe_saturation
from repro.harness.tenants import probe_noisy_neighbor
from repro.scale import ScaleOutCluster, ShardedStack
from repro.sim.engine import Environment
from repro.sim.obs import Observability

Outputs = Dict[str, float]

FIO_SYSTEMS = ("rio", "horae", "barrier", "linux")
FIO_LAYOUTS = ("optane", "flash")
FIO_THREADS = 8
FIO_QUEUE_DEPTH = 32
FIO_WARMUP = 0.25e-3
#: variant -> run_block_workload overrides: 4 KB random writes at QD32,
#: 64 KB writes (per-byte cost; QD4 keeps 2 MB in flight, so latency
#: stays near 1 ms) and mergeable batches of 16 4 KB writes (per-merge
#: cost).
FIO_VARIANTS = {
    "4k": {},
    "64k": {"write_blocks": 16, "queue_depth": 4},
    "b16": {"batch": 16},
}
#: (system, layout) -> measured window in ms per variant (4k, 64k, b16),
#: sized by Little's law so every cell records at least ~35 latency
#: samples after warm-up: linux and barrier serialize each stream, so
#: QD32 queues milliseconds deep inside the stack.
FIO_WINDOW_MS = {
    ("rio", "optane"): (1, 4, 2),
    ("rio", "flash"): (1, 4, 2),
    ("horae", "optane"): (1, 4, 2),
    ("horae", "flash"): (1, 4, 2),
    ("barrier", "optane"): (4, 4, 16),
    ("barrier", "flash"): (1, 4, 2),
    ("linux", "optane"): (4, 4, 4),
    ("linux", "flash"): (32, 4, 64),
}

#: system -> (kIOPS below its knee, kIOPS above it) on the single-Optane
#: layout; the knees sit near barrier 85k, linux 125k, horae 300k and
#: rio 510k (repro.harness.saturate.DEFAULT_LOADS_KIOPS).
OPENLOOP_LOADS = {
    "rio": (250, 800),
    "horae": (150, 500),
    "linux": (60, 200),
    "barrier": (40, 150),
}
#: below the knee? -> measured window.  Below the knee a cell's work is
#: its Poisson arrival count, so a 6 ms window keeps that count within
#: about 3% across seeds; past the knee the device caps the work and the
#: probe's default 2 ms window stays.
OPENLOOP_WINDOW_S = {True: 6e-3, False: 2e-3}
#: Below the knee a cell keeps up with its offered load and requests do
#: not queue; past it the backlog grows for the whole window.  With 2 ms
#: windows, seeds 0-7 gave achieved/offered >= 0.86 and p50 <= 37 us
#: below every knee, and <= 0.64 and >= 540 us past it.
KEEPS_UP = 0.75
BACKLOG_P50_US = 200.0
#: The noisy-neighbor storm runs with QoS on for rio and horae, which
#: hold the gold SLO on every seed from 0 to 59 in this 6 ms window
#: (twice the probe's default, so the arrival count varies less across
#: seeds).  linux is left out: it misses the SLO on 2 of those 60 seeds
#: at 6 ms and on 37 at 12 ms; even the default 3 ms window misses on
#: seed 35 (gold p999 3.2 ms over 35 samples).
STORM_SYSTEMS = ("rio", "horae")
STORM_WINDOW_S = 6e-3

FS_KINDS = ("riofs", "horaefs", "ext4")
FS_THREADS = 4
FS_DURATION = 1e-3
FS_WARMUP = 0.2e-3
CHECK_SYSTEMS = ("rio", "horae", "linux", "barrier")
CHECK_LAYOUTS = ("optane", "flash")


@dataclass(frozen=True)
class Cell:
    """One simulation cell: ``run(seed)`` returns its modelled outputs;
    ``invariants(outputs)`` lists what is wrong with them (empty = ok)."""

    name: str
    run: Callable[[int], Outputs]
    invariants: Callable[[Outputs], List[str]]


def _require_samples(out: Outputs, *keys: str) -> List[str]:
    """A latency taken over zero samples is unmeasured, not a pass."""
    return [f"{key} has no samples" for key in keys if not out.get(key)]


# ----------------------------------------------------------------------
# fio-closed: closed-loop block writes over the full remote stack
# ----------------------------------------------------------------------


def fio_outputs(system: str, layout: str, variant: str, seed: int,
                obs: bool = False) -> Outputs:
    """One closed-loop block-workload cell on a fresh testbed."""
    env = Environment()
    if obs:
        Observability(env)
    cluster = build_cluster(layout, env=env, seed=seed)
    stack = build_stack(system, cluster, num_streams=FIO_THREADS)
    window_ms = dict(zip(FIO_VARIANTS, FIO_WINDOW_MS[system, layout]))
    run = run_block_workload(
        cluster, stack, threads=FIO_THREADS,
        duration=window_ms[variant] * 1e-3,
        warmup=FIO_WARMUP, seed=seed,
        **{"queue_depth": FIO_QUEUE_DEPTH, **FIO_VARIANTS[variant]},
    )
    return {
        "ops": run.ops,
        "bytes_written": run.bytes_written,
        "latency_samples": run.latency.count,
        "p50_us": run.latency.p50 * 1e6,
        "p99_us": run.latency.p99 * 1e6,
        "initiator_busy_cores": run.initiator_busy_cores,
        "target_busy_cores": run.target_busy_cores,
        "commands_sent": run.commands_sent,
    }


def _fio_invariants(out: Outputs) -> List[str]:
    problems = _require_samples(out, "latency_samples")
    if out["ops"] <= 0 or out["commands_sent"] <= 0:
        problems.append("no block writes completed in the window")
    return problems


def fio_cells() -> List[Cell]:
    return [
        Cell(
            f"fio:{system}/{layout}/{variant}",
            lambda seed, s=system, l=layout, v=variant: fio_outputs(
                s, l, v, seed),
            _fio_invariants,
        )
        for system in FIO_SYSTEMS
        for layout in FIO_LAYOUTS
        for variant in FIO_VARIANTS
    ]


#: fio-closed cells also run with observability attached.
OBS_CELLS = (("rio", "optane", "4k"), ("linux", "optane", "4k"))


def obs_cells() -> List[Tuple[Cell, Cell]]:
    """(plain, observed) pairs: the same cell without and with
    ``Observability`` attached.  Both carry one name, because attaching
    observability must not change a single modelled output."""
    pairs = []
    for system, layout, variant in OBS_CELLS:
        plain, observed = (
            Cell(f"fio:{system}/{layout}/{variant}",
                 lambda seed, s=system, l=layout, v=variant, o=obs:
                 fio_outputs(s, l, v, seed, obs=o),
                 _fio_invariants)
            for obs in (False, True))
        pairs.append((plain, observed))
    return pairs


# ----------------------------------------------------------------------
# openloop-overload: Poisson scale-out below/above the knee, QoS storm
# ----------------------------------------------------------------------


def _openloop_invariants(below: bool):
    def check(out: Outputs) -> List[str]:
        problems = _require_samples(out, "samples")
        keeps_up = out["achieved_kiops"] >= KEEPS_UP * out["offered_kiops"]
        backlogged = out["p50_us"] > BACKLOG_P50_US
        if keeps_up != below or backlogged == below:
            problems.append(
                f"{out['achieved_kiops']:.1f} of {out['offered_kiops']} kIOPS"
                f" at p50 {out['p50_us']:.0f} us is not"
                f" {'below' if below else 'above'} the knee")
        return problems

    return check


def _storm_invariants(out: Outputs) -> List[str]:
    problems = _require_samples(out, "gold_count")
    if out["gold_within_slo"] != 1.0:
        problems.append(
            f"QoS-on storm missed the gold SLO: p999 {out['gold_p999_us']}"
            f" us, complete ratio {out['gold_complete_ratio']}")
    return problems


def openloop_cells() -> List[Cell]:
    cells = []
    for system, loads in OPENLOOP_LOADS.items():
        for below, kiops in zip((True, False), loads):
            cells.append(Cell(
                f"openloop:{system}/{kiops}k",
                lambda seed, s=system, k=kiops, d=OPENLOOP_WINDOW_S[below]:
                probe_saturation(s, "optane", k, initiators=2, duration=d,
                                 seed=seed),
                _openloop_invariants(below),
            ))
    for system in STORM_SYSTEMS:
        cells.append(Cell(
            f"storm:{system}/qos",
            lambda seed, s=system: probe_noisy_neighbor(
                s, qos=True, duration=STORM_WINDOW_S, seed=seed),
            _storm_invariants,
        ))
    return cells


# ----------------------------------------------------------------------
# fs-crash: fsync and varmail on the file systems, crash-point checking
# ----------------------------------------------------------------------


def _build_fs(kind: str, seed: int):
    cluster = build_cluster("optane", seed=seed)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))
    return cluster, fs


def fsync_outputs(kind: str, seed: int) -> Outputs:
    """Per-thread 4 KB append+fsync to private files (the Fig. 13 loop)."""
    cluster, fs = _build_fs(kind, seed)
    env = cluster.env
    end_time = FS_WARMUP + FS_DURATION
    completed = [0]

    def worker(thread_id):
        core = cluster.initiator.cpus.pick(thread_id)
        file = yield from fs.create(core, f"f{thread_id}")
        while env.now < end_time:
            yield from fs.append(core, file, nblocks=1)
            started = env.now
            yield from fs.fsync(core, file, thread_id=thread_id)
            if started >= FS_WARMUP:
                completed[0] += 1

    for thread_id in range(FS_THREADS):
        env.process(worker(thread_id))
    env.run(until=end_time)
    return {
        "fsyncs_in_window": completed[0],
        "fsyncs": fs.fsyncs,
        "fsync_samples": fs.fsync_latency.count,
        "fsync_mean_us": fs.fsync_latency.mean * 1e6,
        "fsync_p99_us": fs.fsync_latency.p99 * 1e6,
    }


def varmail_outputs(kind: str, seed: int) -> Outputs:
    """The Varmail personality (the Fig. 15(a) cell), reseeded."""
    cluster, fs = _build_fs(kind, seed)
    run = run_varmail(cluster, fs, threads=FS_THREADS, duration=FS_DURATION,
                      warmup=FS_DURATION / 10, seed=seed)
    return {
        "ops": run.ops,
        "fsyncs": fs.fsyncs,
        "fsync_samples": fs.fsync_latency.count,
        "fsync_p99_us": fs.fsync_latency.p99 * 1e6,
    }


def _fs_invariants(out: Outputs) -> List[str]:
    return _require_samples(out, "fsync_samples")


def _check_invariants(out: Outputs) -> List[str]:
    problems = []
    if not out["crash_points"]:
        problems.append("no crash points enumerated")
    if not out["ok"]:
        problems.append(f"order oracle failed {out['failures']} crash points")
    return problems


def check_outputs(system: str, layout: str, seed: int) -> Outputs:
    report = check_cell(system=system, layout=layout, seed=seed)
    return {
        "crash_points": report["crash_points"],
        "groups_completed": report["groups_completed"],
        "ok": report["ok"],
        "failures": len(report["failures"]),
    }


def fs_crash_cells() -> List[Cell]:
    cells = []
    for kind in FS_KINDS:
        cells.append(Cell(f"fsync:{kind}",
                          lambda seed, k=kind: fsync_outputs(k, seed),
                          _fs_invariants))
        cells.append(Cell(f"varmail:{kind}",
                          lambda seed, k=kind: varmail_outputs(k, seed),
                          _fs_invariants))
    for system in CHECK_SYSTEMS:
        for layout in CHECK_LAYOUTS:
            cells.append(Cell(
                f"check:{system}/{layout}",
                lambda seed, s=system, l=layout: check_outputs(s, l, seed),
                _check_invariants,
            ))
    return cells


# ----------------------------------------------------------------------
# Workload table and set-up
# ----------------------------------------------------------------------

#: workload -> (cells, percentile reported as cell_s_tail).  A run keeps
#: going until at least ten cells lie beyond that percentile.
WORKLOADS: Dict[str, Tuple[Callable[[], List[Cell]], int]] = {
    "fio-closed": (fio_cells, 85),
    "openloop-overload": (openloop_cells, 80),
    "fs-crash": (fs_crash_cells, 95),
}


def first_testbed(workload: str, seed: int) -> None:
    """Build the testbed the workload's first cell starts from."""
    if workload == "fio-closed":
        cluster = build_cluster(FIO_LAYOUTS[0], seed=seed)
        build_stack(FIO_SYSTEMS[0], cluster, num_streams=FIO_THREADS)
    elif workload == "openloop-overload":
        cluster = ScaleOutCluster(Environment(), LAYOUTS["optane"],
                                  num_initiators=2, seed=seed)
        ShardedStack(cluster, next(iter(OPENLOOP_LOADS)), num_streams=4)
    elif workload == "fs-crash":
        _build_fs(FS_KINDS[0], seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
