"""Real-cell simulator benchmark: what simulating costs the host.

Runs one workload's simulation cells one after another in this process
(closed loop, concurrency 1: no sweep pool, no result cache), times each
cell from outside and checks its modelled outputs.  See README.md for the
workloads, the metrics and the layer each per-layer metric belongs to.

    python3 perfbench/run.py --workload fio-closed --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object: ``correct``,
``attempted`` (cell runs), ``failed`` (cell runs that raised, broke an
invariant or mismatched a digest) and ``metrics``.  Times are in
reference-host seconds (see clock.py); the lines above the JSON also give
raw wall seconds.  ``--write-references`` stores the digests of one pass
at the given seed as the reference for later runs at that seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from clock import Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
#: Seed whose cell digests are stored in references.json.
REFERENCE_SEED = 1
WORKLOADS = ("fio-closed", "openloop-overload", "fs-crash")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
#: Alternating plain/observed runs of each obs cell.
OBS_REPEATS = 3


def digest(outputs: Dict, ios: int) -> str:
    """Canonical digest of a cell's modelled outputs (exact float repr)."""
    text = json.dumps({"outputs": outputs, "ios": ios}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class CellRun:
    name: str
    wall: float
    clock: Clock
    #: The run's call index on ``clock``.
    index: int
    ios: int
    digest: str
    outputs: Dict
    problems: List[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Reference-host seconds per wall second around this run; final
        once the next two runs have finished."""
        return self.clock.scale(self.index)

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


class Runner:
    """Runs cells, counts their IOs and checks every run's outputs."""

    def __init__(self, workload: str, seed: int) -> None:
        import cells
        from layers import IoCounter

        make_cells, self.tail_pct = cells.WORKLOADS[workload]
        self.cells = make_cells()
        self.workload = workload
        self.seed = seed
        self.io = IoCounter()
        self.io.install()
        self.clock = Clock()
        self.first: Dict[str, str] = {}
        self.references: Optional[Dict[str, str]] = None
        if seed == REFERENCE_SEED and REFERENCES.exists():
            # Cell names are unique across workloads; the traced run of
            # every workload also runs the fio-closed obs cells.
            self.references = {
                name: value
                for stored in json.loads(REFERENCES.read_text()).values()
                for name, value in stored.items()}
        self.attempted = 0
        self.failed = 0

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {name}: {why}", file=sys.stderr)

    def run(self, cell, call: Optional[Callable] = None) -> Optional[CellRun]:
        """Run one cell, through ``call`` if given (e.g. a profiler), and
        check it.  Returns None if it raised."""
        self.attempted += 1
        gc.collect()
        ios_before = self.io.acked

        def body():
            return cell.run(self.seed)

        try:
            outputs, wall, index = self.clock.time(
                body if call is None else lambda: call(body))
        except Exception:
            self.fail(cell.name, "raised\n" + traceback.format_exc())
            return None
        ios = self.io.acked - ios_before
        run = CellRun(cell.name, wall, self.clock, index, ios,
                      digest(outputs, ios), outputs,
                      list(cell.invariants(outputs)))
        earlier = self.first.setdefault(cell.name, run.digest)
        if run.digest != earlier:
            run.problems.append(f"digest {run.digest} != {earlier} of an"
                                " earlier run")
        if self.references is not None:
            reference = self.references.get(cell.name)
            if run.digest != reference:
                run.problems.append(f"digest {run.digest} != reference"
                                    f" {reference}")
        if run.problems:
            self.fail(cell.name, "; ".join(run.problems))
        return run

    def one_pass(self, call: Optional[Callable] = None) -> List[CellRun]:
        runs = [self.run(cell, call) for cell in self.cells]
        return [run for run in runs if run is not None]


def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds (wall, reference) to import repro and build the workload's
    first testbed, each a median over fresh interpreters."""
    walls, seconds = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        wall, slow_before, slow_after = map(float, done.stdout.split()[-3:])
        walls.append(wall)
        seconds.append(wall * 2 / (slow_before + slow_after))
    return [statistics.median(walls), statistics.median(seconds)]


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runner: Runner, seconds: float) -> Dict[str, tuple]:
    """Whole passes over the cells until ``seconds`` have elapsed and the
    tail percentile has at least ten cells beyond it."""
    min_cells = math.ceil(10 / (1 - runner.tail_pct / 100))
    setup_wall, setup_s = measure_setup(runner.workload, runner.seed)
    runs: Dict[str, List[CellRun]] = {}
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or runner.attempted < min_cells):
        for run in runner.one_pass():
            runs.setdefault(run.name, []).append(run)
    if not runs:
        raise RuntimeError("every cell raised")
    ios = sum(cell_runs[0].ios for cell_runs in runs.values())

    def rate(key):
        # Per-cell medians, so one slow pass does not move the rate.
        return ios / sum(statistics.median(map(key, cell_runs))
                         for cell_runs in runs.values())

    # Every pass simulates exactly the same work, so a cell's runs differ
    # only by host noise: each run counts with its cell's median time.
    samples = [statistics.median(run.seconds for run in cell_runs)
               for cell_runs in runs.values() for _run in cell_runs]
    walls = [statistics.median(run.wall for run in cell_runs)
             for cell_runs in runs.values() for _run in cell_runs]
    n, pct = len(samples), runner.tail_pct
    return {
        "sim_ios_per_s": (rate(lambda run: run.seconds), "1/s",
                          f"{ios} IOs in {len(runs)} cells;"
                          f" wall {rate(lambda run: run.wall):.6g}"),
        "cell_s_p50": (statistics.median(samples), "s",
                       f"n={n}; wall {statistics.median(walls):.6g}"),
        "cell_s_tail": (percentile(samples, pct), "s",
                        f"p{pct}, n={n}; wall {percentile(walls, pct):.6g}"),
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_REPEATS}; wall {setup_wall:.6g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "whole run"),
    }


class Tracer:
    """``call`` wrapper for :meth:`Runner.run` that profiles the cell and
    keeps its raw stats and profiled wall time."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self.wall = 0.0

    def __call__(self, fn):
        from layers import profile_call

        result, self.stats, self.wall = profile_call(fn)
        return result


def obs_overhead(runner: Runner) -> float:
    """Time ratio of fio-closed cells with ``Observability`` attached to
    the same cells without; both must give the same digest."""
    import cells

    spent = {False: 0.0, True: 0.0}
    for pair in cells.obs_cells():
        times: Dict[bool, List[float]] = {False: [], True: []}
        for _ in range(OBS_REPEATS):
            for observed, cell in zip((False, True), pair):
                run = runner.run(cell)
                if run is not None:
                    times[observed].append(run.seconds)
        for observed, samples in times.items():
            if samples:
                spent[observed] += statistics.median(samples)
    return ratio(spent[True], spent[False])


def per_layer(runner: Runner) -> Dict[str, tuple]:
    """An untraced pass that reads the program's counters, a
    cProfile-traced pass over the same cells (calls and self time per
    layer), a determinism re-trace and the obs on/off pairs."""
    from layers import CALL_LAYERS, SHARE_LAYERS, Census, LayerProfile

    runner.one_pass()  # lazy imports and caches settle before counting
    census = Census()
    census.install()
    untraced: Dict[str, CellRun] = {}
    counters: Counter = Counter()
    testbeds: List[tuple] = []  # (run, its testbed wall seconds)
    try:
        for cell in runner.cells:
            census.reset()
            run = runner.run(cell)
            if run is not None:
                untraced[cell.name] = run
                counters.update(census.counters())
                testbeds.extend((run, wall) for wall in census.testbed_s)
    finally:
        census.uninstall()

    profile = LayerProfile()
    tracer = Tracer()
    traced: List[tuple] = []  # (run, its profiled wall seconds)
    first = None
    for cell in runner.cells:
        if cell.name not in untraced:
            continue
        run = runner.run(cell, tracer)
        if run is not None:
            traced.append((run, tracer.wall))
            counts = profile.add(tracer.stats)
            first = first or (cell, counts)
    if first is not None:
        # A second trace of a cell must count exactly the same calls.
        cell, counts = first
        if (runner.run(cell, tracer) is not None
                and LayerProfile().add(tracer.stats) != counts):
            runner.fail(cell.name, "traced call counts differ between two"
                        " identical runs")
    obs_ratio = obs_overhead(runner)

    ios = sum(run.ios for run in untraced.values())
    untraced_s = sum(run.seconds for run in untraced.values())
    traced_s = sum(wall * run.scale for run, wall in traced)
    testbed_s = [wall * run.scale for run, wall in testbeds]
    check_runs = [run for run in untraced.values()
                  if "crash_points" in run.outputs]
    metrics = {
        "sim.events_per_io": (ratio(counters["events"], ios), "count"),
        "sim.resumes_per_io": (ratio(profile.named["resumes"], ios),
                               "count"),
        "sim.events_per_s": (ratio(counters["events"], untraced_s), "1/s"),
        "hw.cpu_charges_per_io": (ratio(profile.named["cpu_charges"], ios),
                                  "count"),
        "nvmeof.retries_per_command": (
            ratio(counters["retries"], counters["commands"]), "ratio"),
        "block.bios_per_request": (ratio(ios, counters["requests"]),
                                   "ratio"),
        # Nothing arrived at an admission controller: nothing was refused.
        "robust.admit_ratio": (
            ratio(counters["admitted"], counters["arrived"])
            if counters["arrived"] else 1.0, "ratio"),
        "fs.calls_per_op": (ratio(profile.calls["fs"], counters["fsyncs"]),
                            "count"),
        "check.crash_points_per_cell": (
            ratio(sum(run.outputs["crash_points"] for run in check_runs),
                  len(check_runs)), "count"),
        "build.testbed_ms_p50": (statistics.median(testbed_s) * 1e3, "ms"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
        "obs.overhead_ratio": (obs_ratio, "ratio"),
    }
    for layer in ("sim",) + CALL_LAYERS:
        metrics[f"{layer}.calls_per_io"] = (ratio(profile.calls[layer], ios),
                                            "count")
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = (profile.share(layer), "ratio")
    return {name: (value, unit, f"over {ios} IOs" if "_per_io" in name
                   else "") for name, (value, unit) in metrics.items()}


def write_references(runner: Runner) -> int:
    runs = runner.one_pass()
    if runner.failed:
        print("not writing references: a cell failed", file=sys.stderr)
        return 1
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    stored[runner.workload] = {run.name: run.digest for run in runs}
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} {runner.workload} digests for seed"
          f" {runner.seed} to {REFERENCES.name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, args.seed)
    if args.write_references:
        runner.references = None
        return write_references(runner)
    if args.trace:
        metrics = per_layer(runner)
    else:
        metrics = end_to_end(runner, args.seconds)
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload:18s} {name:30s} {value:14.6g} {unit:6s}"
              f" {note}")
    print(f"{args.workload:18s} {'cells':30s} {runner.attempted:14d}")
    print(f"{args.workload:18s} {'cells_failed':30s} {runner.failed:14d}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
