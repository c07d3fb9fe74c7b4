"""Per-layer accounting for the traced run, attached from outside.

Two instruments, neither of which edits the program:

* :class:`Census` wraps a few constructors (and the check plane's testbed
  builder, where its callers look it up) while installed, so after a
  cell the benchmark can read the counters those objects already keep:
  engine events scheduled, NVMe-oF commands and retries, block requests,
  admission verdicts, fsyncs.  It also times each outermost testbed
  construction.
* :func:`profile_call` runs a cell under ``cProfile``;
  :class:`LayerProfile` folds the profiles by the ``repro.<layer>``
  package of each function, giving exact call counts and noisy self-time
  shares per layer.

:class:`IoCounter` (used by every run, traced or not) counts the block IOs
the simulated stack acknowledges, by wrapping ``Bio.complete``.
"""

from __future__ import annotations

import cProfile
import gc
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
BENCH_DIR = Path(__file__).resolve().parent

#: Layers with a self-time share in the report; ``bench`` is this
#: benchmark's own frames, ``stdlib`` every frame outside ``repro``.
SHARE_LAYERS = ("sim", "hw", "net", "nvmeof", "block", "core", "systems",
                "scale", "tenants", "robust", "fs", "check", "apps",
                "harness", "cluster", "stdlib", "bench")
#: Layers with a calls-per-IO count in the report.
CALL_LAYERS = ("hw", "net", "nvmeof", "block", "core", "scale")


def _patch(owner: Any, name: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.name`` by ``make(original)``; return the undo."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)


class IoCounter:
    """Counts bios completed with success status (acknowledged IOs)."""

    def __init__(self) -> None:
        self.acked = 0

    def install(self) -> None:
        from repro.block.request import Bio

        def make(original):
            def complete(bio, env):
                if bio.status == 0:
                    self.acked += 1
                original(bio, env)
            return complete

        _patch(Bio, "complete", make)


class Census:
    """Objects a cell constructed, and how long its testbeds took."""

    def __init__(self) -> None:
        self.objects: Dict[str, List[Any]] = {}
        self.testbed_s: List[float] = []
        self._depth = 0
        self._undo: List[Callable[[], None]] = []

    def reset(self) -> None:
        self.objects = {}
        self.testbed_s = []

    def install(self) -> None:
        from repro.block.mq import BlockLayer
        from repro.check import crashpoints, differential
        from repro.cluster import Cluster
        from repro.fs.filesystem import SimFileSystem
        from repro.nvmeof.initiator import InitiatorDriver
        from repro.robust.admission import AdmissionController
        from repro.scale.cluster import ScaleOutCluster
        from repro.sim.engine import Environment

        for kind, cls in (("env", Environment), ("driver", InitiatorDriver),
                          ("block", BlockLayer), ("fs", SimFileSystem),
                          ("admission", AdmissionController)):
            self._undo.append(_patch(cls, "__init__", self._collector(kind)))
        for owner, name in ((Cluster, "__init__"),
                            (ScaleOutCluster, "__init__"),
                            (crashpoints, "build_testbed"),
                            (differential, "build_testbed")):
            self._undo.append(_patch(owner, name, self._timer))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _collector(self, kind: str):
        def make(original):
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                self.objects.setdefault(kind, []).append(obj)
            return init
        return make

    def _timer(self, original):
        def timed(*args, **kwargs):
            self._depth += 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.testbed_s.append(time.perf_counter() - started)
        return timed

    def counters(self) -> Counter:
        """Sum the counters of every object built since :meth:`reset`."""
        out: Counter = Counter()
        for env in self.objects.get("env", ()):
            # The engine numbers every scheduled event from one
            # itertools.count; its repr is "count(<next number>)".
            out["events"] += int(repr(env._eid)[len("count("):-1])
        for driver in self.objects.get("driver", ()):
            out["commands"] += driver.commands_sent
            out["retries"] += (driver.retries + driver.commands_requeued
                               + driver.commands_resubmitted)
        for block in self.objects.get("block", ()):
            out["requests"] += block.requests_dispatched
        for admission in self.objects.get("admission", ()):
            out["admitted"] += admission.admitted
            out["arrived"] += admission.admitted + admission.shed
        for fs in self.objects.get("fs", ()):
            out["fsyncs"] += fs.fsyncs
        return out


def _layer_of(filename: str) -> str:
    path = Path(filename)
    if path.is_relative_to(SRC_REPRO):
        return path.relative_to(SRC_REPRO).parts[0].removesuffix(".py")
    if path.is_relative_to(BENCH_DIR):
        return "bench"
    return "stdlib"


def profile_call(run: Callable[[], Any]) -> Tuple[Any, dict, float]:
    """Run ``run()`` under cProfile with the cyclic GC held off, so no
    garbage of an earlier cell is finalized inside this profile.
    Returns (result, raw pstats dict, wall seconds)."""
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    started = time.perf_counter()
    try:
        profiler.enable()
        try:
            result = run()
        finally:
            profiler.disable()
    finally:
        wall = time.perf_counter() - started
        gc.enable()
    profiler.create_stats()
    return result, profiler.stats, wall


#: (file under src/repro, function, caller file, caller function or None)
#: -> named count: process resumes, and CPU charges (every Core.run
#: charge opens exactly one busy section on its core).
NAMED_CALLS = {
    "resumes": ("sim/engine.py", "_resume", None, None),
    "cpu_charges": ("sim/stats.py", "begin", "hw/cpu.py", "run"),
}


class LayerProfile:
    """Call counts and self time per layer, summed over cells."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.named: Counter = Counter()

    @staticmethod
    def fold(stats: dict) -> Tuple[Counter, Counter, Counter]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        named: Counter = Counter()
        for (filename, _line, func), (_cc, nc, tt, _ct, callers) in \
                stats.items():
            layer = _layer_of(filename)
            calls[layer] += nc
            self_s[layer] += tt
            for name, (file, fn, caller_file, caller_fn) in \
                    NAMED_CALLS.items():
                if fn != func or not filename.endswith(file):
                    continue
                if caller_file is None:
                    named[name] += nc
                    continue
                for (cfile, _cline, cfunc), (caller_nc, *_rest) in \
                        callers.items():
                    if cfunc == caller_fn and cfile.endswith(caller_file):
                        named[name] += caller_nc
        return calls, self_s, named

    def add(self, stats: dict) -> Tuple[Counter, Counter]:
        """Fold one cell's profile in; return its (calls, named) counts."""
        calls, self_s, named = self.fold(stats)
        self.calls.update(calls)
        self.self_s.update(self_s)
        self.named.update(named)
        return calls, named

    def share(self, layer: str) -> float:
        total = sum(self.self_s.values())
        return self.self_s[layer] / total if total else 0.0
