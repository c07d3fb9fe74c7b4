"""A MySQL-style OLTP workload: redo logging plus in-place page updates.

The paper motivates storage order with database transactions ("Applications
(e.g., MySQL) that require strong consistency and durability issue fsync to
trigger the metadata journaling", §3.1).  This workload models the storage
behaviour of an InnoDB-like engine:

* each transaction reads and modifies a few *pages* of a data file,
  appends a redo record to the log file, and commits with **fsync**
  (group commit batches concurrent committers);
* a background page cleaner periodically writes dirty pages back to the
  data file **in place** — exercising Rio's normal-IPU path (§4.4.2)
  under a realistic producer.

Transactions per second is the reported metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster import Cluster
from repro.fs.filesystem import File, SimFileSystem
from repro.hw.cpu import Core
from repro.sim.engine import Environment, Event
from repro.sim.rng import DeterministicRNG

__all__ = ["OltpDatabase", "OltpResult", "run_oltp"]

#: CPU cost of executing one transaction's logic (index lookups, locking).
TXN_EXECUTE_COST = 3.0e-6
#: Pages touched per transaction.
PAGES_PER_TXN = 3
#: Dirty-page threshold that wakes the page cleaner.
CLEANER_THRESHOLD = 64
#: Redo record size: transactions share log blocks via group commit.
REDO_BLOCKS_PER_GROUP = 1


@dataclass
class _CommitGroup:
    count: int = 0
    done: Optional[Event] = None


class OltpDatabase:
    """Redo log + data file + page cache + background cleaner."""

    def __init__(self, cluster: Cluster, fs: SimFileSystem,
                 data_pages: int = 1024, name: str = "oltp"):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.fs = fs
        self.name = name
        self.data_pages = data_pages
        self.dirty_pages: Set[int] = set()
        self.page_versions: Dict[int, int] = {}
        self.commits = 0
        self.cleaner_runs = 0
        self._redo: Optional[File] = None
        self._data: Optional[File] = None
        self._group: Optional[_CommitGroup] = None
        self._leader_active = False
        self._cleaner_active = False

    def open(self, core: Core):
        """Generator: create the redo log and pre-allocate the data file."""
        self._redo = yield from self.fs.create(core, f"{self.name}-redo")
        self._data = yield from self.fs.create(core, f"{self.name}-data")
        yield from self.fs.append(core, self._data, nblocks=self.data_pages)
        yield from self.fs.fsync(core, self._data)
        return self

    def transaction(self, core: Core, rng: DeterministicRNG,
                    thread_id: int = 0):
        """Generator: execute and durably commit one transaction."""
        yield from core.run(TXN_EXECUTE_COST)
        for _ in range(PAGES_PER_TXN):
            page = rng.randint(0, self.data_pages - 1)
            self.page_versions[page] = self.page_versions.get(page, 0) + 1
            self.dirty_pages.add(page)

        # Group commit of the redo record.
        if self._group is None:
            self._group = _CommitGroup(done=Event(self.env))
        group = self._group
        group.count += 1
        if not self._leader_active:
            self._leader_active = True
            try:
                while self._group is not None and self._group.count:
                    current, self._group = self._group, None
                    yield from self.fs.append(core, self._redo,
                                              nblocks=REDO_BLOCKS_PER_GROUP)
                    yield from self.fs.fsync(core, self._redo,
                                             thread_id=thread_id)
                    current.done.succeed()
            finally:
                self._leader_active = False
        else:
            yield group.done
        self.commits += 1

        if len(self.dirty_pages) >= CLEANER_THRESHOLD and not self._cleaner_active:
            self._cleaner_active = True
            self.env.process(self._page_cleaner())

    def _page_cleaner(self):
        """Write dirty pages back in place (normal IPUs, §4.4.2)."""
        core = self.cluster.initiator.cpus.least_loaded()
        pages = sorted(self.dirty_pages)
        self.dirty_pages = set()
        # Overwrite each page in place, then make the batch durable.
        for page in pages:
            yield from self.fs.overwrite(core, self._data, page, 1)
        yield from self.fs.fsync(core, self._data)
        self.cleaner_runs += 1
        self._cleaner_active = False


@dataclass
class OltpResult:
    threads: int
    commits: int = 0
    elapsed: float = 0.0
    cleaner_runs: int = 0

    @property
    def tps(self) -> float:
        return self.commits / self.elapsed if self.elapsed else 0.0


def run_oltp(
    cluster: Cluster,
    fs: SimFileSystem,
    threads: int = 4,
    duration: float = 10e-3,
    warmup: float = 1e-3,
    seed: int = 31,
) -> OltpResult:
    """Run the OLTP loop and report steady-state transactions/s.

    Warm-up and the measured window start once the database is open
    (creating and pre-allocating its files takes a few milliseconds).
    """
    env: Environment = cluster.env
    result = OltpResult(threads=threads)
    holder: Dict[str, OltpDatabase] = {}

    def setup(env):
        core = cluster.initiator.cpus.pick(0)
        db = OltpDatabase(cluster, fs)
        yield from db.open(core)
        holder["db"] = db

    env.run_until_event(env.process(setup(env)))
    db = holder["db"]
    measure_from = env.now + warmup
    end_time = measure_from + duration

    def worker(thread_id):
        rng = DeterministicRNG(seed).fork(f"oltp{thread_id}")
        core = cluster.initiator.cpus.pick(thread_id)
        while env.now < end_time:
            started = env.now
            yield from db.transaction(core, rng, thread_id=thread_id)
            if started >= measure_from and env.now <= end_time:
                result.commits += 1

    for thread_id in range(threads):
        env.process(worker(thread_id))
    env.run(until=end_time)
    result.elapsed = duration
    result.cleaner_runs = db.cleaner_runs
    return result
