"""Scale-out plane: sharded stacks over multi-initiator clusters + load generators.

The paper's headline claim is CPU-efficient ordering *at scale* (§3.2,
§6, Figs. 10-12); this package drives the fan-in testbed that claim is
exercised on — an N-initiator :class:`repro.cluster.Cluster`:

* :mod:`repro.scale.cluster` — :class:`ShardedStack` (one ordered-stack
  facade over per-node stacks, routing global streams to their owning
  node).  ``ScaleOutCluster`` remains another name for
  :class:`repro.cluster.Cluster`.
* :mod:`repro.scale.loadgen` — the open-loop (fixed-rate Poisson)
  per-tenant load generator that drives a :class:`ShardedStack` and
  records completion latencies and statuses.

The saturation experiment over this plane lives in
:mod:`repro.harness.saturate` (``repro saturate``).
"""

from repro.scale.cluster import ScaleOutCluster, ShardedStack
from repro.scale.loadgen import LoadgenResult, OpenLoopConfig, run_open_loop

__all__ = [
    "ScaleOutCluster",
    "ShardedStack",
    "OpenLoopConfig",
    "LoadgenResult",
    "run_open_loop",
]
