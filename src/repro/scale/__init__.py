"""Scale-out plane: sharded stacks over multi-initiator clusters + load generators.

The paper's headline claim is CPU-efficient ordering *at scale* (§3.2,
§6, Figs. 10-12); this package drives the fan-in testbed that claim is
exercised on — an N-initiator :class:`repro.cluster.Cluster`:

* :mod:`repro.scale.cluster` — :class:`ShardedStack` (one ordered-stack
  facade over per-node stacks, routing global streams to their owning
  node).  ``ScaleOutCluster`` remains another name for
  :class:`repro.cluster.Cluster`.
* :mod:`repro.scale.loadgen` — open-loop (fixed-rate Poisson) and
  closed-loop (think-time-bounded) per-tenant load generators that
  drive a :class:`ShardedStack` and record completion latencies.

The saturation experiment over this plane lives in
:mod:`repro.harness.saturate` (``repro saturate``).
"""

from repro.scale.cluster import ScaleOutCluster, ShardedStack
from repro.scale.loadgen import (
    ClosedLoopConfig,
    LoadgenResult,
    OpenLoopConfig,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "ScaleOutCluster",
    "ShardedStack",
    "OpenLoopConfig",
    "ClosedLoopConfig",
    "LoadgenResult",
    "run_open_loop",
    "run_closed_loop",
]
