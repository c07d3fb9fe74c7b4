"""Request-lifecycle observability: spans, metrics, exporters.

Attach an :class:`Observability` to an environment **before** building the
cluster/stack and every bio/command grows a lifecycle span tree::

    fs.journal
    └── block.mq                (one per bio)
        ├── initiator.queue     (one per request fragment; ends at dispatch)
        └── fabric.transfer     (one per NVMe-oF command)
            ├── target.admit    (target-side processing incl. gate stalls)
            │   └── ssd.service (one per DiskIO actually submitted)
            └── completion      (initiator completion-interrupt path)

while components publish counters/gauges/histograms into the attached
:class:`~repro.sim.obs.metrics.MetricsRegistry` and report point
decisions (scheduler merges, PMR attribute appends, the target's in-order
gate, sequencer releases, injected faults, driver recovery) through
``env.trace(category, event, **fields)`` as :class:`InstantEvent` records.
Usage::

    env = Environment()
    obs = Observability(env)            # attaches as env.obs
    cluster = Cluster(env, ...)         # components register gauges
    ... run a workload ...
    obs.spans.by_name("ssd.service")    # query the span forest
    obs.metrics.snapshot()              # point-in-time metrics view
    obs.events                          # instant events, in order

With no observability attached (``env.obs is None``, the default) every
instrumentation site is a single attribute check: no events, no RNG, no
allocation — simulation behavior is bit-identical to the uninstrumented
engine (the zero-overhead equivalence suite enforces this).

Exporters live in :mod:`repro.sim.obs.export` (Chrome ``trace_event``
JSON, CSV/JSON metrics) and are wired into ``python -m repro trace`` /
``python -m repro metrics``.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.sim.obs.metrics import Histogram, MetricsRegistry
from repro.sim.obs.spans import Span, SpanRecorder

__all__ = ["Observability", "InstantEvent", "Span", "SpanRecorder",
           "Histogram", "MetricsRegistry"]


class InstantEvent(NamedTuple):
    """One decision a component reported through ``env.trace``."""

    time: float
    category: str
    event: str
    fields: tuple  # sorted (key, value) pairs

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields)
        return (f"{self.time * 1e6:10.2f}us  {self.category:<12} "
                f"{self.event:<18} {details}")


class Observability:
    """Span recorder, metrics registry and instant events for one
    environment; attaches itself as ``env.obs``."""

    def __init__(self, env, capacity: int = 500_000):
        self.env = env
        self.capacity = capacity
        self.metrics = MetricsRegistry(env)
        self.spans = SpanRecorder(env, capacity=capacity, metrics=self.metrics)
        #: Instant events in emission order; beyond ``capacity`` they are
        #: counted in ``dropped`` instead of stored.
        self.events: List[InstantEvent] = []
        self.dropped = 0
        env.obs = self

    def instant(self, category: str, event: str, fields: dict) -> None:
        """Record one instant event at the current virtual time."""
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(InstantEvent(self.env.now, category, event,
                                        tuple(sorted(fields.items()))))
