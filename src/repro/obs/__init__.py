"""Observability: structured tracing, streaming metrics, trace analysis.

The simulators are deterministic, so a run can be *completely* accounted
for by an event log.  This subpackage provides the three layers:

- :mod:`~repro.obs.trace` — the event vocabulary (``EVENT_KINDS``,
  each kind's payload fields), the :class:`Tracer` protocol, and the
  sinks (in-memory ring buffer, JSONL file).  Every engine takes
  ``tracer=None`` by default and the off path is guaranteed zero-cost:
  no event objects, bit-identical runs.
- :mod:`~repro.obs.metrics` — streaming counters and the
  mergeable :class:`QuantileSketch`: bounded-memory percentiles with a
  documented relative-error bound, the opt-in alternative to
  :class:`~repro.fleet.metrics.FleetMetrics`' sorted-record exactness.
- :mod:`~repro.obs.analyze` — :class:`TraceAnalyzer`: per-query
  timelines, queue-delay breakdowns, pool utilization, and the
  Sparklens round-trip (a traced serve rebuilt into
  :class:`repro.sparklens.log.ExecutionLog` objects and fed back
  through the post-hoc estimator).

Quickstart::

    from repro.fleet import FleetEngine, static_allocator
    from repro.obs import RingBufferTracer, TraceAnalyzer

    tracer = RingBufferTracer()
    engine = FleetEngine(
        workload, capacity=64, allocator=static_allocator(8), tracer=tracer
    )
    metrics = engine.serve(arrivals)
    analyzer = TraceAnalyzer(tracer.events)
    print(analyzer.queue_delay_breakdown())
    log = analyzer.execution_log(0)      # → Sparklens round-trip
"""

from repro.obs.analyze import QueryTimeline, TraceAnalyzer
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    StreamingFleetStats,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.trace import (
    EVENT_KINDS,
    JsonlTracer,
    RingBufferTracer,
    TraceEvent,
    Tracer,
    materialize,
    read_jsonl,
)

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "Tracer",
    "RingBufferTracer",
    "JsonlTracer",
    "materialize",
    "read_jsonl",
    "QuantileSketch",
    "Counter",
    "MetricsRegistry",
    "StreamingFleetStats",
    "QueryTimeline",
    "TraceAnalyzer",
]
