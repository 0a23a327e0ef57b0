"""Fleet: concurrent multi-query serving on a shared serverless pool.

The paper's production setting (Section 2) is not one query on a dedicated
cluster — it is a *shared pool* serving a stream of concurrent queries,
where every executor granted to one query is an executor another query
cannot have.  This subpackage simulates that setting end to end:

- :mod:`~repro.fleet.arrivals` — query arrival processes: Poisson streams
  and replays of the :mod:`repro.workloads.production` telemetry trace;
- :mod:`~repro.fleet.admission` — the capacity arbiter: per-query executor
  budgets granted out of a finite pool, with FIFO and fair-share queueing;
- :mod:`~repro.fleet.engine` — the fleet engine: many query runs
  multiplexed on one discrete-event clock, each executing its stage DAG
  (via the shared :class:`repro.engine.execution.ExecutionCore`) on its
  granted share of the pool, with optional mid-query dynamic scaling
  through any :mod:`repro.engine.allocation` policy;
- :mod:`~repro.fleet.prediction` — the online prediction service: a
  trained AutoExecutor behind a plan-signature memo cache with batched
  portable-runtime inference, so per-query selection overhead is measured
  rather than assumed;
- :mod:`~repro.fleet.adaptive` — continual learning: finished-query
  outcomes feed a bounded seed-deterministic replay buffer through the
  engines' feedback hook, a drift detector watches rolling prediction
  error, and retrained models shadow-score live traffic before being
  hot-swapped behind the prediction service (generation-tagged cache
  invalidation), with the retraining bill priced into the metrics;
- :mod:`~repro.fleet.metrics` — fleet-level serving metrics: latency
  percentiles, queueing delay, pool utilization, and dollar cost
  (including the bill for autoscaled-but-idle capacity), with
  :class:`~repro.fleet.metrics.ClusterMetrics` rolling pools up into
  the cluster view;
- :mod:`~repro.fleet.cluster` — the sharded fleet: N pools behind a
  router on one clock, each optionally autoscaled;
- :mod:`~repro.fleet.routing` — placement policies: round-robin,
  least-queued, and cost-aware (weighing queued work by the prediction
  service's run-time estimates);
- :mod:`~repro.fleet.autoscaler` — per-pool elastic capacity from
  queue-delay and utilization signals, with scale-up lag and a
  scale-down cooldown;
- :mod:`~repro.fleet.parallel` — multiprocess sharded serving: one OS
  process per pool, bit-identical to the single-process drivers for
  state-blind routers on static pools.

Streaming scale: ``FleetConfig(streaming=True)`` switches every driver
to O(1) memory per pool — generator arrival streams (e.g.
:func:`~repro.fleet.arrivals.poisson_arrival_stream`), and per-pool
:class:`~repro.fleet.metrics.PoolStreamStats` folds without record
lists (record mode feeds the same fold and keeps its records too).

Fault tolerance: a seed-driven :class:`repro.engine.faults.FaultPlan`
threads through :attr:`FleetConfig.faults <repro.fleet.engine.FleetConfig>`
— executor crashes with task re-execution, stragglers, and preemptible
spot capacity with reclamation — and the metrics grow the matching
ledger (retries, wasted work, spot-vs-on-demand dollar split).

Quickstart::

    from repro import AutoExecutor, Workload
    from repro.fleet import (
        FleetEngine, PredictionService, poisson_arrivals
    )

    workload = Workload(scale_factor=50)
    system = AutoExecutor().train(workload)
    service = PredictionService.from_autoexecutor(system)
    engine = FleetEngine(workload, capacity=128, allocator=service.allocate)
    metrics = engine.serve(
        poisson_arrivals(workload.query_ids, n_queries=200, rate_qps=0.5)
    )
    print(metrics.describe())
"""

from repro.engine.faults import FaultPlan, FaultStats, SpotMarket
from repro.fleet.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    DriftDetector,
    ReplayBuffer,
    ReplayPoint,
)
from repro.fleet.admission import (
    AdmissionRequest,
    CapacityArbiter,
    FairShareAdmission,
    FIFOAdmission,
)
from repro.fleet.arrivals import (
    QueryArrival,
    poisson_arrival_stream,
    poisson_arrivals,
    trace_arrivals,
)
from repro.fleet.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.fleet.cluster import PoolSpec, ShardedFleet
from repro.fleet.engine import (
    FeedbackSink,
    FleetConfig,
    FleetEngine,
    PoolRuntime,
    oracle_allocator,
    static_allocator,
)
from repro.fleet.metrics import (
    AdaptiveStats,
    ClusterMetrics,
    FleetMetrics,
    PoolStreamStats,
    QueryRecord,
    SkylineTracker,
)
from repro.fleet.parallel import ProcessShardExecutor
from repro.fleet.prediction import Prediction, PredictionService
from repro.fleet.routing import (
    CostAwareRouter,
    LeastQueuedRouter,
    PoolView,
    RoundRobinRouter,
    Router,
    RoutingRequest,
)

__all__ = [
    "QueryArrival",
    "poisson_arrival_stream",
    "poisson_arrivals",
    "trace_arrivals",
    "AdmissionRequest",
    "FIFOAdmission",
    "FairShareAdmission",
    "CapacityArbiter",
    "FleetEngine",
    "FleetConfig",
    "PoolRuntime",
    "FeedbackSink",
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptiveStats",
    "DriftDetector",
    "ReplayBuffer",
    "ReplayPoint",
    "ProcessShardExecutor",
    "FaultPlan",
    "FaultStats",
    "SpotMarket",
    "static_allocator",
    "oracle_allocator",
    "FleetMetrics",
    "ClusterMetrics",
    "QueryRecord",
    "PoolStreamStats",
    "SkylineTracker",
    "Prediction",
    "PredictionService",
    "ShardedFleet",
    "PoolSpec",
    "Router",
    "RoutingRequest",
    "PoolView",
    "RoundRobinRouter",
    "LeastQueuedRouter",
    "CostAwareRouter",
    "AutoscalerConfig",
    "PoolAutoscaler",
]
