"""The sharded fleet: N executor pools behind a router, on one clock.

One pool cannot serve planet-scale traffic: admission becomes a single
convoy, capacity is one blast radius, and provisioning is all-or-nothing.
The sharded fleet is the horizontal axis — several
:class:`~repro.fleet.engine.PoolRuntime` pools multiplexed on one
discrete-event heap, with two new control loops in front of and above
them:

- a **router** (:mod:`repro.fleet.routing`) places each query on a pool
  at submit time, from round-robin through cost-aware
  (prediction-estimate-weighted) placement;
- per-pool **autoscalers** (:mod:`repro.fleet.autoscaler`) move each
  pool's capacity between a floor and a ceiling from queue-delay and
  utilization signals, with provisioning lag on the way up and a
  cooldown on the way down — and every provisioned executor-second,
  idle or not, lands on the bill.

The parity contract that keeps this layer honest: a sharded fleet of
**one statically provisioned pool** reproduces
:meth:`FleetEngine.serve <repro.fleet.engine.FleetEngine.serve>`
*bit-for-bit* — same records, same skylines, same summary — because both
drivers issue the identical event sequence to the identical
:class:`PoolRuntime`.  Asserted in ``tests/fleet/test_cluster.py`` and
re-checked in CI by the fleet bench gate
(``benchmarks/perf/run_fleet_bench.py`` / ``compare.py``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.cluster import Cluster
from repro.engine.execution import CompiledPlan
from repro.fleet.admission import AdmissionPolicy
from repro.fleet.arrivals import QueryArrival
from repro.fleet.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.fleet.engine import (
    Allocator,
    FleetConfig,
    PoolRuntime,
    _raise_stalled,
    allocator_annotations,
    decision_fields,
    validate_stream,
)
from repro.fleet.metrics import ClusterMetrics
from repro.obs.trace import TraceEvent, Tracer
from repro.fleet.routing import (
    DEFAULT_RUNTIME_ESTIMATE_S,
    PoolView,
    Router,
    RoundRobinRouter,
    RoutingRequest,
)
from repro.workloads.generator import Workload

__all__ = ["PoolSpec", "ShardedFleet"]


@dataclass(frozen=True)
class PoolSpec:
    """One pool's shape inside a sharded fleet.

    Attributes:
        capacity: initial provisioned size (executors).
        admission: queueing policy for this pool (default FIFO).
        autoscaler: elastic-capacity config; ``None`` keeps the pool
            statically provisioned (and its metrics free of idle
            charges — the parity-preserving default).
    """

    capacity: int
    admission: AdmissionPolicy | None = None
    autoscaler: AutoscalerConfig | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("pool capacity must be at least 1 executor")
        if self.autoscaler is not None:
            if not (
                self.autoscaler.min_capacity
                <= self.capacity
                <= self.autoscaler.max_capacity
            ):
                raise ValueError(
                    "initial capacity must sit inside the autoscaler's "
                    "[min_capacity, max_capacity] range"
                )

    @property
    def max_capacity(self) -> int:
        return (
            self.capacity if self.autoscaler is None else self.autoscaler.max_capacity
        )


class ShardedFleet:
    """Serve an arrival stream across several pools behind a router.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        pools: per-pool shapes — :class:`PoolSpec` instances, or plain
            ints as shorthand for statically provisioned pools.
        allocator: per-query executor-budget decision, shared by all
            pools (same contract as :class:`~repro.fleet.engine.FleetEngine`).
        router: placement policy (default round-robin).
        cluster: node/executor shapes and provisioning lag (shared).
        config: fleet knobs (shared by every pool).
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving the
            cluster's full event stream — arrival/prediction/routing
            events from this driver, lifecycle events from every pool
            runtime and autoscaler, execution events from every query's
            core, all stamped with their pool index.  ``None`` (the
            default) serves bit-identically to an untraced fleet.
    """

    def __init__(
        self,
        workload: Workload,
        pools: Sequence[PoolSpec | int],
        allocator: Allocator,
        router: Router | None = None,
        cluster: Cluster = Cluster(),
        config: FleetConfig = FleetConfig(),
        tracer: Tracer | None = None,
    ) -> None:
        specs = [
            spec if isinstance(spec, PoolSpec) else PoolSpec(capacity=int(spec))
            for spec in pools
        ]
        if not specs:
            raise ValueError("a sharded fleet needs at least one pool")
        self.workload = workload
        self.pools = specs
        self.allocator = allocator
        self.router: Router = router if router is not None else RoundRobinRouter()
        self.cluster = cluster
        self.config = config
        self.tracer = tracer
        # One compile-once memo for the whole cluster: every pool serves
        # the same workload, so a plan compiles once, not once per pool.
        self._compiled: dict[str, CompiledPlan] = {}

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    @property
    def max_budget(self) -> int:
        """Largest admission budget any pool could ever grant."""
        return max(spec.max_capacity for spec in self.pools)

    def serve(self, arrivals: Iterable[QueryArrival]) -> ClusterMetrics:
        """Play out the whole stream; returns the cluster's metrics.

        In streaming mode (:attr:`FleetConfig.streaming`) ``arrivals``
        may be any time-ordered iterable — consumed lazily, one arrival
        ahead of the clock — and the returned :class:`ClusterMetrics`
        carries per-pool sketches instead of records.
        """
        config = self.config
        streaming = config.streaming
        ticking = False

        counter = itertools.count()
        # (time, class, seq, kind, pool, q, payload) — class 0 arrivals
        # keyed by stream position, class 1 everything else keyed by the
        # push counter.  Identical total order to the old single-counter
        # heap (arrivals were always pushed first), but correct even when
        # arrivals enter lazily; see FleetEngine.serve for the argument.
        events: list[tuple[float, int, int, str, int, int, object]] = []

        def push(
            time: float, kind: str, pool: int, q: int = -1, payload: object = None
        ) -> None:
            heapq.heappush(events, (time, 1, next(counter), kind, pool, q, payload))

        # Any autoscaled pool needs the tick chain even when the fleet
        # config itself asks for no idle release or scaling.
        wants_ticks = config.wants_ticks or any(
            spec.autoscaler is not None for spec in self.pools
        )

        def start_ticks(now: float) -> None:
            # One tick chain for the whole cluster, anchored at the first
            # admission anywhere — exactly the single-pool engine's
            # anchoring when the cluster has one pool.
            nonlocal ticking
            if wants_ticks and not ticking:
                ticking = True
                push(now + config.tick_interval, "tick", -1)

        runtimes: list[PoolRuntime] = []
        scalers: dict[int, PoolAutoscaler] = {}
        for i, spec in enumerate(self.pools):
            runtime = PoolRuntime(
                workload=self.workload,
                capacity=spec.capacity,
                cluster=self.cluster,
                admission=spec.admission,
                config=config,
                # Pushes straight onto the heap: one Python frame fewer
                # on every pool event than going through push().
                push=(
                    lambda time, kind, q=-1, payload=None, pool=i: heapq.heappush(
                        events, (time, 1, next(counter), kind, pool, q, payload)
                    )
                ),
                start_ticks=start_ticks,
                compiled=self._compiled,
                max_capacity=spec.max_capacity,
                tracer=self.tracer,
                pool_index=i,
            )
            if spec.autoscaler is not None:
                runtime.track_capacity()
                scalers[i] = PoolAutoscaler(spec.autoscaler, tracer=self.tracer, pool=i)
            runtimes.append(runtime)

        tracer = self.tracer
        max_budget = self.max_budget
        decisions: dict[int, tuple[int, bool | None, float, float | None]] = {}
        notes: dict[int, dict] = {}
        pool_of: dict[int, int] = {}
        total = 0
        finished = 0
        exhausted = True

        if streaming is None:
            stream = validate_stream(arrivals)
            total = len(stream)
        else:
            arrival_iter = iter(arrivals)
            last_arrival_t = 0.0

            def pull_arrival() -> None:
                nonlocal total, exhausted, last_arrival_t
                for arrival in arrival_iter:
                    t = arrival.arrival_time
                    if t < last_arrival_t:
                        raise ValueError(
                            "streaming arrival streams must be time-ordered"
                        )
                    last_arrival_t = t
                    heapq.heappush(
                        events, (t, 0, total, "arrive", -1, total, arrival)
                    )
                    total += 1
                    return
                exhausted = True

        if tracer is not None:
            tracer.emit(
                TraceEvent(
                    0.0,
                    "serve_begin",
                    -1,
                    -1,
                    None,
                    {"pools": [spec.capacity for spec in self.pools]},
                )
            )

        def view(i: int) -> PoolView:
            runtime = runtimes[i]
            queued_work = 0.0
            for request in runtime.arbiter.queued_requests:
                estimate = decisions[request.query_index][3]
                if estimate is None:
                    estimate = DEFAULT_RUNTIME_ESTIMATE_S
                queued_work += request.executors * estimate
            return PoolView(
                index=i,
                capacity=runtime.capacity,
                max_capacity=runtime.max_capacity,
                free=runtime.free,
                in_use=runtime.in_use,
                queue_length=runtime.queue_length,
                queued_executors=runtime.arbiter.queued_executors,
                queued_work_seconds=queued_work,
                active_queries=runtime.active_queries,
                oldest_submit_time=runtime.arbiter.oldest_submit_time,
            )

        # A state-blind router (uses_pool_state = False) never reads the
        # dynamic fields, so building live snapshots per submit is pure
        # overhead — measured at >60 % of round-robin serve time.  Hand
        # it one frozen set of idle-valued views instead.  Routers that
        # omit the attribute are conservatively assumed stateful.
        live_views = getattr(self.router, "uses_pool_state", True)
        static_views = (
            None
            if live_views
            else [
                PoolView(
                    index=i,
                    capacity=runtime.capacity,
                    max_capacity=runtime.max_capacity,
                    free=runtime.capacity,
                    in_use=0,
                    queue_length=0,
                    queued_executors=0,
                    queued_work_seconds=0.0,
                    active_queries=0,
                )
                for i, runtime in enumerate(runtimes)
            ]
        )

        def scalers_can_act() -> bool:
            """Whether any autoscaler can still unblock queued work —
            distinguishes "waiting for a queue-delay-triggered scale-up"
            from a genuine stall."""
            for i, scaler in scalers.items():
                runtime = runtimes[i]
                provisioned = runtime.capacity + scaler.pending
                demand = runtime.in_use + runtime.arbiter.queued_executors
                if demand > provisioned and provisioned < scaler.config.max_capacity:
                    return True
            return False

        # --- bootstrap ---------------------------------------------------
        if streaming is None:
            for pos, arrival in enumerate(stream):
                heapq.heappush(
                    events, (arrival.arrival_time, 0, pos, "arrive", -1, pos, arrival)
                )
        else:
            exhausted = False
            pull_arrival()
            if total == 0:
                raise ValueError("cannot serve an empty arrival stream")

        # --- main loop ---------------------------------------------------
        while events:
            now, _, _, kind, pool, q, payload = heapq.heappop(events)
            if kind == "arrive":
                arrival = payload
                plan = self.workload.optimized_plan(arrival.query_id)
                decision = self.allocator(arrival.query_id, plan)
                decisions[q] = decision_fields(decision, max_budget)
                notes[q] = allocator_annotations(self.allocator, decision)
                seconds = decisions[q][2]
                if tracer is not None:
                    tracer.emit(
                        TraceEvent(now, "query_arrive", -1, q, arrival.query_id)
                    )
                    tracer.emit(
                        TraceEvent(
                            now,
                            "query_predict",
                            -1,
                            q,
                            arrival.query_id,
                            {
                                "executors": notes[q]["predicted_executors"],
                                "cached": decisions[q][1],
                                "seconds": seconds,
                                "estimated_runtime_s": decisions[q][3],
                                "policy": notes[q]["policy"],
                            },
                        )
                    )
                delay = seconds if config.charge_prediction_overhead else 0.0
                push(now + delay, "submit", -1, q, arrival)
                if not exhausted:
                    pull_arrival()
            elif kind == "submit":
                arrival = payload
                budget, cached, seconds, estimate = decisions[q]
                chosen = self.router.pick(
                    RoutingRequest(
                        query_id=arrival.query_id,
                        app_id=arrival.app_id,
                        budget=budget,
                        estimated_runtime_seconds=estimate,
                        submit_time=now,
                    ),
                    (
                        [view(i) for i in range(self.n_pools)]
                        if live_views
                        else static_views
                    ),
                )
                if not 0 <= chosen < self.n_pools:
                    raise ValueError(
                        f"router {self.router.name!r} picked pool {chosen} "
                        f"out of {self.n_pools}"
                    )
                if streaming is None:
                    pool_of[q] = chosen
                if tracer is not None:
                    tracer.emit(
                        TraceEvent(
                            now,
                            "query_route",
                            chosen,
                            q,
                            arrival.query_id,
                            {"router": self.router.name},
                        )
                    )
                runtimes[chosen].submit(
                    now, q, arrival, budget, cached, seconds, notes.pop(q), estimate
                )
            elif kind == "driver_done":
                runtimes[pool].handle_driver_done(now, q)
            elif kind == "exec_arrive":
                runtimes[pool].handle_exec_arrive(now, q)
            elif kind == "task_done":
                if runtimes[pool].handle_task_done(now, q, payload):
                    finished += 1
                    # The routing view only inspects still-queued
                    # requests, so a finished query's decision tuple can
                    # go; in streaming mode this is what keeps the
                    # decision memo O(in-flight) instead of O(stream).
                    decisions.pop(q, None)
            elif kind == "exec_fail":
                runtimes[pool].handle_exec_fail(now, q, payload)
            elif kind == "scale_online":
                scalers[pool].capacity_online(now, payload)
                runtimes[pool].resize(now, runtimes[pool].capacity + payload)
            elif kind == "tick":
                for runtime in runtimes:
                    runtime.on_tick(now)
                for i, scaler in scalers.items():
                    delta = scaler.evaluate(now, view(i))
                    if delta > 0:
                        push(
                            now + scaler.config.scale_up_lag_s,
                            "scale_online",
                            i,
                            payload=delta,
                        )
                    elif delta < 0:
                        runtimes[i].resize(now, runtimes[i].capacity + delta)
                if finished < total or not exhausted:
                    if not events and not scalers_can_act():
                        _raise_cluster_stalled(runtimes, total - finished)
                    push(now + config.tick_interval, "tick", -1)

        if finished < total:
            _raise_cluster_stalled(runtimes, total - finished)

        if streaming is None:
            records = []
            placed = []
            for q in range(total):
                chosen = pool_of[q]
                records.append(runtimes[chosen].records[q])
                placed.append(chosen)
            # Every pool bills the cluster-wide serving window: a pool the
            # router never picked still pays for its provisioned floor.
            window = (
                min(r.arrival_time for r in records),
                max(r.finish_time for r in records),
            )
        else:
            records = []
            placed = []
            # The same cluster-wide window, recovered from the per-pool
            # streaming accumulators (pools the router never picked have
            # no observations and contribute nothing).
            starts = [
                r.stats.first_arrival
                for r in runtimes
                if r.stats is not None and r.stats.first_arrival is not None
            ]
            ends = [
                r.stats.last_finish
                for r in runtimes
                if r.stats is not None and r.stats.last_finish is not None
            ]
            window = (min(starts), max(ends))
        if tracer is not None:
            tracer.emit(
                TraceEvent(window[1], "serve_end", -1, -1, None, {"queries": total})
            )
        pool_metrics = [runtime.finalize(serving_window=window) for runtime in runtimes]
        metrics = ClusterMetrics(
            pools=pool_metrics, records=records, pool_of=placed
        )
        feedback = config.feedback
        if feedback is not None:
            # One cluster-wide sink, so its ledger attaches once at the
            # cluster level (never per pool — the roll-up would double
            # count the retraining bill).
            snapshot = getattr(feedback, "stats_snapshot", None)
            if callable(snapshot):
                metrics.adaptive = snapshot()
        return metrics


def _raise_cluster_stalled(runtimes: Sequence[PoolRuntime], unfinished: int) -> None:
    queued = sum(runtime.arbiter.queue_length for runtime in runtimes)
    if queued > 0:
        # Per-pool detail via the single-pool error on the worst offender.
        worst = max(runtimes, key=lambda r: r.arbiter.queue_length)
        _raise_stalled(worst.arbiter, unfinished)
    running = {
        i: runtime.unfinished_queries()
        for i, runtime in enumerate(runtimes)
        if runtime.unfinished_queries()
    }
    raise RuntimeError(
        f"sharded fleet stalled with {unfinished} unfinished queries "
        f"(running per pool: {running}, queued: {queued})"
    )
