"""The sharded fleet: N executor pools behind a router, on one clock.

One pool cannot serve planet-scale traffic: admission becomes a single
convoy, capacity is one blast radius, and provisioning is all-or-nothing.
The sharded fleet is the horizontal axis — several
:class:`~repro.fleet.engine.PoolRuntime` pools multiplexed on one
:class:`~repro.engine.driver.EventHeap`, with two
control loops in front of and above them:

- a **router** (:mod:`repro.fleet.routing`) places each query on a pool
  at submit time, from round-robin through cost-aware
  (prediction-estimate-weighted) placement;
- per-pool **autoscalers** (:mod:`repro.fleet.autoscaler`) move each
  pool's capacity between a floor and a ceiling from queue-delay and
  utilization signals, with provisioning lag on the way up and a
  cooldown on the way down — and every provisioned executor-second,
  idle or not, lands on the bill.

:meth:`ShardedFleet.serve` runs the only fleet event loop.
:class:`~repro.fleet.engine.FleetEngine` is a facade over a sharded
fleet of **one statically provisioned pool**, so the two agree
*bit-for-bit* — records, skylines, summary, trace — by construction
(``tests/fleet/test_cluster.py`` still asserts that parity).  The
multiprocess driver (:mod:`repro.fleet.parallel`) runs the same loop in
each worker process, over that worker's one pool, fed with the submits
its parent decided and routed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.engine.checks import check_int
from repro.engine.cluster import Cluster
from repro.engine.driver import EventHeap
from repro.engine.execution import CompiledPlan
from repro.fleet.admission import AdmissionPolicy
from repro.fleet.arrivals import QueryArrival
from repro.fleet.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.fleet.engine import Allocator, FleetConfig, PoolRuntime, Submit
from repro.fleet.metrics import ClusterMetrics, FleetMetrics, cluster_serving_window
from repro.obs.trace import Tracer
from repro.fleet.routing import (
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
        check_int("capacity", self.capacity, 1)
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
            pools (see :mod:`repro.fleet.engine`).
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

        Both modes play the stream through the same lazy source, one
        arrival ahead of the clock, in :func:`_play_order`.  In
        streaming mode (:attr:`FleetConfig.streaming`) ``arrivals`` may
        be any time-ordered iterable, and the returned
        :class:`ClusterMetrics` carries per-pool sketches instead of
        records.
        """
        config = self.config
        stream = _play_order(arrivals, config.streaming)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                (
                    0.0,
                    "serve_begin",
                    -1,
                    -1,
                    None,
                    [spec.capacity for spec in self.pools],
                )
            )
        runtimes, total = self._play(_arrival_source(stream))
        if total == 0:
            raise ValueError("cannot serve an empty arrival stream")
        pools, served = zip(*(_finish(runtime) for runtime in runtimes))
        metrics = _cluster_metrics(pools, served)
        if tracer is not None:
            end = metrics.pools[0]._window()[1]
            tracer.emit((end, "serve_end", -1, -1, None, total))
        feedback = config.feedback
        if feedback is not None:
            # One cluster-wide sink, so its ledger attaches once at the
            # cluster level (never per pool — the roll-up would double
            # count the retraining bill).
            snapshot = getattr(feedback, "stats_snapshot", None)
            if callable(snapshot):
                metrics.adaptive = snapshot()
        return metrics

    def _play(
        self,
        source: Iterator[tuple],
        first_pool: int = 0,
        anchor: float | None = None,
    ) -> tuple[list[PoolRuntime], int]:
        """The fleet event loop: play a stream out over this fleet's pools.

        The stream is the :meth:`EventHeap.push_arrival` arguments
        ``source`` yields, pulled one ahead of the clock: arrivals, or in
        a multiprocess worker the submits its parent decided and routed.
        A worker runs one pool, numbered ``first_pool`` cluster-wide, and
        starts the tick chain at ``anchor`` when the cluster's first
        submit went to another pool.

        Returns the pool runtimes and the stream length.
        """
        config = self.config
        tick_interval = config.scheduler.tick_interval
        ticking = False

        heap = EventHeap()
        events = heap.events
        push = heap.push
        total = 0
        finished = 0
        exhausted = False

        # Any autoscaled pool needs the tick chain even when the fleet
        # config itself asks for no idle release or scaling.
        wants_ticks = config.wants_ticks or any(
            spec.autoscaler is not None for spec in self.pools
        )

        def start_ticks(now: float) -> None:
            # One tick chain for the whole cluster, anchored at the first
            # admission anywhere, matching the single-query scheduler's
            # ticks at k·tick_interval from query submission.
            nonlocal ticking
            if wants_ticks and not ticking:
                ticking = True
                push(-1, now + tick_interval, "tick")

        runtimes: list[PoolRuntime] = []
        scalers: dict[int, PoolAutoscaler] = {}
        for i, spec in enumerate(self.pools):
            runtime = PoolRuntime(
                workload=self.workload,
                capacity=spec.capacity,
                cluster=self.cluster,
                admission=spec.admission,
                config=config,
                # C-level partials: no Python frame between the
                # runtime and the heap.
                push=functools.partial(push, i),
                push_task=functools.partial(heap.push_task, i),
                start_ticks=start_ticks,
                compiled=self._compiled,
                max_capacity=spec.max_capacity,
                tracer=self.tracer,
                pool_index=first_pool + i,
            )
            if spec.autoscaler is not None:
                runtime.track_capacity()
                scalers[i] = PoolAutoscaler(spec.autoscaler, tracer=self.tracer, pool=i)
            runtimes.append(runtime)

        tracer = self.tracer
        max_budget = self.max_budget
        decide = self._decide
        route = self._route

        def pull() -> None:
            nonlocal total, exhausted
            for entry in source:
                heap.push_arrival(*entry)
                total += 1
                return
            exhausted = True

        # Routers that omit uses_pool_state are conservatively assumed
        # stateful.
        live_views = getattr(self.router, "uses_pool_state", True)
        frozen_views = None if live_views else static_views(self.pools)

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
        if anchor is not None:
            start_ticks(anchor)
        pull()

        # --- main loop ---------------------------------------------------
        pop = heap.pop
        while events:
            now, _, _, kind, pool, q, payload = pop()
            # The commonest kind (about half the pops on TPC-DS plans):
            # test it first.
            if kind == "task_done":
                if runtimes[pool].handle_task_done(now, q, payload):
                    finished += 1
            elif kind == "arrive":
                delay, submit = decide(payload, max_budget)
                if tracer is not None:
                    _, _, cached, seconds, estimate, notes = submit
                    tracer.emit((now, "query_arrive", -1, q, payload.query_id))
                    tracer.emit(
                        (
                            now,
                            "query_predict",
                            -1,
                            q,
                            payload.query_id,
                            notes["predicted_executors"],
                            cached,
                            seconds,
                            estimate,
                            notes["policy"],
                        )
                    )
                push(-1, now + delay, "submit", q, submit)
                if not exhausted:
                    pull()
            elif kind == "submit":
                if pool < 0:
                    pool = route(
                        now,
                        payload,
                        (
                            [runtime.view() for runtime in runtimes]
                            if live_views
                            else frozen_views
                        ),
                    )
                    if tracer is not None:
                        tracer.emit(
                            (
                                now,
                                "query_route",
                                pool,
                                q,
                                payload[0].query_id,
                                self.router.name,
                            )
                        )
                elif not exhausted:
                    # A worker's routed submit is its feed's stream entry.
                    pull()
                runtimes[pool].submit(now, q, payload)
            elif kind == "driver_done":
                runtimes[pool].handle_driver_done(now, q)
            elif kind == "exec_arrive":
                runtimes[pool].handle_exec_arrive(now, q)
            elif kind == "exec_fail":
                runtimes[pool].handle_exec_fail(now, q, payload)
            elif kind == "scale_online":
                scalers[pool].capacity_online(now, payload)
                runtimes[pool].resize(now, runtimes[pool].capacity + payload)
            elif kind == "tick":
                for runtime in runtimes:
                    runtime.on_tick(now)
                for i, scaler in scalers.items():
                    delta = scaler.evaluate(now, runtimes[i].view())
                    if delta > 0:
                        push(
                            i,
                            now + scaler.config.scale_up_lag_s,
                            "scale_online",
                            payload=delta,
                        )
                    elif delta < 0:
                        runtimes[i].resize(now, runtimes[i].capacity + delta)
                if finished < total or not exhausted:
                    if not events and not scalers_can_act():
                        _raise_cluster_stalled(runtimes, total - finished)
                    push(-1, now + tick_interval, "tick")

        if finished < total:
            _raise_cluster_stalled(runtimes, total - finished)
        return runtimes, total

    def _decide(self, arrival: QueryArrival, max_budget: int) -> tuple[float, Submit]:
        """Run the allocator on one arrival.

        Returns the delay from arrival to submit (the selection overhead,
        when charged) and the :data:`~repro.fleet.engine.Submit` the
        query carries to its record.  Plain-int allocators carry no
        cache/overhead/runtime metadata.  The annotations hold the
        allocator's self-declared ``policy`` (``"static"``, ``"oracle"``,
        ``"prediction"``, or ``"custom"`` for unnamed callables) and the
        ``predicted_executors`` *before* clamping, so a budget a pool
        truncated stays visible next to ``QueryRecord.executors_granted``.
        """
        decision = self.allocator(
            arrival.query_id, self.workload.optimized_plan(arrival.query_id)
        )
        if hasattr(decision, "executors"):
            raw = int(decision.executors)
            cached = decision.cached
            seconds = float(decision.seconds)
            estimate = getattr(decision, "estimated_runtime_seconds", None)
        else:
            raw, cached, seconds, estimate = int(decision), None, 0.0, None
        delay = seconds if self.config.charge_prediction_overhead else 0.0
        notes = {
            "policy": getattr(self.allocator, "policy_name", "custom"),
            "predicted_executors": raw,
        }
        budget = max(1, min(raw, max_budget))
        return delay, (arrival, budget, cached, seconds, estimate, notes)

    def _route(self, now: float, submit: Submit, views: Sequence[PoolView]) -> int:
        """The pool the router places a submit payload on."""
        arrival, budget, _, _, estimate, _ = submit
        chosen = self.router.pick(
            RoutingRequest(
                query_id=arrival.query_id,
                app_id=arrival.app_id,
                budget=budget,
                estimated_runtime_seconds=estimate,
                submit_time=now,
            ),
            views,
        )
        if not 0 <= chosen < self.n_pools:
            raise ValueError(
                f"router {self.router.name!r} picked pool {chosen} "
                f"out of {self.n_pools}"
            )
        return chosen


def static_views(specs: Sequence[PoolSpec]) -> list[PoolView]:
    """Frozen idle-valued pool snapshots for state-blind routers.

    A ``uses_pool_state = False`` router may read only the static shape
    fields (``index``, ``capacity``, ``max_capacity``) and the pool
    count, so building live snapshots per submit is pure overhead —
    measured at >60 % of round-robin serve time.  Both the in-process
    and the multiprocess drivers hand such a router these views instead.
    """
    return [
        PoolView(
            index=i,
            capacity=spec.capacity,
            max_capacity=spec.max_capacity,
            free=spec.capacity,
            in_use=0,
            queue_length=0,
            queued_executors=0,
            queued_work_seconds=0.0,
            active_queries=0,
        )
        for i, spec in enumerate(specs)
    ]


def _play_order(
    arrivals: Iterable[QueryArrival], streaming: bool
) -> Iterable[tuple[int, QueryArrival]]:
    """``(stream position, arrival)`` pairs in the order every fleet
    driver plays them.

    Streaming mode takes the stream as it comes (time order is checked
    as it is consumed).  Record mode checks the whole list eagerly —
    not empty, no duplicate indices — and plays it stably sorted by
    arrival time, so same-instant arrivals keep their stream order.
    """
    if streaming:
        return enumerate(arrivals)
    stream = list(arrivals)
    if not stream:
        raise ValueError("cannot serve an empty arrival stream")
    if len({a.index for a in stream}) != len(stream):
        raise ValueError("arrival stream has duplicate indices")
    return sorted(enumerate(stream), key=lambda entry: entry[1].arrival_time)


def _finish(runtime: PoolRuntime) -> tuple[FleetMetrics, list[int]]:
    """A played pool's metrics and the stream positions of its records."""
    return runtime.finalize(), sorted(runtime.records)


def _cluster_metrics(
    pools: Sequence[FleetMetrics], served: Sequence[Sequence[int]]
) -> ClusterMetrics:
    """Join finalized pool metrics into the cluster's.

    ``served[i]`` holds the stream positions of pool ``i``'s records, in
    their order (empty in streaming mode).  Records return to stream
    order, and every pool bills the cluster-wide serving window, so a
    pool the router never picked still pays for its provisioned floor.
    Metrics derive lazily, so setting the window now equals passing it
    to :meth:`~repro.fleet.engine.PoolRuntime.finalize`.
    """
    pools = list(pools)
    placed = [0] * sum(map(len, served))
    for i, positions in enumerate(served):
        for pos in positions:
            placed[pos] = i
    records_of = [iter(metrics.records) for metrics in pools]
    records = [next(records_of[i]) for i in placed]
    window = cluster_serving_window([metrics.stats for metrics in pools])
    for metrics in pools:
        metrics.serving_window = window
    return ClusterMetrics(pools=pools, records=records, pool_of=placed)


def _arrival_source(
    stream: Iterable[tuple[int, QueryArrival]],
) -> Iterator[tuple]:
    """``(stream position, arrival)`` pairs as :meth:`EventHeap.push_arrival`
    arguments, checked for time order as they are consumed."""
    last = 0.0
    for pos, arrival in stream:
        t = arrival.arrival_time
        if t < last:
            raise ValueError("streamed arrivals must be time-ordered")
        last = t
        yield t, pos, arrival


def _raise_cluster_stalled(runtimes: Sequence[PoolRuntime], unfinished: int) -> None:
    queued = sum(runtime.arbiter.queue_length for runtime in runtimes)
    if queued > 0:
        worst = max(runtime.arbiter.queue_length for runtime in runtimes)
        raise RuntimeError(
            f"admission stalled: {worst} queued requests, an idle pool, "
            "and a policy that admits none of them"
        )
    running = {
        runtime.pool_index: runtime.unfinished_queries()
        for runtime in runtimes
        if runtime.unfinished_queries()
    }
    raise RuntimeError(
        f"sharded fleet stalled with {unfinished} unfinished queries "
        f"(running per pool: {running}, queued: {queued})"
    )
