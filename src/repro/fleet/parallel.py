"""Multiprocess sharded serving: one OS process per pool.

:class:`~repro.fleet.cluster.ShardedFleet` multiplexes every pool on one
discrete-event heap in one process — correct, but serial.  Routing is
the only cross-pool coupling, and for routers that ignore live pool
state (``uses_pool_state = False``, e.g. round-robin) the placement of
every query is a pure function of the arrival stream.  That makes the
pools *independent simulations*: :class:`ProcessShardExecutor` keeps
the allocator and router in the parent, streams each pool its routed
submits over a queue, and lets ``multiprocessing`` workers drive the
pool runtimes in parallel on real cores.

**Determinism contract** (asserted in ``tests/fleet/test_parallel.py``):
on the same arrival stream, seed, and configuration, a multiprocess
serve produces a :class:`~repro.fleet.metrics.ClusterMetrics` equal to
the single-process :meth:`ShardedFleet.serve
<repro.fleet.cluster.ShardedFleet.serve>` — records bit-for-bit in
record mode, per-pool streaming accumulators bit-for-bit in streaming
mode.  The argument: each worker replays exactly the event subsequence
its pool saw in the shared heap.  Submits arrive in global submit
order; the worker's local heap uses the same ``(time, class, seq)``
key; the tick chain is re-anchored at the cluster-wide first admission
time and advanced by the identical repeated float addition (ticks
skipped while a pool is empty are no-ops there).  Per-pool metric folds
run in the pool's own finish order, which is what the single-process
driver uses too.

**Restrictions** (checked at construction / serve time):

- the router must declare ``uses_pool_state = False`` — the parent has
  no live pool state to offer;
- pools must be statically provisioned (no autoscalers — an
  autoscaler's signals are cross-pool via the shared tick);
- no tracer (a cluster-ordered trace would serialize the workers);
- arrivals must be time-ordered (the parent streams them; it cannot
  sort what it has not seen).

Two documented measure-zero caveats inherit from re-anchoring: a tick
landing on *exactly* the same float instant as a submit or pool event
may order differently than the shared heap would.  With continuous
arrival gaps and task durations such collisions have probability zero;
integer-timed synthetic streams should use the single-process driver
when byte-identity matters.

The allocator staying in the parent is the same separation the HTTP
serving layer exploits: :mod:`repro.serve` runs a
:class:`~repro.fleet.prediction.PredictionService` with no fleet behind
it at all, because the executor-count decision is a pure function of
the plan features — independent of which pool (or process) eventually
runs the query.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import traceback
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.cluster import Cluster
from repro.fleet.arrivals import QueryArrival
from repro.fleet.cluster import PoolSpec, static_views
from repro.fleet.engine import (
    Allocator,
    FleetConfig,
    PoolRuntime,
    _raise_stalled,
    allocator_annotations,
    decision_fields,
)
from repro.fleet.metrics import ClusterMetrics, FleetMetrics, cluster_serving_window
from repro.fleet.routing import Router, RoundRobinRouter, RoutingRequest
from repro.workloads.generator import Workload

if TYPE_CHECKING:  # multiprocessing.Queue is a factory method, not a type
    from multiprocessing.queues import Queue as MpQueue

__all__ = ["ProcessShardExecutor"]

_INF = float("inf")


def _drive_shard(
    feed: MpQueue[tuple[object, ...]],
    pool_index: int,
    workload: Workload,
    spec: PoolSpec,
    cluster: Cluster,
    config: FleetConfig,
) -> FleetMetrics:
    """Replay one pool's event subsequence from the parent's feed.

    The feed carries ``("anchor", t)`` once (cluster-wide first
    admission time, for tick re-anchoring), then ``("batch", watermark,
    submits)`` messages — every submit this pool will ever receive with
    ``t_submit < watermark`` has been delivered — and finally
    ``("end",)``.  The local heap may only advance to events strictly
    below the watermark; anything at or past it waits for the next
    message.
    """
    counter = itertools.count()
    events: list[tuple[float, int, int, str, int, object]] = []

    def push(time: float, kind: str, q: int = -1, payload: object = None) -> None:
        heapq.heappush(events, (time, 1, next(counter), kind, q, payload))

    anchor: float | None = None
    last_tick: float | None = None
    ticking = False
    pending: deque = deque()
    watermark = -_INF
    end = False
    submitted = 0
    finished = 0

    def start_ticks(now: float) -> None:
        # Continue the cluster-wide tick chain: the single-process
        # driver anchors one chain at the first admission *anywhere*
        # and advances it by repeated float addition.  Replay the same
        # additions from the anchor (or from wherever the chain last
        # parked), skipping ticks that fell while this pool was empty —
        # no-ops on a static pool with nothing queued or running.
        nonlocal ticking
        if not config.wants_ticks or ticking:
            return
        ticking = True
        t = (anchor if last_tick is None else last_tick) + config.tick_interval
        while t <= now:
            t += config.tick_interval
        heapq.heappush(events, (t, 1, next(counter), "tick", -1, None))

    runtime = PoolRuntime(
        workload=workload,
        capacity=spec.capacity,
        cluster=cluster,
        admission=spec.admission,
        config=config,
        push=push,
        start_ticks=start_ticks,
        compiled={},
        max_capacity=spec.max_capacity,
        tracer=None,
        pool_index=pool_index,
    )

    def horizon() -> float:
        t = pending[0][0] if pending else _INF
        return min(t, events[0][0]) if events else t

    while True:
        while not end and horizon() >= watermark:
            msg = feed.get()
            tag = msg[0]
            if tag == "batch":
                watermark = msg[1]
                pending.extend(msg[2])
            elif tag == "anchor":
                anchor = msg[1]
            else:  # ("end", final_batch) — rides with the last submits so
                # the worker needs no further feed reads once it arrives.
                end = True
                watermark = _INF
                pending.extend(msg[1])
        if not pending and not events:
            break
        if pending and (not events or pending[0][0] <= events[0][0]):
            now, _, q, arrival, budget, cached, seconds, notes = pending.popleft()
            submitted += 1
            runtime.submit(now, q, arrival, budget, cached, seconds, notes)
            continue
        now, _, _, kind, q, payload = heapq.heappop(events)
        if kind == "driver_done":
            runtime.handle_driver_done(now, q)
        elif kind == "exec_arrive":
            runtime.handle_exec_arrive(now, q)
        elif kind == "task_done":
            if runtime.handle_task_done(now, q, payload):
                finished += 1
        elif kind == "exec_fail":
            runtime.handle_exec_fail(now, q, payload)
        elif kind == "tick":
            runtime.on_tick(now)
            last_tick = now
            if finished < submitted or pending or not end:
                if end and finished < submitted and not events and not pending:
                    _raise_stalled(runtime.arbiter, submitted - finished)
                heapq.heappush(
                    events,
                    (now + config.tick_interval, 1, next(counter), "tick", -1, None),
                )
            else:
                # Park the chain; a later admission resumes it from
                # last_tick with the same repeated additions.
                ticking = False

    if finished < submitted:
        unfinished = submitted - finished
        if runtime.arbiter.queue_length > 0:
            _raise_stalled(runtime.arbiter, unfinished)
        raise RuntimeError(
            f"shard {pool_index} ended with {unfinished} unfinished queries "
            f"(running: {runtime.unfinished_queries()}, "
            f"queued: {runtime.arbiter.queue_length})"
        )
    return runtime.finalize()


def _shard_worker(
    feed: MpQueue[tuple[object, ...]],
    results: MpQueue[tuple[int, FleetMetrics | None, str | None]],
    pool_index: int,
    workload: Workload,
    spec: PoolSpec,
    cluster: Cluster,
    config: FleetConfig,
) -> None:
    try:
        metrics = _drive_shard(feed, pool_index, workload, spec, cluster, config)
    except BaseException:
        results.put((pool_index, None, traceback.format_exc()))
    else:
        results.put((pool_index, metrics, None))


class ProcessShardExecutor:
    """Serve an arrival stream with one worker process per pool.

    Same construction surface as :class:`~repro.fleet.cluster
    .ShardedFleet` minus the tracer, plus the restrictions in the
    module docstring.  ``serve`` supports both record mode and
    streaming mode (via :attr:`FleetConfig.streaming`), with per-query
    spool files written by the worker that owns each pool.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        pools: per-pool shapes (``PoolSpec`` or plain int capacities);
            every pool must be statically provisioned.
        allocator: per-query executor-budget decision — runs in the
            *parent*, so it need not be picklable.
        router: placement policy; must declare ``uses_pool_state =
            False`` (default round-robin qualifies).
        cluster: node/executor shapes and provisioning lag (shared).
        config: fleet knobs (shared by every pool).
        batch_size: arrivals per feed message — a latency/throughput
            knob with no effect on results.
    """

    def __init__(
        self,
        workload: Workload,
        pools: Sequence[PoolSpec | int],
        allocator: Allocator,
        router: Router | None = None,
        cluster: Cluster = Cluster(),
        config: FleetConfig = FleetConfig(),
        batch_size: int = 512,
    ) -> None:
        specs = [
            spec if isinstance(spec, PoolSpec) else PoolSpec(capacity=int(spec))
            for spec in pools
        ]
        if not specs:
            raise ValueError("a sharded fleet needs at least one pool")
        for i, spec in enumerate(specs):
            if spec.autoscaler is not None:
                raise ValueError(
                    f"pool {i} is autoscaled: ProcessShardExecutor requires "
                    "statically provisioned pools (autoscaler signals are "
                    "cross-pool; use ShardedFleet)"
                )
        self.router: Router = router if router is not None else RoundRobinRouter()
        if getattr(self.router, "uses_pool_state", True):
            raise ValueError(
                f"router {self.router.name!r} uses live pool state, which a "
                "multiprocess parent does not hold; use a router with "
                "uses_pool_state = False (e.g. RoundRobinRouter) or the "
                "single-process ShardedFleet"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if config.feedback is not None:
            raise ValueError(
                "ProcessShardExecutor cannot run a feedback sink: the "
                "outcome loop mutates one shared model, and per-worker "
                "copies would silently diverge; use the single-process "
                "ShardedFleet for continual learning"
            )
        self.workload = workload
        self.pools = specs
        self.allocator = allocator
        self.cluster = cluster
        self.config = config
        self.batch_size = batch_size

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    @property
    def max_budget(self) -> int:
        return max(spec.max_capacity for spec in self.pools)

    def serve(self, arrivals: Iterable[QueryArrival]) -> ClusterMetrics:
        """Play out the whole stream; returns the cluster's metrics."""
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            ctx = multiprocessing.get_context()
        n = self.n_pools
        config = self.config
        streaming = config.streaming
        # Bounded feeds give backpressure: a slow worker stalls the
        # parent instead of buffering the whole stream in its queue.
        feeds = [ctx.Queue(maxsize=64) for _ in range(n)]
        results = ctx.Queue()
        workers = [
            ctx.Process(
                target=_shard_worker,
                args=(
                    feeds[i],
                    results,
                    i,
                    self.workload,
                    self.pools[i],
                    self.cluster,
                    config,
                ),
                daemon=True,
            )
            for i in range(n)
        ]
        for w in workers:
            w.start()
        try:
            pool_of, placed_qs, total = self._dispatch(arrivals, feeds)
            metrics_by_pool: list[FleetMetrics | None] = [None] * n
            for _ in range(n):
                i, metrics, error = results.get()
                if error is not None:
                    raise RuntimeError(f"shard worker {i} failed:\n{error}")
                metrics_by_pool[i] = metrics
            for w in workers:
                w.join()
        finally:
            for w in workers:
                if w.is_alive():  # a parent-side error: don't leak workers
                    w.terminate()
        return self._assemble(metrics_by_pool, pool_of, placed_qs, total)

    # -- parent side ---------------------------------------------------

    def _dispatch(
        self,
        arrivals: Iterable[QueryArrival],
        feeds: Sequence[MpQueue[tuple[object, ...]]],
    ) -> tuple[dict[int, int], list[list[int]], int]:
        """Decide, route, and stream every submit to its pool's feed."""
        config = self.config
        record_mode = config.streaming is None
        views = static_views(self.pools)
        estimates: dict[int, float | None] = {}
        # Submits replayed in global submit order: keyed by
        # (t_submit, 0, stream position), exactly the shared heap's
        # order for submit events (positions are unique).
        reorder: list[tuple] = []
        batches: list[list[tuple]] = [[] for _ in feeds]
        pool_of: dict[int, int] = {}
        placed_qs: list[list[int]] = [[] for _ in feeds]
        anchor_sent = False
        max_budget = self.max_budget

        def flush(limit: float) -> None:
            nonlocal anchor_sent
            while reorder and reorder[0][0] < limit:
                entry = heapq.heappop(reorder)
                t, _, pos, arrival, budget, cached, seconds, notes = entry
                if not anchor_sent:
                    # First submit == cluster-wide first admission: the
                    # tick-chain anchor every worker replays from.
                    for feed in feeds:
                        feed.put(("anchor", t))
                    anchor_sent = True
                chosen = self.router.pick(
                    RoutingRequest(
                        query_id=arrival.query_id,
                        app_id=arrival.app_id,
                        budget=budget,
                        estimated_runtime_seconds=estimates.pop(pos),
                        submit_time=t,
                    ),
                    views,
                )
                if not 0 <= chosen < self.n_pools:
                    raise ValueError(
                        f"router {self.router.name!r} picked pool {chosen} "
                        f"out of {self.n_pools}"
                    )
                if record_mode:
                    pool_of[pos] = chosen
                    placed_qs[chosen].append(pos)
                batches[chosen].append(entry)

        def send(watermark: float) -> None:
            for i, feed in enumerate(feeds):
                feed.put(("batch", watermark, batches[i]))
                batches[i] = []

        pos = 0
        last_t = 0.0
        for arrival in arrivals:
            t_arrive = arrival.arrival_time
            if t_arrive < last_t:
                raise ValueError(
                    "ProcessShardExecutor requires time-ordered arrivals"
                )
            last_t = t_arrive
            flush(t_arrive)
            if pos and pos % self.batch_size == 0:
                send(t_arrive)
            plan = self.workload.optimized_plan(arrival.query_id)
            decision = self.allocator(arrival.query_id, plan)
            budget, cached, seconds, estimate = decision_fields(decision, max_budget)
            notes = allocator_annotations(self.allocator, decision)
            estimates[pos] = estimate
            delay = seconds if config.charge_prediction_overhead else 0.0
            heapq.heappush(
                reorder,
                (t_arrive + delay, 0, pos, arrival, budget, cached, seconds, notes),
            )
            pos += 1
        if pos == 0:
            raise ValueError("cannot serve an empty arrival stream")
        flush(_INF)
        for i, feed in enumerate(feeds):
            feed.put(("end", batches[i]))
            batches[i] = []
        return pool_of, placed_qs, pos

    def _assemble(
        self,
        metrics_by_pool: list[FleetMetrics],
        pool_of: dict[int, int],
        placed_qs: list[list[int]],
        total: int,
    ) -> ClusterMetrics:
        if self.config.streaming is None:
            by_q: dict[int, object] = {}
            for i, metrics in enumerate(metrics_by_pool):
                # finalize() emits records sorted by stream position.
                for q, record in zip(sorted(placed_qs[i]), metrics.records):
                    by_q[q] = record
            records = [by_q[q] for q in range(total)]
            placed = [pool_of[q] for q in range(total)]
        else:
            records = []
            placed = []
        # Same cluster-wide billing window the single-process driver
        # imposes; FleetMetrics derives everything lazily, so setting it
        # before first property access is equivalent to passing it into
        # finalize().
        window = cluster_serving_window(records, (m.stats for m in metrics_by_pool))
        for metrics in metrics_by_pool:
            metrics.serving_window = window
        return ClusterMetrics(pools=metrics_by_pool, records=records, pool_of=placed)
