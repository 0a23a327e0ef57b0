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
mode.  The argument: each worker runs the same loop on its pool's
subsequence.  The parent decides and routes with the in-process
driver's own helpers and sends each pool its submits in global submit
order, the shared heap's ``(time, 0, stream position)`` order for
them.  The worker pushes them onto an
:class:`~repro.engine.driver.EventHeap` as class-0 entries, one ahead
of its clock, and starts the tick chain at the cluster's first submit,
so its ticks fall on the shared chain's instants.  Per-pool metric
folds run in the pool's own finish order, which is what the
single-process driver uses too.

**Restrictions** (checked at construction / serve time):

- the router must declare ``uses_pool_state = False`` — the parent has
  no live pool state to offer;
- pools must be statically provisioned (no autoscalers — an
  autoscaler's signals are cross-pool via the shared tick);
- no tracer (a cluster-ordered trace would serialize the workers);
- in streaming mode, arrivals must be time-ordered (the parent streams
  them; it cannot sort what it has not seen).  Record mode plays a list
  in the single-process driver's order: stably sorted by arrival time.

One measure-zero caveat remains.  The shared heap keys a submit as a
class-1 event pushed when its arrival popped; a worker keys it class 0,
ahead of every same-instant event.  A submit landing on *exactly* the
same float instant as a tick or another event of its pool pushed before
that arrival popped may therefore order differently.  Continuous
arrival gaps and task durations make that a probability-zero event.

The allocator staying in the parent is the same separation the HTTP
serving layer exploits: :mod:`repro.serve` runs a
:class:`~repro.fleet.prediction.PredictionService` with no fleet behind
it at all, because the executor-count decision is a pure function of
the plan features — independent of which pool (or process) eventually
runs the query.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.cluster import Cluster
from repro.engine.driver import EventHeap
from repro.fleet.arrivals import QueryArrival
from repro.fleet.cluster import (
    PoolSpec,
    ShardedFleet,
    _arrival_source,
    _cluster_metrics,
    _finish,
    _play_order,
    static_views,
)
from repro.fleet.engine import Allocator, FleetConfig
from repro.fleet.metrics import ClusterMetrics, FleetMetrics
from repro.fleet.routing import Router
from repro.workloads.generator import Workload

if TYPE_CHECKING:  # multiprocessing.Queue is a factory method, not a type
    from multiprocessing.queues import Queue as MpQueue

__all__ = ["ProcessShardExecutor"]

#: Arrivals the parent dispatches between feed messages: a latency and
#: throughput constant with no effect on results.
BATCH_SIZE = 512


def _decided_upstream(query_id: str, plan: object) -> int:
    """A worker fleet's allocator: never called, its submits arrive
    decided."""
    raise AssertionError("shard workers receive decided submits")


def _drive_shard(
    feed: MpQueue[object],
    pool_index: int,
    workload: Workload,
    spec: PoolSpec,
    cluster: Cluster,
    config: FleetConfig,
) -> tuple[FleetMetrics, list[int]]:
    """Run the fleet loop over pool ``pool_index`` alone, fed by the parent.

    Returns the pool's metrics and the stream positions of its records
    (empty in streaming mode).  The feed carries the tick anchor first
    (``None`` for the pool that takes the cluster's first submit and so
    starts its chain at that admission), then lists of ``(t_submit,
    stream position, submit payload)`` in submit order, then ``None``.
    The loop pulls a submit only when the previous one pops, so a
    blocking read is all the synchronization the worker needs.
    """
    anchor = feed.get()
    submits = (
        (t, pos, submit, "submit", 0)
        for batch in iter(feed.get, None)
        for t, pos, submit in batch
    )
    fleet = ShardedFleet(
        workload, [spec], _decided_upstream, cluster=cluster, config=config
    )
    (runtime,), _ = fleet._play(submits, pool_index, anchor)
    return _finish(runtime)


def _shard_worker(
    feed: MpQueue[object],
    results: MpQueue[tuple[int, tuple[FleetMetrics, list[int]] | None, str | None]],
    pool_index: int,
    workload: Workload,
    spec: PoolSpec,
    cluster: Cluster,
    config: FleetConfig,
) -> None:
    try:
        outcome = _drive_shard(feed, pool_index, workload, spec, cluster, config)
    except BaseException:
        results.put((pool_index, None, traceback.format_exc()))
    else:
        results.put((pool_index, outcome, None))


class ProcessShardExecutor:
    """Serve an arrival stream with one worker process per pool.

    Same construction surface as :class:`~repro.fleet.cluster
    .ShardedFleet` minus the tracer, plus the restrictions in the
    module docstring.  ``serve`` supports both record mode and
    streaming mode (via :attr:`FleetConfig.streaming`).

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
    """

    def __init__(
        self,
        workload: Workload,
        pools: Sequence[PoolSpec | int],
        allocator: Allocator,
        router: Router | None = None,
        cluster: Cluster = Cluster(),
        config: FleetConfig = FleetConfig(),
    ) -> None:
        # The parent decides and routes with the in-process driver's own
        # helpers, so it holds an (unserved) fleet of the same shape.
        fleet = ShardedFleet(workload, pools, allocator, router, cluster, config)
        for i, spec in enumerate(fleet.pools):
            if spec.autoscaler is not None:
                raise ValueError(
                    f"pool {i} is autoscaled: ProcessShardExecutor requires "
                    "statically provisioned pools (autoscaler signals are "
                    "cross-pool; use ShardedFleet)"
                )
        self.router: Router = fleet.router
        if getattr(self.router, "uses_pool_state", True):
            raise ValueError(
                f"router {self.router.name!r} uses live pool state, which a "
                "multiprocess parent does not hold; use a router with "
                "uses_pool_state = False (e.g. RoundRobinRouter) or the "
                "single-process ShardedFleet"
            )
        if config.feedback is not None:
            raise ValueError(
                "ProcessShardExecutor cannot run a feedback sink: the "
                "outcome loop mutates one shared model, and per-worker "
                "copies would silently diverge; use the single-process "
                "ShardedFleet for continual learning"
            )
        self._fleet = fleet
        self.workload = workload
        self.pools = fleet.pools
        self.allocator = allocator
        self.cluster = cluster
        self.config = config

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
                    self.config,
                ),
                daemon=True,
            )
            for i in range(n)
        ]
        for w in workers:
            w.start()
        try:
            self._dispatch(arrivals, feeds)
            outcomes: dict[int, tuple[FleetMetrics, list[int]]] = {}
            for _ in range(n):
                i, outcome, error = results.get()
                if error is not None:
                    raise RuntimeError(f"shard worker {i} failed:\n{error}")
                outcomes[i] = outcome
            for w in workers:
                w.join()
        finally:
            for w in workers:
                if w.is_alive():  # a parent-side error: don't leak workers
                    w.terminate()
        pools, served = zip(*(outcomes[i] for i in range(n)))
        return _cluster_metrics(pools, served)

    # -- parent side ---------------------------------------------------

    def _dispatch(
        self,
        arrivals: Iterable[QueryArrival],
        feeds: Sequence[MpQueue[object]],
    ) -> None:
        """Decide, route, and stream every submit to its pool's feed, in
        the single-process driver's play order."""
        fleet = self._fleet
        views = static_views(self.pools)
        max_budget = self.max_budget
        # Submits leave in the shared heap's order for them: the class-0
        # key (t_submit, 0, stream position).
        reorder = EventHeap()
        waiting = reorder.events
        batches: list[list[tuple]] = [[] for _ in feeds]
        anchored = False

        def flush(limit: float) -> None:
            nonlocal anchored
            while waiting and waiting[0][0] < limit:
                t, _, pos, _, _, _, submit = reorder.pop()
                chosen = fleet._route(t, submit, views)
                if not anchored:
                    # The cluster's tick chain starts at its first
                    # submit; the pool taking it starts at admission.
                    for i, feed in enumerate(feeds):
                        feed.put(None if i == chosen else t)
                    anchored = True
                batches[chosen].append((t, pos, submit))

        def send() -> None:
            for i, feed in enumerate(feeds):
                if batches[i]:
                    feed.put(batches[i])
                    batches[i] = []

        stream = _arrival_source(_play_order(arrivals, self.config.streaming))
        for n, (t_arrive, pos, arrival) in enumerate(stream):
            flush(t_arrive)
            if n and n % BATCH_SIZE == 0:
                send()
            delay, submit = fleet._decide(arrival, max_budget)
            reorder.push_arrival(t_arrive + delay, pos, submit, "submit")
        flush(float("inf"))
        if not anchored:
            raise ValueError("cannot serve an empty arrival stream")
        send()
        for feed in feeds:
            feed.put(None)
