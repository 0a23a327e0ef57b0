"""Sharded-fleet tests: parity with the single-pool engine, routing,
autoscaling behavior under load, and capacity invariants."""

import copy
import heapq
import itertools
import random

import pytest

from repro.fleet import (
    AutoscalerConfig,
    CapacityArbiter,
    CostAwareRouter,
    FleetConfig,
    FleetEngine,
    LeastQueuedRouter,
    PoolSpec,
    Prediction,
    QueryArrival,
    RoundRobinRouter,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.engine import execution
from repro.engine.allocation import DynamicAllocation
from repro.engine.cluster import Cluster
from repro.engine.driver import EventHeap
from repro.engine.faults import FaultPlan, SpotMarket
from repro.engine.scheduler import simulate_query
from repro.fleet.engine import PoolRuntime
from repro.obs import RingBufferTracer
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


@pytest.fixture(scope="module")
def stream():
    return poisson_arrivals(QIDS, n_queries=40, rate_qps=1.5, seed=3)


class TestShardedOfOneParity:
    """The layer's honesty contract: one static pool ≡ FleetEngine."""

    def assert_parity(self, sharded, fleet):
        pool = sharded.pools[0]
        assert pool.records == fleet.records
        assert pool.pool_skyline.points == fleet.pool_skyline.points
        assert pool.summary() == fleet.summary()
        assert sharded.p95_latency == fleet.p95_latency
        assert sharded.total_dollar_cost == fleet.total_dollar_cost

    @pytest.mark.parametrize(
        "router", [None, RoundRobinRouter(), LeastQueuedRouter(), CostAwareRouter()]
    )
    def test_contended_stream_bit_identical(self, workload, stream, router):
        fleet = FleetEngine(workload, capacity=24, allocator=static_allocator(8))
        sharded = ShardedFleet(
            workload, [PoolSpec(capacity=24)], static_allocator(8), router=router
        )
        self.assert_parity(sharded.serve(stream), fleet.serve(stream))

    def test_parity_holds_under_dynamic_scaling(self, workload, stream):
        config = FleetConfig(
            idle_release_timeout=5.0,
            scaling=lambda budget: DynamicAllocation(1, 2 * budget, idle_timeout=10.0),
        )
        fleet = FleetEngine(
            workload, capacity=24, allocator=static_allocator(4), config=config
        )
        sharded = ShardedFleet(workload, [24], static_allocator(4), config=config)
        self.assert_parity(sharded.serve(stream), fleet.serve(stream))

    def test_parity_holds_with_prediction_overhead(self, workload):
        def slow_allocator(query_id, plan):
            return Prediction(executors=6, cached=False, seconds=1.5)

        arrivals = [QueryArrival(i, "q1", i, float(i)) for i in range(5)]
        fleet = FleetEngine(workload, capacity=16, allocator=slow_allocator)
        sharded = ShardedFleet(workload, [16], slow_allocator)
        self.assert_parity(sharded.serve(arrivals), fleet.serve(arrivals))

    def test_traced_event_streams_identical(self, workload, stream):
        """A traced engine emits the one-pool cluster's event list:
        arrivals and predictions at cluster level (pool -1), one
        ``query_route`` per query, and the same ``serve_end`` time."""
        fleet_trace, sharded_trace = RingBufferTracer(), RingBufferTracer()
        FleetEngine(
            workload, capacity=24, allocator=static_allocator(8), tracer=fleet_trace
        ).serve(stream)
        ShardedFleet(
            workload, [PoolSpec(capacity=24)], static_allocator(8), tracer=sharded_trace
        ).serve(stream)
        events = fleet_trace.events
        assert events == sharded_trace.events
        cluster_level = {"query_arrive", "query_predict"}
        assert {e.pool for e in events if e.kind in cluster_level} == {-1}
        assert fleet_trace.counts()["query_route"] == len(stream)
        assert events[-1].kind == "serve_end"
        finishes = [e.time for e in events if e.kind == "query_finish"]
        assert events[-1].time == max(finishes)


class TestClusterValidation:
    def test_empty_cluster_rejected(self, workload):
        with pytest.raises(ValueError, match="at least one pool"):
            ShardedFleet(workload, [], static_allocator(4))

    def test_empty_stream_rejected(self, workload):
        with pytest.raises(ValueError, match="empty arrival stream"):
            ShardedFleet(workload, [8, 8], static_allocator(4)).serve([])

    def test_bad_pool_capacity_rejected(self):
        with pytest.raises(ValueError):
            PoolSpec(capacity=0)

    def test_initial_capacity_outside_autoscaler_range_rejected(self):
        with pytest.raises(ValueError, match="min_capacity, max_capacity"):
            PoolSpec(
                capacity=4,
                autoscaler=AutoscalerConfig(min_capacity=8, max_capacity=32),
            )

    def test_router_picking_bogus_pool_rejected(self, workload):
        class Bogus:
            name = "bogus"

            def pick(self, request, pools):
                return 7

        with pytest.raises(ValueError, match="picked pool 7"):
            ShardedFleet(workload, [8, 8], static_allocator(4), router=Bogus()).serve(
                [QueryArrival(0, "q1", 0, 0.0)]
            )


class TestSaturation:
    def test_all_pools_saturated_queues_instead_of_dropping(self, workload):
        """A burst far beyond total capacity must queue and eventually be
        served in full — no arrival is ever dropped."""
        arrivals = [QueryArrival(i, "q1", i, 0.0) for i in range(12)]
        metrics = ShardedFleet(
            workload, [8, 8], static_allocator(8), router=LeastQueuedRouter()
        ).serve(arrivals)
        assert metrics.n_queries == 12
        assert metrics.capacity_respected
        delays = [r.queue_delay for r in metrics.records]
        assert sum(d == 0.0 for d in delays) == 2  # one per pool starts at once
        assert sum(d > 0.0 for d in delays) == 10  # the rest waited, none lost

    def test_budget_clamped_to_largest_pool(self, workload):
        """A budget bigger than any pool still gets served, clamped."""
        metrics = ShardedFleet(workload, [4, 6], static_allocator(64)).serve(
            [QueryArrival(0, "q1", 0, 0.0)]
        )
        assert metrics.records[0].executors_granted <= 6
        assert metrics.capacity_respected


class TestRoutingBehavior:
    def test_round_robin_spreads_uniformly(self, workload):
        arrivals = [QueryArrival(i, "q1", i, 40.0 * i) for i in range(6)]
        metrics = ShardedFleet(
            workload, [16, 16, 16], static_allocator(4), router=RoundRobinRouter()
        ).serve(arrivals)
        assert [pool.n_queries for pool in metrics.pools] == [2, 2, 2]

    def test_cost_aware_avoids_backlogged_pool(self, workload):
        """Back-to-back big queries must not convoy on one pool."""
        arrivals = [QueryArrival(i, "q94", i, float(i)) for i in range(4)]
        metrics = ShardedFleet(
            workload,
            [16, 16],
            static_allocator(16),
            router=CostAwareRouter(),
        ).serve(arrivals)
        spread = [pool.n_queries for pool in metrics.pools]
        assert sorted(spread) == [2, 2]
        # and the informed placement beats convoying them on one pool
        convoy = ShardedFleet(
            workload, [16, 16], static_allocator(16), router=_PinRouter()
        ).serve(arrivals)
        assert metrics.p95_latency < convoy.p95_latency


class _PinRouter:
    name = "pin"

    def pick(self, request, pools):
        return 0


class TestAutoscaling:
    AUTO = AutoscalerConfig(
        min_capacity=8,
        max_capacity=48,
        scale_up_step=8,
        scale_down_step=4,
        scale_up_lag_s=10.0,
        scale_down_cooldown_s=30.0,
        queue_delay_threshold_s=3.0,
    )

    def test_budget_above_initial_capacity_scales_up_instead_of_stalling(
        self, workload
    ):
        """Regression: a budget above every pool's *initial* capacity
        (but within the autoscaler ceiling) queued forever — the tick
        chain that drives the autoscaler only started at the first
        admission, which itself needed the scale-up."""
        metrics = ShardedFleet(
            workload,
            [
                PoolSpec(
                    capacity=4,
                    autoscaler=AutoscalerConfig(min_capacity=4, max_capacity=32),
                )
            ],
            static_allocator(8),
        ).serve([QueryArrival(0, "q1", 0, 0.0)])
        record = metrics.records[0]
        assert record.executors_granted == 8
        assert record.queue_delay > 0  # waited out threshold + lag
        assert metrics.capacity_respected

    def test_pool_grows_under_pressure_and_invariant_holds(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=50, rate_qps=2.0, seed=7)
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=self.AUTO) for _ in range(2)],
            static_allocator(8),
            router=CostAwareRouter(),
        ).serve(arrivals)
        assert metrics.n_queries == 50
        assert metrics.capacity_respected
        for pool in metrics.pools:
            assert pool.capacity_skyline is not None
            assert pool.capacity > 8  # it scaled
            assert pool.idle_capacity_seconds >= 0.0

    def test_scale_up_is_lagged_not_instant(self, workload):
        """Capacity requested at t is unusable before t + lag: a burst at
        t=0 on a minimal pool pays queueing through the whole window."""
        arrivals = [QueryArrival(i, "q1", i, 0.0) for i in range(4)]
        lagged = AutoscalerConfig(
            min_capacity=8,
            max_capacity=32,
            scale_up_step=24,
            scale_up_lag_s=25.0,
            queue_delay_threshold_s=1.0,
        )
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=lagged)],
            static_allocator(8),
        ).serve(arrivals)
        pool = metrics.pools[0]
        assert pool.capacity_skyline.points[0] == (0.0, 8)
        growth_time, grown = pool.capacity_skyline.points[1]
        # Capacity requested at the first tick (~1 s) lands only after
        # the provisioning lag.
        assert grown > 8
        assert growth_time >= lagged.scale_up_lag_s
        # The queries that queued past base-capacity turnover were
        # admitted exactly when the lagged capacity came online.
        scale_up_admits = [
            r for r in metrics.records if r.admit_time == growth_time
        ]
        assert len(scale_up_admits) == 2

    def test_unrouted_pool_still_bills_its_provisioned_floor(self, workload):
        """Regression: billing windows were derived from each pool's own
        served records, so an autoscaled pool the router never picked
        billed $0 despite sitting provisioned at its floor all run."""
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=self.AUTO) for _ in range(2)],
            static_allocator(4),
            router=RoundRobinRouter(),
        ).serve([QueryArrival(0, "q1", 0, 0.0)])
        assert [pool.n_queries for pool in metrics.pools] == [1, 0]
        used, idle_pool = metrics.pools
        span = metrics.makespan
        assert idle_pool.provisioned_executor_seconds == pytest.approx(8 * span)
        assert idle_pool.idle_capacity_seconds == pytest.approx(8 * span)
        assert idle_pool.total_dollar_cost > 0
        # and the used pool's window is the cluster's, not its own
        assert used.provisioned_executor_seconds >= 8 * span

    def test_scale_down_returns_to_floor_after_drain(self, workload):
        arrivals = [QueryArrival(0, "q1", 0, 0.0), QueryArrival(1, "q1", 1, 400.0)]
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=16, autoscaler=self.AUTO)],
            static_allocator(8),
        ).serve(arrivals)
        pool = metrics.pools[0]
        final_capacity = pool.capacity_skyline.points[-1][1]
        assert final_capacity < 16  # the idle gap shed capacity
        assert final_capacity >= self.AUTO.min_capacity


class TestScaleDownRace:
    def test_arbiter_resize_never_revokes_outstanding_grants(self):
        """The pool invariant under a shrink racing in-flight grants:
        capacity clamps at in_use, nothing is clawed back."""
        arbiter = CapacityArbiter(16, max_capacity=32)
        got = arbiter.try_acquire(0, 0, 12)  # grant still provisioning
        assert got == 12
        assert arbiter.resize(4) == 12  # clamped at the outstanding grant
        assert arbiter.in_use == 12
        assert arbiter.free == 0
        # the grant is intact and releasable
        assert arbiter.release(0, 12) == 12
        assert arbiter.resize(4) == 4  # now the shrink lands

    def test_resize_clamped_to_max_capacity(self):
        arbiter = CapacityArbiter(8, max_capacity=16)
        assert arbiter.resize(64) == 16

    def test_resize_rejects_nonpositive(self):
        arbiter = CapacityArbiter(8)
        with pytest.raises(ValueError):
            arbiter.resize(0)

    def test_inflight_grant_race_end_to_end(self, workload):
        """Scale-down eligibility exactly while a query's grant is still
        provisioning (executors not yet arrived): the run must complete
        and the capacity skyline never dips below reserved capacity."""
        eager = AutoscalerConfig(
            min_capacity=1,
            max_capacity=16,
            scale_down_step=16,
            scale_down_cooldown_s=0.0,
            low_utilization=0.99,
            high_utilization=1.0,
        )
        # in_use 8 of 16 = 50% < 99%: eligible to shrink on the very
        # first tick, ~1 s after admission — inside the provisioning
        # ramp of the admitted 8-executor grant.
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=16, autoscaler=eager)],
            static_allocator(8),
        ).serve([QueryArrival(0, "q1", 0, 0.0)])
        assert metrics.n_queries == 1
        assert metrics.capacity_respected
        pool = metrics.pools[0]
        assert pool.capacity_skyline.points[1][1] >= 8  # clamped at grant


class TestDeterminism:
    def test_same_stream_same_cluster_metrics(self, workload, stream):
        def run():
            return ShardedFleet(
                workload,
                [
                    PoolSpec(capacity=8, autoscaler=TestAutoscaling.AUTO),
                    PoolSpec(capacity=16),
                ],
                static_allocator(6),
                router=CostAwareRouter(),
            ).serve(stream)

        first, second = run(), run()
        assert first.summary() == second.summary()
        assert first.pool_of == second.pool_of
        assert first.records == second.records


class TestEventHeapWaves:
    """The heap helper's coalescing rule, and that it never reorders."""

    def test_same_query_same_instant_back_to_back_is_one_entry(self):
        heap = EventHeap()
        heap.push_task(0, 3, 5.0, 0, 1)
        heap.push_task(0, 3, 5.0, 0, 2)
        heap.push_task(0, 3, 5.0, 1, 2)
        assert len(heap.events) == 1
        assert heap.pop()[3:] == ("task_done", 0, 3, [(0, 1), (0, 2), (1, 2)])

    @pytest.mark.parametrize(
        "between",
        [
            lambda heap: heap.push_task(0, 4, 5.0, 0, 0),
            lambda heap: heap.push_task(1, 3, 5.0, 0, 0),
            lambda heap: heap.push_task(0, 3, 6.0, 0, 0),
            lambda heap: heap.push(0, 5.0, "exec_arrive", 3),
            lambda heap: heap.push(-1, 9.0, "tick"),
            lambda heap: heap.push_arrival(9.0, 0, None),
        ],
        ids=["other-query", "other-pool", "other-time", "exec", "tick", "arrival"],
    )
    def test_interleaved_push_of_any_kind_splits_the_wave(self, between):
        heap = EventHeap()
        heap.push_task(0, 3, 5.0, 0, 1)
        between(heap)
        heap.push_task(0, 3, 5.0, 0, 2)
        waves = [
            entry[6]
            for entry in heap.events
            if entry[3] == "task_done" and entry[4:6] == (0, 3) and entry[0] == 5.0
        ]
        assert sorted(waves) == [[(0, 1)], [(0, 2)]]

    def test_push_after_the_entry_was_popped_opens_a_new_entry(self):
        heap = EventHeap()
        heap.push_task(0, 3, 5.0, 0, 1)
        first = heap.pop()
        heap.push_task(0, 3, 5.0, 0, 2)
        assert first[6] == [(0, 1)]
        assert len(heap.events) == 1
        assert heap.pop()[6] == [(0, 2)]

    def test_flattened_pop_order_equals_one_entry_per_push(self):
        """Against a plain heap with one entry per completion, under a
        random mix of pushes and pops, the waves replay the same order."""
        rng = random.Random(7)
        heap, plain, counter = EventHeap(), [], itertools.count()
        got, want = [], []
        waves = 0

        def pop_wave():
            nonlocal waves
            t, _, _, kind, pool, q, payload = heap.pop()
            items = payload if kind == "task_done" else [payload]
            waves += len(items) > 1
            for item in items:
                got.append((t, kind, pool, q, item))
                entry = heapq.heappop(plain)
                want.append((entry[0], *entry[3:]))

        for step in range(4000):
            if rng.random() < 0.35 and heap.events:
                pop_wave()
                continue
            t = float(rng.randrange(6))
            kind = rng.choice(("task_done", "task_done", "task_done", "exec_arrive"))
            pool, q = rng.randrange(2), rng.randrange(2)
            if kind == "task_done":
                payload = (step, 0)
                heap.push_task(pool, q, t, *payload)
            else:
                payload = step
                heap.push(pool, t, kind, q, payload)
            heapq.heappush(plain, (t, 1, next(counter), kind, pool, q, payload))
        while heap.events:
            pop_wave()
        assert got == want
        assert not plain  # every push came back out
        assert waves > 0  # the rule fired: some entries held several


class TestFloatClock:
    """Every event time is a Python ``float``: task finish times come from
    ``CompiledPlan.task_seconds`` times a float factor, so no numpy scalar
    reaches the heap's comparisons or the clock."""

    CHURN = FaultPlan(
        seed=5,
        crash_rate=1.0 / 300.0,
        straggler_rate=0.1,
        spot=SpotMarket(fraction=0.5, discount=0.35, reclaim_rate=1.0 / 300.0),
    )

    def test_every_popped_time_is_a_float(self, workload, monkeypatch):
        seen: dict[tuple[str, type], int] = {}
        pop = EventHeap.pop

        def typed_pop(self):
            entry = pop(self)
            key = (entry[3], type(entry[0]))
            seen[key] = seen.get(key, 0) + 1
            return entry

        monkeypatch.setattr(EventHeap, "pop", typed_pop)
        spec = PoolSpec(capacity=8, autoscaler=TestAutoscaling.AUTO)
        config = FleetConfig(
            faults=self.CHURN,
            scaling=lambda budget: DynamicAllocation(1, 2 * budget, idle_timeout=10.0),
        )
        metrics = ShardedFleet(
            workload,
            [spec, spec],
            static_allocator(8),
            router=CostAwareRouter(),
            config=config,
        ).serve(poisson_arrivals(QIDS, n_queries=40, rate_qps=1.0, seed=1))
        assert metrics.n_queries == 40
        kinds = {kind for kind, _ in seen}
        # The serve exercised every event kind the guard is about.
        assert {"task_done", "exec_arrive", "exec_fail", "tick", "scale_online"} <= kinds
        assert {t for _, t in seen} == {float}, seen

    @pytest.mark.parametrize("query_id", QIDS)
    def test_simulate_query_runtime_is_a_float(self, workload, query_id):
        for faults in (None, self.CHURN):
            result = simulate_query(
                workload.stage_graph(query_id),
                DynamicAllocation(1, 16, idle_timeout=10.0),
                Cluster(),
                faults=faults,
            )
            assert type(result.runtime) is float
            assert type(result.auc) is float


class TestWorkCounts:
    """Exact, byte-stable work counts of a fixed autoscaled serve: a
    change that silently stops coalescing task waves fails here.  With
    one heap entry per completion the same serve made 3,508
    ``handle_task_done`` calls and 4,120 heap entries."""

    def test_task_waves_and_heap_entries_pinned(self, workload, stream, monkeypatch):
        counts = {"task_done": 0, "completions": 0, "entries": 0}
        handle = PoolRuntime.handle_task_done
        pop = EventHeap.pop

        def counted_handle(self, now, q, payload):
            counts["task_done"] += 1
            counts["completions"] += len(payload)
            return handle(self, now, q, payload)

        def counted_pop(self):
            counts["entries"] += 1
            return pop(self)

        monkeypatch.setattr(PoolRuntime, "handle_task_done", counted_handle)
        monkeypatch.setattr(EventHeap, "pop", counted_pop)
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=TestAutoscaling.AUTO)] * 2,
            static_allocator(8),
            router=CostAwareRouter(),
        ).serve(stream)
        assert metrics.n_queries == len(stream)
        assert counts == {"task_done": 578, "completions": 3508, "entries": 1190}

    def test_fill_visits_and_idle_scans_pinned(self, workload, stream, monkeypatch):
        """The fill step takes executors from the free-core heap, so it
        visits only executors that can take a task, and ticks skip idle
        scans that cannot release anything.  For comparison, scanning
        every executor on each fill visits 15,306 on this serve, and a
        full idle scan on every tick makes 324 scans and 1,322
        ``release_idle`` calls."""
        counts = {"visits": 0, "full_scans": 0, "release_idle": 0, "ticks": 0}
        pop = execution.heappop
        scan = PoolRuntime._scan_idle
        tick = PoolRuntime.on_tick
        release = execution.ExecutionCore.release_idle

        def counted_pop(heap):
            counts["visits"] += 1
            return pop(heap)

        def counted(key, method):
            def wrapper(*args):
                counts[key] += 1
                return method(*args)

            return wrapper

        monkeypatch.setattr(execution, "heappop", counted_pop)
        monkeypatch.setattr(PoolRuntime, "_scan_idle", counted("full_scans", scan))
        monkeypatch.setattr(PoolRuntime, "on_tick", counted("ticks", tick))
        monkeypatch.setattr(
            execution.ExecutionCore, "release_idle", counted("release_idle", release)
        )
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=TestAutoscaling.AUTO)] * 2,
            static_allocator(8),
            router=CostAwareRouter(),
        ).serve(stream)
        assert metrics.n_queries == len(stream)
        assert counts == {
            "visits": 2345,
            "full_scans": 17,
            "release_idle": 64,
            "ticks": 324,
        }


class TestQuietIdleScans:
    """Debug replay of the quiet-scan rule: every idle scan a tick
    skips, replayed as a full scan on the live state, releases
    nothing."""

    @staticmethod
    def _replay(runtime, now):
        """Run ``release_idle`` on a copy of every live run's core."""
        released = []
        for run in runtime.runs.values():
            if run.finished:
                continue
            timeout, floor = runtime._idle_params(run)
            shadow = copy.copy(run.core)
            shadow.executors = dict(run.core.executors)
            shadow.skyline = copy.deepcopy(run.core.skyline)
            shadow.tracer = None
            released += shadow.release_idle(now, timeout, floor)
        return released

    @pytest.mark.parametrize("timeout", [2.0, 5.0, 30.0])
    def test_skipped_scans_release_nothing(
        self, workload, stream, monkeypatch, timeout
    ):
        tally = {"skipped": 0, "scanned": 0, "released": 0}
        tick = PoolRuntime.on_tick
        scan = PoolRuntime._scan_idle

        def replaying_tick(runtime, now):
            scanned = tally["scanned"]
            tick(runtime, now)
            if tally["scanned"] == scanned:
                tally["skipped"] += 1
                assert self._replay(runtime, now) == []

        def counted_scan(runtime, now):
            tally["scanned"] += 1
            released = scan(runtime, now)
            tally["released"] += released
            return released

        monkeypatch.setattr(PoolRuntime, "on_tick", replaying_tick)
        monkeypatch.setattr(PoolRuntime, "_scan_idle", counted_scan)
        metrics = ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=TestAutoscaling.AUTO)] * 2,
            static_allocator(8),
            router=CostAwareRouter(),
            config=FleetConfig(idle_release_timeout=timeout),
        ).serve(stream)
        assert metrics.n_queries == len(stream)
        assert tally["skipped"] > 0
        if timeout < 30.0:
            # The scans that did run still released executors.
            assert tally["released"] > 0

