"""ProcessShardExecutor: multiprocess merge must equal the
single-process sharded serve bit for bit, per the determinism contract
in :mod:`repro.fleet.parallel`."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.allocation import DynamicAllocation
from repro.engine.faults import FaultPlan, SpotMarket
from repro.fleet import parallel
from repro.fleet import (
    FleetConfig,
    LeastQueuedRouter,
    PoolSpec,
    Prediction,
    ProcessShardExecutor,
    QueryArrival,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


def idle_releases(metrics):
    """Executors shed mid-query: every step down in a record's skyline
    (a finished query's final release is not recorded there, and these
    serves inject no faults)."""
    return sum(
        1
        for record in metrics.records
        for (_, before), (_, after) in zip(
            record.skyline.points, record.skyline.points[1:]
        )
        if after < before
    )


#: A short idle timeout, so executors are released mid-query and the
#: workers' ticks exercise the quiet-scan rule in ``PoolRuntime.on_tick``.
IDLE_CONFIG = FleetConfig(idle_release_timeout=2.0)

#: Mid-query scaling: every run polls its policy on every tick.
SCALING_CONFIG = FleetConfig(scaling=lambda b: DynamicAllocation(1, 2 * b))

#: Selection overheads the delayed allocator cycles through (seconds).
DELAYS = (0.0, 3.0, 0.5, 7.0)


def delayed_allocator():
    """Budget 8, with a selection overhead cycling through ``DELAYS``.

    The overhead is charged by default, so a query submits ``seconds``
    after it arrives and submits leave arrival order.  Build one per
    serve: the cycle is the allocator's state.
    """
    delays = itertools.cycle(DELAYS)

    def allocate(query_id, plan):
        return Prediction(executors=8, cached=False, seconds=next(delays))

    return allocate


def reordered_positions(arrivals):
    """How many stream positions submit out of arrival order under
    ``delayed_allocator``."""
    submits = sorted(
        (a.arrival_time + d, pos)
        for pos, (a, d) in enumerate(zip(arrivals, itertools.cycle(DELAYS)))
    )
    return sum(pos != i for i, (_, pos) in enumerate(submits))


def integer_arrivals(n_queries):
    """Arrivals at integer instants, gaps cycling 1, 2, 3 and 5 s: with a
    1 s tick, submits, ticks and grant arrivals land on the same floats."""
    times = itertools.accumulate(itertools.cycle((1, 2, 3, 5)), initial=0)
    return [
        QueryArrival(i, QIDS[i % len(QIDS)], i % 4, float(t))
        for i, t in zip(range(n_queries), times)
    ]


def serve_both(workload, pools, allocator, config, arrivals, streaming):
    """Serve ``arrivals`` in-process and with one process per pool;
    ``allocator`` is a factory, called once per serve."""
    if streaming:
        config = dataclasses.replace(config, streaming=True)
    single = ShardedFleet(workload, pools, allocator(), config=config).serve(
        iter(arrivals) if streaming else arrivals
    )
    multi = ProcessShardExecutor(
        workload, pools, allocator(), config=config
    ).serve(arrivals)
    return multi, single


def assert_identical(multi, single, streaming):
    if streaming:
        assert multi.records == [] and single.records == []
        for got, want in zip(multi.pools, single.pools):
            assert got.stats == want.stats
            assert got.serving_window == want.serving_window
        assert multi.summary() == single.summary()
    else:
        assert_identical_record_mode(multi, single)


def assert_identical_record_mode(multi, single):
    assert multi.pool_of == single.pool_of
    assert len(multi.records) == len(single.records)
    for got, want in zip(multi.records, single.records):
        assert got == want
    for got, want in zip(multi.pools, single.pools):
        assert got.serving_window == want.serving_window
    assert multi.summary() == single.summary()


class TestRestrictions:
    def test_autoscaled_pool_rejected(self, workload):
        from repro.fleet.autoscaler import AutoscalerConfig

        spec = PoolSpec(
            capacity=8,
            autoscaler=AutoscalerConfig(min_capacity=4, max_capacity=32),
        )
        with pytest.raises(ValueError, match="autoscaled"):
            ProcessShardExecutor(workload, [spec, 16], static_allocator(4))

    def test_stateful_router_rejected(self, workload):
        with pytest.raises(ValueError, match="pool state"):
            ProcessShardExecutor(
                workload,
                [16, 16],
                static_allocator(4),
                router=LeastQueuedRouter(),
            )

    def test_no_pools_rejected(self, workload):
        with pytest.raises(ValueError, match="at least one pool"):
            ProcessShardExecutor(workload, [], static_allocator(4))

    def test_out_of_order_list_served_like_single_process(self, workload):
        """Record mode plays an unsorted list sorted by arrival time in
        both drivers; streaming mode still rejects out-of-order input."""
        arrivals = [
            QueryArrival(0, "q1", 0, 5.0),
            QueryArrival(1, "q1", 0, 1.0),
        ]
        multi, single = serve_both(
            workload,
            [16, 16],
            lambda: static_allocator(4),
            FleetConfig(),
            arrivals,
            streaming=False,
        )
        assert multi.n_queries == single.n_queries == 2
        assert_identical_record_mode(multi, single)
        streaming = FleetConfig(streaming=True)
        for driver in (ShardedFleet, ProcessShardExecutor):
            fleet = driver(workload, [16, 16], static_allocator(4), config=streaming)
            with pytest.raises(ValueError, match="time-ordered"):
                fleet.serve(iter(arrivals))

    def test_empty_stream_rejected(self, workload):
        executor = ProcessShardExecutor(workload, [16, 16], static_allocator(4))
        with pytest.raises(ValueError, match="empty"):
            executor.serve([])

    def test_duplicate_indices_rejected(self, workload):
        executor = ProcessShardExecutor(workload, [16, 16], static_allocator(4))
        arrivals = [
            QueryArrival(0, "q1", 0, 1.0),
            QueryArrival(0, "q2", 1, 2.0),
        ]
        with pytest.raises(ValueError, match="duplicate indices"):
            executor.serve(arrivals)


class TestMergeEqualsSingleProcess:
    def test_record_mode_bit_for_bit(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=200, rate_qps=2.0, seed=7)
        single = ShardedFleet(
            workload, [16, 16, 16], static_allocator(8)
        ).serve(arrivals)
        multi = ProcessShardExecutor(
            workload, [16, 16, 16], static_allocator(8)
        ).serve(arrivals)
        assert_identical_record_mode(multi, single)

    def test_small_batches_change_nothing(self, workload, monkeypatch):
        monkeypatch.setattr(parallel, "BATCH_SIZE", 7)
        arrivals = poisson_arrivals(QIDS, n_queries=60, rate_qps=1.5, seed=3)
        single = ShardedFleet(workload, [16, 24], static_allocator(8)).serve(
            arrivals
        )
        multi = ProcessShardExecutor(
            workload, [16, 24], static_allocator(8)
        ).serve(arrivals)
        assert_identical_record_mode(multi, single)

    def test_streaming_stats_bit_for_bit(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=200, rate_qps=2.0, seed=7)
        config = FleetConfig(streaming=True)
        single = ShardedFleet(
            workload, [16, 16, 16], static_allocator(8), config=config
        ).serve(iter(arrivals))
        multi = ProcessShardExecutor(
            workload, [16, 16, 16], static_allocator(8), config=config
        ).serve(arrivals)
        assert multi.records == [] and single.records == []
        for got, want in zip(multi.pools, single.pools):
            assert got.stats == want.stats
            assert got.serving_window == want.serving_window
        assert multi.summary() == single.summary()

    def test_fault_plan_bit_for_bit(self, workload):
        plan = FaultPlan(
            seed=5,
            crash_rate=1 / 5000.0,
            straggler_rate=0.05,
            spot=SpotMarket(fraction=0.5, discount=0.35, reclaim_rate=1 / 2000.0),
        )
        config = FleetConfig(faults=plan)
        arrivals = poisson_arrivals(QIDS, n_queries=100, rate_qps=1.0, seed=13)
        single = ShardedFleet(
            workload, [16, 16], static_allocator(8), config=config
        ).serve(arrivals)
        multi = ProcessShardExecutor(
            workload, [16, 16], static_allocator(8), config=config
        ).serve(arrivals)
        assert_identical_record_mode(multi, single)
        assert multi.fault_stats.crashes == single.fault_stats.crashes
        assert multi.fault_stats.reclamations == single.fault_stats.reclamations

    def test_idle_release_bit_for_bit(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=80, rate_qps=1.5, seed=17)
        single = ShardedFleet(
            workload, [16, 16], static_allocator(8), config=IDLE_CONFIG
        ).serve(arrivals)
        assert idle_releases(single) > 0
        multi = ProcessShardExecutor(
            workload, [16, 16], static_allocator(8), config=IDLE_CONFIG
        ).serve(arrivals)
        assert_identical_record_mode(multi, single)

    def test_worker_failure_propagates(self, workload):
        class ExplodingWorkload:
            """Pickles fine, blows up inside the worker."""

            def __init__(self, inner):
                self._inner = inner

            def optimized_plan(self, query_id):
                return self._inner.optimized_plan(query_id)

            def stage_graph(self, query_id):
                raise RuntimeError("boom in worker")

        executor = ProcessShardExecutor(
            ExplodingWorkload(workload), [16], static_allocator(4)
        )
        arrivals = poisson_arrivals(QIDS, n_queries=5, rate_qps=1.0, seed=1)
        with pytest.raises(RuntimeError, match="boom in worker"):
            executor.serve(arrivals)

class TestReorderedSubmits:
    """Selection overheads of 0 to 7 s reorder submits against arrivals,
    which exercises the parent's reorder heap."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["record", "streaming"])
    def test_delayed_submits_bit_for_bit(self, workload, streaming):
        arrivals = poisson_arrivals(QIDS, n_queries=120, rate_qps=1.5, seed=11)
        assert reordered_positions(arrivals) > 60
        multi, single = serve_both(
            workload, [16, 16, 16], delayed_allocator, FleetConfig(), arrivals, streaming
        )
        assert_identical(multi, single, streaming)


class TestIntegerTimedStreams:
    """Integer arrival instants make ticks, submits and grant arrivals
    collide on exact floats, which Poisson streams never do."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["record", "streaming"])
    @pytest.mark.parametrize("n_pools", [2, 3])
    @pytest.mark.parametrize(
        "config", [IDLE_CONFIG, SCALING_CONFIG], ids=["idle-release", "scaling"]
    )
    @pytest.mark.parametrize(
        "allocator",
        [lambda: static_allocator(8), delayed_allocator],
        ids=["static", "delayed"],
    )
    def test_collisions_bit_for_bit(
        self, workload, allocator, config, n_pools, streaming
    ):
        arrivals = integer_arrivals(48)
        multi, single = serve_both(
            workload, [16] * n_pools, allocator, config, arrivals, streaming
        )
        assert_identical(multi, single, streaming)


class TestInProcessDrive:
    """Run each worker in-process (plain queues, no fork): the parent's
    dispatch, then ``_drive_shard`` — the one fleet loop over one pool —
    per pool.  The same code path the subprocess runs, but visible to
    debuggers and to coverage measurement, which cannot see into forked
    children."""

    def _drive(self, executor, arrivals):
        import queue

        from repro.fleet.cluster import _cluster_metrics
        from repro.fleet.parallel import _drive_shard

        feeds = [queue.Queue() for _ in range(executor.n_pools)]
        executor._dispatch(arrivals, feeds)
        outcomes = [
            _drive_shard(
                feeds[i],
                i,
                executor.workload,
                executor.pools[i],
                executor.cluster,
                executor.config,
            )
            for i in range(executor.n_pools)
        ]
        pools, served = zip(*outcomes)
        return _cluster_metrics(pools, served)

    def test_record_mode(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=80, rate_qps=1.5, seed=17)
        single = ShardedFleet(workload, [16, 16], static_allocator(8)).serve(
            arrivals
        )
        multi = self._drive(
            ProcessShardExecutor(workload, [16, 16], static_allocator(8)),
            arrivals,
        )
        assert_identical_record_mode(multi, single)

    def test_idle_release(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=80, rate_qps=1.5, seed=17)
        single = ShardedFleet(
            workload, [16, 16], static_allocator(8), config=IDLE_CONFIG
        ).serve(arrivals)
        assert idle_releases(single) > 0
        multi = self._drive(
            ProcessShardExecutor(
                workload, [16, 16], static_allocator(8), config=IDLE_CONFIG
            ),
            arrivals,
        )
        assert_identical_record_mode(multi, single)

    def test_delayed_submits(self, workload):
        arrivals = integer_arrivals(48)
        single = ShardedFleet(
            workload, [16, 16], delayed_allocator(), config=SCALING_CONFIG
        ).serve(arrivals)
        multi = self._drive(
            ProcessShardExecutor(
                workload, [16, 16], delayed_allocator(), config=SCALING_CONFIG
            ),
            arrivals,
        )
        assert_identical_record_mode(multi, single)

    def test_streaming_mode(self, workload):
        config = FleetConfig(streaming=True)
        arrivals = poisson_arrivals(QIDS, n_queries=80, rate_qps=1.5, seed=17)
        single = ShardedFleet(
            workload, [16, 16], static_allocator(8), config=config
        ).serve(iter(arrivals))
        multi = self._drive(
            ProcessShardExecutor(
                workload, [16, 16], static_allocator(8), config=config
            ),
            arrivals,
        )
        for got, want in zip(multi.pools, single.pools):
            assert got.stats == want.stats
        assert multi.summary() == single.summary()


class TestMergeProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_queries=st.integers(min_value=4, max_value=40),
        n_pools=st.integers(min_value=1, max_value=4),
        budget=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=5, deadline=None)
    def test_merge_equals_single_process_property(
        self, seed, n_queries, n_pools, budget
    ):
        workload = Workload(scale_factor=50, query_ids=QIDS)
        arrivals = poisson_arrivals(
            QIDS, n_queries=n_queries, rate_qps=1.0, seed=seed
        )
        pools = [16] * n_pools
        single = ShardedFleet(
            workload, pools, static_allocator(budget)
        ).serve(arrivals)
        multi = ProcessShardExecutor(
            workload, pools, static_allocator(budget)
        ).serve(arrivals)
        assert_identical_record_mode(multi, single)
