"""Streaming-mode serving: record-mode parity within the sketch bound,
the mode switch, and O(1) memory."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faults import FaultPlan, SpotMarket
from repro.engine.stages import Stage, StageGraph
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    PoolSpec,
    QueryArrival,
    ShardedFleet,
    poisson_arrival_stream,
    poisson_arrivals,
    static_allocator,
)
from repro.fleet.metrics import QueryRecord, SkylineTracker
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")
ALPHA = 0.01  # the streaming sketches' relative accuracy


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


class MicroWorkload:
    """Tiny fixed stage graphs — fast enough for 50k-query serves."""

    def __init__(self):
        self._graphs = {
            "m0": StageGraph(
                stages=[Stage(stage_id=0, num_tasks=1, task_seconds=0.5)],
                query_id="m0",
            ),
            "m1": StageGraph(
                stages=[Stage(stage_id=0, num_tasks=2, task_seconds=1.0)],
                query_id="m1",
            ),
            "m2": StageGraph(
                stages=[Stage(stage_id=0, num_tasks=3, task_seconds=0.8)],
                query_id="m2",
            ),
        }

    def optimized_plan(self, query_id):
        return None  # static allocators never read the plan

    def stage_graph(self, query_id):
        return self._graphs[query_id]


def sketch_bracket(latencies, q, alpha=ALPHA):
    """The (lo, hi) order-statistic bracket the sketch quantile must hit.

    Same convention as tests/obs/test_sketch.py: relative error alpha
    against the rank-q order statistic, widened to both neighbours to
    absorb rank ties at bucket boundaries.
    """
    ranks = np.sort(np.asarray(latencies))
    k = int(np.ceil(q / 100 * len(ranks)))
    lo = ranks[max(0, k - 2)]
    hi = ranks[min(len(ranks) - 1, k)]
    return lo * (1 - 2 * alpha), hi * (1 + 2 * alpha)


#: Keys both modes fold from the same steps and extrema: equal, not close.
EXACT_KEYS = {
    "makespan_s",
    "max_queue_delay_s",
    "utilization",
    "provisioned_executor_seconds",
    "peak_pool_usage",
}


def assert_streaming_matches_records(streamed, recorded):
    """Windows, extrema, capacity areas and the capacity check equal;
    sums equal up to summation order (finish vs stream order);
    percentiles inside the sketch bracket."""
    sr, ss = recorded.summary(), streamed.summary()
    assert set(sr) == set(ss)
    latencies = [r.latency for r in recorded.records]
    delays = [r.queue_delay for r in recorded.records]
    for key, value in sr.items():
        if key.startswith("p") and key.endswith("_latency_s"):
            q = int(key[1:-10])
            lo, hi = sketch_bracket(latencies, q)
            assert lo <= ss[key] <= hi, (key, ss[key], lo, hi)
        elif key in EXACT_KEYS:
            assert ss[key] == sr[key], key
        elif key == "mean_queue_delay_s":
            # Means are exact sums; only summation order differs.
            assert ss[key] == pytest.approx(sr[key], rel=1e-9, abs=1e-9)
            assert max(delays, default=0.0) == pytest.approx(
                streamed.max_queue_delay
            )
        else:
            assert ss[key] == pytest.approx(sr[key], rel=1e-9, abs=1e-12), key
    assert streamed.reserved_executor_seconds == recorded.reserved_executor_seconds
    assert streamed.capacity_respected == recorded.capacity_respected


class TestConfigNormalization:
    def test_true_means_defaults(self, workload):
        streamed = FleetEngine(
            workload,
            capacity=16,
            allocator=static_allocator(4),
            config=FleetConfig(streaming=True),
        ).serve(poisson_arrivals(QIDS, n_queries=10, rate_qps=1.0, seed=0))
        assert streamed.records == []
        assert streamed.stats.latency.relative_accuracy == ALPHA

    def test_false_means_off(self):
        assert FleetConfig(streaming=False).streaming is False
        assert FleetConfig().streaming is False

    def test_record_mode_keeps_records(self, workload):
        metrics = FleetEngine(
            workload, capacity=16, allocator=static_allocator(4)
        ).serve(poisson_arrivals(QIDS, n_queries=10, rate_qps=1.0, seed=0))
        assert len(metrics.records) == 10
        # Records stay the source of the exact percentiles.
        assert metrics.p95_latency == float(
            np.percentile([r.latency for r in metrics.records], 95)
        )


class TestStreamValidation:
    def test_out_of_order_stream_rejected(self, workload):
        arrivals = [
            QueryArrival(0, "q1", 0, 5.0),
            QueryArrival(1, "q1", 0, 1.0),
        ]
        engine = FleetEngine(
            workload,
            capacity=16,
            allocator=static_allocator(4),
            config=FleetConfig(streaming=True),
        )
        with pytest.raises(ValueError, match="time-ordered"):
            engine.serve(iter(arrivals))

    def test_empty_stream_rejected(self, workload):
        engine = FleetEngine(
            workload,
            capacity=16,
            allocator=static_allocator(4),
            config=FleetConfig(streaming=True),
        )
        with pytest.raises(ValueError, match="empty"):
            engine.serve(iter([]))
        fleet = ShardedFleet(
            workload,
            [16],
            static_allocator(4),
            config=FleetConfig(streaming=True),
        )
        with pytest.raises(ValueError, match="empty"):
            fleet.serve(iter([]))


class TestEngineParity:
    def test_summary_within_sketch_bound(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=300, rate_qps=2.0, seed=7)
        recorded = FleetEngine(
            workload, capacity=32, allocator=static_allocator(8)
        ).serve(arrivals)
        streamed = FleetEngine(
            workload,
            capacity=32,
            allocator=static_allocator(8),
            config=FleetConfig(streaming=True),
        ).serve(iter(arrivals))
        assert streamed.records == []
        assert streamed.stats is not None
        assert_streaming_matches_records(streamed, recorded)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_late_grant_after_last_finish(self, seed):
        """Regression: a grant still in its provisioning ramp when its
        query finishes comes back after the pool's last finish, so the
        window ends before the tracker's last step.  Streaming used to
        integrate to that step and take the overshoot back at the
        step's own (lower) value, over-billing reserved executor-seconds
        (680 vs 662 on seed 0)."""
        arrivals = poisson_arrivals(("m0",), n_queries=20, rate_qps=0.5, seed=seed)
        runs = [
            FleetEngine(
                MicroWorkload(),
                capacity=16,
                allocator=static_allocator(8),
                config=FleetConfig(idle_release_timeout=None, streaming=streaming),
            ).serve(iter(arrivals))
            for streaming in (None, True)
        ]
        recorded, streamed = runs
        # The repro: the last pool step lands after the last finish.
        last_step = recorded.pool_skyline.points[-1][0]
        assert last_step > max(r.finish_time for r in recorded.records)
        assert_streaming_matches_records(streamed, recorded)
        assert streamed.utilization() == recorded.utilization()

    def test_generator_and_list_streams_agree(self, workload):
        config = FleetConfig(streaming=True)
        stream = list(
            poisson_arrival_stream(QIDS, n_queries=80, rate_qps=1.0, seed=3)
        )
        a = FleetEngine(
            workload, capacity=24, allocator=static_allocator(6), config=config
        ).serve(iter(stream))
        b = FleetEngine(
            workload, capacity=24, allocator=static_allocator(6), config=config
        ).serve(stream)
        assert a.stats == b.stats

    def test_fault_ledger_parity(self, workload):
        plan = FaultPlan(
            seed=5,
            crash_rate=1 / 5000.0,
            straggler_rate=0.05,
            spot=SpotMarket(fraction=0.5, discount=0.35, reclaim_rate=1 / 2000.0),
        )
        arrivals = poisson_arrivals(QIDS, n_queries=120, rate_qps=1.0, seed=11)
        recorded = FleetEngine(
            workload,
            capacity=24,
            allocator=static_allocator(8),
            config=FleetConfig(faults=plan),
        ).serve(arrivals)
        streamed = FleetEngine(
            workload,
            capacity=24,
            allocator=static_allocator(8),
            config=FleetConfig(faults=plan, streaming=True),
        ).serve(iter(arrivals))
        assert_streaming_matches_records(streamed, recorded)
        rf, sf = recorded.fault_stats, streamed.fault_stats
        assert rf.crashes == sf.crashes
        assert rf.reclamations == sf.reclamations
        assert rf.task_retries == sf.task_retries
        assert rf.tasks_started == sf.tasks_started
        assert rf.wasted_task_seconds == pytest.approx(sf.wasted_task_seconds)
        assert rf.billed_executor_seconds == pytest.approx(
            sf.billed_executor_seconds
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_queries=st.integers(min_value=5, max_value=60),
        rate=st.floats(min_value=0.2, max_value=4.0),
        capacity=st.integers(min_value=8, max_value=48),
    )
    @settings(max_examples=10, deadline=None)
    def test_percentiles_within_bound_property(
        self, seed, n_queries, rate, capacity
    ):
        workload = Workload(scale_factor=50, query_ids=QIDS)
        arrivals = poisson_arrivals(
            QIDS, n_queries=n_queries, rate_qps=rate, seed=seed
        )
        recorded = FleetEngine(
            workload, capacity=capacity, allocator=static_allocator(6)
        ).serve(arrivals)
        streamed = FleetEngine(
            workload,
            capacity=capacity,
            allocator=static_allocator(6),
            config=FleetConfig(streaming=True),
        ).serve(iter(arrivals))
        assert_streaming_matches_records(streamed, recorded)


class TestClusterParity:
    def test_sharded_summary_within_bound(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=300, rate_qps=2.0, seed=7)
        recorded = ShardedFleet(
            workload, [16, 16, 16], static_allocator(8)
        ).serve(arrivals)
        streamed = ShardedFleet(
            workload,
            [16, 16, 16],
            static_allocator(8),
            config=FleetConfig(streaming=True),
        ).serve(iter(arrivals))
        assert streamed.records == []
        assert streamed.pool_of == []
        assert_streaming_matches_records(streamed, recorded)

    def test_autoscaled_pools_stream(self, workload):
        from repro.fleet.autoscaler import AutoscalerConfig

        spec = PoolSpec(
            capacity=8,
            autoscaler=AutoscalerConfig(min_capacity=4, max_capacity=32),
        )
        arrivals = poisson_arrivals(QIDS, n_queries=120, rate_qps=1.0, seed=11)
        recorded = ShardedFleet(
            workload, [spec, spec], static_allocator(8)
        ).serve(arrivals)
        streamed = ShardedFleet(
            workload,
            [spec, spec],
            static_allocator(8),
            config=FleetConfig(streaming=True),
        ).serve(iter(arrivals))
        assert_streaming_matches_records(streamed, recorded)
        for s_pool, r_pool in zip(streamed.pools, recorded.pools):
            assert_streaming_matches_records(s_pool, r_pool)


class TestMemoryFlatness:
    """Regression for the eager-free audit: per-query state must die as
    queries finish, keeping live objects flat across a 50k-query serve."""

    def test_live_objects_flat_across_50k_serve(self):
        from repro.engine.skyline import Skyline

        samples = []

        def counting_stream():
            # 30 qps keeps the 4x48/budget-2 pools comfortably below
            # saturation: an oversubscribed stream grows the waiting
            # queue, and with it live run state, without bound.
            inner = poisson_arrival_stream(
                ("m1", "m2"), n_queries=50_000, rate_qps=30.0, seed=42
            )
            for i, arrival in enumerate(inner):
                if i and i % 12_500 == 0:
                    gc.collect()
                    records = 0
                    skylines = 0
                    steps = 0
                    for obj in gc.get_objects():
                        if isinstance(obj, QueryRecord):
                            records += 1
                        elif isinstance(obj, Skyline):
                            skylines += 1
                        elif isinstance(obj, SkylineTracker):
                            steps = max(steps, len(obj.steps))
                    samples.append((records, skylines, steps))
                yield arrival

        config = FleetConfig(idle_release_timeout=None, streaming=True)
        metrics = ShardedFleet(
            MicroWorkload(),
            [48, 48, 48, 48],
            static_allocator(2),
            config=config,
        ).serve(counting_stream())
        assert metrics.n_queries == 50_000
        assert metrics.records == []
        assert len(samples) == 3
        for records, skylines, steps in samples:
            # Finished queries leave no record behind; live skylines are
            # bounded by in-flight queries (192 executors / 2 per query),
            # not by how many queries have been served; a usage tracker
            # keeps only the steps since its pool's latest finish.
            assert records <= 2, samples
            assert skylines <= 300, samples
            assert steps <= 50, samples

    def test_features_memo_bounded_across_unique_ids(self, workload):
        """The allocator-side featurization memo obeys its LRU bound
        even when every arrival carries a fresh query id — sampled
        mid-stream, like the live-object counts above, so growth can't
        hide behind an end-of-run assertion."""
        from repro.core.ppm import PowerLawPPM
        from repro.fleet.prediction import PredictionService

        class FixedScorer:
            def predict_ppm(self, features):
                return PowerLawPPM(a=-0.8, b=60.0, m=2.0)

            def predict_ppm_batch(self, matrix):
                return [self.predict_ppm(row) for row in matrix]

        class RecurringPlan:
            """One real plan behind an endless supply of query ids."""

            def __init__(self, base):
                self._plan = base.optimized_plan("q1")
                self._graph = base.stage_graph("q1")

            def optimized_plan(self, query_id):
                return self._plan

            def stage_graph(self, query_id):
                return self._graph

        service = PredictionService(FixedScorer(), max_executors=4)
        service.features_memo_size = 16
        samples = []

        def stream():
            for i in range(600):
                if i and i % 150 == 0:
                    samples.append(len(service._features_by_query))
                yield QueryArrival(i, f"u{i}", 0, i * 0.1)

        metrics = FleetEngine(
            RecurringPlan(workload),
            capacity=48,
            allocator=service.allocate,
            config=FleetConfig(streaming=True),
        ).serve(stream())
        assert metrics.stats.n_queries == 600
        assert len(samples) == 3
        assert all(s <= 16 for s in samples), samples
        assert len(service._features_by_query) == 16
        # Eviction never costs a wrong answer: one signature, one miss.
        assert service.misses == 1
        assert service.hits == 599

    def test_streaming_pool_drops_finished_runs(self, workload):
        """After a streaming serve the engine keeps no per-query state:
        the metrics carry only accumulators."""
        arrivals = poisson_arrivals(QIDS, n_queries=50, rate_qps=1.0, seed=9)
        streamed = FleetEngine(
            workload,
            capacity=24,
            allocator=static_allocator(8),
            config=FleetConfig(streaming=True),
        ).serve(iter(arrivals))
        assert streamed.records == []
        assert streamed.stats.n_queries == 50
        # The streaming skyline is a compact summary, not a per-event log.
        assert len(streamed.pool_skyline.points) <= 2


class TestArrivalStream:
    def test_deterministic_given_seed(self):
        a = list(poisson_arrival_stream(QIDS, n_queries=50, rate_qps=2.0, seed=1))
        b = list(poisson_arrival_stream(QIDS, n_queries=50, rate_qps=2.0, seed=1))
        assert a == b

    def test_time_ordered_from_zero(self):
        stream = list(
            poisson_arrival_stream(QIDS, n_queries=100, rate_qps=2.0, seed=3)
        )
        assert stream[0].arrival_time == 0.0
        times = [a.arrival_time for a in stream]
        assert times == sorted(times)
        assert [a.index for a in stream] == list(range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            next(poisson_arrival_stream(QIDS, n_queries=0, rate_qps=1.0))
        with pytest.raises(ValueError):
            next(poisson_arrival_stream(QIDS, n_queries=5, rate_qps=0.0))
        with pytest.raises(ValueError):
            next(poisson_arrival_stream((), n_queries=5, rate_qps=1.0))
        with pytest.raises(ValueError):
            next(poisson_arrival_stream(QIDS, n_queries=5, rate_qps=1.0, n_apps=0))
