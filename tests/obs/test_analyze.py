"""TraceAnalyzer contracts: reconstructed timelines and skylines must
match the engine's own accounting, and the Sparklens round-trip must
rebuild the exact logs the engine recorded."""

import numpy as np
import pytest

from repro.fleet import (
    AutoscalerConfig,
    FleetConfig,
    FleetEngine,
    PoolSpec,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.obs import RingBufferTracer, TraceAnalyzer
from repro.sparklens.simulator import SparklensEstimator


@pytest.fixture(scope="module")
def arrivals(workload_small):
    return poisson_arrivals(
        workload_small.query_ids[:8], n_queries=24, rate_qps=0.6, seed=5
    )


@pytest.fixture(scope="module")
def traced_fleet(workload_small, arrivals):
    tracer = RingBufferTracer()
    metrics = FleetEngine(
        workload_small,
        capacity=24,
        allocator=static_allocator(5),
        config=FleetConfig(record_logs=True),
        tracer=tracer,
    ).serve(arrivals)
    return metrics, TraceAnalyzer(tracer.events)


@pytest.fixture(scope="module")
def traced_cluster(workload_small, arrivals):
    tracer = RingBufferTracer()
    metrics = ShardedFleet(
        workload_small,
        [
            PoolSpec(12),
            PoolSpec(12, autoscaler=AutoscalerConfig(min_capacity=8, max_capacity=24)),
        ],
        static_allocator(5),
        config=FleetConfig(record_logs=True),
        tracer=tracer,
    ).serve(arrivals)
    return metrics, TraceAnalyzer(tracer.events)


class TestTimelines:
    def test_timelines_match_records(self, traced_fleet):
        metrics, analyzer = traced_fleet
        timelines = analyzer.timelines()
        assert len(timelines) == metrics.n_queries
        for timeline, record in zip(timelines, metrics.records):
            assert timeline.query_id == record.query_id
            assert timeline.arrival_time == record.arrival_time
            assert timeline.admit_time == record.admit_time
            assert timeline.finish_time == record.finish_time
            assert timeline.latency == record.latency
            assert timeline.granted == record.executors_granted
            assert timeline.policy == "static"
            assert timeline.predicted_executors == 5
            assert timeline.tasks_assigned == timeline.tasks_completed

    def test_queue_delay_breakdown_sums(self, traced_fleet):
        metrics, analyzer = traced_fleet
        breakdown = analyzer.queue_delay_breakdown()
        assert breakdown["n_queries"] == metrics.n_queries
        # prediction delay + admission wait == record-level queue delay
        assert np.isclose(
            breakdown["mean_admission_wait_s"]
            + breakdown["mean_prediction_delay_s"],
            metrics.mean_queue_delay,
        )
        assert np.isclose(
            breakdown["mean_latency_s"],
            np.mean([r.latency for r in metrics.records]),
        )

    def test_pool_routing_recorded(self, traced_cluster):
        metrics, analyzer = traced_cluster
        for q, pool in enumerate(metrics.pool_of):
            assert analyzer.timeline(q).pool == pool


class TestPoolAccounting:
    def test_reserved_skyline_matches_engine(self, traced_fleet):
        metrics, analyzer = traced_fleet
        assert (
            analyzer.reserved_skyline(0).points == metrics.pool_skyline.points
        )

    def test_cluster_skylines_match_engine(self, traced_cluster):
        metrics, analyzer = traced_cluster
        assert analyzer.pools() == [0, 1]
        for p, pool in enumerate(metrics.pools):
            assert (
                analyzer.reserved_skyline(p).points == pool.pool_skyline.points
            )
        assert (
            analyzer.capacity_skyline(1).points
            == metrics.pools[1].capacity_skyline.points
        )

    def test_utilization_matches_engine(self, traced_cluster):
        metrics, analyzer = traced_cluster
        assert analyzer.serving_window() == (
            min(r.arrival_time for r in metrics.records),
            max(r.finish_time for r in metrics.records),
        )
        for p, pool in enumerate(metrics.pools):
            assert np.isclose(analyzer.utilization(p), pool.utilization())


class TestSparklensRoundTrip:
    def test_logs_match_engine_accounting(self, traced_cluster):
        """The acceptance criterion: trace-rebuilt ExecutionLogs carry the
        same per-stage total work and driver time as the engine's own
        record_log path."""
        metrics, analyzer = traced_cluster
        logs = analyzer.execution_logs()
        assert set(logs) == set(range(metrics.n_queries))
        for q, record in enumerate(metrics.records):
            traced, own = logs[q], record.execution_log
            assert traced.query_id == own.query_id
            assert traced.driver_seconds == own.driver_seconds
            assert traced.cores_per_executor == own.cores_per_executor
            assert traced.executors_used == own.executors_used
            assert len(traced.stages) == len(own.stages)
            for t_stage, o_stage in zip(traced.stages, own.stages):
                assert t_stage.dependencies == o_stage.dependencies
                assert (
                    t_stage.task_durations.shape == o_stage.task_durations.shape
                )
                assert np.isclose(
                    t_stage.task_durations.sum(), o_stage.task_durations.sum()
                )

    def test_estimator_round_trip(self, traced_fleet):
        """Feeding a traced log through Sparklens equals feeding the
        engine-recorded log through Sparklens."""
        metrics, analyzer = traced_fleet
        n_values = [2, 4, 8, 16]
        for q in (0, 5, 11):
            from_trace = analyzer.estimator(q).estimate_curve(n_values)
            from_engine = SparklensEstimator(
                metrics.records[q].execution_log
            ).estimate_curve(n_values)
            assert np.allclose(from_trace, from_engine)

    def test_unadmitted_query_raises(self, traced_fleet):
        _, analyzer = traced_fleet
        with pytest.raises(KeyError):
            analyzer.execution_log(999)
