"""Streaming metrics: registry semantics, and the contract that
StreamingFleetStats reproduces FleetMetrics' summary within the sketch's
documented error bound — via both direct folding and sharded merging."""

import numpy as np
import pytest

from repro.fleet import (
    FleetEngine,
    PoolSpec,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.obs import Counter, MetricsRegistry, StreamingFleetStats


@pytest.fixture(scope="module")
def fleet_metrics(workload_small):
    arrivals = poisson_arrivals(
        workload_small.query_ids[:8], n_queries=40, rate_qps=0.8, seed=2
    )
    return FleetEngine(
        workload_small, capacity=24, allocator=static_allocator(5)
    ).serve(arrivals)


def fold(records) -> StreamingFleetStats:
    """``observe`` each record in turn, as a streaming serve does."""
    stats = StreamingFleetStats()
    for record in records:
        stats.observe(record)
    return stats


class TestRegistry:
    def test_counter_and_sketch(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.counter("served").inc(4)
        registry.sketch("latency").extend([1.0, 2.0])
        registry.sketch("latency").add(3.0)
        assert registry.counter("served").value == 5
        assert registry.sketch("latency").count == 3
        assert set(registry.counters) == {"served"}
        assert set(registry.sketches) == {"latency"}
        with pytest.raises(ValueError):
            registry.counter("served").inc(-1)

    def test_standalone_primitives_documented_semantics(self):
        counter = Counter("served")
        counter.inc(10)
        assert counter.value == 10


class TestStreamingFleetStats:
    def test_summary_within_sketch_bound(self, fleet_metrics):
        """p50/p95/p99 agree with the exact sorted-record percentiles
        within the documented relative-accuracy bound (plus the gap
        between neighbouring order statistics, which np.percentile's
        interpolation can span)."""
        streaming = fold(fleet_metrics.records)
        exact = fleet_metrics.summary()
        assert streaming.n_queries == exact["n_queries"]
        assert streaming.makespan == exact["makespan_s"]
        assert np.isclose(
            streaming.total_executor_seconds, exact["total_executor_seconds"]
        )
        latencies = np.sort([r.latency for r in fleet_metrics.records])
        for q in (50, 95, 99):
            estimate = streaming.latency.quantile(q)
            rank = max(1, int(np.ceil(q / 100 * len(latencies))))
            lo = latencies[max(0, rank - 2)]
            hi = latencies[min(len(latencies) - 1, rank)]
            assert lo * 0.98 <= estimate <= hi * 1.02, (q, estimate)
        assert np.isclose(
            streaming.queue_delay.mean, exact["mean_queue_delay_s"], rtol=0.02
        )
        assert np.isclose(
            streaming.queue_delay.max, exact["max_queue_delay_s"], rtol=0.02
        )

    def test_sharded_merge_equals_single_stream(self, fleet_metrics):
        """Splitting records across shards and merging reproduces the
        single-stream fold exactly — the associativity the obs layer
        promises distributed collectors."""
        records = fleet_metrics.records
        shards = [fold(records[i::3]) for i in range(3)]
        merged = shards[0].merge(shards[1]).merge(shards[2])
        single = fold(records)
        # Counts, extrema, sketch buckets and the mean queue delay come out
        # exact; other float sums depend on the merge tree's summation
        # order, so they are checked near-exact.
        assert merged.n_queries == single.n_queries
        assert merged.makespan == single.makespan
        assert merged.prediction_cache_hit_rate() == (
            single.prediction_cache_hit_rate()
        )
        for name in ("latency", "queue_delay", "run_seconds"):
            got, want = getattr(merged, name), getattr(single, name)
            assert got.count == want.count, name
            assert got.max == want.max and got.min == want.min, name
            for q in (50, 95, 99):
                assert got.quantile(q) == want.quantile(q), (name, q)
            assert np.isclose(got.mean, want.mean, rtol=1e-12), name
        assert merged.queue_delay.mean == single.queue_delay.mean
        assert np.isclose(
            merged.total_executor_seconds, single.total_executor_seconds, rtol=1e-12
        )

    def test_cluster_streaming(self, workload_small):
        """Each pool's records folded, then merged — the path a
        distributed collector would take — matches the cluster's own
        counts and serving window."""
        arrivals = poisson_arrivals(
            workload_small.query_ids[:6], n_queries=20, rate_qps=0.7, seed=4
        )
        cluster = ShardedFleet(
            workload_small, [PoolSpec(12), PoolSpec(12)], static_allocator(4)
        ).serve(arrivals)
        streaming = StreamingFleetStats()
        for pool in cluster.pools:
            streaming = streaming.merge(fold(pool.records))
        assert streaming.n_queries == cluster.n_queries
        assert np.isclose(streaming.makespan, cluster.makespan)
