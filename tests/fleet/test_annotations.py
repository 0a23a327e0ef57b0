"""Regression: fleet records carry allocator metadata uniformly.

Every driver (single pool and sharded) must attach the allocator's
policy name and its pre-clamp decision to each QueryRecord — the fix for
records that previously said *what* was granted but never *who decided*
or what the decision was before the pool truncated it.
"""

import pytest

from repro.core.ppm import PowerLawPPM
from repro.fleet import (
    FleetEngine,
    PoolSpec,
    PredictionService,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.obs import RingBufferTracer, TraceAnalyzer


class FixedScorer:
    """Scorer with a constant curve (keeps the elbow deterministic)."""

    def predict_ppm(self, features):
        return PowerLawPPM(a=-0.8, b=400.0, m=10.0)

    def predict_ppm_batch(self, matrix):
        return [self.predict_ppm(row) for row in matrix]


@pytest.fixture(scope="module")
def arrivals(workload_small):
    return poisson_arrivals(
        workload_small.query_ids[:6], n_queries=12, rate_qps=0.5, seed=1
    )


def test_static_records_annotated(workload_small, arrivals):
    metrics = FleetEngine(
        workload_small, capacity=16, allocator=static_allocator(40)
    ).serve(arrivals)
    for record in metrics.records:
        assert record.annotations["policy"] == "static"
        # The pre-clamp decision survives next to the truncated grant.
        assert record.annotations["predicted_executors"] == 40
        assert record.executors_granted == 16


def test_prediction_records_annotated(workload_small, arrivals):
    service = PredictionService(FixedScorer())
    metrics = FleetEngine(
        workload_small, capacity=32, allocator=service.allocate
    ).serve(arrivals)
    for record in metrics.records:
        assert record.annotations["policy"] == "prediction"
        assert record.annotations["predicted_executors"] >= 1


def test_sharded_records_annotated_identically(workload_small, arrivals):
    single = FleetEngine(
        workload_small, capacity=16, allocator=static_allocator(6)
    ).serve(arrivals)
    sharded = ShardedFleet(
        workload_small, [PoolSpec(16)], static_allocator(6)
    ).serve(arrivals)
    assert [r.annotations for r in sharded.records] == [
        r.annotations for r in single.records
    ]


def test_annotations_match_traced_policy(workload_small, arrivals):
    """The record-level annotations and the trace's query_predict events
    report the same decision."""
    tracer = RingBufferTracer()
    metrics = FleetEngine(
        workload_small,
        capacity=16,
        allocator=static_allocator(6),
        tracer=tracer,
    ).serve(arrivals)
    analyzer = TraceAnalyzer(tracer.events)
    for q, record in enumerate(metrics.records):
        timeline = analyzer.timeline(q)
        assert timeline.policy == record.annotations["policy"]
        assert (
            timeline.predicted_executors
            == record.annotations["predicted_executors"]
        )


def test_unnamed_allocator_records_custom_policy(workload_small, arrivals):
    metrics = FleetEngine(
        workload_small, capacity=16, allocator=lambda query_id, plan: 2
    ).serve(arrivals)
    for record in metrics.records:
        assert record.annotations == {"policy": "custom", "predicted_executors": 2}
