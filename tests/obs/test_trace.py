"""Tracing contracts: sinks, the event taxonomy, and the two guarantees
that make tracing safe to ship — the no-op default changes nothing, and a
traced run is deterministic down to the serialized byte."""

import hashlib
import io
import json

import pytest

from repro.engine.allocation import BudgetAllocation
from repro.engine.cluster import Cluster
from repro.engine.faults import FaultPlan, SpotMarket
from repro.engine.scheduler import simulate_query
from repro.fleet import (
    AutoscalerConfig,
    FleetConfig,
    FleetEngine,
    PoolSpec,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.obs import (
    EVENT_KINDS,
    JsonlTracer,
    RingBufferTracer,
    TraceEvent,
    read_jsonl,
)


@pytest.fixture(scope="module")
def arrivals(workload_small):
    return poisson_arrivals(
        workload_small.query_ids[:8], n_queries=24, rate_qps=0.6, seed=5
    )


def serve_traced(workload, arrivals, tracer, faults=None):
    engine = FleetEngine(
        workload,
        capacity=24,
        allocator=static_allocator(5),
        config=FleetConfig(faults=faults),
        tracer=tracer,
    )
    return engine.serve(arrivals)


class TestSinks:
    def test_ring_buffer_orders_and_counts(self, workload_small, arrivals):
        tracer = RingBufferTracer()
        serve_traced(workload_small, arrivals, tracer)
        events = tracer.events
        assert len(tracer) == len(events) > 0
        assert all(isinstance(e, TraceEvent) for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)
        counts = tracer.counts()
        assert counts["query_finish"] == 24
        assert sum(counts.values()) == len(events)
        tracer.clear()
        assert len(tracer) == 0

    def test_ring_buffer_capacity_keeps_newest(self):
        tracer = RingBufferTracer(capacity=3)
        for i in range(10):
            tracer.emit(TraceEvent(float(i), "tick-test", data={"i": i}))
        assert [e.time for e in tracer.events] == [7.0, 8.0, 9.0]

    @pytest.mark.parametrize("capacity", [0, -3, 2.5, True])
    def test_ring_buffer_rejects_bad_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            RingBufferTracer(capacity=capacity)

    def test_jsonl_round_trip(self, tmp_path, workload_small, arrivals):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            serve_traced(workload_small, arrivals, tracer)
            written = tracer.events_written
        loaded = list(read_jsonl(path))
        assert len(loaded) == written
        ring = RingBufferTracer()
        serve_traced(workload_small, arrivals, ring)
        assert loaded == list(ring.events)

    def test_event_json_round_trip(self):
        event = TraceEvent(
            1.5, "task_assign", 2, 7, "q42", {"stage": 1, "duration_s": 0.25}
        )
        assert TraceEvent.from_json(event.to_json()) == event
        assert json.loads(event.to_json())["kind"] == "task_assign"


class TestTaxonomy:
    def test_emitted_kinds_are_registered(self, workload_small, arrivals):
        """Every kind the engines emit is in the documented vocabulary."""
        tracer = RingBufferTracer()
        serve_traced(
            workload_small,
            arrivals,
            tracer,
            faults=FaultPlan(seed=3, crash_rate=0.0004),
        )
        assert set(tracer.counts()) <= EVENT_KINDS.keys()

    def test_lifecycle_kinds_present(self, workload_small, arrivals):
        tracer = RingBufferTracer()
        serve_traced(workload_small, arrivals, tracer)
        kinds = set(tracer.counts())
        for kind in (
            "serve_begin",
            "query_arrive",
            "query_predict",
            "query_submit",
            "query_admit",
            "stage_ready",
            "task_assign",
            "stage_done",
            "driver_done",
            "exec_add",
            "grant_release",
            "query_finish",
            "serve_end",
        ):
            assert kind in kinds, kind


class TestZeroCostOff:
    """tracer=None must be indistinguishable from the pre-tracing engine."""

    def test_fleet_bit_identical(self, workload_small, arrivals):
        untraced = FleetEngine(
            workload_small, capacity=24, allocator=static_allocator(5)
        ).serve(arrivals)
        traced = serve_traced(workload_small, arrivals, RingBufferTracer())
        assert untraced.records == traced.records
        assert untraced.pool_skyline.points == traced.pool_skyline.points
        assert untraced.summary() == traced.summary()

    def test_dedicated_run_bit_identical(self, workload_small, cluster):
        graph = workload_small.stage_graph(workload_small.query_ids[0])
        base = simulate_query(graph, BudgetAllocation(8), cluster)
        traced = simulate_query(
            graph, BudgetAllocation(8), cluster, tracer=RingBufferTracer()
        )
        assert traced.runtime == base.runtime
        assert traced.auc == base.auc
        assert traced.skyline.points == base.skyline.points

    def test_sharded_bit_identical(self, workload_small, arrivals):
        pools = [PoolSpec(12), PoolSpec(12)]
        base = ShardedFleet(
            workload_small, pools, static_allocator(5)
        ).serve(arrivals)
        traced = ShardedFleet(
            workload_small, pools, static_allocator(5), tracer=RingBufferTracer()
        ).serve(arrivals)
        assert base.records == traced.records
        assert base.summary() == traced.summary()


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(
        self, tmp_path, workload_small, arrivals
    ):
        """Two traced serves of the same stream write identical bytes."""
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with JsonlTracer(path) as tracer:
                ShardedFleet(
                    workload_small,
                    [PoolSpec(12), PoolSpec(12)],
                    static_allocator(5),
                    config=FleetConfig(faults=FaultPlan(seed=9, crash_rate=0.0003)),
                    tracer=tracer,
                ).serve(arrivals)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0


class TestPinnedBytes:
    """One fixed traced serve, hashed: crashes, spot reclaims, an
    autoscaled pool and idle release all reach the log.  Any change to
    what is emitted or how it serializes moves the digest; a deliberate
    format change re-records it."""

    DIGEST = "e1d64302cee5ff46ba151ef8c7653e16bc2e3f4a803477bbe8150c69f98fc874"

    def test_jsonl_digest(self, workload_small):
        arrivals = poisson_arrivals(
            workload_small.query_ids[:6], n_queries=30, rate_qps=1.2, seed=11
        )
        pools = [
            PoolSpec(
                capacity=10,
                autoscaler=AutoscalerConfig(min_capacity=10, max_capacity=16),
            ),
            PoolSpec(capacity=10),
        ]
        faults = FaultPlan(
            seed=3,
            crash_rate=1 / 600.0,
            spot=SpotMarket(fraction=0.5, reclaim_rate=1 / 100.0),
        )
        log = io.StringIO()
        ShardedFleet(
            workload_small,
            pools,
            static_allocator(4),
            config=FleetConfig(idle_release_timeout=10.0, faults=faults),
            tracer=JsonlTracer(log),
        ).serve(arrivals)
        text = log.getvalue()
        events = read_jsonl(text.splitlines())
        kinds = {e.kind for e in events}
        assert {"autoscale_up", "exec_remove", "task_kill"} <= kinds
        causes = {e.data["cause"] for e in events if e.kind == "exec_fail"}
        assert causes == {"crash", "reclaim"}
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
