"""Fleet-engine tests: determinism, capacity invariants, serving
semantics, metrics plumbing."""

import numpy as np
import pytest

from repro.core.selection import elbow_point, limited_slowdown, true_runtime_curve
from repro.engine.allocation import DynamicAllocation
from repro.engine.cluster import Cluster
from repro.engine.execution import SchedulerConfig
from repro.fleet import (
    AutoscalerConfig,
    CostAwareRouter,
    FairShareAdmission,
    FleetConfig,
    FleetEngine,
    PoolSpec,
    Prediction,
    QueryArrival,
    ShardedFleet,
    oracle_allocator,
    poisson_arrivals,
    static_allocator,
    trace_arrivals,
)
from repro.fleet.engine import PoolRuntime
from repro.workloads.generator import Workload
from repro.workloads.production import generate_production_trace

QIDS = ("q1", "q2", "q3", "q5", "q94")


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


class TestOracleAllocator:
    """The oracle is ``oracle_executors`` per query id: its decisions
    equal the objective applied to the true curve over the usable
    candidates, computed here the long way."""

    @pytest.mark.parametrize(
        "objective",
        [elbow_point, lambda grid, curve: limited_slowdown(grid, curve, 1.2)],
        ids=["elbow", "slowdown"],
    )
    def test_decisions_match_true_curve_selection(self, workload, objective):
        config = SchedulerConfig()
        for cluster in (Cluster(), Cluster(max_nodes=6)):
            allocate = oracle_allocator(
                workload, cluster, objective=objective, config=config
            )
            usable = [
                n
                for n in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48)
                if n <= cluster.max_executors
            ]
            for qid in QIDS:
                graph = workload.stage_graph(qid)
                curve = true_runtime_curve(graph, usable, cluster, config)
                expected = int(objective(np.asarray(usable), curve))
                assert allocate(qid, None) == expected
                assert allocate(qid, None) == expected  # memoized


class TestServingSemantics:
    def test_all_queries_complete(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=25, rate_qps=0.5, seed=0)
        metrics = FleetEngine(
            workload, capacity=32, allocator=static_allocator(8)
        ).serve(arrivals)
        assert metrics.n_queries == 25
        assert all(r.finish_time > r.admit_time for r in metrics.records)
        assert all(r.admit_time >= r.arrival_time for r in metrics.records)
        assert all(r.auc > 0 for r in metrics.records)

    def test_uncontended_pool_has_no_queueing(self, workload):
        """One query alone on a big pool is admitted instantly."""
        arrivals = [QueryArrival(0, "q1", 0, 0.0)]
        metrics = FleetEngine(
            workload, capacity=64, allocator=static_allocator(8)
        ).serve(arrivals)
        assert metrics.records[0].queue_delay == 0.0

    def test_contention_produces_queueing(self, workload):
        """A burst over a tiny pool must wait for capacity."""
        arrivals = [QueryArrival(i, "q1", i, 0.0) for i in range(6)]
        metrics = FleetEngine(
            workload, capacity=8, allocator=static_allocator(8)
        ).serve(arrivals)
        delays = [r.queue_delay for r in metrics.records]
        assert delays[0] == 0.0
        assert sum(d > 0 for d in delays) == 5  # the rest queued
        assert metrics.mean_queue_delay > 0

    def test_budgets_clamped_to_pool(self, workload):
        """A request bigger than the whole pool still gets served."""
        arrivals = [QueryArrival(0, "q1", 0, 0.0)]
        metrics = FleetEngine(
            workload, capacity=4, allocator=static_allocator(64)
        ).serve(arrivals)
        assert metrics.records[0].executors_granted == 4
        assert metrics.capacity_respected

    def test_prediction_overhead_charged_before_admission(self, workload):
        def slow_allocator(query_id, plan):
            return Prediction(executors=4, cached=False, seconds=2.5)

        arrivals = [QueryArrival(0, "q1", 0, 0.0)]
        metrics = FleetEngine(
            workload, capacity=32, allocator=slow_allocator
        ).serve(arrivals)
        record = metrics.records[0]
        assert record.admit_time == pytest.approx(2.5)
        assert record.prediction_seconds == 2.5
        assert record.prediction_cached is False

        uncharged = FleetEngine(
            workload,
            capacity=32,
            allocator=slow_allocator,
            config=FleetConfig(charge_prediction_overhead=False),
        ).serve(arrivals)
        assert uncharged.records[0].admit_time == pytest.approx(0.0)

    def test_shuffled_index_fields_do_not_mismatch_decisions(self, workload):
        """Regression: the engine used to mix positional and ``index``
        keying, silently pairing allocator decisions with the wrong
        queries whenever index fields did not equal list positions."""
        budgets = {"q1": 3, "q2": 5, "q3": 7}
        arrivals = [
            QueryArrival(7, "q1", 0, 0.0),
            QueryArrival(2, "q2", 1, 1.0),
            QueryArrival(11, "q3", 2, 2.0),
        ]

        def allocator(query_id, plan):
            return budgets[query_id]

        metrics = FleetEngine(
            workload, capacity=64, allocator=allocator
        ).serve(arrivals)
        assert [r.query_id for r in metrics.records] == ["q1", "q2", "q3"]
        for record in metrics.records:
            assert record.executors_granted == budgets[record.query_id]
            assert record.arrival_time == {
                "q1": 0.0, "q2": 1.0, "q3": 2.0
            }[record.query_id]

    def test_duplicate_indices_rejected(self, workload):
        arrivals = [
            QueryArrival(0, "q1", 0, 0.0),
            QueryArrival(0, "q2", 1, 1.0),
        ]
        with pytest.raises(ValueError, match="duplicate indices"):
            FleetEngine(
                workload, capacity=8, allocator=static_allocator(2)
            ).serve(arrivals)

    def test_idle_release_returns_capacity_early(self, workload):
        """With idle release on, tail stages run on fewer executors, so
        the fleet-wide occupancy drops versus holding budgets to the end."""
        arrivals = poisson_arrivals(QIDS, n_queries=10, rate_qps=0.2, seed=4)
        held = FleetEngine(
            workload,
            capacity=64,
            allocator=static_allocator(16),
            config=FleetConfig(idle_release_timeout=None),
        ).serve(arrivals)
        released = FleetEngine(
            workload,
            capacity=64,
            allocator=static_allocator(16),
            config=FleetConfig(idle_release_timeout=5.0),
        ).serve(arrivals)
        assert (
            released.total_executor_seconds < held.total_executor_seconds
        )


class TestCapacityInvariant:
    @pytest.mark.parametrize("admission", [None, FairShareAdmission()])
    @pytest.mark.parametrize("capacity", [8, 24, 64])
    def test_pool_never_overcommitted(self, workload, admission, capacity):
        arrivals = poisson_arrivals(QIDS, n_queries=40, rate_qps=2.0, seed=1)
        metrics = FleetEngine(
            workload,
            capacity=capacity,
            allocator=static_allocator(12),
            admission=admission,
        ).serve(arrivals)
        assert metrics.capacity_respected
        assert metrics.peak_pool_usage <= capacity

    def test_fair_share_helps_small_tenants_under_contention(self, workload):
        """Fair-share admits waiting small requests FIFO would block."""
        arrivals = [
            QueryArrival(0, "q1", 0, 0.0),   # big app warms the pool
            QueryArrival(1, "q1", 0, 0.1),   # big app asks again (blocked)
            QueryArrival(2, "q2", 1, 0.2),   # small tenant
        ]

        def allocator(query_id, plan):
            return {"q1": 12, "q2": 4}[query_id]

        fifo = FleetEngine(
            workload, capacity=16, allocator=allocator
        ).serve(arrivals)
        fair = FleetEngine(
            workload,
            capacity=16,
            allocator=allocator,
            admission=FairShareAdmission(),
        ).serve(arrivals)
        assert (
            fair.records[2].queue_delay < fifo.records[2].queue_delay
        )


class TestPoolRuntimeState:
    """What a pool runtime keeps between events, on an autoscaled
    cost-aware cluster: every tick and submit asks for pool views."""

    AUTO = AutoscalerConfig(
        min_capacity=8, max_capacity=32, scale_up_step=8, scale_up_lag_s=5.0
    )

    def serve(self, workload, config=FleetConfig()):
        arrivals = poisson_arrivals(QIDS, n_queries=40, rate_qps=1.5, seed=4)
        return ShardedFleet(
            workload,
            [PoolSpec(capacity=8, autoscaler=self.AUTO)] * 2,
            static_allocator(8),
            router=CostAwareRouter(),
            config=config,
        ).serve(arrivals)

    CONFIGS = pytest.mark.parametrize(
        "config",
        [
            FleetConfig(idle_release_timeout=2.0),
            FleetConfig(
                scaling=lambda budget: DynamicAllocation(
                    1, 2 * budget, idle_timeout=2.0
                )
            ),
        ],
        ids=["idle-release", "dynamic-scaling"],
    )

    @CONFIGS
    def test_record_mode_frees_every_run(self, workload, config, monkeypatch):
        runtimes = []
        finalize = PoolRuntime.finalize

        def capture(self, *args, **kwargs):
            runtimes.append(self)
            return finalize(self, *args, **kwargs)

        monkeypatch.setattr(PoolRuntime, "finalize", capture)
        metrics = self.serve(workload, config)
        assert len(metrics.records) == 40
        assert len(runtimes) == 2
        for runtime in runtimes:
            assert runtime.runs == {}
            assert runtime.active_queries == 0

    @CONFIGS
    def test_reused_views_equal_fresh_ones(self, workload, config, monkeypatch):
        seen = {"views": 0, "reused": 0}
        last = {}
        view = PoolRuntime.view

        def checked(self):
            got = view(self)
            assert got == self._build_view()
            seen["views"] += 1
            seen["reused"] += got is last.get(self.pool_index)
            last[self.pool_index] = got
            return got

        monkeypatch.setattr(PoolRuntime, "view", checked)
        metrics = self.serve(workload, config)
        assert metrics.n_queries == 40
        assert 0 < seen["reused"] < seen["views"]


class TestDeterminism:
    def test_same_seed_same_metrics(self, workload):
        """The fleet's core reproducibility contract: same seed + trace
        -> bit-identical fleet metrics."""
        trace = generate_production_trace(n_applications=200, seed=6)
        arrivals = trace_arrivals(trace, QIDS, n_queries=60, seed=6)

        def run():
            return FleetEngine(
                workload,
                capacity=48,
                allocator=static_allocator(8),
                admission=FairShareAdmission(),
            ).serve(arrivals)

        first, second = run(), run()
        assert first.summary() == second.summary()
        assert first.records == second.records
        assert first.pool_skyline.points == second.pool_skyline.points

    def test_different_seed_different_stream(self, workload):
        a = trace_arrivals(
            generate_production_trace(n_applications=200, seed=6),
            QIDS,
            n_queries=60,
            seed=6,
        )
        b = trace_arrivals(
            generate_production_trace(n_applications=200, seed=6),
            QIDS,
            n_queries=60,
            seed=7,
        )
        assert a != b


class TestMetrics:
    def test_percentiles_ordered(self, workload):
        arrivals = poisson_arrivals(QIDS, n_queries=30, rate_qps=1.0, seed=2)
        m = FleetEngine(
            workload, capacity=32, allocator=static_allocator(8)
        ).serve(arrivals)
        assert m.p50_latency <= m.p95_latency <= m.p99_latency
        assert 0.0 < m.utilization() <= 1.0
        assert m.total_dollar_cost > 0
        summary = m.summary()
        assert summary["n_queries"] == 30.0
        assert "describe" not in summary
        assert "queries served" in m.describe()

    def test_summary_captures_tail_queueing_and_cache_behavior(
        self, workload
    ):
        """Regression: summary() omitted max_queue_delay and the
        prediction cache hit rate, so benchmark JSON never captured the
        tail-queueing or cache behavior it asserts on."""
        arrivals = [QueryArrival(i, "q1", i, 0.0) for i in range(4)]

        def allocator(query_id, plan):
            return Prediction(executors=8, cached=True, seconds=0.0)

        m = FleetEngine(
            workload, capacity=8, allocator=allocator
        ).serve(arrivals)
        summary = m.summary()
        assert summary["max_queue_delay_s"] == m.max_queue_delay
        assert summary["max_queue_delay_s"] > 0
        assert summary["max_queue_delay_s"] >= summary["mean_queue_delay_s"]
        assert (
            summary["prediction_cache_hit_rate"]
            == m.prediction_cache_hit_rate()
        )
        assert summary["prediction_cache_hit_rate"] == 1.0
        # describe() stays in sync with the summary's headline numbers
        report = m.describe()
        assert "max queueing delay" in report
        assert "prediction cache hit" in report

    def test_empty_stream_rejected(self, workload):
        with pytest.raises(ValueError):
            FleetEngine(
                workload, capacity=8, allocator=static_allocator(2)
            ).serve([])


class TestStaticAllocatorValidation:
    """``static_allocator(2.5)`` used to allocate 2.5 executors and
    ``static_allocator(True)`` allocated ``True``."""

    @pytest.mark.parametrize("n", [0, -1, 2.5, 4.0, True])
    def test_non_positive_integer_budget_rejected(self, n):
        with pytest.raises(ValueError, match="n must"):
            static_allocator(n)


class TestTickIntervalValidation:
    """A zero or negative tick period spins the serve's tick chain in
    place forever; NaN fails deep in the serve.  The fleet's one tick
    knob is its ``SchedulerConfig``'s, which refuses them (and inf)
    before a ``FleetConfig`` can carry it."""

    @pytest.mark.parametrize("tick", [0.0, -1.0, float("nan"), float("inf")], ids=str)
    def test_bad_tick_interval_rejected(self, tick):
        with pytest.raises(ValueError, match="tick_interval"):
            FleetConfig(scheduler=SchedulerConfig(tick_interval=tick))

    def test_positive_tick_interval_accepted(self):
        config = FleetConfig(scheduler=SchedulerConfig(tick_interval=0.25))
        assert config.scheduler.tick_interval == 0.25


class TestIdleSettingsValidation:
    """``idle_release_timeout=nan`` used to serve like ``None`` and ``-5``
    released at every tick.  ``FleetConfig`` now refuses each, naming
    the field."""

    @pytest.mark.parametrize(
        "timeout", [-5.0, -1e-9, float("nan"), float("inf"), -float("inf")], ids=str
    )
    def test_bad_idle_release_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="idle_release_timeout"):
            FleetConfig(idle_release_timeout=timeout)

    @pytest.mark.parametrize("timeout", [None, 0.0, 0, 2.5, 30.0])
    def test_sensible_settings_accepted(self, timeout):
        config = FleetConfig(idle_release_timeout=timeout)
        assert config.idle_release_timeout == timeout


class TestStallGuard:
    def test_never_admitting_policy_raises_instead_of_hanging(
        self, workload
    ):
        """A custom policy that refuses everything must surface as an
        error, not an infinite tick chain."""

        class RejectAll:
            name = "reject_all"

            def pick(self, queue, free, app_usage):
                return None

        arrivals = [QueryArrival(0, "q1", 0, 0.0)]
        with pytest.raises(RuntimeError, match="admission stalled"):
            FleetEngine(
                workload,
                capacity=8,
                allocator=static_allocator(4),
                admission=RejectAll(),
            ).serve(arrivals)
