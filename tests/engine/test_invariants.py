"""Property-based invariants: random DAGs × fault schedules × policies.

The fault layer (:mod:`repro.engine.faults`) perturbs the engine in ways
no example-based test can enumerate — crashes land mid-wave, stragglers
stack with spill factors, spot reclamations race idle releases.  This
suite pins the properties that must survive *any* such combination:

- **conservation of work** — every stage's tasks eventually complete;
  task starts equal the plan's task count plus the retries failures
  forced;
- **capacity** — no skyline breakpoint ever exceeds the provisioned
  ceiling, dedicated or pooled;
- **clock monotonicity** — skylines and query records only move forward
  in time;
- **occupancy accounting** — the skyline integral equals the classified
  (spot + on-demand) executor-seconds, and the discounted bill never
  exceeds the undiscounted one: wasted work is *inside* the skyline, so
  billing stays conservative under every fault schedule.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.allocation import (
    BudgetAllocation,
    DynamicAllocation,
    StaticAllocation,
)
from repro.engine.cluster import Cluster
from repro.engine.faults import FaultInjector, FaultPlan, FaultStats, SpotMarket
from repro.engine.scheduler import simulate_query
from repro.engine.stages import Stage, StageGraph
from repro.fleet.arrivals import QueryArrival
from repro.fleet.engine import FleetConfig, FleetEngine, static_allocator

CLUSTER = Cluster()


@st.composite
def stage_graphs(draw):
    """Random small DAGs: ragged widths, skew, tick-colliding drivers."""
    n_stages = draw(st.integers(1, 5))
    stages = []
    for sid in range(n_stages):
        deps = (
            sorted(
                draw(
                    st.sets(st.integers(0, sid - 1), min_size=0, max_size=min(sid, 2))
                )
            )
            if sid
            else []
        )
        stages.append(
            Stage(
                stage_id=sid,
                num_tasks=draw(st.integers(1, 24)),
                task_seconds=draw(
                    st.floats(0.1, 6.0, allow_nan=False, allow_infinity=False)
                ),
                dependencies=deps,
                skew_fraction=draw(st.floats(0.0, 0.3)),
                skew_factor=draw(st.floats(1.0, 2.0)),
            )
        )
    return StageGraph(
        stages=stages,
        driver_seconds=draw(st.sampled_from([0.0, 1.0, 2.5])),
        working_set_bytes=draw(st.sampled_from([0.0, 200 * 1024**3])),
        query_id="inv",
    )


@st.composite
def fault_plans(draw):
    """Random active fault schedules (replacement on, so runs terminate)."""
    spot = draw(
        st.one_of(
            st.none(),
            st.builds(
                SpotMarket,
                fraction=st.sampled_from([0.3, 1.0]),
                discount=st.sampled_from([0.1, 0.35, 1.0]),
                reclaim_rate=st.sampled_from([0.0, 1.0 / 40.0, 1.0 / 200.0]),
            ),
        )
    )
    return FaultPlan(
        seed=draw(st.integers(0, 999)),
        crash_rate=draw(st.sampled_from([0.0, 1.0 / 30.0, 1.0 / 150.0])),
        straggler_rate=draw(st.sampled_from([0.0, 0.2, 0.6])),
        straggler_factor=draw(st.sampled_from([1.5, 4.0])),
        spot=spot,
    )


@st.composite
def policies(draw):
    budget = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["budget", "static", "dynamic"]))
    if kind == "budget":
        return BudgetAllocation(
            budget, idle_timeout=draw(st.sampled_from([None, 2.0]))
        )
    if kind == "static":
        return StaticAllocation(budget)
    return DynamicAllocation(1, max(2, budget), idle_timeout=5.0)


def assert_clock_monotone(skyline):
    times = [t for t, _ in skyline.points]
    assert times == sorted(times)
    assert all(count >= 0 for _, count in skyline.points)


class TestSingleQueryInvariants:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=stage_graphs(), plan=fault_plans(), policy=policies())
    def test_conservation_capacity_accounting(self, graph, plan, policy):
        result = simulate_query(graph, policy, CLUSTER, faults=plan)

        # clock monotonicity + capacity at every breakpoint
        assert_clock_monotone(result.skyline)
        assert result.runtime >= graph.driver_seconds
        assert result.max_executors <= CLUSTER.max_executors

        stats = result.fault_stats
        if not plan.active:
            assert stats is None
            return

        # conservation of work: every task completed exactly once beyond
        # the re-executions failures forced
        assert stats.tasks_started == graph.total_tasks + stats.tasks_killed
        assert stats.replacements == stats.failures

        # occupancy accounting: every executor-second is classified, and
        # the discounted bill never exceeds the undiscounted skyline
        classified = stats.spot_executor_seconds + stats.ondemand_executor_seconds
        assert classified == pytest.approx(result.auc, rel=1e-9, abs=1e-9)
        assert stats.billed_executor_seconds <= result.auc + 1e-9

        # wasted (destroyed) work happened on allocated cores, so it is
        # bounded by the skyline's core-seconds
        assert 0.0 <= stats.wasted_task_seconds
        assert stats.wasted_task_seconds <= (
            result.auc * CLUSTER.cores_per_executor + 1e-9
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(graph=stage_graphs(), plan=fault_plans())
    def test_same_seed_bit_identical_different_seed_differs(self, graph, plan):
        policy = BudgetAllocation(8, idle_timeout=5.0)
        first = simulate_query(graph, policy, CLUSTER, faults=plan)
        second = simulate_query(graph, policy, CLUSTER, faults=plan)
        assert first.runtime == second.runtime
        assert first.auc == second.auc
        assert first.skyline.points == second.skyline.points
        if plan.active:
            assert first.fault_stats == second.fault_stats


class _GraphWorkload:
    """Minimal workload stub serving one explicit stage graph."""

    def __init__(self, graph):
        self._graph = graph

    def stage_graph(self, query_id):
        return self._graph

    def optimized_plan(self, query_id):
        return None


class TestFleetInvariants:
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=stage_graphs(),
        plan=fault_plans(),
        capacity=st.integers(4, 32),
        budget=st.integers(1, 16),
        n_queries=st.integers(1, 8),
        data=st.data(),
    )
    def test_stream_conserves_work_and_capacity(
        self, graph, plan, capacity, budget, n_queries, data
    ):
        gaps = data.draw(
            st.lists(
                st.floats(0.0, 30.0, allow_nan=False),
                min_size=n_queries,
                max_size=n_queries,
            )
        )
        times = np.cumsum(gaps)
        arrivals = [
            QueryArrival(i, "inv", i % 3, float(times[i])) for i in range(n_queries)
        ]
        metrics = FleetEngine(
            _GraphWorkload(graph),
            capacity=capacity,
            allocator=static_allocator(budget),
            config=FleetConfig(idle_release_timeout=5.0, faults=plan),
        ).serve(arrivals)

        # every query finished, clocks ordered, pool capacity respected
        # at every breakpoint of the reserved skyline
        assert metrics.n_queries == n_queries
        assert metrics.capacity_respected
        assert_clock_monotone(metrics.pool_skyline)
        # the pool fully drains once the stream is served
        assert metrics.pool_skyline.points[-1][1] == 0
        for record in metrics.records:
            assert record.arrival_time <= record.admit_time <= record.finish_time
            assert_clock_monotone(record.skyline)
            if plan.active:
                stats = record.fault_stats
                assert stats.tasks_started == graph.total_tasks + stats.tasks_killed

        if plan.active:
            merged = metrics.fault_stats
            classified = (
                merged.spot_executor_seconds + merged.ondemand_executor_seconds
            )
            assert classified == pytest.approx(
                metrics.total_executor_seconds, rel=1e-9, abs=1e-9
            )
            assert merged.billed_executor_seconds <= (
                metrics.total_executor_seconds + 1e-9
            )


class TestValidation:
    def test_fault_plan_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=-1)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggler_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(straggler_factor=0.5)

    def test_spot_market_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SpotMarket(fraction=1.5)
        with pytest.raises(ValueError):
            SpotMarket(discount=-0.1)
        with pytest.raises(ValueError):
            SpotMarket(reclaim_rate=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
    @pytest.mark.parametrize(
        "field", ["crash_rate", "straggler_rate", "straggler_factor"]
    )
    def test_fault_plan_rejects_non_finite(self, field, bad):
        """``FaultPlan(crash_rate=nan)`` used to serve fault-free: every
        comparison with NaN is False, so ``nan < 0`` let it through."""
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
    @pytest.mark.parametrize("field", ["fraction", "discount", "reclaim_rate"])
    def test_spot_market_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SpotMarket(**{field: bad})

    def test_boundary_values_still_accepted(self):
        plan = FaultPlan(
            crash_rate=0.0,
            straggler_rate=1.0,
            straggler_factor=1.0,
            spot=SpotMarket(fraction=0.0, discount=1.0, reclaim_rate=0.0),
        )
        assert plan.active
        assert FaultPlan(straggler_rate=0.0, crash_rate=5).crash_rate == 5

    def test_injector_rejects_negative_query_key(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(crash_rate=0.1), query_key=-1)

    def test_inert_plan_builds_no_injector(self):
        assert FaultPlan(seed=42).injector() is None
        assert not FaultPlan().active
        assert FaultPlan(spot=SpotMarket()).active

    def test_stats_merge(self):
        a = FaultStats(crashes=1, tasks_started=5, spot_executor_seconds=2.0)
        b = FaultStats(
            reclamations=2,
            tasks_killed=3,
            ondemand_executor_seconds=4.0,
            spot_discount=0.5,
        )
        merged = FaultStats.merged([a, b])
        assert merged.failures == 3
        assert merged.tasks_started == 5
        assert merged.tasks_killed == 3
        assert merged.spot_executor_seconds == 2.0
        assert merged.ondemand_executor_seconds == 4.0
        assert merged.spot_discount == 0.5
        assert FaultStats.merged([]).failures == 0

    def test_merge_keeps_discount_past_empty_ledgers(self):
        # An idle pool's all-zero ledger merged last must not reset the
        # cluster's spot discount back to full price.
        spot = FaultStats(spot_executor_seconds=1000.0, spot_discount=0.35)
        merged = FaultStats.merged([spot, FaultStats.merged([])])
        assert merged.spot_discount == 0.35
        assert merged.billed_executor_seconds == pytest.approx(350.0)
