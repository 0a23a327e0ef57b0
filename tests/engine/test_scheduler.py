"""Unit tests for the discrete-event scheduler."""

import numpy as np
import pytest

from repro.engine.allocation import (
    DynamicAllocation,
    PredictiveAllocation,
    StaticAllocation,
)
from repro.engine.cluster import Cluster
from repro.engine.driver import EventHeap
from repro.engine.scheduler import SchedulerConfig, simulate_query
from repro.engine.stages import Stage, StageGraph


def graph_one_stage(num_tasks=16, task_seconds=1.0, driver=0.0, ws=0.0):
    return StageGraph(
        stages=[Stage(stage_id=0, num_tasks=num_tasks, task_seconds=task_seconds)],
        driver_seconds=driver,
        working_set_bytes=ws,
        query_id="unit",
    )


def graph_chain(widths=(8, 4, 1), task_seconds=1.0, driver=0.0):
    stages = []
    for i, w in enumerate(widths):
        deps = [i - 1] if i > 0 else []
        stages.append(
            Stage(stage_id=i, num_tasks=w, task_seconds=task_seconds,
                  dependencies=deps)
        )
    return StageGraph(stages=stages, driver_seconds=driver, query_id="chain")


@pytest.fixture(scope="module")
def cluster():
    return Cluster()


NO_FRICTION = SchedulerConfig(
    spill_coefficient=0.0, coordination_coefficient=0.0
)


class TestWaveArithmetic:
    def test_single_wave_runs_in_task_time(self, cluster):
        # 16 tasks on 4 executors x 4 cores = one wave
        g = graph_one_stage(num_tasks=16, task_seconds=2.0)
        r = simulate_query(g, StaticAllocation(4), cluster, NO_FRICTION)
        assert r.runtime == pytest.approx(2.0, abs=1e-6)

    def test_two_waves_double_the_time(self, cluster):
        g = graph_one_stage(num_tasks=32, task_seconds=2.0)
        r = simulate_query(g, StaticAllocation(4), cluster, NO_FRICTION)
        assert r.runtime == pytest.approx(4.0, abs=1e-6)

    def test_driver_time_is_serial_prefix(self, cluster):
        g = graph_one_stage(num_tasks=4, task_seconds=1.0, driver=3.0)
        r = simulate_query(g, StaticAllocation(1), cluster, NO_FRICTION)
        assert r.runtime == pytest.approx(4.0, abs=1e-6)

    def test_chain_respects_dependencies(self, cluster):
        g = graph_chain(widths=(8, 8, 8), task_seconds=1.0)
        r = simulate_query(g, StaticAllocation(2), cluster, NO_FRICTION)
        assert r.runtime == pytest.approx(3.0, abs=1e-6)

    def test_more_executors_never_slower_without_friction(self, cluster):
        g = graph_chain(widths=(48, 16, 4), task_seconds=1.5)
        times = [
            simulate_query(g, StaticAllocation(n), cluster, NO_FRICTION).runtime
            for n in (1, 2, 4, 8, 16)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))

    def test_runtime_floor_is_critical_path(self, cluster):
        g = graph_chain(widths=(4, 4, 4), task_seconds=2.0, driver=1.0)
        r = simulate_query(g, StaticAllocation(48), cluster, NO_FRICTION)
        assert r.runtime >= g.critical_path_seconds() - 1e-9


class TestFrictionModels:
    def test_memory_pressure_slows_small_fleets(self, cluster):
        ws = 3 * cluster.executor_memory_bytes
        cfg = SchedulerConfig(spill_coefficient=1.0, coordination_coefficient=0.0)
        g_spill = graph_one_stage(num_tasks=8, task_seconds=1.0, ws=ws)
        t1 = simulate_query(g_spill, StaticAllocation(1), cluster, cfg).runtime
        t4 = simulate_query(g_spill, StaticAllocation(4), cluster, cfg).runtime
        # n=1 suffers a spill slowdown beyond the 2x wave arithmetic
        # (8 tasks / 4 slots = 2 waves at n=1 vs 1 wave on 16 slots)
        assert t1 > 2 * t4 * 1.2

    def test_spill_factor_capped(self, cluster):
        cfg = SchedulerConfig(
            spill_coefficient=100.0, max_spill_factor=2.0,
            coordination_coefficient=0.0,
        )
        g = graph_one_stage(num_tasks=4, task_seconds=1.0,
                            ws=100 * cluster.executor_memory_bytes)
        r = simulate_query(g, StaticAllocation(1), cluster, cfg)
        assert r.runtime == pytest.approx(2.0, abs=1e-6)

    def test_coordination_overhead_grows_with_fleet(self, cluster):
        cfg = SchedulerConfig(spill_coefficient=0.0, coordination_coefficient=0.5)
        g = graph_one_stage(num_tasks=4, task_seconds=1.0)
        t1 = simulate_query(g, StaticAllocation(1), cluster, cfg).runtime
        t48 = simulate_query(g, StaticAllocation(48), cluster, cfg).runtime
        assert t48 > t1  # tiny stage gains nothing, pays overhead


class TestSkylinesAndAUC:
    def test_static_allocation_flat_skyline(self, cluster):
        g = graph_one_stage(num_tasks=16, task_seconds=1.0)
        r = simulate_query(g, StaticAllocation(4), cluster, NO_FRICTION)
        assert r.max_executors == 4
        assert r.auc == pytest.approx(4 * r.runtime, rel=1e-6)

    def test_auc_grows_with_overallocation(self, cluster):
        g = graph_one_stage(num_tasks=16, task_seconds=1.0)
        a4 = simulate_query(g, StaticAllocation(4), cluster, NO_FRICTION).auc
        a16 = simulate_query(g, StaticAllocation(16), cluster, NO_FRICTION).auc
        assert a16 > a4 * 2

    def test_predictive_ramp_visible_in_skyline(self, cluster):
        g = graph_chain(widths=(192, 192, 48), task_seconds=2.0, driver=1.0)
        pol = PredictiveAllocation(25, initial_executors=5, request_delay=1.0)
        r = simulate_query(g, pol, cluster, NO_FRICTION)
        assert r.skyline.value_at(0.0) == 5
        assert r.max_executors == 25


class TestDynamicAllocationIntegration:
    def test_da_scales_up_under_backlog(self, cluster):
        g = graph_one_stage(num_tasks=192, task_seconds=4.0)
        r = simulate_query(g, DynamicAllocation(1, 48), cluster, NO_FRICTION)
        assert r.max_executors > 8

    def test_da_respects_max(self, cluster):
        g = graph_one_stage(num_tasks=500, task_seconds=5.0)
        r = simulate_query(g, DynamicAllocation(1, 6), cluster, NO_FRICTION)
        assert r.max_executors <= 6

    def test_da_releases_idle_executors_in_long_tail(self, cluster):
        # wide stage then a long single-task tail; idle executors released
        stages = [
            Stage(stage_id=0, num_tasks=64, task_seconds=1.0),
            Stage(stage_id=1, num_tasks=1, task_seconds=120.0,
                  dependencies=[0]),
        ]
        g = StageGraph(stages=stages, driver_seconds=0.0, query_id="tail")
        pol = DynamicAllocation(1, 48, idle_timeout=5.0)
        r = simulate_query(g, pol, cluster, NO_FRICTION)
        assert r.skyline.value_at(r.runtime - 1.0) < r.max_executors


class TestExecutionLog:
    def test_log_captures_all_tasks(self, cluster):
        g = graph_chain(widths=(8, 4, 2), task_seconds=1.0)
        r = simulate_query(
            g, StaticAllocation(4), cluster, NO_FRICTION, record_log=True
        )
        log = r.execution_log
        assert log is not None
        assert [s.num_tasks for s in log.stages] == [8, 4, 2]
        assert log.total_work == pytest.approx(14.0, rel=1e-6)

    def test_log_durations_embed_observed_slowdowns(self, cluster):
        cfg = SchedulerConfig(spill_coefficient=1.0, coordination_coefficient=0.0)
        ws = 3 * cluster.executor_memory_bytes
        g = graph_one_stage(num_tasks=8, task_seconds=1.0, ws=ws)
        r = simulate_query(
            g, StaticAllocation(1), cluster, cfg, record_log=True
        )
        assert r.execution_log.stages[0].task_durations.min() > 1.0

    def test_no_log_by_default(self, cluster):
        g = graph_one_stage()
        r = simulate_query(g, StaticAllocation(2), cluster, NO_FRICTION)
        assert r.execution_log is None


class TestDeterminism:
    def test_repeat_runs_identical(self, cluster):
        g = graph_chain(widths=(48, 16), task_seconds=1.3, driver=2.0)
        r1 = simulate_query(g, DynamicAllocation(1, 48), cluster)
        r2 = simulate_query(g, DynamicAllocation(1, 48), cluster)
        assert r1.runtime == r2.runtime
        assert r1.auc == r2.auc
        assert r1.skyline.points == r2.skyline.points


class TestWorkCounts:
    """Exact, byte-stable heap pops of the dedicated path over the 103
    SF-100 plans.  Task completions coalesce into one heap entry per
    same-instant wave (:class:`repro.engine.driver.EventHeap`); with one
    entry per completion the same runs popped 27,614 entries at SA(16)
    and 30,833 at DA(1, 48)."""

    @pytest.mark.parametrize(
        ("make_policy", "pops"),
        [
            (lambda: StaticAllocation(16), 10_509),
            (lambda: DynamicAllocation(1, 48), 16_450),
        ],
        ids=["SA16", "DA1-48"],
    )
    def test_heap_pops_pinned(self, workload100, make_policy, pops, monkeypatch):
        count = 0
        pop = EventHeap.pop

        def counted_pop(self):
            nonlocal count
            count += 1
            return pop(self)

        monkeypatch.setattr(EventHeap, "pop", counted_pop)
        for query_id in workload100.query_ids:
            simulate_query(workload100.stage_graph(query_id), make_policy(), Cluster())
        assert count == pops
