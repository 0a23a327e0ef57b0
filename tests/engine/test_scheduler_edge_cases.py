"""Failure-injection and edge-case tests for the scheduler."""

import pytest

from repro.engine.allocation import PredictiveAllocation, StaticAllocation
from repro.engine.cluster import Cluster
from repro.engine.scheduler import SchedulerConfig, simulate_query
from repro.engine.stages import Stage, StageGraph

NO_FRICTION = SchedulerConfig(
    spill_coefficient=0.0, coordination_coefficient=0.0
)


def one_stage(num_tasks=8, task_seconds=1.0, driver=0.0):
    return StageGraph(
        stages=[Stage(stage_id=0, num_tasks=num_tasks, task_seconds=task_seconds)],
        driver_seconds=driver,
        query_id="edge",
    )


class _NeverAllocates:
    """Pathological policy: zero executors forever."""

    initial_executors = 0
    idle_timeout = None
    min_executors = 0

    def desired_target(self, state):
        return 0

    def reset(self):
        return None


class TestPathologicalPolicies:
    def test_policy_that_never_allocates_raises(self):
        with pytest.raises(RuntimeError, match="stalled"):
            simulate_query(one_stage(), _NeverAllocates(), Cluster())

    def test_zero_initial_executors_with_later_request_completes(self):
        pol = PredictiveAllocation(
            4, initial_executors=0, request_delay=2.0
        )
        result = simulate_query(one_stage(), pol, Cluster(), NO_FRICTION)
        # work starts only after the provisioning lag
        assert result.runtime > 2.0
        assert result.max_executors == 4

    def test_request_beyond_capacity_clamped(self):
        cluster = Cluster(max_nodes=2)  # capacity 4
        pol = StaticAllocation(100)
        result = simulate_query(one_stage(64), pol, cluster, NO_FRICTION)
        assert result.max_executors == 4


class TestDegenerateGraphs:
    def test_single_task_query(self):
        g = one_stage(num_tasks=1, task_seconds=5.0, driver=1.0)
        result = simulate_query(g, StaticAllocation(8), Cluster(), NO_FRICTION)
        assert result.runtime == pytest.approx(6.0, abs=1e-6)
        assert result.total_tasks == 1

    def test_deep_chain_of_single_tasks(self):
        stages = [
            Stage(stage_id=i, num_tasks=1, task_seconds=1.0,
                  dependencies=[i - 1] if i else [])
            for i in range(20)
        ]
        g = StageGraph(stages=stages, driver_seconds=0.0, query_id="chain")
        result = simulate_query(g, StaticAllocation(48), Cluster(), NO_FRICTION)
        # fully serial no matter how many executors
        assert result.runtime == pytest.approx(20.0, abs=1e-6)

    def test_wide_diamond_dag(self):
        stages = [
            Stage(stage_id=0, num_tasks=4, task_seconds=1.0),
            Stage(stage_id=1, num_tasks=40, task_seconds=1.0, dependencies=[0]),
            Stage(stage_id=2, num_tasks=40, task_seconds=1.0, dependencies=[0]),
            Stage(stage_id=3, num_tasks=1, task_seconds=1.0,
                  dependencies=[1, 2]),
        ]
        g = StageGraph(stages=stages, driver_seconds=0.0, query_id="diamond")
        # 10 executors = 40 slots: both middle stages share slots (2 waves)
        result = simulate_query(g, StaticAllocation(10), Cluster(), NO_FRICTION)
        assert result.runtime == pytest.approx(4.0, abs=1e-6)

    def test_fractional_wave_rounds_up(self):
        # 10 tasks on 8 slots -> 2 waves
        g = one_stage(num_tasks=10, task_seconds=3.0)
        result = simulate_query(g, StaticAllocation(2), Cluster(), NO_FRICTION)
        assert result.runtime == pytest.approx(6.0, abs=1e-6)


class TestTelemetryConsistency:
    def test_auc_equals_skyline_integral(self):
        g = one_stage(num_tasks=64, task_seconds=1.0, driver=2.0)
        pol = PredictiveAllocation(8, initial_executors=2, request_delay=1.0)
        result = simulate_query(g, pol, Cluster(), NO_FRICTION)
        assert result.auc == pytest.approx(
            result.skyline.auc(result.runtime), rel=1e-9
        )

    def test_max_executors_matches_skyline_peak(self):
        g = one_stage(num_tasks=64, task_seconds=1.0)
        pol = PredictiveAllocation(12, initial_executors=3, request_delay=0.5)
        result = simulate_query(g, pol, Cluster(), NO_FRICTION)
        assert result.max_executors == result.skyline.max_executors


class TestTickIntervalValidation:
    """A zero or negative tick period re-pushes each tick at (or before)
    its own instant, so ``simulate_query`` never advances; NaN and inf
    break the clock.  The config refuses them at construction."""

    @pytest.mark.parametrize("tick", [0.0, -1.0, float("nan"), float("inf")], ids=str)
    def test_bad_tick_interval_rejected(self, tick):
        with pytest.raises(ValueError, match="tick_interval"):
            SchedulerConfig(tick_interval=tick)

    def test_positive_tick_interval_accepted(self):
        assert SchedulerConfig(tick_interval=0.25).tick_interval == 0.25
