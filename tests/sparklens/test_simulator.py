"""Unit and property tests for the Sparklens estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.allocation import StaticAllocation
from repro.engine.cluster import Cluster
from repro.engine.scheduler import SchedulerConfig, simulate_query
from repro.engine.stages import Stage, StageGraph
from repro.sparklens.log import ExecutionLog, StageLog
from repro.sparklens.simulator import SparklensEstimator


def make_log(driver=2.0):
    return ExecutionLog(
        query_id="q",
        driver_seconds=driver,
        stages=[
            StageLog(0, [], np.full(64, 1.0)),
            StageLog(1, [0], np.full(16, 2.0)),
            StageLog(2, [1], [5.0]),
        ],
        cores_per_executor=4,
    )


class TestEstimates:
    def test_wide_open_estimate_is_critical_path(self):
        est = SparklensEstimator(make_log())
        # enough slots that every stage is bounded by its longest task
        assert est.estimate(1000) == pytest.approx(2.0 + 1.0 + 2.0 + 5.0)

    def test_single_executor_is_work_bound(self):
        est = SparklensEstimator(make_log())
        # 4 slots: stage work 64, 32, 5 -> 64/4 + 32/4 + max(5, 5/4)
        assert est.estimate(1) == pytest.approx(2.0 + 16.0 + 8.0 + 5.0)

    def test_monotone_non_increasing(self):
        est = SparklensEstimator(make_log())
        curve = est.estimate_curve(range(1, 49))
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_saturation_time_matches_large_n(self):
        est = SparklensEstimator(make_log())
        assert est.estimate(10_000) == pytest.approx(est.saturation_time())

    def test_estimate_rejects_zero_executors(self):
        with pytest.raises(ValueError):
            SparklensEstimator(make_log()).estimate(0)


class TestAgainstSimulator:
    """Sparklens replays the scheduler — on friction-free workloads its
    estimates should closely track the real (simulated) run times."""

    NO_FRICTION = SchedulerConfig(
        spill_coefficient=0.0, coordination_coefficient=0.0
    )

    @pytest.fixture(scope="class")
    def log_and_graph(self):
        graph = StageGraph(
            stages=[
                Stage(stage_id=0, num_tasks=96, task_seconds=1.0),
                Stage(stage_id=1, num_tasks=24, task_seconds=2.0,
                      dependencies=[0]),
            ],
            driver_seconds=2.0,
            query_id="q",
        )
        result = simulate_query(
            graph, StaticAllocation(16), Cluster(), self.NO_FRICTION,
            record_log=True,
        )
        return result.execution_log, graph

    def test_estimate_at_logged_n_close_to_actual(self, log_and_graph):
        log, graph = log_and_graph
        actual = simulate_query(
            graph, StaticAllocation(16), Cluster(), self.NO_FRICTION
        ).runtime
        estimate = SparklensEstimator(log).estimate(16)
        assert abs(estimate - actual) / actual < 0.25

    def test_estimates_track_other_n_within_tolerance(self, log_and_graph):
        log, graph = log_and_graph
        est = SparklensEstimator(log)
        for n in (2, 4, 8, 32):
            actual = simulate_query(
                graph, StaticAllocation(n), Cluster(), self.NO_FRICTION
            ).runtime
            assert abs(est.estimate(n) - actual) / actual < 0.3

    def test_sparklens_misses_memory_pressure_at_small_n(self):
        """The paper's Section 5.2 bias: logs from n=16 can't anticipate
        the spill slowdown a real n=1 run would suffer."""
        cfg = SchedulerConfig(spill_coefficient=1.0, coordination_coefficient=0.0)
        cluster = Cluster()
        graph = StageGraph(
            stages=[Stage(stage_id=0, num_tasks=64, task_seconds=1.0)],
            driver_seconds=1.0,
            working_set_bytes=3 * cluster.executor_memory_bytes,
            query_id="q",
        )
        log = simulate_query(
            graph, StaticAllocation(16), cluster, cfg, record_log=True
        ).execution_log
        actual_n1 = simulate_query(
            graph, StaticAllocation(1), cluster, cfg
        ).runtime
        estimate_n1 = SparklensEstimator(log).estimate(1)
        assert estimate_n1 < actual_n1 * 0.8  # systematic underestimate


@settings(max_examples=25, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=99),
)
def test_property_estimates_monotone_and_above_critical_path(widths, seed):
    rng = np.random.default_rng(seed)
    stages = [
        StageLog(i, [i - 1] if i else [], rng.uniform(0.5, 3.0, w))
        for i, w in enumerate(widths)
    ]
    log = ExecutionLog(query_id="q", driver_seconds=1.0, stages=stages)
    est = SparklensEstimator(log)
    curve = est.estimate_curve(range(1, 30))
    assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))
    assert curve.min() >= est.saturation_time() - 1e-9
