"""Sweep backend: compiled plans and batched executor-count sweeps.

The contract under test is the strongest the engine makes: for every
plan and candidate count, :func:`simulate_query_sweep` must be
*bit-identical* to calling :func:`simulate_query` once per count — same
runtimes, same AUCs, same skylines, same execution logs — including
request clamping, duplicate counts, and the event-driven fallback for
scaling policies (the active-fault-plan fallback is in
``test_fault_parity.py``).
"""

import numpy as np
import pytest

from repro.engine.allocation import DynamicAllocation, StaticAllocation
from repro.engine.cluster import Cluster
from repro.engine.scheduler import SchedulerConfig, simulate_query
from repro.engine.sweep import compile_plan, simulate_query_sweep
from repro.engine.stages import Stage, StageGraph
from repro.workloads.generator import Workload


@pytest.fixture(scope="module")
def cluster():
    return Cluster()


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=100)


def one_stage(num_tasks=16, task_seconds=1.0, driver=0.0, ws=0.0):
    return StageGraph(
        stages=[
            Stage(stage_id=0, num_tasks=num_tasks, task_seconds=task_seconds)
        ],
        driver_seconds=driver,
        working_set_bytes=ws,
        query_id="unit",
    )


def chain(widths=(8, 4, 1), task_seconds=1.0, driver=2.0):
    stages = []
    for i, w in enumerate(widths):
        stages.append(
            Stage(
                stage_id=i,
                num_tasks=w,
                task_seconds=task_seconds,
                dependencies=[i - 1] if i > 0 else [],
            )
        )
    return StageGraph(stages=stages, driver_seconds=driver, query_id="chain")


def diamond():
    """Two independent branches joining — exercises emission ordering."""
    stages = [
        Stage(stage_id=0, num_tasks=24, task_seconds=1.0),
        Stage(stage_id=1, num_tasks=24, task_seconds=1.0),
        Stage(stage_id=2, num_tasks=6, task_seconds=2.5, dependencies=[0]),
        Stage(stage_id=3, num_tasks=90, task_seconds=0.4, dependencies=[1]),
        Stage(stage_id=4, num_tasks=12, task_seconds=1.2, dependencies=[2, 3]),
    ]
    return StageGraph(stages=stages, driver_seconds=1.5, query_id="diamond")


def skewed(ws=0.0):
    """Straggler-heavy stages: uneven durations stress the FIFO drain."""
    stages = [
        Stage(
            stage_id=0,
            num_tasks=60,
            task_seconds=0.8,
            skew_fraction=0.1,
            skew_factor=2.0,
            skew_work_share=0.15,
        ),
        Stage(
            stage_id=1,
            num_tasks=7,
            task_seconds=3.0,
            dependencies=[0],
            skew_fraction=0.3,
            skew_factor=1.7,
        ),
    ]
    return StageGraph(
        stages=stages,
        driver_seconds=0.5,
        working_set_bytes=ws,
        query_id="skewed",
    )


def assert_bit_identical(loop_result, sweep_result, check_log=False):
    assert loop_result.runtime == sweep_result.runtime
    assert loop_result.auc == sweep_result.auc
    assert loop_result.max_executors == sweep_result.max_executors
    assert loop_result.total_tasks == sweep_result.total_tasks
    assert loop_result.fully_allocated == sweep_result.fully_allocated
    assert loop_result.skyline.points == sweep_result.skyline.points
    if check_log:
        ll, sl = loop_result.execution_log, sweep_result.execution_log
        assert ll is not None and sl is not None
        assert ll.executors_used == sl.executors_used
        assert ll.driver_seconds == sl.driver_seconds
        for stage_l, stage_s in zip(ll.stages, sl.stages):
            assert stage_l.stage_id == stage_s.stage_id
            assert stage_l.dependencies == stage_s.dependencies
            assert np.array_equal(
                stage_l.task_durations, stage_s.task_durations
            )


class TestCompiledPlan:
    def test_topology_and_durations(self):
        plan = compile_plan(diamond())
        assert plan.roots == (0, 1)
        assert plan.dependents[0] == (2,)
        assert plan.dependents[1] == (3,)
        assert plan.dependents[3] == (4,)
        assert plan.dependencies[4] == (2, 3)
        assert plan.total_tasks == 24 + 24 + 6 + 90 + 12
        assert plan.driver_seconds == 1.5

    def test_duration_arrays_are_read_only(self):
        plan = compile_plan(skewed())
        with pytest.raises(ValueError):
            plan.durations[0][0] = 1.0

    def test_durations_match_stage_profile(self):
        graph = skewed()
        plan = compile_plan(graph)
        for stage in graph.stages:
            assert np.array_equal(
                plan.durations[stage.stage_id], stage.task_durations()
            )

    def test_simulate_rejects_zero_executors(self, cluster):
        plan = compile_plan(one_stage())
        with pytest.raises(ValueError, match="at least 1"):
            plan.simulate(0, cluster)
        with pytest.raises(ValueError, match="at least 1"):
            plan.sweep([4, 0], cluster)


class TestToyEquivalence:
    @pytest.mark.parametrize(
        "graph_fn",
        [one_stage, chain, diamond, skewed],
        ids=["one_stage", "chain", "diamond", "skewed"],
    )
    def test_bit_identical_across_counts(self, graph_fn, cluster):
        graph = graph_fn()
        counts = list(range(1, 129))
        sweep = simulate_query_sweep(graph, counts, cluster)
        for n, s in zip(counts, sweep):
            r = simulate_query(graph, StaticAllocation(n), cluster)
            assert_bit_identical(r, s)

    def test_spill_physics_bit_identical(self, cluster):
        graph = skewed(ws=5 * cluster.executor_memory_bytes)
        config = SchedulerConfig(spill_coefficient=1.1, max_spill_factor=2.5)
        sweep = simulate_query_sweep(graph, range(1, 33), cluster, config)
        for n, s in zip(range(1, 33), sweep):
            r = simulate_query(graph, StaticAllocation(n), cluster, config)
            assert_bit_identical(r, s)

    def test_execution_logs_bit_identical(self, cluster):
        graph = skewed()
        counts = [1, 3, 16]
        sweep = simulate_query_sweep(
            graph, counts, cluster, record_log=True
        )
        for n, s in zip(counts, sweep):
            r = simulate_query(
                graph, StaticAllocation(n), cluster, record_log=True
            )
            assert_bit_identical(r, s, check_log=True)

    def test_duplicate_and_clamped_counts_share_results(self, cluster):
        graph = chain()
        counts = [4, 4, cluster.max_executors, cluster.max_executors + 64]
        sweep = simulate_query_sweep(graph, counts, cluster)
        assert sweep[0] is sweep[1]
        # beyond pool capacity clamps to the same effective fleet
        assert sweep[2] is sweep[3]
        r = simulate_query(
            graph, StaticAllocation(cluster.max_executors + 64), cluster
        )
        assert_bit_identical(r, sweep[3])

    def test_compiled_plan_reusable_across_sweeps(self, cluster):
        graph = diamond()
        plan = compile_plan(graph)
        first = simulate_query_sweep(plan, [2, 8], cluster)
        second = simulate_query_sweep(plan, [2, 8], cluster)
        for a, b in zip(first, second):
            assert_bit_identical(a, b)


class TestTPCDSEquivalence:
    """The acceptance bar: bit-identical on every TPC-DS plan."""

    def test_every_plan_bit_identical(self, workload, cluster):
        rng = np.random.default_rng(7)
        for qid in workload:
            graph = workload.stage_graph(qid)
            counts = sorted(
                {1, 16, 48, *rng.integers(1, 129, size=2).tolist()}
            )
            sweep = simulate_query_sweep(graph, counts, cluster)
            for n, s in zip(counts, sweep):
                r = simulate_query(graph, StaticAllocation(n), cluster)
                assert_bit_identical(r, s)

    def test_q94_dense_grid_bit_identical(self, workload, cluster):
        graph = workload.stage_graph("q94")
        counts = list(range(1, 129))
        sweep = simulate_query_sweep(graph, counts, cluster)
        for n, s in zip(counts, sweep):
            r = simulate_query(graph, StaticAllocation(n), cluster)
            assert_bit_identical(r, s)


class TestFallbackPaths:
    def test_scaling_policy_falls_back_to_event_loop(self, cluster):
        graph = diamond()
        counts = [4, 12, 48]
        sweep = simulate_query_sweep(
            graph,
            counts,
            cluster,
            policy_factory=lambda n: DynamicAllocation(1, n),
        )
        for n, s in zip(counts, sweep):
            r = simulate_query(graph, DynamicAllocation(1, n), cluster)
            assert_bit_identical(r, s)
        # dynamic allocation really took a different trajectory than SA
        assert sweep[-1].skyline.points != [(0.0, 48)]
