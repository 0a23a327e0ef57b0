"""Differential parity: fleet-of-one ≡ ``simulate_query``, bit for bit.

The repository has exactly one copy of the simulator physics
(:mod:`repro.engine.execution`); these tests are the harness that keeps
it that way.  A fleet of one query on an uncontended pool must reproduce
a dedicated-cluster :func:`~repro.engine.scheduler.simulate_query` run
under :class:`~repro.engine.allocation.BudgetAllocation` — same runtime,
same AUC, same skyline, to the last bit — across the whole TPC-DS
workload and hypothesis-generated DAGs.  Any divergence here is a bug in
one of the two drivers, not noise to tolerate.

Also covered: the collision-free ``(stage_id, executor_id)`` task
payloads (executor ids are unbounded under idle-release churn; the old
``stage_id * 10_000_000 + executor_id`` packing corrupted stage ids once
churn pushed executor ids past the modulus), and the fleet's
dynamic-scaling invariants (pool capacity never exceeded, per-query
floors respected).
"""

import heapq
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.allocation import BudgetAllocation, DynamicAllocation
from repro.engine.cluster import Cluster
from repro.engine.execution import (
    DEFAULT_SCHEDULER_CONFIG,
    ExecutionCore,
    SchedulerConfig,
    compile_plan,
)
from repro.engine.scheduler import simulate_query
from repro.engine.stages import Stage, StageGraph
from repro.fleet.arrivals import QueryArrival
from repro.fleet.engine import FleetConfig, FleetEngine, static_allocator
from repro.workloads.generator import Workload


@pytest.fixture(scope="module")
def cluster():
    return Cluster()


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=100)


class _GraphWorkload:
    """Minimal workload stub serving one explicit stage graph."""

    def __init__(self, graph):
        self._graph = graph

    def stage_graph(self, query_id):
        return self._graph

    def optimized_plan(self, query_id):
        return None


def fleet_of_one(
    graph,
    budget,
    cluster,
    idle_timeout,
    capacity=64,
    workload=None,
    query_id="q",
    scheduler=DEFAULT_SCHEDULER_CONFIG,
):
    """Serve a single uncontended arrival; returns its QueryRecord."""
    wl = workload if workload is not None else _GraphWorkload(graph)
    engine = FleetEngine(
        wl,
        capacity=capacity,
        allocator=static_allocator(budget),
        cluster=cluster,
        config=FleetConfig(scheduler=scheduler, idle_release_timeout=idle_timeout),
    )
    metrics = engine.serve([QueryArrival(0, query_id, 0, 0.0)])
    assert metrics.capacity_respected
    return metrics.records[0]


def assert_parity(record, reference):
    """The bit-identity contract: runtime, AUC, skyline."""
    assert record.admit_time == 0.0
    assert record.finish_time - record.admit_time == reference.runtime
    assert record.auc == reference.auc
    assert record.skyline is not None
    assert record.skyline.points == reference.skyline.points


class TestTPCDSParity:
    """The acceptance bar: every TPC-DS plan, bit-identical."""

    def test_all_plans_with_idle_release(self, workload, cluster):
        # An aggressive timeout exercises the idle-release path on every
        # query's tail; budgets cycle so narrow and wide fleets both run.
        for i, qid in enumerate(workload):
            budget = (4, 8, 16, 32)[i % 4]
            record = fleet_of_one(
                None,
                budget,
                cluster,
                idle_timeout=5.0,
                workload=workload,
                query_id=qid,
            )
            reference = simulate_query(
                workload.stage_graph(qid),
                BudgetAllocation(budget, idle_timeout=5.0, min_executors=1),
                cluster,
            )
            assert_parity(record, reference)

    def test_all_plans_under_a_half_second_tick(self, workload, cluster):
        # The fleet's tick period is its scheduler config's, the same knob
        # simulate_query reads: a fleet that ticked at its own default of
        # one second released idle executors at other instants.
        scheduler = SchedulerConfig(tick_interval=0.5)
        for qid in workload:
            record = fleet_of_one(
                None,
                16,
                cluster,
                idle_timeout=3.0,
                workload=workload,
                query_id=qid,
                scheduler=scheduler,
            )
            reference = simulate_query(
                workload.stage_graph(qid),
                BudgetAllocation(16, idle_timeout=3.0, min_executors=1),
                cluster,
                scheduler,
            )
            assert_parity(record, reference)

    def test_sampled_plans_with_held_budgets(self, workload, cluster):
        qids = list(workload)[::10]
        for qid in qids:
            record = fleet_of_one(
                None,
                12,
                cluster,
                idle_timeout=None,
                workload=workload,
                query_id=qid,
            )
            reference = simulate_query(
                workload.stage_graph(qid),
                BudgetAllocation(12, idle_timeout=None, min_executors=1),
                cluster,
            )
            assert_parity(record, reference)


@st.composite
def stage_graphs(draw):
    """Random DAGs: ragged widths, skew, float (and integer!) drivers.

    Integer driver times matter: the stage compiler always produces them,
    and they tie with the 1-second tick chain — exactly where event
    ordering between the two drivers can silently diverge.
    """
    n_stages = draw(st.integers(1, 6))
    stages = []
    for sid in range(n_stages):
        deps = (
            sorted(
                draw(
                    st.sets(
                        st.integers(0, sid - 1), min_size=0, max_size=min(sid, 3)
                    )
                )
            )
            if sid
            else []
        )
        stages.append(
            Stage(
                stage_id=sid,
                num_tasks=draw(st.integers(1, 48)),
                task_seconds=draw(
                    st.floats(
                        0.05, 8.0, allow_nan=False, allow_infinity=False
                    )
                ),
                dependencies=deps,
                skew_fraction=draw(st.floats(0.0, 0.3)),
                skew_factor=draw(st.floats(1.0, 2.0)),
                skew_work_share=draw(st.floats(0.0, 0.2)),
            )
        )
    driver = draw(
        st.one_of(
            st.integers(0, 40).map(float),
            st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
        )
    )
    working_set = draw(st.sampled_from([0.0, 40 * 1024**3, 400 * 1024**3]))
    return StageGraph(
        stages=stages,
        driver_seconds=driver,
        working_set_bytes=working_set,
        query_id="hyp",
    )


class TestHypothesisParity:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=stage_graphs(),
        budget=st.integers(1, 48),
        idle_timeout=st.sampled_from([None, 2.0, 30.0]),
    )
    def test_random_dags_bit_identical(
        self, graph, budget, idle_timeout, cluster
    ):
        record = fleet_of_one(graph, budget, cluster, idle_timeout)
        reference = simulate_query(
            graph,
            BudgetAllocation(
                budget, idle_timeout=idle_timeout, min_executors=1
            ),
            cluster,
        )
        assert_parity(record, reference)


class TestBudgetAllocation:
    def test_idle_releases_are_not_reprovisioned(self, cluster):
        """The pool semantics: capacity returned is never asked back."""
        stages = [
            Stage(stage_id=0, num_tasks=64, task_seconds=1.0),
            Stage(
                stage_id=1,
                num_tasks=1,
                task_seconds=120.0,
                dependencies=[0],
            ),
        ]
        graph = StageGraph(stages=stages, driver_seconds=0.0, query_id="tail")
        policy = BudgetAllocation(16, idle_timeout=5.0, min_executors=1)
        result = simulate_query(graph, policy, cluster)
        # the tail runs on the floor ...
        assert result.skyline.value_at(result.runtime - 1.0) == 1
        # ... and only the one-shot budget is ever provisioned: the
        # skyline's total up-steps are exactly the 16 granted executors
        # (a standing-target policy would re-provision every release)
        counts = [c for _, c in result.skyline.points]
        arrivals = sum(
            b - a for a, b in zip(counts, counts[1:]) if b > a
        )
        assert arrivals == 16

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            BudgetAllocation(0)
        with pytest.raises(ValueError):
            BudgetAllocation(4, min_executors=-1)


class TestTaskPayloads:
    """Long-churn cover for the collision-free task identities."""

    def _drive(self, graph, n_executors, first_eid, cluster):
        """A minimal dedicated-cluster driver over ExecutionCore."""
        core = ExecutionCore(
            compile_plan(graph), cluster, DEFAULT_SCHEDULER_CONFIG
        )
        # Simulate a long-lived run's id churn: executor ids far past the
        # old 10_000_000 packing modulus must still route completions to
        # the right (stage, executor) pair.
        core._exec_ids = itertools.count(first_eid)
        counter = itertools.count()
        events = []

        def emit(finish, stage_id, eid):
            heapq.heappush(events, (finish, next(counter), stage_id, eid))

        for _ in range(n_executors):
            core.add_executor(0.0)
        core.mark_driver_done()
        core.assign(0.0, emit)
        while events:
            now, _, stage_id, eid = heapq.heappop(events)
            assert eid >= first_eid
            if core.complete_task(now, stage_id, eid):
                return now, core
            core.assign(now, emit)
        raise AssertionError("query never finished")

    def test_huge_executor_ids_keep_bookkeeping_exact(self, cluster):
        stages = [
            Stage(stage_id=0, num_tasks=40, task_seconds=1.3),
            Stage(stage_id=1, num_tasks=9, task_seconds=2.1, dependencies=[0]),
            Stage(stage_id=2, num_tasks=3, task_seconds=0.7, dependencies=[1]),
        ]
        graph = StageGraph(stages=stages, driver_seconds=1.0, query_id="churn")
        small_end, small_core = self._drive(graph, 4, 0, cluster)
        huge_end, huge_core = self._drive(graph, 4, 10_000_000_000, cluster)
        assert huge_end == small_end
        # identical physics: every executor freed, every stage drained
        assert huge_core.stages_left == 0
        assert all(
            e.free_cores == e.cores for e in huge_core.executors.values()
        )
        assert [
            (t, c) for t, c in huge_core.skyline.points
        ] == small_core.skyline.points


class TestFreeCoreIndex:
    """The fill step's free-core heap starts tasks exactly where the scan
    over every executor it replaced did: executors in dict order, each
    filled before the next, ids of released executors skipped."""

    @staticmethod
    def _scan_fill(core):
        """The replaced fill: ``(stage_id, executor_id)`` of every task a
        scan over all executors, in dict order, would start."""
        pending = core._pending[core._pending_head :]
        starts = []
        for executor in core.executors.values():
            free = executor.free_cores
            while free and len(starts) < len(pending):
                starts.append((pending[len(starts)][0], executor.executor_id))
                free -= 1
        return starts

    @pytest.mark.parametrize("seed", range(10))
    def test_fill_matches_scan_under_executor_churn(self, seed, cluster):
        rng = random.Random(seed)
        stages = [
            Stage(stage_id=0, num_tasks=60, task_seconds=1.0, skew_fraction=0.2),
            Stage(stage_id=1, num_tasks=25, task_seconds=2.0, dependencies=[0]),
            Stage(stage_id=2, num_tasks=40, task_seconds=0.5, dependencies=[0]),
            Stage(stage_id=3, num_tasks=7, task_seconds=3.0, dependencies=[1, 2]),
        ]
        graph = StageGraph(stages=stages, driver_seconds=0.5, query_id="churn")
        core = ExecutionCore(compile_plan(graph), cluster, DEFAULT_SCHEDULER_CONFIG)
        counter = itertools.count()
        events, started = [], []
        tally = {"released": 0, "stale_fills": 0}

        def emit(finish, stage_id, eid):
            heapq.heappush(events, (finish, next(counter), stage_id, eid))
            started.append((stage_id, eid))

        def fill(now):
            want = self._scan_fill(core)
            if any(eid not in core.executors for eid in core._free):
                tally["stale_fills"] += 1
            started.clear()
            core.assign(now, emit)
            assert started == want

        for _ in range(3):
            core.add_executor(0.0)
        core.mark_driver_done(0.5)
        fill(0.5)
        while events:
            now, _, stage_id, eid = heapq.heappop(events)
            if core.complete_task(now, stage_id, eid):
                break
            roll = rng.random()
            if roll < 0.15:
                core.add_executor(now)
            elif roll < 0.3:
                tally["released"] += len(core.release_idle(now, 0.0, 1))
            fill(now)
        else:
            raise AssertionError("query never finished")
        assert core.stages_left == 0
        assert tally["released"] > 0 and tally["stale_fills"] > 0


class TestDynamicScalingInvariants:
    """The fleet's new mid-query scaling mode: safety properties."""

    QIDS = ("q1", "q2", "q3", "q5", "q94")

    @pytest.fixture(scope="class")
    def small_workload(self):
        return Workload(scale_factor=50, query_ids=self.QIDS)

    def test_pool_never_exceeded_and_all_finish(self, small_workload):
        from repro.fleet.arrivals import poisson_arrivals

        arrivals = poisson_arrivals(
            self.QIDS, n_queries=30, rate_qps=1.0, seed=3
        )
        capacity = 24
        metrics = FleetEngine(
            small_workload,
            capacity=capacity,
            allocator=static_allocator(4),
            config=FleetConfig(
                scaling=lambda budget: DynamicAllocation(
                    1, 4 * budget, idle_timeout=10.0
                )
            ),
        ).serve(arrivals)
        assert metrics.n_queries == 30
        assert metrics.capacity_respected
        assert metrics.peak_pool_usage <= capacity
        assert all(r.finish_time > r.admit_time for r in metrics.records)

    def test_scaling_grows_beyond_admitted_budget(self, small_workload):
        """Backlogged queries really do scale past their admission."""
        arrivals = [QueryArrival(0, "q94", 0, 0.0)]
        metrics = FleetEngine(
            small_workload,
            capacity=64,
            allocator=static_allocator(2),
            config=FleetConfig(
                scaling=lambda budget: DynamicAllocation(
                    1, 48, idle_timeout=30.0
                )
            ),
        ).serve(arrivals)
        record = metrics.records[0]
        assert record.executors_granted == 2
        assert record.skyline.max_executors > 2

    def test_floor_respected_once_reached(self, small_workload):
        """Idle shedding never undercuts the policy's min_executors."""
        floor = 3
        arrivals = [QueryArrival(0, "q94", 0, 0.0)]
        metrics = FleetEngine(
            small_workload,
            capacity=64,
            allocator=static_allocator(16),
            config=FleetConfig(
                scaling=lambda budget: DynamicAllocation(
                    floor, 48, idle_timeout=2.0
                )
            ),
        ).serve(arrivals)
        points = metrics.records[0].skyline.points
        reached = False
        for _, count in points:
            if reached:
                assert count >= floor
            elif count >= floor:
                reached = True
        assert reached

    def test_scaling_beats_fixed_small_budget_on_latency(
        self, small_workload
    ):
        """Scaling exists for a reason: backlog pressure gets executors."""
        arrivals = [QueryArrival(0, "q94", 0, 0.0)]

        def run(config):
            return FleetEngine(
                small_workload,
                capacity=64,
                allocator=static_allocator(2),
                config=config,
            ).serve(arrivals)

        fixed = run(FleetConfig())
        scaled = run(
            FleetConfig(
                scaling=lambda budget: DynamicAllocation(
                    1, 48, idle_timeout=30.0
                )
            )
        )
        assert scaled.records[0].latency < fixed.records[0].latency
