"""Fleet fault tolerance: determinism, revocation, retries, spot economics.

The behavioural contracts of serving under an active
:class:`~repro.engine.faults.FaultPlan`:

- **determinism regression** — two serves with the same seed are
  byte-identical, injected faults included; a different seed genuinely
  differs.  This flushes out any RNG not derived from the run seed.
- **grants survive crashes** — a failed executor is replaced through the
  provisioning ramp against the same arbiter reservation; the pool
  invariant holds at every instant and fully drains at the end.
- **retries** — killed in-flight work re-executes and the query still
  finishes; wasted work is ledgered.
- **spot economics** — an all-spot pool with no reclamation risk is pure
  savings at bit-identical physics; reclamation churn is counted
  separately from crashes.
"""

import json
from dataclasses import asdict

import pytest

from repro.engine.allocation import DynamicAllocation
from repro.engine.cluster import Cluster
from repro.engine.execution import ExecutionCore
from repro.engine.faults import FaultPlan, SpotMarket
from repro.engine.stages import Stage, StageGraph
from repro.fleet.arrivals import QueryArrival, poisson_arrivals
from repro.fleet.cluster import ShardedFleet
from repro.fleet.engine import FleetConfig, FleetEngine, PoolRuntime, static_allocator
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


@pytest.fixture(scope="module")
def arrivals():
    return poisson_arrivals(QIDS, n_queries=16, rate_qps=0.5, seed=3)


CHURN = FaultPlan(
    seed=5,
    crash_rate=1.0 / 300.0,
    straggler_rate=0.1,
    spot=SpotMarket(fraction=0.5, discount=0.35, reclaim_rate=1.0 / 300.0),
)


def serve(workload, arrivals, plan, capacity=32, budget=8, scaling=None):
    return FleetEngine(
        workload,
        capacity=capacity,
        allocator=static_allocator(budget),
        config=FleetConfig(faults=plan, scaling=scaling),
    ).serve(arrivals)


def serialized(metrics):
    """Byte-stable digest of a serve: summary + per-record fault ledger."""
    blob = {
        "summary": metrics.summary(),
        "records": [
            {
                "query_id": r.query_id,
                "admit": r.admit_time,
                "finish": r.finish_time,
                "auc": r.auc,
                "skyline": r.skyline.points,
                "faults": None if r.fault_stats is None else asdict(r.fault_stats),
            }
            for r in metrics.records
        ],
    }
    return json.dumps(blob, sort_keys=True)


class TestDeterminismRegression:
    def test_same_seed_serves_byte_identical(self, workload, arrivals):
        first = serve(workload, arrivals, CHURN)
        second = serve(workload, arrivals, CHURN)
        assert first.fault_stats.failures > 0  # the plan actually bites
        assert serialized(first) == serialized(second)

    def test_different_seed_differs(self, workload, arrivals):
        first = serve(workload, arrivals, CHURN)
        other = serve(
            workload,
            arrivals,
            FaultPlan(
                seed=CHURN.seed + 1,
                crash_rate=CHURN.crash_rate,
                straggler_rate=CHURN.straggler_rate,
                spot=CHURN.spot,
            ),
        )
        assert serialized(first) != serialized(other)

    def test_sharded_fleet_same_seed_byte_identical(self, workload, arrivals):
        def run():
            return ShardedFleet(
                workload,
                [16, 16],
                static_allocator(8),
                config=FleetConfig(faults=CHURN),
            ).serve(arrivals)

        first, second = run(), run()
        assert first.capacity_respected
        assert serialized(first) == serialized(second)


class TestCrashSemantics:
    def test_grant_survives_crash_and_pool_drains(self, workload, arrivals):
        metrics = serve(workload, arrivals, CHURN)
        stats = metrics.fault_stats
        assert metrics.n_queries == len(arrivals)
        assert metrics.capacity_respected
        assert stats.replacements == stats.failures
        # the reserved-capacity skyline returns to zero: every grant —
        # crashed, replaced, or idle-released — found its way back
        assert metrics.pool_skyline.points[-1][1] == 0

    def test_retries_rerun_killed_work(self, workload):
        # One long query on a small fleet with a vicious crash rate: work
        # is guaranteed to be in flight when executors die.
        plan = FaultPlan(seed=2, crash_rate=1.0 / 60.0)
        metrics = serve(workload, [QueryArrival(0, "q94", 0, 0.0)], plan)
        stats = metrics.fault_stats
        assert stats.failures > 0
        assert stats.task_retries > 0
        assert stats.wasted_task_seconds > 0.0
        baseline = serve(workload, [QueryArrival(0, "q94", 0, 0.0)], None)
        # re-executed work and replacement ramps cost real time
        assert metrics.records[0].latency > baseline.records[0].latency

    def test_no_replacement_returns_capacity_to_pool(self, workload):
        # With replacement off, a crashed slot goes back to the pool; a
        # scaling policy wins capacity back and the query still finishes.
        plan = FaultPlan(seed=2, crash_rate=1.0 / 120.0, replace_failed=False)
        metrics = serve(
            workload,
            [QueryArrival(0, "q94", 0, 0.0)],
            plan,
            scaling=lambda budget: DynamicAllocation(1, 32, idle_timeout=10.0),
        )
        stats = metrics.fault_stats
        assert stats.failures > 0
        assert stats.replacements == 0
        assert metrics.capacity_respected
        assert metrics.pool_skyline.points[-1][1] == 0


class TestSpotEconomics:
    def test_riskless_spot_is_pure_savings(self, workload, arrivals):
        baseline = serve(workload, arrivals, None)
        market = SpotMarket(fraction=1.0, discount=0.35, reclaim_rate=0.0)
        spot = serve(workload, arrivals, FaultPlan(seed=1, spot=market))
        # identical physics, bit for bit ...
        assert spot.summary()["makespan_s"] == baseline.summary()["makespan_s"]
        assert [r.skyline.points for r in spot.records] == [
            r.skyline.points for r in baseline.records
        ]
        # ... at the discounted price
        assert spot.fault_stats.ondemand_executor_seconds == 0.0
        assert spot.total_dollar_cost == pytest.approx(
            0.35 * baseline.total_dollar_cost, rel=1e-9
        )

    def test_reclamations_counted_separately_from_crashes(self, workload, arrivals):
        market = SpotMarket(fraction=1.0, discount=0.35, reclaim_rate=1.0 / 120.0)
        metrics = serve(workload, arrivals, FaultPlan(seed=4, spot=market))
        stats = metrics.fault_stats
        assert stats.reclamations > 0
        assert stats.crashes == 0
        assert stats.spot_executor_seconds > 0.0
        assert metrics.spot_dollar_cost > 0.0
        assert metrics.summary()["executor_failures"] == float(stats.reclamations)

    def test_dollar_split_sums_to_total(self, workload, arrivals):
        metrics = serve(workload, arrivals, CHURN)
        assert metrics.spot_dollar_cost + metrics.ondemand_dollar_cost == (
            pytest.approx(metrics.total_dollar_cost, rel=1e-9)
        )


class TestClusterRollup:
    def test_cluster_metrics_aggregate_fault_ledgers(self, workload, arrivals):
        cluster = ShardedFleet(
            workload,
            [16, 16],
            static_allocator(8),
            config=FleetConfig(faults=CHURN),
        ).serve(arrivals)
        merged = cluster.fault_stats
        assert merged.failures == sum(p.executor_failures for p in cluster.pools)
        assert cluster.task_retries == sum(p.task_retries for p in cluster.pools)
        assert cluster.wasted_work_seconds == pytest.approx(
            sum(p.wasted_work_seconds for p in cluster.pools)
        )
        assert cluster.spot_executor_seconds + cluster.ondemand_executor_seconds == (
            pytest.approx(cluster.total_executor_seconds, rel=1e-9)
        )
        assert cluster.spot_dollar_cost + cluster.ondemand_dollar_cost == (
            pytest.approx(cluster.total_dollar_cost, rel=1e-9)
        )
        summary = cluster.summary()
        assert summary["executor_failures"] == float(merged.failures)
        assert summary["task_retries"] == float(merged.task_retries)
        report = cluster.describe()
        assert "executor failures" in report
        assert "spot / on-demand" in report

    def test_unperturbed_cluster_reports_zero_ledger(self, workload, arrivals):
        cluster = ShardedFleet(workload, [16, 16], static_allocator(8)).serve(
            arrivals
        )
        assert cluster.fault_stats.failures == 0
        assert cluster.summary()["wasted_work_seconds"] == 0.0
        assert "executor failures" not in cluster.describe()


class _SpillWorkload:
    """One 16-task stage whose working set is 8 executors' memory.

    Tasks started on the first executor, alone in the fleet, run at the
    full 3.5x spill slowdown; executors then arrive one per second and
    the spill fades.  When the first executor crashes, its killed tasks
    re-run on a roomier fleet and finish long before the killed attempts
    would have, so those attempts' completion events outlive the query.
    """

    def __init__(self, cluster):
        self.graph = StageGraph(
            stages=[Stage(stage_id=0, num_tasks=16, task_seconds=10.0)],
            working_set_bytes=8 * cluster.executor_memory_bytes,
            query_id="spill",
        )

    def optimized_plan(self, query_id):
        return None

    def stage_graph(self, query_id):
        return self.graph


class TestStaleCompletions:
    """A crash cannot retract its killed tasks' completion events from the
    heap.  One may land after its query finished and its run was freed
    (both modes free finished runs); it must be a no-op there."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["record", "streaming"])
    def test_killed_straggler_completing_after_finish_is_a_noop(
        self, streaming, monkeypatch
    ):
        # (q, executor, stage, scheduled finish) of every killed attempt
        # -> whether that task is a straggler.
        killed: dict[tuple[int, int, int, float], bool] = {}
        finished: set[int] = set()
        late: list[bool] = []
        fail, finish, handle = (
            ExecutionCore.fail_executor,
            PoolRuntime._finish_query,
            PoolRuntime.handle_task_done,
        )

        def recording_fail(self, now, eid):
            for end, stage, task, _ in self._inflight.get(eid, ()):
                n_tasks = self.plan.durations[stage].shape[0]
                slowdown = self.faults.task_duration(stage, task, n_tasks, 1.0)
                killed[(self._trace_query, eid, stage, end)] = slowdown > 1.0
            return fail(self, now, eid)

        def recording_finish(self, now, q):
            finished.add(q)
            return finish(self, now, q)

        def recording_handle(self, now, q, payload):
            if q in finished:
                # A KeyError here would be a live completion after finish.
                late.extend(killed[(q, eid, stage, now)] for stage, eid in payload)
            return handle(self, now, q, payload)

        monkeypatch.setattr(ExecutionCore, "fail_executor", recording_fail)
        monkeypatch.setattr(PoolRuntime, "_finish_query", recording_finish)
        monkeypatch.setattr(PoolRuntime, "handle_task_done", recording_handle)
        cluster = Cluster(grant_batch=1, grant_interval=1.0)
        plan = FaultPlan(seed=18, crash_rate=1 / 40.0, straggler_rate=0.25)
        metrics = FleetEngine(
            _SpillWorkload(cluster),
            capacity=8,
            allocator=static_allocator(8),
            cluster=cluster,
            config=FleetConfig(faults=plan, streaming=streaming),
        ).serve([QueryArrival(i, "spill", 0, 50.0 * i) for i in range(4)])
        assert metrics.n_queries == 4
        assert metrics.capacity_respected
        assert late and any(late), "no killed straggler outlived its query"
        assert metrics.fault_stats.crashes > 0
