"""Zero-fault differential parity: an inert ``FaultPlan`` changes nothing.

The fault layer's foundational contract: ``FaultPlan`` with every rate at
zero builds no injector, draws no RNG, schedules no event — a run through
the fault-aware engine is *bit-identical* (runtime, AUC, skyline,
records, summaries) to the unperturbed engine.  Asserted here across the
whole TPC-DS workload for both drivers — ``simulate_query`` and a
sharded fleet of one — and re-checked in CI by the fleet bench gate
(``benchmarks/perf/compare.py``).  Any divergence means an inert plan
started paying (or perturbing) something, which would silently invalidate
every fault-sweep comparison against the unperturbed baseline.
"""

import pytest

from repro.engine.allocation import BudgetAllocation, StaticAllocation
from repro.engine.cluster import Cluster
from repro.engine.execution import compile_plan
from repro.engine.faults import FaultPlan
from repro.engine.scheduler import simulate_query
from repro.engine.sweep import simulate_query_sweep
from repro.fleet.arrivals import QueryArrival, poisson_arrivals
from repro.fleet.cluster import ShardedFleet
from repro.fleet.engine import FleetConfig, FleetEngine, static_allocator
from repro.workloads.generator import Workload

INERT = FaultPlan(seed=1234)  # a seed alone perturbs nothing


@pytest.fixture(scope="module")
def cluster():
    return Cluster()


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=100)


def assert_result_parity(candidate, reference):
    assert candidate.runtime == reference.runtime
    assert candidate.auc == reference.auc
    assert candidate.skyline.points == reference.skyline.points
    assert candidate.max_executors == reference.max_executors
    assert candidate.fault_stats is None


class TestSimulateQueryZeroFaultParity:
    def test_all_tpcds_plans_bit_identical(self, workload, cluster):
        assert not INERT.active
        for i, qid in enumerate(workload):
            budget = (4, 8, 16, 32)[i % 4]
            plan = compile_plan(workload.stage_graph(qid))
            reference = simulate_query(
                plan, BudgetAllocation(budget, idle_timeout=5.0), cluster
            )
            candidate = simulate_query(
                plan,
                BudgetAllocation(budget, idle_timeout=5.0),
                cluster,
                faults=INERT,
            )
            assert_result_parity(candidate, reference)

    def test_sweep_keeps_fast_path_under_inert_plan(self, workload, cluster):
        plan = compile_plan(workload.stage_graph("q94"))
        counts = [1, 4, 8, 16, 32]
        reference = simulate_query_sweep(plan, counts, cluster)
        candidate = simulate_query_sweep(plan, counts, cluster, faults=INERT)
        for cand, ref in zip(candidate, reference):
            assert_result_parity(cand, ref)

    def test_sweep_active_plan_matches_per_count_event_loop(self, workload, cluster):
        faults = FaultPlan(seed=7, crash_rate=1.0 / 120.0, straggler_rate=0.2)
        plan = compile_plan(workload.stage_graph("q3"))
        counts = [2, 8, 16]
        swept = simulate_query_sweep(plan, counts, cluster, faults=faults)
        for n, result in zip(counts, swept):
            loop = simulate_query(plan, StaticAllocation(n), cluster, faults=faults)
            assert result.runtime == loop.runtime
            assert result.auc == loop.auc
            assert result.skyline.points == loop.skyline.points
            assert result.fault_stats == loop.fault_stats


class TestShardedFleetZeroFaultParity:
    def test_all_tpcds_plans_bit_identical(self, workload, cluster):
        for i, qid in enumerate(workload):
            budget = (4, 8, 16, 32)[i % 4]
            arrivals = [QueryArrival(0, qid, 0, 0.0)]
            reference = ShardedFleet(
                workload, [64], static_allocator(budget), cluster=cluster
            ).serve(arrivals)
            candidate = ShardedFleet(
                workload,
                [64],
                static_allocator(budget),
                cluster=cluster,
                config=FleetConfig(faults=INERT),
            ).serve(arrivals)
            ref_pool, cand_pool = reference.pools[0], candidate.pools[0]
            assert cand_pool.records == ref_pool.records
            assert cand_pool.pool_skyline.points == ref_pool.pool_skyline.points
            assert cand_pool.summary() == ref_pool.summary()
            assert candidate.records[0].fault_stats is None

    def test_contended_stream_bit_identical(self, workload, cluster):
        qids = list(workload)[::8]
        stream = poisson_arrivals(qids, 32, 1.0, seed=11)
        reference = FleetEngine(
            workload, capacity=48, allocator=static_allocator(8)
        ).serve(stream)
        candidate = FleetEngine(
            workload,
            capacity=48,
            allocator=static_allocator(8),
            config=FleetConfig(faults=INERT),
        ).serve(stream)
        assert candidate.records == reference.records
        assert candidate.pool_skyline.points == reference.pool_skyline.points
        assert candidate.summary() == reference.summary()
