"""Admission-control tests: policy ordering, capacity invariants,
and a single query on a shared pool, served as a fleet of one."""

import pytest

from repro.engine.allocation import StaticAllocation
from repro.engine.cluster import Cluster
from repro.engine.scheduler import simulate_query
from repro.fleet import FleetEngine, QueryArrival, static_allocator
from repro.fleet.admission import (
    AdmissionRequest,
    CapacityArbiter,
    FairShareAdmission,
    FIFOAdmission,
)
from repro.workloads.generator import Workload


def req(q, app=0, n=4, t=0.0):
    return AdmissionRequest(
        query_index=q, app_id=app, executors=n, submit_time=t
    )


class TestFIFO:
    def test_admits_in_arrival_order(self):
        arbiter = CapacityArbiter(capacity=16, policy=FIFOAdmission())
        for i in range(3):
            arbiter.submit(req(i, n=4, t=float(i)))
        admitted = arbiter.admit()
        assert [r.query_index for r in admitted] == [0, 1, 2]
        assert arbiter.in_use == 12

    def test_head_of_line_blocks_smaller_requests(self):
        """FIFO's defining pathology: a big head request starves a small
        one that would fit right now."""
        arbiter = CapacityArbiter(capacity=10, policy=FIFOAdmission())
        arbiter.submit(req(0, n=8))
        assert [r.query_index for r in arbiter.admit()] == [0]
        arbiter.submit(req(1, n=8))   # does not fit (2 free)
        arbiter.submit(req(2, n=2))   # would fit, but is behind 1
        assert arbiter.admit() == []
        assert arbiter.queue_length == 2
        # Head clears -> both admitted, still in order.
        arbiter.release(0)
        assert [r.query_index for r in arbiter.admit()] == [1, 2]

    def test_capacity_never_exceeded(self):
        arbiter = CapacityArbiter(capacity=10, policy=FIFOAdmission())
        for i in range(5):
            arbiter.submit(req(i, n=4))
        arbiter.admit()
        assert arbiter.in_use <= 10
        assert arbiter.in_use == 8  # 2 of 5 admitted


class TestFairShare:
    def test_small_request_bypasses_blocked_head(self):
        arbiter = CapacityArbiter(capacity=10, policy=FairShareAdmission())
        arbiter.submit(req(0, app=0, n=8))
        arbiter.admit()
        arbiter.submit(req(1, app=1, n=8))  # blocked: only 2 free
        arbiter.submit(req(2, app=2, n=2))  # fits; fair-share takes it
        assert [r.query_index for r in arbiter.admit()] == [2]

    def test_least_loaded_app_goes_first(self):
        arbiter = CapacityArbiter(capacity=32, policy=FairShareAdmission())
        arbiter.submit(req(0, app=0, n=16))
        arbiter.admit()
        # Both fit; app 1 holds nothing, app 0 holds 16.
        arbiter.submit(req(1, app=0, n=4, t=1.0))
        arbiter.submit(req(2, app=1, n=4, t=2.0))
        admitted = arbiter.admit()
        assert [r.query_index for r in admitted] == [2, 1]

    def test_ties_break_by_arrival_order(self):
        arbiter = CapacityArbiter(capacity=32, policy=FairShareAdmission())
        arbiter.submit(req(0, app=0, n=4, t=0.0))
        arbiter.submit(req(1, app=1, n=4, t=1.0))
        admitted = arbiter.admit()
        assert [r.query_index for r in admitted] == [0, 1]

    def test_capacity_never_exceeded(self):
        arbiter = CapacityArbiter(capacity=9, policy=FairShareAdmission())
        for i in range(6):
            arbiter.submit(req(i, app=i, n=4))
        arbiter.admit()
        assert arbiter.in_use <= 9
        assert arbiter.in_use == 8


class TestArbiterBookkeeping:
    def test_release_returns_capacity(self):
        arbiter = CapacityArbiter(capacity=8)
        arbiter.submit(req(0, app=3, n=6))
        arbiter.admit()
        assert arbiter.in_use == 6
        assert arbiter.app_usage(3) == 6
        assert arbiter.release(0, 2) == 2
        assert arbiter.in_use == 4
        assert arbiter.free == 4
        assert arbiter.release(0) == 4  # rest of the grant
        assert arbiter.in_use == 0
        assert arbiter.app_usage(3) == 0

    def test_over_release_rejected(self):
        arbiter = CapacityArbiter(capacity=8)
        arbiter.submit(req(0, n=4))
        arbiter.admit()
        with pytest.raises(ValueError):
            arbiter.release(0, 5)

    def test_oversized_request_rejected(self):
        arbiter = CapacityArbiter(capacity=8)
        with pytest.raises(ValueError):
            arbiter.submit(req(0, n=9))

    def test_try_acquire_partial(self):
        arbiter = CapacityArbiter(capacity=10)
        assert arbiter.try_acquire(0, 0, 7) == 7
        assert arbiter.try_acquire(1, 1, 7) == 3  # only 3 left
        assert arbiter.try_acquire(2, 2, 7) == 0
        assert arbiter.in_use == 10


class TestSingleQueryOnSharedPool:
    """A pool-constrained single query is a fleet of one: its grant
    shrinks to what the pool holds, and all of it goes back."""

    @pytest.fixture(scope="class")
    def workload(self):
        return Workload(scale_factor=50, query_ids=("q1",))

    def serve_one(self, workload, capacity, budget):
        return FleetEngine(
            workload, capacity=capacity, allocator=static_allocator(budget)
        ).serve([QueryArrival(0, "q1", 0, 0.0)])

    def test_shared_pool_constrains_the_grant(self, workload):
        dedicated = simulate_query(
            workload.stage_graph("q1"), StaticAllocation(16), Cluster()
        )
        (shared,) = self.serve_one(workload, capacity=4, budget=16).records
        assert shared.executors_granted <= 4
        assert dedicated.max_executors > shared.executors_granted
        assert shared.run_seconds > dedicated.runtime

    def test_everything_returned_after_the_run(self, workload):
        metrics = self.serve_one(workload, capacity=12, budget=8)
        assert metrics.peak_pool_usage == 8
        assert metrics.pool_skyline.points[-1][1] == 0
