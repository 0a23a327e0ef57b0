"""One metrics fold: record-mode metrics equal the record formulas.

Both serve modes keep one online :class:`PoolStreamStats` per pool: every
usage and capacity step feeds its trackers and the capacity check as it
happens.  Record mode settles the trackers at each finish and folds its
records in stream order at ``finalize``.  The reference below is the
record-formula view the fold replaced — sums in stream order,
``FaultStats.merged``, ``Skyline.auc`` window differences and the
pointwise two-skyline capacity check — and every number must match it
with ``==``, not ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.allocation import DynamicAllocation
from repro.engine.faults import FaultPlan, FaultStats, SpotMarket
from repro.engine.skyline import Skyline
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    PoolSpec,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.metrics import SkylineTracker
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")

CHURN = FaultPlan(
    seed=5,
    crash_rate=1.0 / 300.0,
    straggler_rate=0.1,
    spot=SpotMarket(fraction=0.5, discount=0.35, reclaim_rate=1.0 / 300.0),
)


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


def serve(workload, config_name, seed):
    arrivals = poisson_arrivals(QIDS, n_queries=40, rate_qps=1.0, seed=seed)
    alloc = static_allocator(8)
    if config_name == "static":
        return FleetEngine(workload, capacity=24, allocator=alloc).serve(arrivals)
    if config_name == "faults":
        config = FleetConfig(faults=CHURN)
        return FleetEngine(
            workload, capacity=24, allocator=alloc, config=config
        ).serve(arrivals)
    if config_name == "scaling":
        config = FleetConfig(
            scaling=lambda budget: DynamicAllocation(1, 2 * budget, idle_timeout=10.0)
        )
        return FleetEngine(
            workload, capacity=24, allocator=alloc, config=config
        ).serve(arrivals)
    if config_name == "sharded":
        return ShardedFleet(workload, [16, 16, 16], alloc).serve(arrivals)
    assert config_name == "autoscaled-faults"
    spec = PoolSpec(
        capacity=8, autoscaler=AutoscalerConfig(min_capacity=4, max_capacity=32)
    )
    return ShardedFleet(
        workload, [spec, spec], alloc, config=FleetConfig(faults=CHURN)
    ).serve(arrivals)


def pool_reference(pool):
    """One pool's numbers by the record formulas."""
    records = pool.records
    own = (
        (min(r.arrival_time for r in records), max(r.finish_time for r in records))
        if records
        else (0.0, 0.0)
    )
    start, end = pool.serving_window or own
    usage, provisioned = pool.pool_skyline, pool.capacity_skyline
    total = sum(r.auc for r in records)
    billed = 0.0
    for r in records:
        billed += (
            r.auc if r.fault_stats is None else r.fault_stats.billed_executor_seconds
        )
    if end <= start:
        reserved = provisioned_seconds = 0.0
    else:
        reserved = usage.auc(end) - usage.auc(start)
        provisioned_seconds = (
            pool.capacity * (end - start)
            if provisioned is None
            else provisioned.auc(end) - provisioned.auc(start)
        )
    if provisioned is None:
        capacity_ok = usage.max_executors <= pool.capacity
        idle = 0.0
    else:
        capacity_ok = all(
            count <= provisioned.value_at(t) for t, count in usage.points
        ) and all(usage.value_at(t) <= count for t, count in provisioned.points)
        idle = max(0.0, provisioned_seconds - total)
    return {
        "n_queries": len(records),
        "makespan": own[1] - own[0],
        "max_queue_delay": max((r.queue_delay for r in records), default=0.0),
        "peak_pool_usage": usage.max_executors,
        "capacity_respected": capacity_ok,
        "total_executor_seconds": total,
        "billed_occupancy_seconds": billed,
        "reserved_executor_seconds": reserved,
        "provisioned_executor_seconds": provisioned_seconds,
        "idle_capacity_seconds": idle,
        "fault_stats": FaultStats.merged(
            r.fault_stats for r in records if r.fault_stats is not None
        ),
    }


def distribution_reference(records):
    flagged = [r.prediction_cached for r in records if r.prediction_cached is not None]
    return {
        "p50_latency": float(np.percentile([r.latency for r in records], 50)),
        "p99_latency": float(np.percentile([r.latency for r in records], 99)),
        "mean_queue_delay": float(np.mean([r.queue_delay for r in records])),
        "prediction_cache_hit_rate": float(np.mean(flagged)) if flagged else 0.0,
    }


def assert_matches(metrics, expected):
    for name, value in expected.items():
        got = getattr(metrics, name)
        if callable(got):
            got = got()
        assert got == value, (name, got, value)


CONFIGS = ["static", "faults", "scaling", "sharded", "autoscaled-faults"]
#: ClusterMetrics totals that are pool sums, in pool order.
SUMMED = (
    "total_executor_seconds",
    "reserved_executor_seconds",
    "provisioned_executor_seconds",
)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("config_name", CONFIGS)
def test_record_mode_equals_record_formulas(workload, config_name, seed):
    metrics = serve(workload, config_name, seed)
    is_cluster = hasattr(metrics, "pools")
    pools = metrics.pools if is_cluster else [metrics]
    refs = [pool_reference(pool) for pool in pools]
    for pool, ref in zip(pools, refs):
        assert_matches(pool, ref)
        if pool.records:
            assert_matches(pool, distribution_reference(pool.records))
    assert_matches(metrics, distribution_reference(metrics.records))
    if is_cluster:
        records = metrics.records
        start = min(r.arrival_time for r in records)
        end = max(r.finish_time for r in records)
        expected = {
            "n_queries": len(records),
            "makespan": end - start,
            "max_queue_delay": max(r.queue_delay for r in records),
            "capacity_respected": all(r["capacity_respected"] for r in refs),
            "fault_stats": FaultStats.merged(r["fault_stats"] for r in refs),
        }
        for name in SUMMED:
            expected[name] = sum(r[name] for r in refs)
        assert_matches(metrics, expected)


class TestSkylineTracker:
    """The tracker's window areas equal ``Skyline.auc`` differences bit
    for bit, for any window end at or after the latest settle."""

    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=30,
        ),
        settle_at=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_auc_matches_skyline(self, steps, settle_at):
        skyline = Skyline()
        time = 0.0
        for gap, count in steps:
            time += gap
            skyline.record(time, count)
        tracker = SkylineTracker()
        for t, count in skyline.points:
            tracker.record(t, count)
        times = [t for t, _ in skyline.points]
        finish = times[min(settle_at, len(times) - 1)]
        tracker.settle(finish)
        ends = sorted({*times, *(t + 0.25 for t in times)})
        for end in (e for e in ends if e >= finish):
            assert tracker.window_auc(0.0, end) == skyline.auc(end) - skyline.auc(0.0)
        assert tracker.peak == skyline.max_executors

    def test_settle_keeps_only_the_steps_after_a_finish(self):
        tracker = SkylineTracker()
        for t, count in [(1.0, 4), (2.0, 8), (3.0, 2), (5.0, 0)]:
            tracker.record(t, count)
        tracker.settle(3.5)
        assert [t for t, _, _ in tracker.steps] == [3.0, 5.0]
        # 4*1 + 8*1 + 2*1 up to t=4, with the t=5 step still ahead.
        assert tracker.auc_to(4.0) == 14.0
        assert tracker.auc_to(9.0) == 16.0
        with pytest.raises(ValueError):
            tracker.auc_to(2.5)
