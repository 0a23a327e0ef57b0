"""Metrics tests for elastic capacity: the idle-autoscaled-cost bugfix
and the ClusterMetrics rollups.

Each pool's :class:`PoolStreamStats` is fed the way a pool runtime feeds
it: every capacity and usage step, each usage step checked against the
capacity in effect, then the records."""

import pytest

from repro.engine.skyline import Skyline
from repro.fleet.metrics import (
    DEFAULT_PRICE_PER_CORE_HOUR,
    ClusterMetrics,
    FleetMetrics,
    PoolStreamStats,
    QueryRecord,
    SkylineTracker,
)


def record(arrival=0.0, admit=0.0, finish=100.0, auc=800.0, cached=None):
    return QueryRecord(
        query_id="q1",
        app_id=0,
        arrival_time=arrival,
        admit_time=admit,
        finish_time=finish,
        executors_granted=8,
        auc=auc,
        prediction_cached=cached,
    )


def skyline(points):
    s = Skyline()
    for t, c in points:
        s.record(t, c)
    return s


def pool(capacity, records, usage, provisioned=None):
    """A pool's metrics from its records, its usage steps and, for an
    autoscaled pool, its provisioned-capacity steps."""
    stats = PoolStreamStats()
    if provisioned is not None:
        stats.capacity = SkylineTracker(*provisioned[0])
        for t, count in provisioned[1:]:
            stats.capacity.record(t, count)
    capacity_at = skyline(provisioned or [(0.0, capacity)]).value_at
    for t, count in usage:
        stats.record_usage(t, count, capacity_at(t))
    for r in records:
        stats.observe(r)
    return FleetMetrics(
        capacity=capacity, cores_per_executor=4, stats=stats, records=records
    )


def dollars(executor_seconds, cores=4):
    return executor_seconds * cores / 3600.0 * DEFAULT_PRICE_PER_CORE_HOUR


class TestIdleCapacityCharging:
    """Regression: autoscaled-but-idle capacity must show up in $ cost.

    The fleet billed pure occupancy, so capacity an autoscaler
    provisioned that no query ever reserved was free — scale-ups looked
    costless and the static-vs-elastic comparison was rigged.
    """

    def build(self, with_capacity_skyline):
        # One query holds 8 executors for [0, 100); the autoscaler grew
        # the pool from 8 to 24 at t=50, and the 16 extra executors sat
        # completely idle for the remaining 50 s.
        return pool(
            24,
            [record(auc=800.0)],
            [(0.0, 0), (0.0, 8), (100.0, 0)],
            [(0.0, 8), (50.0, 24)] if with_capacity_skyline else None,
        )

    def test_idle_scale_up_shows_up_in_dollar_cost(self):
        static = self.build(with_capacity_skyline=False)
        elastic = self.build(with_capacity_skyline=True)
        assert static.idle_capacity_seconds == 0.0
        # provisioned 8*50 + 24*50 = 1600 exec-s, reserved 800 -> 800 idle
        assert elastic.idle_capacity_seconds == pytest.approx(800.0)
        assert static.total_dollar_cost == pytest.approx(dollars(800.0))
        assert elastic.total_dollar_cost == pytest.approx(dollars(1600.0))
        assert elastic.total_dollar_cost > static.total_dollar_cost

    def test_idle_charge_shows_up_in_summary_and_describe(self):
        elastic = self.build(with_capacity_skyline=True)
        summary = elastic.summary()
        assert summary["idle_capacity_seconds"] == pytest.approx(800.0)
        assert summary["total_dollar_cost"] == pytest.approx(dollars(1600.0))
        report = elastic.describe()
        assert "idle capacity cost" in report
        assert f"${elastic.idle_capacity_dollar_cost:9.2f}" in report
        assert f"${elastic.total_dollar_cost:9.2f}" in report

    def test_fully_used_scale_up_carries_no_idle_charge(self):
        metrics = pool(
            16,
            [record(auc=1200.0)],
            [(0.0, 0), (0.0, 8), (50.0, 16), (100.0, 0)],
            [(0.0, 8), (50.0, 16)],
        )
        # provisioned == reserved == occupied == 1200 exec-s: no idle gap
        assert metrics.reserved_executor_seconds == pytest.approx(1200.0)
        assert metrics.idle_capacity_seconds == pytest.approx(0.0)
        assert metrics.total_dollar_cost == pytest.approx(dollars(1200.0))

    def test_provisioning_lag_gap_is_billed(self):
        """Regression: capacity reserved by a grant whose executors had
        not arrived yet (the provisioning ramp) was billed by neither
        the occupancy term nor the old reserved-based idle term.  Every
        provisioned executor-second must land on the bill."""
        # occupancy 800 < reserved 900 < provisioned 1600
        metrics = pool(
            16,
            [record(auc=800.0)],
            [(0.0, 0), (0.0, 9), (100.0, 0)],
            [(0.0, 16)],
        )
        assert metrics.reserved_executor_seconds == pytest.approx(900.0)
        assert metrics.idle_capacity_seconds == pytest.approx(800.0)
        # occupancy (800) + idle (800) == provisioned (1600): nothing
        # slips between the two terms.
        assert metrics.total_dollar_cost == pytest.approx(
            metrics.provisioned_dollar_cost
        )

    def test_provisioned_cost_of_static_pool_is_capacity_times_window(self):
        static = self.build(with_capacity_skyline=False)
        assert static.provisioned_executor_seconds == pytest.approx(24 * 100.0)
        assert static.provisioned_dollar_cost == pytest.approx(dollars(2400.0))

    def test_time_varying_capacity_respected_check(self):
        ok = self.build(with_capacity_skyline=True)
        assert ok.capacity_respected
        bad = pool(
            8,
            [record()],
            [(0.0, 0), (0.0, 12), (100.0, 0)],
            [(0.0, 8)],
        )
        assert not bad.capacity_respected


class TestClusterRollups:
    def build(self, pool_a_points=((0.0, 0), (0.0, 8), (100.0, 0))):
        pool_a = pool(
            16,
            [record(finish=100.0, auc=800.0, cached=True)],
            pool_a_points,
        )
        pool_b = pool(
            24,
            [record(arrival=10.0, admit=20.0, finish=210.0, auc=1000.0, cached=False)],
            [(0.0, 0), (20.0, 8), (210.0, 0)],
            [(0.0, 8), (100.0, 24)],
        )
        cluster = ClusterMetrics(
            pools=[pool_a, pool_b],
            records=[pool_a.records[0], pool_b.records[0]],
            pool_of=[0, 1],
        )
        return pool_a, pool_b, cluster

    def test_counts_and_spans(self):
        pool_a, pool_b, cluster = self.build()
        assert cluster.n_pools == 2
        assert cluster.n_queries == 2
        assert cluster.makespan == 210.0  # first arrival 0 -> last finish 210
        assert [pool.n_queries for pool in cluster.pools] == [1, 1]

    def test_costs_are_pool_sums(self):
        pool_a, pool_b, cluster = self.build()
        assert cluster.total_executor_seconds == pytest.approx(
            pool_a.total_executor_seconds + pool_b.total_executor_seconds
        )
        assert cluster.idle_capacity_seconds == pytest.approx(
            pool_b.idle_capacity_seconds
        )
        assert cluster.total_dollar_cost == pytest.approx(
            pool_a.total_dollar_cost + pool_b.total_dollar_cost
        )
        assert cluster.provisioned_dollar_cost == pytest.approx(
            pool_a.provisioned_dollar_cost + pool_b.provisioned_dollar_cost
        )

    def test_latency_and_delay_cover_all_pools(self):
        _, _, cluster = self.build()
        assert cluster.p99_latency == pytest.approx(
            max(r.latency for r in cluster.records), rel=0.02
        )
        assert cluster.max_queue_delay == 10.0
        assert 0.0 < cluster.utilization() <= 1.0

    def test_summary_and_describe(self):
        _, _, cluster = self.build()
        summary = cluster.summary()
        assert summary["n_pools"] == 2.0
        assert summary["n_queries"] == 2.0
        assert summary["prediction_cache_hit_rate"] == 0.5
        report = cluster.describe()
        assert "pool 0" in report and "pool 1" in report
        assert "idle capacity cost" in report

    def test_capacity_respected_requires_every_pool(self):
        _, _, cluster = self.build()
        assert cluster.capacity_respected
        # pool_a overruns its 16 executors at t=300; pool_b stays fine.
        overrun = ((0.0, 0), (0.0, 8), (100.0, 0), (300.0, 99))
        pool_a, pool_b, cluster = self.build(pool_a_points=overrun)
        assert pool_b.capacity_respected
        assert not pool_a.capacity_respected
        assert not cluster.capacity_respected
