"""Unit tests for executor skylines and AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.allocation import BudgetAllocation
from repro.engine.cluster import Cluster
from repro.engine.scheduler import simulate_query
from repro.engine.skyline import Skyline
from repro.fleet.arrivals import QueryArrival
from repro.fleet.engine import FleetConfig, FleetEngine, static_allocator
from repro.workloads.generator import Workload


def linear_value_at(points, time):
    """Reference implementation: the pre-bisect linear scan."""
    count = 0
    for t, c in points:
        if t > time:
            break
        count = c
    return count


def index_auc(skyline, end_time):
    """Reference implementation: the breakpoint-index path — the
    ``np.add.accumulate`` prefix plus the partial last segment — that
    served every ``auc`` call before the running-area fold."""
    if not skyline.points:
        return 0.0
    times, _, prefix = skyline._ensure_index()
    idx = int(np.searchsorted(times, end_time, side="left")) - 1
    if idx < 0:
        return 0.0
    t, c = skyline.points[idx]
    return float(prefix[idx] + c * (end_time - t))


def linear_auc(points, end_time):
    """Reference implementation: the pre-index full rescan."""
    area = 0.0
    for i, (t, c) in enumerate(points):
        if t >= end_time:
            break
        t_next = points[i + 1][0] if i + 1 < len(points) else end_time
        area += c * (min(t_next, end_time) - t)
    return area


class TestRecord:
    def test_collapses_equal_counts(self):
        s = Skyline()
        s.record(0.0, 5)
        s.record(1.0, 5)
        assert s.points == [(0.0, 5)]

    def test_same_time_overwrites(self):
        s = Skyline()
        s.record(0.0, 5)
        s.record(0.0, 7)
        assert s.points == [(0.0, 7)]

    def test_rejects_time_regression(self):
        s = Skyline()
        s.record(2.0, 1)
        with pytest.raises(ValueError, match="non-decreasing"):
            s.record(1.0, 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            Skyline().record(0.0, -1)


class TestQueries:
    def make(self):
        s = Skyline()
        s.record(0.0, 2)
        s.record(10.0, 6)
        s.record(20.0, 1)
        return s

    def test_value_at(self):
        s = self.make()
        assert s.value_at(-1.0) == 0
        assert s.value_at(0.0) == 2
        assert s.value_at(9.99) == 2
        assert s.value_at(10.0) == 6
        assert s.value_at(100.0) == 1

    def test_max_executors(self):
        assert self.make().max_executors == 6
        assert Skyline().max_executors == 0

    def test_auc_rectangle_sum(self):
        s = self.make()
        # 2*10 + 6*10 + 1*10 = 90 over [0, 30]
        assert s.auc(30.0) == pytest.approx(90.0)

    def test_auc_truncates_mid_step(self):
        s = self.make()
        assert s.auc(15.0) == pytest.approx(2 * 10 + 6 * 5)

    def test_auc_empty_skyline_zero(self):
        assert Skyline().auc(100.0) == 0.0

    def test_auc_rejects_negative_end(self):
        with pytest.raises(ValueError):
            Skyline().auc(-1.0)

    def test_truncated_copy(self):
        s = self.make()
        t = s.truncated(15.0)
        assert t.points == [(0.0, 2), (10.0, 6)]
        # original untouched
        assert len(s.points) == 3


class TestBisectIndexRegression:
    """The breakpoint index must survive interleaved records and queries.

    ``record`` calls arriving *after* queries built the bisect index (the
    fleet's pool skyline interleaves grants with AUC reads constantly)
    must invalidate it, and out-of-order records must fail without
    corrupting either the points or the index.
    """

    def test_record_after_query_refreshes_index(self):
        s = Skyline()
        s.record(0.0, 2)
        assert s.auc(10.0) == pytest.approx(20.0)  # index built here
        assert s.value_at(5.0) == 2
        s.record(10.0, 6)  # out-of-band w.r.t. the built index
        assert s.value_at(12.0) == 6
        assert s.auc(20.0) == pytest.approx(2 * 10 + 6 * 10)

    def test_out_of_order_record_raises_and_preserves_state(self):
        s = Skyline()
        s.record(0.0, 2)
        s.record(10.0, 6)
        before = s.auc(30.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            s.record(5.0, 4)  # out-of-order: must not land
        assert s.points == [(0.0, 2), (10.0, 6)]
        assert s.auc(30.0) == before
        assert s.value_at(7.0) == 2

    def test_same_time_rewrite_updates_queries(self):
        s = Skyline()
        s.record(0.0, 3)
        assert s.value_at(0.0) == 3
        s.record(0.0, 9)  # in-order overwrite of the live step
        assert s.value_at(0.0) == 9
        assert s.auc(2.0) == pytest.approx(18.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=48),
        ),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_property_bisect_matches_linear_reference(steps, probe):
    steps = sorted(steps, key=lambda p: p[0])
    s = Skyline()
    for t, c in steps:
        s.record(t, c)
    assert s.value_at(probe) == linear_value_at(s.points, probe)
    assert s.auc(probe) == linear_auc(s.points, probe)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=48),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_auc_bounded_by_peak_times_duration(steps):
    steps = sorted(steps, key=lambda p: p[0])
    s = Skyline()
    for t, c in steps:
        s.record(t, c)
    end = 120.0
    auc = s.auc(end)
    assert 0.0 <= auc <= s.max_executors * end + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=10),
    st.floats(min_value=1.0, max_value=50.0),
)
def test_property_auc_monotone_in_end_time(counts, end):
    s = Skyline()
    for i, c in enumerate(counts):
        s.record(float(i), c)
    assert s.auc(end) <= s.auc(end + 5.0) + 1e-9


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.lists(
        st.tuples(
            # A zero gap records at the same instant (an overwrite); a
            # narrow count range makes equal-count collapses common.
            st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=500.0)),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from(["before", "at", "after"]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_property_running_area_matches_index_bit_for_bit(start, steps, where, frac):
    """The fold in ``record`` and the lazy index agree exactly — no
    tolerance — for ends before, at, and after the last breakpoint."""
    s = Skyline()
    t = start
    for gap, count in steps:
        t += gap
        s.record(t, count)
    first, last = s.points[0][0], s.points[-1][0]
    if where == "before":
        end = first + frac * (last - first)
    elif where == "at":
        end = last
    else:
        end = last + frac * 1e3
    assert s.auc(end) == index_auc(s, end)
    # The fold also holds for a skyline built from a ready point list.
    assert Skyline(points=list(s.points)).auc(end) == index_auc(s, end)


class TestRunningAreaOnTPCDS:
    """Every TPC-DS plan's billed AUC equals the index path on its own
    skyline.

    ``QueryRecord.auc`` ≡ ``simulate_query``'s ``auc`` for all 103 plans
    is asserted by the fleet-of-one parity suite
    (``tests/engine/test_execution_parity.py::TestTPCDSParity``); this
    adds the other half — both now take the fold, so each is also
    checked against the pre-fold index computation over the same
    skyline.
    """

    def test_all_plans_on_an_uncontended_fleet(self):
        # One pool with room for every grant at once: each query runs as
        # it would alone, so its record must match simulate_query.
        workload = Workload(scale_factor=100)
        cluster = Cluster()
        qids = list(workload)
        assert len(qids) == 103
        arrivals = [QueryArrival(q, qid, 0, 0.0) for q, qid in enumerate(qids)]
        metrics = FleetEngine(
            workload,
            capacity=16 * len(qids),
            allocator=static_allocator(16),
            cluster=cluster,
            config=FleetConfig(idle_release_timeout=5.0),
        ).serve(arrivals)
        for qid, record in zip(qids, metrics.records):
            reference = simulate_query(
                workload.stage_graph(qid),
                BudgetAllocation(16, idle_timeout=5.0, min_executors=1),
                cluster,
            )
            assert record.auc == reference.auc
            assert record.auc == index_auc(record.skyline, record.finish_time)
            assert reference.auc == index_auc(reference.skyline, reference.runtime)
