"""Arrival-process tests: determinism, ordering, trace shape."""

import numpy as np
import pytest

from repro.fleet.arrivals import QueryArrival, poisson_arrivals, trace_arrivals
from repro.workloads.production import generate_production_trace

QIDS = ("q1", "q2", "q3", "q94")


class TestQueryArrivalValidation:
    """A non-finite arrival time is refused at construction: ``inf``
    would keep a serve from ever ending, NaN would poison its
    percentiles."""

    @pytest.mark.parametrize(
        "t", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            QueryArrival(1, "q1", 0, t)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            QueryArrival(0, "q1", 0, -1.0)


class TestPoissonArrivals:
    def test_stream_shape(self):
        arrivals = poisson_arrivals(QIDS, n_queries=50, rate_qps=0.5, seed=1)
        assert len(arrivals) == 50
        assert [a.index for a in arrivals] == list(range(50))
        assert arrivals[0].arrival_time == 0.0
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)
        assert {a.query_id for a in arrivals} <= set(QIDS)

    def test_rate_controls_density(self):
        slow = poisson_arrivals(QIDS, n_queries=200, rate_qps=0.1, seed=2)
        fast = poisson_arrivals(QIDS, n_queries=200, rate_qps=10.0, seed=2)
        assert fast[-1].arrival_time < slow[-1].arrival_time

    def test_deterministic_given_seed(self):
        a = poisson_arrivals(QIDS, n_queries=30, rate_qps=1.0, seed=7)
        b = poisson_arrivals(QIDS, n_queries=30, rate_qps=1.0, seed=7)
        assert a == b
        c = poisson_arrivals(QIDS, n_queries=30, rate_qps=1.0, seed=8)
        assert a != c

    def test_multiple_apps(self):
        arrivals = poisson_arrivals(
            QIDS, n_queries=100, rate_qps=1.0, n_apps=5, seed=0
        )
        apps = {a.app_id for a in arrivals}
        assert len(apps) > 1
        assert all(0 <= app < 5 for app in apps)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            poisson_arrivals(QIDS, n_queries=0, rate_qps=1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(QIDS, n_queries=5, rate_qps=0.0)
        with pytest.raises(ValueError):
            poisson_arrivals((), n_queries=5, rate_qps=1.0)


class TestTraceArrivals:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_production_trace(n_applications=300, seed=5)

    def test_stream_shape(self, trace):
        arrivals = trace_arrivals(trace, QIDS, n_queries=120, seed=3)
        assert len(arrivals) == 120
        assert arrivals[0].arrival_time == 0.0
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)

    def test_deterministic_given_seed(self, trace):
        a = trace_arrivals(trace, QIDS, n_queries=80, seed=11)
        b = trace_arrivals(trace, QIDS, n_queries=80, seed=11)
        assert a == b

    def test_apps_issue_bursts(self, trace):
        """The production shape survives the replay: most queries belong
        to apps that issued more than one query (Figure 2a)."""
        arrivals = trace_arrivals(trace, QIDS, n_queries=200, seed=3)
        counts: dict[int, int] = {}
        for a in arrivals:
            counts[a.app_id] = counts.get(a.app_id, 0) + 1
        multi = sum(c for c in counts.values() if c > 1)
        assert multi / len(arrivals) > 0.5

    def test_burst_cap_respected(self, trace):
        arrivals = trace_arrivals(
            trace, QIDS, n_queries=300, max_queries_per_app=4, seed=9
        )
        counts: dict[int, int] = {}
        for a in arrivals:
            counts[a.app_id] = counts.get(a.app_id, 0) + 1
        # An app can be sampled more than once; the cap bounds one burst,
        # so per-app totals stay small multiples of it.
        assert max(counts.values()) <= 4 * 4

    def test_mean_gap_tracks_parameter(self, trace):
        tight = trace_arrivals(
            trace, QIDS, n_queries=150, mean_intra_app_gap=1.0, seed=2
        )
        loose = trace_arrivals(
            trace, QIDS, n_queries=150, mean_intra_app_gap=60.0, seed=2
        )
        assert np.ptp([a.arrival_time for a in tight]) < np.ptp(
            [a.arrival_time for a in loose]
        )
