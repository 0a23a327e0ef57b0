"""Streaming metrics: counters, sketches, and sketch-backed fleet stats.

Exact percentiles need every :class:`~repro.fleet.metrics.QueryRecord`
kept — O(n) memory per serve and impossible to merge across shards.
This module is the bounded alternative: a :class:`MetricsRegistry` of
named counters and quantile sketches (the HTTP server's ``/metrics``),
and :class:`StreamingFleetStats`, a bounded-memory accumulator over
served queries whose percentile estimates carry the
:class:`~repro.obs.sketch.QuantileSketch` accuracy guarantee.  Its
pool-level subclass, :class:`~repro.fleet.metrics.PoolStreamStats`, is
the fold every :class:`~repro.fleet.metrics.FleetMetrics` total answers
from in both serving modes; record mode adds exact percentiles from its
records.  Fold records in one at a time (``observe``), and combine
shards with ``merge``; :class:`~repro.fleet.metrics.ClusterMetrics`
merges its pools' folds that way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.sketch import QuantileSketch

if TYPE_CHECKING:  # runtime import would be circular: fleet.metrics uses us
    from repro.fleet.metrics import QueryRecord

__all__ = ["Counter", "MetricsRegistry", "StreamingFleetStats"]


class Counter:
    """A monotone accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be ≥ 0: counters only go up)."""
        if amount < 0:
            raise ValueError("counters cannot decrease")
        self.value += amount


class MetricsRegistry:
    """Named counters and quantile sketches (1 % relative accuracy),
    created on first use."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.sketches: dict[str, QuantileSketch] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        found = self.counters.get(name)
        if found is None:
            found = self.counters[name] = Counter(name)
        return found

    def sketch(self, name: str) -> QuantileSketch:
        """Get or create the named quantile sketch."""
        found = self.sketches.get(name)
        if found is None:
            found = self.sketches[name] = QuantileSketch()
        return found


class StreamingFleetStats:
    """Bounded-memory serving stats: the O(1)-per-query FleetMetrics view.

    Feed it finished queries one at a time (:meth:`observe`) and
    combine shards with :meth:`merge`.  Counts, sums, extrema, and the
    serving window are exact; percentiles carry the sketches' default
    1 % relative error bound (against the order-statistic
    convention documented on :meth:`QuantileSketch.quantile
    <repro.obs.sketch.QuantileSketch.quantile>` — note
    :class:`~repro.fleet.metrics.FleetMetrics` uses ``np.percentile``'s
    linear interpolation, so the two agree within the bound plus the gap
    between adjacent order statistics).
    """

    def __init__(self) -> None:
        self.latency = QuantileSketch()
        self.queue_delay = QuantileSketch()
        self.run_seconds = QuantileSketch()
        self.n_queries = 0
        self.total_executor_seconds = 0.0
        self.prediction_hits = 0
        self.prediction_decisions = 0
        self.first_arrival: float | None = None
        self.last_finish: float | None = None

    def observe(self, record: QueryRecord) -> None:
        """Fold one finished :class:`~repro.fleet.metrics.QueryRecord` in."""
        self.latency.add(record.latency)
        self.queue_delay.add(record.queue_delay)
        self.run_seconds.add(record.run_seconds)
        self.n_queries += 1
        self.total_executor_seconds += record.auc
        if record.prediction_cached is not None:
            self.prediction_decisions += 1
            if record.prediction_cached:
                self.prediction_hits += 1
        arrival = record.arrival_time
        if self.first_arrival is None or arrival < self.first_arrival:
            self.first_arrival = arrival
        finish = record.finish_time
        if self.last_finish is None or finish > self.last_finish:
            self.last_finish = finish

    def merge(self, other: "StreamingFleetStats") -> "StreamingFleetStats":
        """Combine two shards' stats into a new one (inputs untouched)."""
        out = StreamingFleetStats()
        out.latency = self.latency.merge(other.latency)
        out.queue_delay = self.queue_delay.merge(other.queue_delay)
        out.run_seconds = self.run_seconds.merge(other.run_seconds)
        out.n_queries = self.n_queries + other.n_queries
        out.total_executor_seconds = (
            self.total_executor_seconds + other.total_executor_seconds
        )
        out.prediction_hits = self.prediction_hits + other.prediction_hits
        out.prediction_decisions = (
            self.prediction_decisions + other.prediction_decisions
        )
        arrivals = [
            t for t in (self.first_arrival, other.first_arrival) if t is not None
        ]
        finishes = [
            t for t in (self.last_finish, other.last_finish) if t is not None
        ]
        out.first_arrival = min(arrivals) if arrivals else None
        out.last_finish = max(finishes) if finishes else None
        return out

    def __eq__(self, other: object) -> bool:
        # Exact state equality — the multiprocess-merge determinism
        # contract is asserted with this, so every accumulator counts.
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.latency == other.latency
            and self.queue_delay == other.queue_delay
            and self.run_seconds == other.run_seconds
            and self.n_queries == other.n_queries
            and self.total_executor_seconds == other.total_executor_seconds
            and self.prediction_hits == other.prediction_hits
            and self.prediction_decisions == other.prediction_decisions
            and self.first_arrival == other.first_arrival
            and self.last_finish == other.last_finish
        )

    __hash__ = None  # mutable accumulator

    @property
    def makespan(self) -> float:
        """First arrival to last completion (exact)."""
        if self.first_arrival is None or self.last_finish is None:
            return 0.0
        return self.last_finish - self.first_arrival

    def prediction_cache_hit_rate(self) -> float:
        """Fraction of predictive decisions served from the memo cache."""
        if not self.prediction_decisions:
            return 0.0
        return self.prediction_hits / self.prediction_decisions
