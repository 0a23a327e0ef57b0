"""Streaming metrics: counters, gauges, and sketch-backed fleet stats.

Exact percentiles need every :class:`~repro.fleet.metrics.QueryRecord`
kept — O(n) memory per serve and impossible to merge across shards.
This module is the bounded alternative: a :class:`MetricsRegistry` of
named counters/gauges/sketches with an associative ``merge``, and
:class:`StreamingFleetStats`, a bounded-memory accumulator over served
queries whose percentile estimates carry the
:class:`~repro.obs.sketch.QuantileSketch` accuracy guarantee.  Its
pool-level subclass, :class:`~repro.fleet.metrics.PoolStreamStats`, is
the fold every :class:`~repro.fleet.metrics.FleetMetrics` total answers
from in both serving modes; record mode adds exact percentiles from its
records.  Build one incrementally (``observe`` each record as it
finishes), from a finished run (``from_records``), or shard-by-shard and
``merge`` — all three produce the same histogram state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.obs.sketch import QuantileSketch

if TYPE_CHECKING:  # runtime import would be circular: fleet.metrics uses us
    from repro.fleet.metrics import QueryRecord

__all__ = ["Counter", "Gauge", "MetricsRegistry", "StreamingFleetStats"]


class Counter:
    """A monotone accumulator; merges by addition."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be ≥ 0: counters only go up)."""
        if amount < 0:
            raise ValueError("counters cannot decrease")
        self.value += amount


class Gauge:
    """A last-value metric that also tracks its peak; merges by max.

    Gauges describe instantaneous state (pool capacity, queue length),
    so cross-shard merging keeps the maximum of both value and peak —
    the conservative roll-up for capacity-style readings.
    """

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Record the current reading."""
        self.value = float(value)
        if self.value > self.peak:
            self.peak = self.value


class MetricsRegistry:
    """Named counters, gauges, and quantile sketches with one merge law.

    Args:
        relative_accuracy: accuracy of sketches created via
            :meth:`sketch` (they must match to merge).

    ``merge`` combines registries metric-by-metric — counters add,
    gauges take the max, sketches merge their histograms — and is
    associative on everything except float-addition rounding in counter
    values and sketch sums.
    """

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        self.relative_accuracy = relative_accuracy
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.sketches: dict[str, QuantileSketch] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        found = self.counters.get(name)
        if found is None:
            found = self.counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        found = self.gauges.get(name)
        if found is None:
            found = self.gauges[name] = Gauge(name)
        return found

    def sketch(self, name: str) -> QuantileSketch:
        """Get or create the named quantile sketch."""
        found = self.sketches.get(name)
        if found is None:
            found = self.sketches[name] = QuantileSketch(self.relative_accuracy)
        return found

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Combine two registries into a new one (inputs untouched)."""
        out = MetricsRegistry(self.relative_accuracy)
        for name, counter in list(self.counters.items()) + list(
            other.counters.items()
        ):
            out.counter(name).value += counter.value
        for name, gauge in list(self.gauges.items()) + list(other.gauges.items()):
            merged = out.gauge(name)
            merged.value = max(merged.value, gauge.value)
            merged.peak = max(merged.peak, gauge.peak)
        for name, sketch in self.sketches.items():
            out.sketches[name] = sketch.merge(QuantileSketch(sketch.relative_accuracy))
        for name, sketch in other.sketches.items():
            if name in out.sketches:
                out.sketches[name] = out.sketches[name].merge(sketch)
            else:
                out.sketches[name] = sketch.merge(
                    QuantileSketch(sketch.relative_accuracy)
                )
        return out

    def as_dict(self) -> dict:
        """JSON-safe snapshot of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {"value": g.value, "peak": g.peak}
                for n, g in sorted(self.gauges.items())
            },
            "sketches": {
                n: s.to_dict() for n, s in sorted(self.sketches.items())
            },
        }


class StreamingFleetStats:
    """Bounded-memory serving stats: the O(1)-per-query FleetMetrics view.

    Args:
        relative_accuracy: sketch accuracy for the latency, queue-delay,
            and run-seconds distributions.

    Feed it finished queries one at a time (:meth:`observe`), convert a
    whole run at once (:meth:`from_records` — also reachable as
    ``FleetMetrics.streaming()`` / ``ClusterMetrics.streaming()``), or
    combine shards with :meth:`merge`.  Counts, sums, extrema, and the
    serving window are exact; percentiles carry the sketch's relative
    error bound (``relative_accuracy``, against the order-statistic
    convention documented on :meth:`QuantileSketch.quantile
    <repro.obs.sketch.QuantileSketch.quantile>` — note
    :class:`~repro.fleet.metrics.FleetMetrics` uses ``np.percentile``'s
    linear interpolation, so the two agree within the bound plus the gap
    between adjacent order statistics).
    """

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        self.relative_accuracy = relative_accuracy
        self.latency = QuantileSketch(relative_accuracy)
        self.queue_delay = QuantileSketch(relative_accuracy)
        self.run_seconds = QuantileSketch(relative_accuracy)
        self.n_queries = 0
        self.total_executor_seconds = 0.0
        self.prediction_hits = 0
        self.prediction_decisions = 0
        self.first_arrival: float | None = None
        self.last_finish: float | None = None

    @classmethod
    def from_records(
        cls, records: Iterable, relative_accuracy: float = 0.01
    ) -> "StreamingFleetStats":
        """Accumulate a finished run's records in one pass."""
        out = cls(relative_accuracy)
        for record in records:
            out.observe(record)
        return out

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
        out = StreamingFleetStats(self.relative_accuracy)
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
            self.relative_accuracy == other.relative_accuracy
            and self.latency == other.latency
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

    def summary(self) -> dict[str, float]:
        """Headline numbers, mirroring ``FleetMetrics.summary`` keys
        where the streaming view can provide them."""
        return {
            "n_queries": float(self.n_queries),
            "makespan_s": self.makespan,
            "p50_latency_s": self.latency.quantile(50),
            "p95_latency_s": self.latency.quantile(95),
            "p99_latency_s": self.latency.quantile(99),
            "mean_queue_delay_s": self.queue_delay.mean,
            "max_queue_delay_s": self.queue_delay.max or 0.0,
            "total_executor_seconds": self.total_executor_seconds,
            "prediction_cache_hit_rate": self.prediction_cache_hit_rate(),
        }
