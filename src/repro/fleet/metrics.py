"""Fleet-level serving metrics.

Single-query experiments report run time and AUC; a shared pool serving a
stream needs the serving-systems view on top: latency *distributions*
(p50/p95/p99 — tail latency is what concurrency degrades first), queueing
delay (time spent waiting for capacity, zero on an idle pool), pool
utilization, and the total dollar cost of every executor-second held.

Cost uses the paper's metric — total executor occupancy, ``∫ n_s ds`` —
priced at the testbed's rate: Azure Synapse bills per vCore-hour, so a
4-core executor accrues ``4 × $0.15`` per hour by default.  Pools whose
capacity is elastic (a :class:`repro.fleet.autoscaler.PoolAutoscaler`
resizing them) additionally carry a *capacity skyline*, and their bill
charges autoscaled-but-idle capacity too: every provisioned
executor-second is paid for, whether a query occupied it or not.

:class:`ClusterMetrics` rolls many pools' :class:`FleetMetrics` up into
the sharded-fleet view (:mod:`repro.fleet.cluster`): cluster-wide
latency percentiles and queue delays over all served queries, plus
summed occupancy, idle-capacity, and dollar costs.  Both types derive
their distributions, fault counters, summary, and report from one
accounting core; only the cost roll-ups are per type.

**Streaming mode.**  A record-backed :class:`FleetMetrics` is exact but
O(n) memory per serve.  Under :attr:`FleetConfig.streaming
<repro.fleet.engine.FleetConfig>` the fleet drivers instead fold each
finished query into a :class:`PoolStreamStats` — latency/queue-delay
distributions in :class:`~repro.obs.sketch.QuantileSketch` histograms,
occupancy/billing/fault totals in incremental accumulators, and the
pool/capacity skylines reduced to O(1) :class:`SkylineTracker` state —
and every property below answers from that state instead of the (empty)
record list.  Counts, sums, extrema, windows, and costs are exact;
percentiles carry the sketch's relative-accuracy bound.  Records are
opt-in via JSONL spooling (:meth:`QueryRecord.to_json` /
:func:`read_spooled_records`).
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from repro.engine.faults import FaultStats
from repro.engine.skyline import Skyline
from repro.obs.metrics import StreamingFleetStats
from repro.sparklens.log import ExecutionLog

__all__ = [
    "DEFAULT_PRICE_PER_CORE_HOUR",
    "AdaptiveStats",
    "QueryRecord",
    "SkylineTracker",
    "PoolStreamStats",
    "FleetMetrics",
    "ClusterMetrics",
    "read_spooled_records",
]

#: Azure Synapse Spark pricing ballpark: $0.15 per vCore-hour.
DEFAULT_PRICE_PER_CORE_HOUR = 0.15


@dataclass(frozen=True)
class QueryRecord:
    """One served query's lifecycle on the fleet clock.

    Attributes:
        query_id: workload query that ran.
        app_id: owning application.
        arrival_time: when the query entered the system.
        admit_time: when the arbiter granted its executor budget.
        finish_time: when its last stage completed.
        executors_granted: the admitted budget.
        auc: executor occupancy of the run (executor-seconds actually
            held, after provisioning lag and idle releases).
        prediction_cached: whether the allocator's decision came from the
            prediction memo cache (``None`` for non-predictive allocators).
        prediction_seconds: measured selection overhead charged to the
            query before admission.
        skyline: the query's own allocated-executor step function (on the
            fleet clock) — for a fleet of one on an uncontended pool this
            is bit-identical to ``simulate_query``'s skyline, the
            differential-parity contract the engine tests assert.
        fault_stats: the query's fault ledger (crashes, retries, wasted
            work, spot/on-demand split) when the fleet ran under an
            active :class:`~repro.engine.faults.FaultPlan`; ``None`` on
            unperturbed runs.
        annotations: structured allocator metadata, populated uniformly
            by every fleet driver: at least ``"policy"`` (the
            allocator's name) and ``"predicted_executors"`` (the
            decision before pool clamping) — the same fields the trace
            analyzer reports, and the fleet-side mirror of
            :attr:`repro.engine.metrics.QueryTelemetry.annotations`.
        execution_log: the engine's own observed-duration log, captured
            when :attr:`FleetConfig.record_logs
            <repro.fleet.engine.FleetConfig>` is on (``None``
            otherwise).  Excluded from record equality — the parity
            contracts compare serving outcomes, and logs hold numpy
            arrays.
    """

    query_id: str
    app_id: int
    arrival_time: float
    admit_time: float
    finish_time: float
    executors_granted: int
    auc: float
    prediction_cached: bool | None = None
    prediction_seconds: float = 0.0
    skyline: Skyline | None = None
    fault_stats: FaultStats | None = None
    annotations: dict[str, object] = field(default_factory=dict)
    execution_log: ExecutionLog | None = field(default=None, compare=False)

    @property
    def latency(self) -> float:
        """End-to-end seconds the user waited (arrival → finish)."""
        return self.finish_time - self.arrival_time

    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting for capacity (arrival → admission)."""
        return self.admit_time - self.arrival_time

    @property
    def run_seconds(self) -> float:
        """Execution seconds once admitted (admission → finish)."""
        return self.finish_time - self.admit_time

    def to_json(self) -> str:
        """One deterministic JSON object (fixed key order, compact) —
        the spool-line format streaming serves write.

        Scalars, annotations, and the fault ledger round-trip exactly;
        the skyline and execution log are deliberately dropped (they are
        the O(n)-memory payload streaming mode exists to avoid) and come
        back as ``None`` from :meth:`from_json`.  Same conventions as
        :meth:`repro.obs.trace.TraceEvent.to_json`.
        """
        return json.dumps(
            {
                "query_id": self.query_id,
                "app_id": self.app_id,
                "arrival_time": self.arrival_time,
                "admit_time": self.admit_time,
                "finish_time": self.finish_time,
                "executors_granted": self.executors_granted,
                "auc": self.auc,
                "prediction_cached": self.prediction_cached,
                "prediction_seconds": self.prediction_seconds,
                "fault_stats": (
                    None
                    if self.fault_stats is None
                    else self.fault_stats.as_dict()
                ),
                "annotations": self.annotations,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "QueryRecord":
        """Parse one :meth:`to_json` spool line back into a record."""
        obj = json.loads(line)
        fault = obj.get("fault_stats")
        if fault is not None:
            fault = FaultStats(
                crashes=int(fault["crashes"]),
                reclamations=int(fault["reclamations"]),
                replacements=int(fault["replacements"]),
                tasks_started=int(fault["tasks_started"]),
                tasks_killed=int(fault["tasks_killed"]),
                wasted_task_seconds=float(fault["wasted_task_seconds"]),
                spot_executor_seconds=float(fault["spot_executor_seconds"]),
                ondemand_executor_seconds=float(
                    fault["ondemand_executor_seconds"]
                ),
                spot_discount=float(fault["spot_discount"]),
            )
        return cls(
            query_id=obj["query_id"],
            app_id=int(obj["app_id"]),
            arrival_time=float(obj["arrival_time"]),
            admit_time=float(obj["admit_time"]),
            finish_time=float(obj["finish_time"]),
            executors_granted=int(obj["executors_granted"]),
            auc=float(obj["auc"]),
            prediction_cached=obj.get("prediction_cached"),
            prediction_seconds=float(obj.get("prediction_seconds", 0.0)),
            fault_stats=fault,
            annotations=obj.get("annotations") or {},
        )


def read_spooled_records(
    path_or_file: str | os.PathLike | IO[str] | Iterable[str],
) -> list[QueryRecord]:
    """Load a streaming serve's JSONL record spool, file order.

    Accepts a path (one pool's ``pool_<i>.jsonl`` spool file) or any
    iterable of lines; mirrors :func:`repro.obs.trace.read_jsonl`.
    """
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, encoding="utf-8") as handle:
            return [
                QueryRecord.from_json(line) for line in handle if line.strip()
            ]
    return [
        QueryRecord.from_json(line) for line in path_or_file if line.strip()
    ]


class SkylineTracker:
    """O(1) streaming stand-in for a recorded :class:`Skyline`.

    A full skyline keeps every ``(time, count)`` step — one per grant or
    release, unbounded over a long serve.  The streaming serve only ever
    needs four derived quantities (running integral, current step, peak,
    and windowed area), so the tracker folds each step into those as it
    happens and keeps nothing else.

    The windowed-area shortcut in :meth:`window_auc` assumes the tracked
    value is still ``initial`` at ``start`` — true for both uses here:
    pool usage is zero until the first admission (≥ the first arrival,
    which opens every serving window) and provisioned capacity first
    moves on a tick, which is anchored at the first admission.
    """

    __slots__ = ("initial", "last_time", "last_value", "integral", "peak")

    def __init__(self, time: float = 0.0, value: int = 0) -> None:
        self.initial = int(value)
        self.last_time = float(time)
        self.last_value = int(value)
        self.integral = 0.0
        self.peak = int(value)

    def record(self, time: float, value: int) -> None:
        """Fold one step in (times must be non-decreasing)."""
        self.integral += self.last_value * (time - self.last_time)
        self.last_time = float(time)
        self.last_value = int(value)
        if value > self.peak:
            self.peak = int(value)

    def auc_to(self, time: float) -> float:
        """Area under the step function from 0 to ``time`` (an instant
        at or after the last recorded step)."""
        return self.integral + self.last_value * (time - self.last_time)

    def window_auc(self, start: float, end: float) -> float:
        """Area over ``[start, end]`` (see the class note for when the
        ``initial``-value shortcut at ``start`` is valid)."""
        if end <= start:
            return 0.0
        return self.auc_to(end) - self.initial * start

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkylineTracker):
            return NotImplemented
        return (
            self.initial == other.initial
            and self.last_time == other.last_time
            and self.last_value == other.last_value
            and self.integral == other.integral
            and self.peak == other.peak
        )

    def __repr__(self) -> str:
        return (
            f"SkylineTracker(last={self.last_value}@{self.last_time}, "
            f"peak={self.peak}, integral={self.integral})"
        )


class PoolStreamStats(StreamingFleetStats):
    """One pool's O(1)-memory serving state for a streaming serve.

    Extends :class:`~repro.obs.metrics.StreamingFleetStats` (latency /
    queue-delay / run-seconds sketches, counts, window extrema) with the
    pool-level accumulators a :class:`FleetMetrics` needs to answer its
    full surface without records: the usage and capacity trackers, the
    billed-occupancy total, the incrementally merged fault ledger, and
    the running capacity-invariant check.

    Fold order is finish order, so two serves that finish queries in the
    same order produce bit-identical state — the multiprocess merge
    contract (:mod:`repro.fleet.parallel`) rests on this.
    """

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        super().__init__(relative_accuracy)
        self.usage = SkylineTracker()
        self.capacity: SkylineTracker | None = None
        self.capacity_ok = True
        self.billed_occupancy_seconds = 0.0
        self.fault: FaultStats | None = None

    def observe(self, record: QueryRecord) -> None:
        """Fold one finished query in (latency sketches via the base
        class, then the pool-billing and fault accumulators)."""
        super().observe(record)
        stats = record.fault_stats
        if stats is None:
            self.billed_occupancy_seconds += record.auc
        else:
            self.billed_occupancy_seconds += stats.billed_executor_seconds
            if self.fault is None:
                self.fault = FaultStats()
            self.fault.add(stats)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoolStreamStats):
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
            and self.usage == other.usage
            and self.capacity == other.capacity
            and self.capacity_ok == other.capacity_ok
            and self.billed_occupancy_seconds == other.billed_occupancy_seconds
            and self.fault == other.fault
        )


@dataclass
class AdaptiveStats:
    """The continual-learning ledger of one adaptive serve.

    Snapshot of :class:`repro.fleet.adaptive.AdaptiveController` state at
    the end of a run, attached to :class:`FleetMetrics` /
    :class:`ClusterMetrics` by the fleet drivers so retraining shows up
    in the same place every other serving cost does.

    Attributes:
        observations: finished queries fed back into the loop.
        drift_alarms: times the rolling prediction error crossed the
            configured threshold.
        retrains: completed retraining passes (each producing a shadow
            candidate).
        promotions: shadow candidates that won validation and were
            hot-swapped behind the prediction service.
        rejections: shadow candidates that lost validation and were
            dropped.
        model_generation: the prediction service's generation counter at
            the end of the run (0 = the frozen model served throughout).
        buffer_size: replay-buffer occupancy at the end of the run.
        retrain_points: total training points consumed across retrains.
        retrain_executor_seconds: the modeled executor-seconds spent
            retraining (deterministic — priced into
            :attr:`FleetMetrics.total_dollar_cost`, never measured wall
            clock).
        last_drift_error: the rolling mean relative error at the last
            observation (0.0 before any window fills).
    """

    observations: int = 0
    drift_alarms: int = 0
    retrains: int = 0
    promotions: int = 0
    rejections: int = 0
    model_generation: int = 0
    buffer_size: int = 0
    retrain_points: int = 0
    retrain_executor_seconds: float = 0.0
    last_drift_error: float = 0.0

    def as_summary(self, retrain_dollar_cost: float) -> dict[str, float]:
        """The flat summary keys the metrics objects merge in."""
        return {
            "adaptive_observations": float(self.observations),
            "drift_alarms": float(self.drift_alarms),
            "model_retrains": float(self.retrains),
            "model_promotions": float(self.promotions),
            "model_rejections": float(self.rejections),
            "model_generation": float(self.model_generation),
            "retrain_executor_seconds": self.retrain_executor_seconds,
            "retrain_dollar_cost": retrain_dollar_cost,
        }


def _serving_window(records: Sequence[QueryRecord]) -> tuple[float, float]:
    """First arrival to last completion — the span capacity is billed over."""
    if not records:
        return (0.0, 0.0)
    start = min(r.arrival_time for r in records)
    end = max(r.finish_time for r in records)
    return (start, end)


def cluster_serving_window(
    records: Sequence[QueryRecord], pool_stats: Iterable[PoolStreamStats | None]
) -> tuple[float, float]:
    """The cluster-wide span every pool of a sharded serve bills — a
    pool the router never picked still pays for its provisioned floor.

    Record mode reads the served records; a streaming serve (no records)
    recovers the same span from the pools' accumulators, where a pool
    that served nothing contributes nothing.
    """
    if records:
        return _serving_window(records)
    stats = [s for s in pool_stats if s is not None]
    starts = [s.first_arrival for s in stats if s.first_arrival is not None]
    ends = [s.last_finish for s in stats if s.last_finish is not None]
    return (min(starts), max(ends))


class _Accounting(ABC):
    """The accounting core :class:`FleetMetrics` and
    :class:`ClusterMetrics` share.

    Distributions read the served ``records``, or — on a streaming serve
    — the sketches ``_stats()`` returns (``None`` for a record-backed
    run); fault counters read ``fault_stats``.  Each subclass supplies
    the abstract members below, cost roll-ups included, so every float
    is still summed in its own type's order.
    """

    records: list[QueryRecord]
    adaptive: AdaptiveStats | None

    @abstractmethod
    def _stats(self) -> StreamingFleetStats | None: ...

    @property
    @abstractmethod
    def fault_stats(self) -> FaultStats: ...

    @abstractmethod
    def _faulted(self) -> bool: ...

    @abstractmethod
    def _dollars(self, executor_seconds: float) -> float: ...

    @abstractmethod
    def _occupancy_lines(self, s: dict[str, float]) -> list[str]: ...

    @property
    @abstractmethod
    def total_executor_seconds(self) -> float: ...

    @property
    @abstractmethod
    def idle_capacity_seconds(self) -> float: ...

    @property
    @abstractmethod
    def provisioned_executor_seconds(self) -> float: ...

    @property
    @abstractmethod
    def reserved_executor_seconds(self) -> float: ...

    @property
    @abstractmethod
    def total_dollar_cost(self) -> float: ...

    @property
    @abstractmethod
    def idle_capacity_dollar_cost(self) -> float: ...

    @property
    @abstractmethod
    def provisioned_dollar_cost(self) -> float: ...

    @property
    @abstractmethod
    def spot_dollar_cost(self) -> float: ...

    @property
    @abstractmethod
    def ondemand_dollar_cost(self) -> float: ...

    @property
    def n_queries(self) -> int:
        stats = self._stats()
        if stats is not None:
            return stats.n_queries
        return len(self.records)

    @property
    def makespan(self) -> float:
        """First arrival to last completion."""
        stats = self._stats()
        if stats is not None:
            return stats.makespan
        start, end = _serving_window(self.records)
        return end - start

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of end-to-end query latency (a
        sketch estimate within ``relative_accuracy`` in streaming
        mode)."""
        stats = self._stats()
        if stats is not None:
            return stats.latency.quantile(q)
        if not self.records:
            return 0.0
        return float(np.percentile([r.latency for r in self.records], q))

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99)

    @property
    def mean_queue_delay(self) -> float:
        stats = self._stats()
        if stats is not None:
            return stats.queue_delay.mean
        if not self.records:
            return 0.0
        return float(np.mean([r.queue_delay for r in self.records]))

    @property
    def max_queue_delay(self) -> float:
        stats = self._stats()
        if stats is not None:
            return stats.queue_delay.max or 0.0
        if not self.records:
            return 0.0
        return max(r.queue_delay for r in self.records)

    def prediction_cache_hit_rate(self) -> float:
        """Fraction of predictive decisions served from the memo cache."""
        stats = self._stats()
        if stats is not None:
            return stats.prediction_cache_hit_rate()
        flagged = [
            r.prediction_cached
            for r in self.records
            if r.prediction_cached is not None
        ]
        if not flagged:
            return 0.0
        return float(np.mean(flagged))

    # --- faults ----------------------------------------------------------
    @property
    def wasted_work_seconds(self) -> float:
        """Task progress destroyed by executor failures (re-executed at
        full price — the skyline billed it, then billed the retry)."""
        return self.fault_stats.wasted_task_seconds

    @property
    def task_retries(self) -> int:
        """Tasks re-executed after a crash or spot reclamation."""
        return self.fault_stats.task_retries

    @property
    def executor_failures(self) -> int:
        """Executor losses of either cause (crash or reclamation)."""
        return self.fault_stats.failures

    @property
    def spot_executor_seconds(self) -> float:
        return self.fault_stats.spot_executor_seconds

    @property
    def ondemand_executor_seconds(self) -> float:
        return self.fault_stats.ondemand_executor_seconds

    # --- continual learning ----------------------------------------------
    @property
    def retrain_executor_seconds(self) -> float:
        """Modeled executor-seconds spent retraining (zero when frozen)."""
        if self.adaptive is None:
            return 0.0
        return self.adaptive.retrain_executor_seconds

    @property
    def retrain_dollar_cost(self) -> float:
        """The retraining bill, at the pool's core-hour rate."""
        return self._dollars(self.retrain_executor_seconds)

    def utilization(self) -> float:
        """Reserved over provisioned executor-seconds across the run."""
        provisioned = self.provisioned_executor_seconds
        if provisioned <= 0:
            return 0.0
        return self.reserved_executor_seconds / provisioned

    # --- reporting -------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """The headline numbers as a flat dict (benchmark-friendly).

        Adaptive serves gain the continual-learning keys
        (:meth:`AdaptiveStats.as_summary`); frozen serves keep the
        pre-adaptive key set bit-identically.
        """
        stats = self.fault_stats
        out = {
            "n_queries": float(self.n_queries),
            "makespan_s": self.makespan,
            "p50_latency_s": self.p50_latency,
            "p95_latency_s": self.p95_latency,
            "p99_latency_s": self.p99_latency,
            "mean_queue_delay_s": self.mean_queue_delay,
            "max_queue_delay_s": self.max_queue_delay,
            "utilization": self.utilization(),
            "total_executor_seconds": self.total_executor_seconds,
            "idle_capacity_seconds": self.idle_capacity_seconds,
            "provisioned_executor_seconds": self.provisioned_executor_seconds,
            "total_dollar_cost": self.total_dollar_cost,
            "provisioned_dollar_cost": self.provisioned_dollar_cost,
            "prediction_cache_hit_rate": self.prediction_cache_hit_rate(),
            "executor_failures": float(stats.failures),
            "task_retries": float(stats.task_retries),
            "wasted_work_seconds": float(stats.wasted_task_seconds),
            "spot_executor_seconds": float(stats.spot_executor_seconds),
            "spot_dollar_cost": self.spot_dollar_cost,
        }
        if self.adaptive is not None:
            out.update(self.adaptive.as_summary(self.retrain_dollar_cost))
        return out

    def describe(self) -> str:
        """A human-readable one-run report."""
        s = self.summary()
        lines = [
            f"queries served        {self.n_queries}",
            f"makespan              {s['makespan_s']:10.1f} s",
            f"latency p50/p95/p99   {s['p50_latency_s']:.1f} / "
            f"{s['p95_latency_s']:.1f} / {s['p99_latency_s']:.1f} s",
            f"mean queueing delay   {s['mean_queue_delay_s']:10.1f} s",
            f"max queueing delay    {s['max_queue_delay_s']:10.1f} s",
            *self._occupancy_lines(s),
            f"executor-seconds      {s['total_executor_seconds']:10.0f}",
            f"idle capacity cost    ${self.idle_capacity_dollar_cost:9.2f}",
            f"total cost            ${s['total_dollar_cost']:9.2f}",
            f"provisioned cost      ${s['provisioned_dollar_cost']:9.2f}",
            f"prediction cache hit  {s['prediction_cache_hit_rate']:10.1%}",
        ]
        if self.adaptive is not None:
            a = self.adaptive
            lines.append(
                f"continual learning    gen {a.model_generation}, "
                f"{a.retrains} retrains ({a.promotions} promoted, "
                f"{a.rejections} rejected), {a.drift_alarms} drift alarms, "
                f"retrain cost ${self.retrain_dollar_cost:.2f}"
            )
        if self._faulted():
            stats = self.fault_stats
            lines += [
                f"executor failures     {stats.crashes} crashes, "
                f"{stats.reclamations} reclamations",
                f"task retries          {stats.task_retries} "
                f"({s['wasted_work_seconds']:.0f} task-seconds wasted)",
                f"spot / on-demand      {stats.spot_executor_seconds:.0f} / "
                f"{stats.ondemand_executor_seconds:.0f} executor-seconds "
                f"(${self.spot_dollar_cost:.2f} / "
                f"${self.ondemand_dollar_cost:.2f})",
            ]
        return "\n".join(lines)


@dataclass
class FleetMetrics(_Accounting):
    """Aggregate outcome of one fleet run.

    Attributes:
        capacity: pool size (executors).  For an autoscaled pool this is
            the peak provisioned size the run reached.
        cores_per_executor: executor width, for dollar pricing.
        records: one :class:`QueryRecord` per served query, stream order.
        pool_skyline: reserved-capacity step function over the run — the
            arbiter's outstanding grants; its peak must never exceed
            the capacity in effect at that instant.
        capacity_skyline: provisioned-capacity step function, recorded
            only for autoscaled pools (``None`` means statically
            provisioned).  The gap between this and ``pool_skyline`` is
            idle autoscaled capacity — provisioned, billable, unused.
        serving_window: the ``(start, end)`` span capacity is billed
            over.  A pool inside a sharded fleet bills the *cluster's*
            window — a pool the router never picked still pays for its
            provisioned floor the whole run — while ``None`` (a
            standalone pool) falls back to this pool's own first-arrival
            → last-finish span.
        price_per_core_hour: billing rate for the dollar-cost metrics.
        stats: the pool's :class:`PoolStreamStats` when the serve ran in
            streaming mode — ``records`` is then empty and every
            property below answers from the bounded-memory accumulators
            instead (percentiles become sketch estimates within the
            configured relative accuracy; totals, windows, and costs
            stay exact).  ``None`` for record-backed metrics.
        adaptive: the continual-learning ledger
            (:class:`AdaptiveStats`) when the serve ran with a feedback
            sink that keeps one; ``None`` for frozen serves.  Its
            modeled retraining executor-seconds are priced into
            :attr:`total_dollar_cost`.
    """

    capacity: int
    cores_per_executor: int
    records: list[QueryRecord] = field(default_factory=list)
    pool_skyline: Skyline = field(default_factory=Skyline)
    capacity_skyline: Skyline | None = None
    serving_window: tuple[float, float] | None = None
    price_per_core_hour: float = DEFAULT_PRICE_PER_CORE_HOUR
    stats: PoolStreamStats | None = None
    adaptive: AdaptiveStats | None = None
    _fault_stats: FaultStats | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _window(self) -> tuple[float, float]:
        if self.serving_window is not None:
            return self.serving_window
        if self.stats is not None:
            if self.stats.first_arrival is None:
                return (0.0, 0.0)
            return (self.stats.first_arrival, self.stats.last_finish)
        return _serving_window(self.records)

    def _stats(self) -> PoolStreamStats | None:
        return self.stats

    @property
    def peak_pool_usage(self) -> int:
        """Most executors ever reserved at one instant."""
        if self.stats is not None:
            return self.stats.usage.peak
        return self.pool_skyline.max_executors

    @property
    def capacity_respected(self) -> bool:
        """The fleet's core invariant: grants never exceeded the pool.

        With a time-varying capacity skyline the check is pointwise:
        reserved capacity must sit at or below provisioned capacity at
        every step of either skyline.  A streaming serve makes the same
        pointwise check online, at every usage step, and reports the
        accumulated verdict.
        """
        if self.stats is not None:
            return self.stats.capacity_ok
        if self.capacity_skyline is None:
            return self.peak_pool_usage <= self.capacity
        return all(
            count <= self.capacity_skyline.value_at(t)
            for t, count in self.pool_skyline.points
        ) and all(
            self.pool_skyline.value_at(t) <= count
            for t, count in self.capacity_skyline.points
        )

    @property
    def total_executor_seconds(self) -> float:
        """Summed executor occupancy across all queries (the paper's AUC
        cost metric, fleet-wide)."""
        if self.stats is not None:
            return self.stats.total_executor_seconds
        return sum(r.auc for r in self.records)

    @property
    def provisioned_executor_seconds(self) -> float:
        """Capacity provisioned over the serving window, in
        executor-seconds — what a pay-for-provisioned bill meters."""
        start, end = self._window()
        if end <= start:
            return 0.0
        if self.stats is not None and self.stats.capacity is not None:
            return self.stats.capacity.window_auc(start, end)
        if self.capacity_skyline is None:
            return self.capacity * (end - start)
        return self.capacity_skyline.auc(end) - self.capacity_skyline.auc(start)

    @property
    def reserved_executor_seconds(self) -> float:
        """Grants held by queries over the serving window (the pool
        skyline's area — reserved from admission, counting executors
        still in their provisioning ramp)."""
        start, end = self._window()
        if end <= start:
            return 0.0
        if self.stats is not None:
            return self.stats.usage.window_auc(start, end)
        return self.pool_skyline.auc(end) - self.pool_skyline.auc(start)

    @property
    def idle_capacity_seconds(self) -> float:
        """Autoscaled capacity that sat provisioned but unoccupied.

        Zero for statically provisioned pools (no capacity skyline); for
        autoscaled pools this is the billable gap between provisioned
        capacity and the executor-seconds queries actually occupied —
        including capacity reserved by grants whose executors had not
        arrived yet, so occupancy plus this term bills every provisioned
        executor-second.
        """
        if self.stats is not None:
            if self.stats.capacity is None:
                return 0.0
        elif self.capacity_skyline is None:
            return 0.0
        return max(
            0.0, self.provisioned_executor_seconds - self.total_executor_seconds
        )

    # --- faults ----------------------------------------------------------
    @property
    def fault_stats(self) -> FaultStats:
        """Merged fault ledger across all served queries (all-zero when
        the fleet ran unperturbed).

        Memoized: the metrics object is built after the serve completes,
        so the records are append-complete and ``summary()`` /
        ``describe()`` — which read several ledger fields each — merge
        once instead of once per field.
        """
        if self.stats is not None:
            found = self.stats.fault
            return FaultStats() if found is None else found
        if self._fault_stats is None:
            self._fault_stats = FaultStats.merged(
                r.fault_stats for r in self.records if r.fault_stats is not None
            )
        return self._fault_stats

    def _faulted(self) -> bool:
        if self.stats is not None:
            return self.stats.fault is not None
        return any(r.fault_stats is not None for r in self.records)

    @property
    def billed_occupancy_seconds(self) -> float:
        """Occupancy in on-demand-equivalent executor-seconds.

        Queries without a fault ledger bill their skyline AUC at full
        price (the identical sum the pre-fault engine computed, bit for
        bit); queries served under a fault plan bill their classified
        on-demand seconds plus spot seconds at the spot discount.
        """
        if self.stats is not None:
            return self.stats.billed_occupancy_seconds
        total = 0.0
        for r in self.records:
            if r.fault_stats is None:
                total += r.auc
            else:
                total += r.fault_stats.billed_executor_seconds
        return total

    def _dollars(self, executor_seconds: float) -> float:
        core_hours = executor_seconds * self.cores_per_executor / 3600.0
        return core_hours * self.price_per_core_hour

    @property
    def idle_capacity_dollar_cost(self) -> float:
        return self._dollars(self.idle_capacity_seconds)

    @property
    def spot_dollar_cost(self) -> float:
        """The discounted bill for spot executor-seconds."""
        stats = self.fault_stats
        return self._dollars(stats.spot_executor_seconds * stats.spot_discount)

    @property
    def ondemand_dollar_cost(self) -> float:
        """The full-price bill for on-demand executor-seconds (occupancy
        billed by AUC when no fault ledger exists)."""
        return max(
            0.0,
            self._dollars(self.billed_occupancy_seconds) - self.spot_dollar_cost,
        )

    @property
    def total_dollar_cost(self) -> float:
        """Occupancy cost plus the bill for autoscaled-but-idle capacity
        and (for adaptive serves) model retraining.

        A statically provisioned pool charges pure occupancy (the
        paper's metric); capacity an autoscaler provisioned is paid for
        whether queries used it or not; spot executor-seconds are billed
        at their discount.  Idle *autoscaled* capacity is billed at the
        full on-demand rate — spot classification exists only for
        executor instances that actually arrived, so the conservative
        choice is to price the unoccupied provisioned gap as on-demand.
        An adaptive serve additionally pays for its retraining passes
        (modeled executor-seconds, full price) — the adaptive-vs-frozen
        comparisons are honest only if retraining is on the bill.
        """
        return self._dollars(
            self.billed_occupancy_seconds
            + self.idle_capacity_seconds
            + self.retrain_executor_seconds
        )

    @property
    def provisioned_dollar_cost(self) -> float:
        """What the whole provisioned pool costs over the serving window
        — the apples-to-apples bill when comparing static provisioning
        against autoscaling."""
        return self._dollars(self.provisioned_executor_seconds)

    def streaming(self, relative_accuracy: float = 0.01) -> StreamingFleetStats:
        """The bounded-memory streaming view of this run.

        A streaming serve already holds it — its :attr:`stats` is
        returned directly (``relative_accuracy`` must match the serve's:
        a sketch cannot be re-bucketed after the fact).  A record-backed
        run folds its records into a fresh
        :class:`~repro.obs.metrics.StreamingFleetStats` whose percentile
        estimates are within ``relative_accuracy`` of the exact
        sorted-record values this object reports.
        """
        if self.stats is not None:
            if relative_accuracy != self.stats.relative_accuracy:
                raise ValueError(
                    "a streaming serve's sketch accuracy is fixed at serve "
                    f"time ({self.stats.relative_accuracy}); it cannot be "
                    "re-bucketed afterwards"
                )
            return self.stats
        return StreamingFleetStats.from_records(
            self.records, relative_accuracy=relative_accuracy
        )

    def summary(self) -> dict[str, float]:
        """The shared headline keys plus this pool's peak usage."""
        out = super().summary()
        out["peak_pool_usage"] = float(self.peak_pool_usage)
        return out

    def _occupancy_lines(self, s: dict[str, float]) -> list[str]:
        return [
            f"peak pool usage       {self.peak_pool_usage}/{self.capacity} "
            f"executors",
            f"pool utilization      {s['utilization']:10.1%}",
        ]


@dataclass
class ClusterMetrics(_Accounting):
    """Aggregate outcome of one sharded-fleet run.

    Attributes:
        pools: per-pool :class:`FleetMetrics`, pool-index order.
        records: every served query's :class:`QueryRecord`, arrival-stream
            order, across all pools.  Empty for a streaming serve — the
            cluster-wide distributions then come from merging the pools'
            :class:`PoolStreamStats` (sketch merge is associative and
            commutative, so the roll-up matches what any grouping of the
            shards would produce).
        pool_of: parallel to ``records`` — which pool served each query
            (empty for a streaming serve).
        price_per_core_hour: billing rate (pools carry their own copy;
            this one prices nothing, it is echoed for reporting).
        adaptive: the cluster-wide continual-learning ledger
            (:class:`AdaptiveStats`) when the serve ran with a feedback
            sink — attached here, never per pool, because the loop is
            one shared model across all pools and its retraining bill
            must be counted once.
    """

    pools: list[FleetMetrics]
    records: list[QueryRecord] = field(default_factory=list)
    pool_of: list[int] = field(default_factory=list)
    price_per_core_hour: float = DEFAULT_PRICE_PER_CORE_HOUR
    adaptive: AdaptiveStats | None = None
    _merged_stats: StreamingFleetStats | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _stats(self) -> StreamingFleetStats | None:
        """The pools' merged streaming stats (``None`` when this is a
        record-backed run).  Merged once, pool-index order, memoized."""
        if not self.records and any(p.stats is not None for p in self.pools):
            if self._merged_stats is None:
                merged = None
                for pool in self.pools:
                    if merged is None:
                        merged = pool.stats
                    else:
                        merged = merged.merge(pool.stats)
                self._merged_stats = merged
            return self._merged_stats
        return None

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    @property
    def capacity_respected(self) -> bool:
        """Every pool honoured its (possibly time-varying) capacity."""
        return all(pool.capacity_respected for pool in self.pools)

    @property
    def total_capacity(self) -> int:
        """Summed pool capacities (peak provisioned for autoscaled pools)."""
        return sum(pool.capacity for pool in self.pools)

    @property
    def total_executor_seconds(self) -> float:
        return sum(pool.total_executor_seconds for pool in self.pools)

    @property
    def idle_capacity_seconds(self) -> float:
        return sum(pool.idle_capacity_seconds for pool in self.pools)

    @property
    def provisioned_executor_seconds(self) -> float:
        return sum(pool.provisioned_executor_seconds for pool in self.pools)

    @property
    def reserved_executor_seconds(self) -> float:
        return sum(pool.reserved_executor_seconds for pool in self.pools)

    def _dollars(self, executor_seconds: float) -> float:
        """Priced at pool 0's rate — all pools in a fleet share an
        executor shape and rate (the one retraining bill is the only
        cluster-level charge)."""
        if not self.pools:
            return 0.0
        return self.pools[0]._dollars(executor_seconds)

    @property
    def total_dollar_cost(self) -> float:
        return (
            sum(pool.total_dollar_cost for pool in self.pools)
            + self.retrain_dollar_cost
        )

    @property
    def idle_capacity_dollar_cost(self) -> float:
        return sum(pool.idle_capacity_dollar_cost for pool in self.pools)

    @property
    def fault_stats(self) -> FaultStats:
        """Merged fault ledger across every pool's served queries."""
        return FaultStats.merged(pool.fault_stats for pool in self.pools)

    def _faulted(self) -> bool:
        return any(pool._faulted() for pool in self.pools)

    @property
    def spot_dollar_cost(self) -> float:
        return sum(pool.spot_dollar_cost for pool in self.pools)

    @property
    def ondemand_dollar_cost(self) -> float:
        return sum(pool.ondemand_dollar_cost for pool in self.pools)

    @property
    def provisioned_dollar_cost(self) -> float:
        return sum(pool.provisioned_dollar_cost for pool in self.pools)

    def streaming(self, relative_accuracy: float = 0.01) -> StreamingFleetStats:
        """Cluster-wide streaming stats: each pool folded, then merged —
        the associative-merge path a distributed collector would take.
        A streaming serve returns its already-merged pool stats (the
        accuracy must match the serve's, as with
        :meth:`FleetMetrics.streaming`)."""
        merged = StreamingFleetStats(relative_accuracy=relative_accuracy)
        for pool in self.pools:
            merged = merged.merge(pool.streaming(relative_accuracy))
        return merged

    def queries_per_pool(self) -> list[int]:
        return [pool.n_queries for pool in self.pools]

    def summary(self) -> dict[str, float]:
        """The pool count plus the shared headline keys."""
        return {"n_pools": float(self.n_pools), **super().summary()}

    def _occupancy_lines(self, s: dict[str, float]) -> list[str]:
        return [f"cluster utilization   {s['utilization']:10.1%}"]

    def describe(self) -> str:
        """A human-readable cluster report with a per-pool breakdown."""
        lines = [f"pools                 {self.n_pools}", super().describe()]
        for i, pool in enumerate(self.pools):
            lines.append(
                f"  pool {i}: {pool.n_queries:4d} queries, "
                f"peak {pool.peak_pool_usage}/{pool.capacity} executors, "
                f"util {pool.utilization():6.1%}, "
                f"${pool.total_dollar_cost:8.2f}"
            )
        return "\n".join(lines)
