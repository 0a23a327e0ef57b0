"""Trace analysis: timelines, utilization, and the Sparklens round-trip.

A trace is a complete account of a run; this module turns one back into
the quantities the paper reasons about:

- **per-query timelines** (:class:`QueryTimeline`): arrival → prediction
  → submit → admission → driver done → finish, with the allocator's
  decision (policy, predicted count, cache hit) attached — the
  query-level answer to "why was this slow?";
- **queue-delay breakdowns**: the wait decomposed into prediction
  overhead (arrival → submit) and admission wait (submit → admit),
  the split :class:`~repro.fleet.metrics.FleetMetrics` cannot see;
- **pool accounting**: the reserved-capacity skyline rebuilt from grant
  events alone — it must reproduce the engine's own pool skyline, a
  cross-check that the emitted grant events are complete;
- **the Sparklens round-trip** (:meth:`TraceAnalyzer.execution_logs`):
  each traced query's observed task durations, stage DAG, and driver
  time reassembled into a :class:`repro.sparklens.log.ExecutionLog`, so
  a *simulated* serve can be fed through the existing post-hoc
  :class:`~repro.sparklens.simulator.SparklensEstimator` — closing the
  paper's Section 5.2 comparison loop entirely inside the repo.

The analyzer is read-only over the event list and builds its state in
one pass; feed it a :class:`~repro.obs.trace.RingBufferTracer`'s events
or load a JSONL log with :meth:`TraceAnalyzer.from_jsonl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.engine.skyline import Skyline
from repro.obs.trace import TraceEvent, materialize, read_jsonl
from repro.sparklens.log import ExecutionLog, StageLog
from repro.sparklens.simulator import SparklensEstimator

__all__ = ["QueryTimeline", "TraceAnalyzer"]


@dataclass
class QueryTimeline:
    """One query's reconstructed lifecycle on the fleet clock.

    Times are ``None`` until the corresponding event appears in the
    trace (a truncated ring buffer may miss early events).
    """

    query: int
    query_id: str | None = None
    pool: int = -1
    arrival_time: float | None = None
    submit_time: float | None = None
    admit_time: float | None = None
    driver_done_time: float | None = None
    finish_time: float | None = None
    budget: int | None = None
    granted: int | None = None
    policy: str | None = None
    predicted_executors: int | None = None
    prediction_cached: bool | None = None
    prediction_seconds: float = 0.0
    stages: int = 0
    tasks_assigned: int = 0
    tasks_completed: int = 0
    tasks_killed: int = 0
    peak_executors: int = 0

    @property
    def latency(self) -> float | None:
        """End-to-end seconds (arrival → finish), when both are known."""
        if self.arrival_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def prediction_delay(self) -> float | None:
        """Allocator overhead charged before submission."""
        if self.arrival_time is None or self.submit_time is None:
            return None
        return self.submit_time - self.arrival_time

    @property
    def admission_wait(self) -> float | None:
        """Seconds queued at the arbiter (submit → admit)."""
        if self.submit_time is None or self.admit_time is None:
            return None
        return self.admit_time - self.submit_time

    @property
    def run_seconds(self) -> float | None:
        """Execution seconds once admitted (admit → finish)."""
        if self.admit_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.admit_time


@dataclass
class _QueryBuild:
    """Mutable per-query assembly state (one pass over the events)."""

    timeline: QueryTimeline
    driver_seconds: float | None = None
    cores_per_executor: int | None = None
    stage_deps: list[list[int]] = field(default_factory=list)
    stage_durations: dict[int, list[float]] = field(default_factory=dict)
    live_executors: int = 0


class TraceAnalyzer:
    """Reconstructs run structure from an event log.

    Args:
        events: trace events in emission order (a ring buffer's
            ``events``, a :func:`~repro.obs.trace.read_jsonl` result, or
            any iterable of :class:`~repro.obs.trace.TraceEvent`).
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        # Emitted flat tuples decode too (repro.obs.trace.materialize):
        # a live RingBufferTracer's internal deque can be fed directly.
        self.events = [materialize(e) for e in events]
        self._builds: dict[int, _QueryBuild] = {}
        self._grant_deltas: dict[int, list[tuple[float, int]]] = {}
        self._capacity: dict[int, list[tuple[float, int]]] = {}
        self._scan()

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceAnalyzer":
        """Load a :class:`~repro.obs.trace.JsonlTracer` log."""
        return cls(read_jsonl(path))

    # --- the single assembly pass ----------------------------------------
    def _build(self, event: TraceEvent) -> _QueryBuild:
        build = self._builds.get(event.query)
        if build is None:
            build = _QueryBuild(QueryTimeline(query=event.query))
            self._builds[event.query] = build
        timeline = build.timeline
        if timeline.query_id is None and event.query_id is not None:
            timeline.query_id = event.query_id
        if event.pool >= 0:
            timeline.pool = event.pool
        return build

    def _grant(self, event: TraceEvent, delta: int) -> None:
        self._grant_deltas.setdefault(event.pool, []).append(
            (event.time, delta)
        )

    def _scan(self) -> None:
        for event in self.events:
            kind = event.kind
            data = event.data
            if kind == "task_assign":
                # Completions are derived, not traced: each assignment
                # finishes at time + duration_s unless a later
                # task_kill retracts it (see repro.obs.trace.EVENT_KINDS).
                build = self._build(event)
                build.timeline.tasks_assigned += 1
                build.timeline.tasks_completed += 1
                build.stage_durations.setdefault(int(data["stage"]), []).append(
                    float(data["duration_s"])
                )
            elif kind == "task_kill":
                build = self._build(event)
                build.timeline.tasks_killed += 1
                build.timeline.tasks_completed -= 1
            elif kind == "exec_add":
                build = self._build(event)
                build.live_executors += 1
                if build.live_executors > build.timeline.peak_executors:
                    build.timeline.peak_executors = build.live_executors
            elif kind in ("exec_remove", "exec_fail"):
                self._build(event).live_executors -= 1
            elif kind == "query_arrive":
                self._build(event).timeline.arrival_time = event.time
            elif kind == "query_predict":
                timeline = self._build(event).timeline
                timeline.predicted_executors = int(data["executors"])
                timeline.prediction_cached = data["cached"]
                timeline.prediction_seconds = float(data["seconds"])
                timeline.policy = data["policy"]
            elif kind == "query_submit":
                timeline = self._build(event).timeline
                timeline.submit_time = event.time
                timeline.budget = int(data["executors"])
            elif kind == "query_admit":
                build = self._build(event)
                timeline = build.timeline
                timeline.admit_time = event.time
                timeline.granted = int(data["executors"])
                build.driver_seconds = float(data["driver_seconds"])
                build.cores_per_executor = int(data["cores_per_executor"])
                build.stage_deps = [
                    [int(d) for d in deps] for deps in data["stage_deps"]
                ]
                timeline.stages = len(build.stage_deps)
                self._grant(event, timeline.granted)
            elif kind == "driver_done":
                self._build(event).timeline.driver_done_time = event.time
            elif kind == "query_finish":
                self._build(event).timeline.finish_time = event.time
            elif kind == "grant_acquire":
                self._grant(event, int(data["executors"]))
            elif kind == "grant_release":
                self._grant(event, -int(data["executors"]))
            elif kind == "serve_begin":
                for pool, capacity in enumerate(data["pools"]):
                    self._capacity.setdefault(pool, []).append(
                        (event.time, int(capacity))
                    )
            elif kind == "pool_resize":
                self._capacity.setdefault(event.pool, []).append(
                    (event.time, int(data["capacity"]))
                )

    # --- query views -----------------------------------------------------
    def timelines(self) -> list[QueryTimeline]:
        """Every traced query's timeline, stream order."""
        return [
            self._builds[q].timeline
            for q in sorted(self._builds)
            if q >= 0
        ]

    def timeline(self, query: int) -> QueryTimeline:
        """One query's timeline by stream position."""
        return self._builds[query].timeline

    def queue_delay_breakdown(self) -> dict[str, float]:
        """Mean/max decomposition of where served queries waited.

        Splits each query's pre-execution wait into prediction overhead
        (arrival → submit) and admission wait (submit → admit) — the
        decomposition record-level metrics collapse into one number.
        """
        timelines = [
            t
            for t in self.timelines()
            if t.latency is not None
            and t.prediction_delay is not None
            and t.admission_wait is not None
        ]
        if not timelines:
            return {
                "n_queries": 0.0,
                "mean_prediction_delay_s": 0.0,
                "mean_admission_wait_s": 0.0,
                "max_admission_wait_s": 0.0,
                "mean_run_s": 0.0,
                "mean_latency_s": 0.0,
            }
        n = float(len(timelines))
        return {
            "n_queries": n,
            "mean_prediction_delay_s": sum(
                t.prediction_delay for t in timelines
            )
            / n,
            "mean_admission_wait_s": sum(t.admission_wait for t in timelines)
            / n,
            "max_admission_wait_s": max(t.admission_wait for t in timelines),
            "mean_run_s": sum(t.run_seconds for t in timelines) / n,
            "mean_latency_s": sum(t.latency for t in timelines) / n,
        }

    # --- pool accounting -------------------------------------------------
    def pools(self) -> list[int]:
        """Pool indices seen in the trace."""
        seen = set(self._grant_deltas) | set(self._capacity)
        return sorted(p for p in seen if p >= 0)

    def reserved_skyline(self, pool: int) -> Skyline:
        """The pool's reserved-grant step function, rebuilt from grant
        events alone.

        For an untraced engine this state lives in the arbiter; the
        rebuilt skyline must match ``FleetMetrics.pool_skyline``
        point-for-point — the completeness check on grant emission.
        """
        skyline = Skyline()
        skyline.record(0.0, 0)
        held = 0
        for time, delta in self._grant_deltas.get(pool, []):
            held += delta
            skyline.record(time, held)
        return skyline

    def capacity_skyline(self, pool: int) -> Skyline:
        """Provisioned capacity over time (serve_begin + resizes)."""
        skyline = Skyline()
        for time, capacity in self._capacity.get(pool, []):
            skyline.record(time, capacity)
        return skyline

    def serving_window(self) -> tuple[float, float]:
        """First traced arrival to last traced finish."""
        arrivals = [
            t.arrival_time
            for t in self.timelines()
            if t.arrival_time is not None
        ]
        finishes = [
            t.finish_time for t in self.timelines() if t.finish_time is not None
        ]
        if not arrivals or not finishes:
            return (0.0, 0.0)
        return (min(arrivals), max(finishes))

    def utilization(self, pool: int) -> float:
        """Reserved over provisioned executor-seconds for one pool,
        billed over the trace's serving window (the
        ``FleetMetrics.utilization`` definition)."""
        start, end = self.serving_window()
        if end <= start:
            return 0.0
        capacity = self.capacity_skyline(pool)
        provisioned = capacity.auc(end) - capacity.auc(start)
        if provisioned <= 0:
            return 0.0
        reserved = self.reserved_skyline(pool)
        return (reserved.auc(end) - reserved.auc(start)) / provisioned

    # --- the Sparklens round-trip ----------------------------------------
    def execution_log(self, query: int) -> ExecutionLog:
        """Rebuild one traced query's :class:`ExecutionLog`.

        Durations come from ``task_assign`` events in assignment order —
        the same order (and the same floats) the engine's own
        ``record_log`` path captures, killed-and-retried attempts
        included — and the DAG and driver time from the admit event, so
        the log is exactly what a real deployment would scrape from this
        run's event stream.
        """
        build = self._builds.get(query)
        if build is None or not build.stage_deps:
            raise KeyError(f"query {query} has no admitted trace")
        stages = []
        for sid, deps in enumerate(build.stage_deps):
            stages.append(
                StageLog(
                    stage_id=sid,
                    dependencies=list(deps),
                    task_durations=np.asarray(
                        build.stage_durations.get(sid, []), dtype=float
                    ),
                )
            )
        return ExecutionLog(
            query_id=build.timeline.query_id or f"query-{query}",
            driver_seconds=build.driver_seconds,
            stages=stages,
            cores_per_executor=build.cores_per_executor,
            executors_used=max(1, build.timeline.peak_executors),
        )

    def execution_logs(self) -> dict[int, ExecutionLog]:
        """Every admitted query's rebuilt log, keyed by stream position."""
        return {
            q: self.execution_log(q)
            for q in sorted(self._builds)
            if q >= 0 and self._builds[q].stage_deps
        }

    def estimator(self, query: int) -> SparklensEstimator:
        """A Sparklens estimator over one traced query's rebuilt log."""
        return SparklensEstimator(self.execution_log(query))
