"""The fleet engine: many concurrent query runs on one shared clock.

``repro.engine.scheduler.simulate_query`` plays out *one* query on a
dedicated cluster.  The fleet engine multiplexes a whole arrival stream:
each admitted query executes its stage DAG — waves of tasks, provisioning
lag, memory-pressure and coordination physics, idle releases — on the
executor budget the capacity arbiter granted it, and every grant and
release moves shared pool state that decides when the *next* queued query
may start.

Both simulators drive the same per-query state machine, the shared
:class:`~repro.engine.execution.ExecutionCore`; this module contributes
only the fleet-specific parts — admission through the
:class:`~repro.fleet.admission.CapacityArbiter` and per-query capacity
accounting against the pool.  Those parts live in :class:`PoolRuntime`,
*one pool's* serving state machine, deliberately separated from the
event loop that drives it: :meth:`repro.fleet.cluster.ShardedFleet.serve`
is the one in-process loop, multiplexing N runtimes (plus routing and
autoscaling) on one shared heap, and :class:`FleetEngine` is a facade
over a sharded fleet of one static pool — so sharded-of-one parity
holds by construction.  The contract that keeps the runtime honest: a
fleet of one query on an uncontended pool reproduces ``simulate_query``
under :class:`~repro.engine.allocation.BudgetAllocation` *bit-for-bit* —
runtime, AUC, and skyline — a property asserted across the whole TPC-DS
workload in ``tests/engine/test_execution_parity.py`` and re-checked by
the CI bench gates.

Allocators decide each query's *admission budget*.  Three are provided: a
:func:`static_allocator` (the default-configuration baseline), the online
:class:`~repro.fleet.prediction.PredictionService` (AutoExecutor), and an
:func:`oracle_allocator` that probes the simulator itself for the
cheapest near-optimal count (the upper bound predictions chase).

On top of the fixed budget, :attr:`FleetConfig.scaling` turns on
*mid-query dynamic scaling*: each admitted query gets an
:class:`~repro.engine.allocation.AllocationPolicy` (built from its
budget) that is polled after every one of its events and at every tick,
exactly like the dedicated-cluster scheduler polls its policy.  Scale-up
requests draw additional executors from whatever the pool can spare
right now (no queueing — the reservation the query queued for was its
admission budget), and idle executors shed below the budget return to
the pool for other queries; the arbiter keeps the pool invariant either
way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.engine.allocation import AllocationPolicy, AllocationState
from repro.engine.cluster import Cluster
from repro.engine.execution import (
    DEFAULT_SCHEDULER_CONFIG,
    CompiledPlan,
    ExecutionCore,
    SchedulerConfig,
    compile_plan,
)
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.plan import LogicalPlan
from repro.engine.skyline import Skyline
from repro.engine.stages import StageGraph
from repro.fleet.admission import (
    AdmissionPolicy,
    AdmissionRequest,
    CapacityArbiter,
)
from repro.fleet.arrivals import QueryArrival
from repro.fleet.metrics import FleetMetrics, PoolStreamStats, QueryRecord, SkylineTracker
from repro.obs.trace import TraceEvent, Tracer
from repro.workloads.generator import Workload

__all__ = [
    "FeedbackSink",
    "FleetConfig",
    "FleetEngine",
    "PoolRuntime",
    "StreamingConfig",
    "allocator_annotations",
    "static_allocator",
    "oracle_allocator",
]

#: An allocator maps (query_id, optimized plan) to an executor budget —
#: either a plain int or a :class:`repro.fleet.prediction.Prediction`.
Allocator = Callable[[str, object], object]

#: A scaling factory maps an admitted budget to the per-query policy that
#: governs mid-run growth and idle release for that query.
ScalingFactory = Callable[[int], AllocationPolicy]


class FeedbackSink(Protocol):
    """Outcome feedback: the prediction → observation loop's receiver.

    A sink attached as :attr:`FleetConfig.feedback` is called once per
    finished query, on the simulation clock, with everything the
    continual-learning loop needs: the finished
    :class:`~repro.fleet.metrics.QueryRecord` (observed runtime, granted
    budget, the execution log when :attr:`FleetConfig.record_logs` is
    on), the allocator's predicted runtime at decision time (``None``
    for non-predictive allocators), and the optimized plan whose
    features the prediction was made from.

    The hook runs *inside* the serve loop — a sink that hot-swaps the
    scorer behind a :class:`~repro.fleet.prediction.PredictionService`
    changes every decision after the current instant, which is exactly
    how :class:`repro.fleet.adaptive.AdaptiveController` closes the
    loop.  ``None`` (the default) is the zero-cost off switch: no
    per-finish work, bit-identical to the frozen serve.
    """

    def observe(
        self,
        now: float,
        record: QueryRecord,
        predicted_runtime_seconds: float | None,
        plan: LogicalPlan,
    ) -> None: ...


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs for :attr:`FleetConfig.streaming` — the O(1)-memory serve.

    Attributes:
        relative_accuracy: the latency / queue-delay / run-seconds
            sketches' accuracy bound (the α of
            :class:`repro.obs.sketch.QuantileSketch`).
        spool_dir: directory to spool finished :class:`QueryRecord`\\ s
            to, one JSONL file per pool (``pool_<i>.jsonl``, the
            :meth:`QueryRecord.to_json
            <repro.fleet.metrics.QueryRecord.to_json>` line format).
            ``None`` (the default) keeps records entirely out of the
            run: the metrics answer from the streaming accumulators
            alone.
    """

    relative_accuracy: float = 0.01
    spool_dir: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-engine knobs.

    Attributes:
        scheduler: per-query physics (same knobs as ``simulate_query``).
        tick_interval: idle-check / policy polling period.
        idle_release_timeout: seconds of executor idleness before it is
            returned to the pool mid-query (``None`` holds budgets until
            completion).  Ignored when ``scaling`` is set — the per-query
            policy's ``idle_timeout`` governs instead.
        min_executors_per_query: floor idle release never shrinks below —
            a started query must be able to finish.  Ignored when
            ``scaling`` is set (the policy's ``min_executors`` governs).
        charge_prediction_overhead: add the allocator's measured selection
            seconds to the query's pre-admission latency (Section 5.6's
            overheads, paid where they occur: on the critical path).
        scaling: optional per-query dynamic-scaling mode — a factory
            mapping the admitted budget to an
            :class:`~repro.engine.allocation.AllocationPolicy` (e.g.
            ``lambda budget: DynamicAllocation(1, 2 * budget)``).  The
            policy is polled on the query's events and every tick; growth
            beyond the budget is granted from the pool's spare capacity,
            idle executors are shed at the policy's own timeout/floor.
            The policy's ``initial_executors`` is ignored: the admission
            budget plays that role.
        faults: optional fleet-wide perturbation layer
            (:mod:`repro.engine.faults`): every admitted query draws its
            own deterministic fault streams (keyed by the run seed and
            its stream position), failure events land on the shared
            heap, and — under the default ``replace_failed`` — a failed
            executor's admission grant survives: the arbiter reservation
            is untouched and the slot re-provisions through the normal
            ramp.  ``None`` or an inert plan (every rate zero) serves
            bit-identically to the unperturbed engine.
        record_logs: capture each served query's observed-duration
            :class:`~repro.sparklens.log.ExecutionLog` on its
            :class:`~repro.fleet.metrics.QueryRecord` — the engine's own
            accounting that the trace-rebuilt logs
            (:meth:`repro.obs.analyze.TraceAnalyzer.execution_logs`) are
            cross-checked against.  Off by default: logs hold per-task
            float lists and records are otherwise tiny.
        streaming: the O(1)-memory serve mode.  ``None`` (the default)
            materializes every :class:`~repro.fleet.metrics.QueryRecord`
            exactly as before — byte-identical to the pre-streaming
            engine.  A :class:`StreamingConfig` (or ``True`` for the
            defaults) makes every fleet driver fold finished queries
            into :class:`~repro.fleet.metrics.PoolStreamStats` instead
            of retaining them, free all per-query state eagerly, accept
            generator arrival streams (time-ordered; consumed lazily),
            and optionally spool records to JSONL.
        feedback: optional :class:`FeedbackSink` receiving every finished
            query's outcome (record, predicted runtime, optimized plan)
            on the simulation clock — the continual-learning loop's
            entry point (:mod:`repro.fleet.adaptive`).  ``None`` (the
            default) serves bit-identically to a feedback-free engine.
    """

    scheduler: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG
    tick_interval: float = 1.0
    idle_release_timeout: float | None = 30.0
    min_executors_per_query: int = 1
    charge_prediction_overhead: bool = True
    scaling: ScalingFactory | None = None
    faults: FaultPlan | None = None
    record_logs: bool = False
    streaming: StreamingConfig | bool | None = None
    feedback: FeedbackSink | None = None

    def __post_init__(self) -> None:
        # Normalize the shorthand: streaming=True means the defaults,
        # False means off.  Frozen dataclass, hence object.__setattr__.
        if self.streaming is True:
            object.__setattr__(self, "streaming", StreamingConfig())
        elif self.streaming is False:
            object.__setattr__(self, "streaming", None)

    @property
    def wants_ticks(self) -> bool:
        """Whether serving this config needs the periodic tick chain."""
        return self.idle_release_timeout is not None or self.scaling is not None


def decision_fields(
    decision: object, cap: int
) -> tuple[int, bool | None, float, float | None]:
    """Normalize an allocator's decision into its four fields.

    Returns ``(budget, cached, seconds, estimated_runtime_seconds)``
    with the budget clamped to ``[1, cap]``.  Plain-int allocators carry
    no cache/overhead/runtime metadata.
    """
    if hasattr(decision, "executors"):
        budget = int(decision.executors)
        cached = decision.cached
        seconds = float(decision.seconds)
        estimate = getattr(decision, "estimated_runtime_seconds", None)
    else:
        budget, cached, seconds, estimate = int(decision), None, 0.0, None
    return max(1, min(budget, cap)), cached, seconds, estimate


def allocator_annotations(allocator: Allocator, decision: object) -> dict:
    """The uniform record annotations every fleet driver attaches.

    ``policy`` is the allocator's self-declared ``policy_name``
    (``"static"``, ``"oracle"``, ``"prediction"``, or ``"custom"`` for
    unnamed callables) and ``predicted_executors`` is the decision
    *before* pool clamping — so a budget the pool truncated is still
    visible next to ``QueryRecord.executors_granted``.
    """
    raw = decision.executors if hasattr(decision, "executors") else decision
    return {
        "policy": getattr(allocator, "policy_name", "custom"),
        "predicted_executors": int(raw),
    }


@dataclass
class _QueryRun:
    """Mutable per-query execution state inside the fleet."""

    arrival: QueryArrival
    core: ExecutionCore
    budget: int
    admit_time: float
    prediction_cached: bool | None
    prediction_seconds: float
    estimated_runtime_seconds: float | None
    emit: Callable[[float, int, int], None]
    policy: AllocationPolicy | None = None
    injector: FaultInjector | None = None
    annotations: dict = field(default_factory=dict)
    outstanding: int = 0
    finished: bool = False


class PoolRuntime:
    """One pool's serving state machine, driven by an external event heap.

    The runtime owns everything that belongs to a single pool — the
    capacity arbiter, the per-query :class:`_QueryRun` table, the
    reserved-capacity skyline, and the finished-query records — while
    the *driver* owns the heap, the clock, and the tick chain.  Event
    handlers push follow-up events through the ``push`` callback the
    driver supplies, so every event in a multi-pool cluster still lands
    on one totally ordered heap, and the multiprocess driver
    (:mod:`repro.fleet.parallel`) can replay one pool's subsequence on
    a heap of its own.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        capacity: the pool's (initial) size in executors.
        cluster: node/executor shapes and provisioning lag.
        admission: queueing policy (default FIFO).
        config: fleet knobs (shared across pools in a cluster).
        push: ``push(time, kind, q, payload)`` — schedule an event for
            this pool on the driver's heap.
        start_ticks: driver callback that starts the (shared) tick chain
            the first time any pool admits a query.
        compiled: compile-once memo mapping query id → compiled plan
            (shared across pools so each plan compiles once per cluster).
        max_capacity: ceiling an autoscaler may grow this pool to
            (defaults to ``capacity``: statically provisioned).
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving this
            pool's lifecycle events (submit/admit/finish, grant moves,
            faults, resizes) and, threaded into each query's
            :class:`~repro.engine.execution.ExecutionCore`, its
            execution events.  ``None`` is the zero-cost off switch.
        pool_index: identity stamped on emitted events (a sharded fleet
            numbers its pools; a :class:`FleetEngine` is pool 0).
    """

    def __init__(
        self,
        *,
        workload: Workload,
        capacity: int,
        cluster: Cluster,
        admission: AdmissionPolicy | None,
        config: FleetConfig,
        push: Callable[..., None],
        start_ticks: Callable[[float], None],
        compiled: dict[str, CompiledPlan],
        max_capacity: int | None = None,
        tracer: Tracer | None = None,
        pool_index: int = 0,
    ) -> None:
        self.workload = workload
        self.cluster = cluster
        self.config = config
        self.push = push
        self.start_ticks = start_ticks
        self.tracer = tracer
        self.pool_index = pool_index
        self.arbiter = CapacityArbiter(capacity, admission, max_capacity=max_capacity)
        self.pool_skyline = Skyline()
        self.pool_skyline.record(0.0, 0)
        self.capacity_skyline: Skyline | None = None
        self.runs: dict[int, _QueryRun] = {}
        self.records: dict[int, QueryRecord] = {}
        self._pending: dict[
            int,
            tuple[QueryArrival, bool | None, float, dict | None, float | None],
        ] = {}
        self._compiled = compiled
        self._ec = cluster.cores_per_executor
        # Streaming mode: finished queries fold into bounded accumulators
        # (and optionally a JSONL spool) instead of self.records, and
        # their _QueryRun state is freed eagerly.
        self.stats: PoolStreamStats | None = None
        self._spool = None
        streaming = config.streaming
        if streaming is not None:
            self.stats = PoolStreamStats(streaming.relative_accuracy)
            if streaming.spool_dir is not None:
                spool_dir = Path(streaming.spool_dir)
                spool_dir.mkdir(parents=True, exist_ok=True)
                self._spool = open(
                    spool_dir / f"pool_{pool_index:03d}.jsonl",
                    "w",
                    encoding="utf-8",
                )

    # --- pool state views (routing / autoscaling) ------------------------
    @property
    def capacity(self) -> int:
        return self.arbiter.capacity

    @property
    def max_capacity(self) -> int:
        return self.arbiter.max_capacity

    @property
    def free(self) -> int:
        return self.arbiter.free

    @property
    def in_use(self) -> int:
        return self.arbiter.in_use

    @property
    def queue_length(self) -> int:
        return self.arbiter.queue_length

    @property
    def active_queries(self) -> int:
        return sum(1 for run in self.runs.values() if not run.finished)

    # --- capacity elasticity ---------------------------------------------
    def track_capacity(self) -> None:
        """Start recording the provisioned-capacity skyline (autoscaled
        pools only; static pools keep ``capacity_skyline`` ``None`` so
        their metrics — and the sharded-of-one parity contract — are
        unchanged).  Streaming serves track the O(1) reduction
        (:class:`~repro.fleet.metrics.SkylineTracker`) instead."""
        if self.stats is not None:
            self.stats.capacity = SkylineTracker(0.0, self.arbiter.capacity)
            return
        self.capacity_skyline = Skyline()
        self.capacity_skyline.record(0.0, self.arbiter.capacity)

    def resize(self, now: float, new_capacity: int) -> int:
        """Move the pool to ``new_capacity`` (clamped by the arbiter:
        never below outstanding grants, never above ``max_capacity``),
        then admit whatever now fits."""
        applied = self.arbiter.resize(new_capacity)
        if self.capacity_skyline is not None:
            self.capacity_skyline.record(now, applied)
        elif self.stats is not None and self.stats.capacity is not None:
            self.stats.capacity.record(now, applied)
        if self.tracer is not None:
            self._trace(now, "pool_resize", -1, None, {"capacity": applied})
        self.drain_admissions(now)
        return applied

    # --- helpers ----------------------------------------------------------
    def _trace(
        self,
        now: float,
        kind: str,
        q: int,
        query_id: str | None,
        data: dict | None = None,
    ) -> None:
        """Emit one event stamped with this pool's index.

        Callers guard with ``if self.tracer is not None``; the untraced
        path never reaches here.  ``tuple.__new__`` skips the NamedTuple
        constructor's default handling — these fire several times per
        query, so the shortcut is worth ~2x per event.
        """
        self.tracer.emit(
            tuple.__new__(TraceEvent, (now, kind, self.pool_index, q, query_id, data))
        )
    def _compiled_plan(self, query_id: str, graph: StageGraph) -> CompiledPlan:
        compiled = self._compiled.get(query_id)
        if compiled is None or compiled.graph is not graph:
            compiled = compile_plan(graph)
            self._compiled[query_id] = compiled
        return compiled

    def record_pool(self, now: float) -> None:
        stats = self.stats
        if stats is None:
            self.pool_skyline.record(now, self.arbiter.in_use)
            return
        # Streaming: fold the step into the O(1) tracker and make the
        # capacity-invariant check (record mode does it post-hoc over
        # the full skylines) online, at the step itself.
        in_use = self.arbiter.in_use
        stats.usage.record(now, in_use)
        if in_use > self.arbiter.capacity:
            stats.capacity_ok = False

    def _idle_params(self, run: _QueryRun) -> tuple[float | None, int]:
        if run.policy is not None:
            return run.policy.idle_timeout, run.policy.min_executors
        return (
            self.config.idle_release_timeout,
            max(1, self.config.min_executors_per_query),
        )

    def poll_scaling(self, now: float, q: int) -> None:
        """Mirror the dedicated scheduler's per-event policy poll."""
        run = self.runs[q]
        policy = run.policy
        if policy is None or run.finished:
            return
        core = run.core
        state = AllocationState(
            time=now - run.admit_time,
            pending_tasks=core.pending_count(),
            running_tasks=core.running,
            active_executors=len(core.executors),
            outstanding=run.outstanding,
            cores_per_executor=self._ec,
        )
        target = min(self.arbiter.capacity, policy.desired_target(state))
        granted = len(core.executors) + run.outstanding
        if target > granted:
            # Scale-up grabs whatever the pool can spare right now; the
            # admission queue is only for the initial budget.
            got = self.arbiter.try_acquire(q, run.arrival.app_id, target - granted)
            if got:
                if self.tracer is not None:
                    self._trace(
                        now,
                        "grant_acquire",
                        q,
                        run.arrival.query_id,
                        {"executors": got},
                    )
                for t in self.cluster.grant_schedule(now, got):
                    self.push(t, "exec_arrive", q)
                run.outstanding += got
                self.record_pool(now)

    # --- admission --------------------------------------------------------
    def submit(
        self,
        now: float,
        q: int,
        arrival: QueryArrival,
        budget: int,
        cached: bool | None,
        prediction_seconds: float,
        annotations: dict | None = None,
        estimated_runtime_seconds: float | None = None,
    ) -> None:
        """Queue a routed query's budget request on this pool.

        A budget beyond this pool's ``max_capacity`` is clamped — the
        admitted grant is recorded in ``QueryRecord.executors_granted``,
        so truncation is visible, and budget-aware routers
        (:class:`~repro.fleet.routing.LeastQueuedRouter`,
        :class:`~repro.fleet.routing.CostAwareRouter`) rank pools that
        cannot cover the budget last to avoid it where possible.
        """
        budget = max(1, min(int(budget), self.arbiter.max_capacity))
        if self.tracer is not None:
            self._trace(
                now,
                "query_submit",
                q,
                arrival.query_id,
                {"executors": budget},
            )
        self._pending[q] = (
            arrival,
            cached,
            prediction_seconds,
            annotations,
            estimated_runtime_seconds,
        )
        self.arbiter.submit(
            AdmissionRequest(
                query_index=q,
                app_id=arrival.app_id,
                executors=budget,
                submit_time=now,
            )
        )
        self.drain_admissions(now)
        if q in self._pending:
            # Queued, not admitted.  The tick chain must run anyway: an
            # autoscaled pool may need a scale-up before it can admit
            # *anything* (a budget above its current capacity), and the
            # autoscaler only acts on ticks.  A statically provisioned
            # pool never reaches this branch before its first admission
            # (budgets are clamped to its capacity, so the first submit
            # on an empty pool always admits): its tick chain stays
            # anchored at the first admission.
            self.start_ticks(now)

    def drain_admissions(self, now: float) -> None:
        admitted = self.arbiter.admit()
        if admitted:
            self.record_pool(now)
            for request in admitted:
                self._start_query(now, request)

    def _start_query(self, now: float, request: AdmissionRequest) -> None:
        q = request.query_index
        arrival, cached, pred_seconds, annotations, estimate = self._pending.pop(q)
        graph = self.workload.stage_graph(arrival.query_id)
        policy = None
        if self.config.scaling is not None:
            policy = self.config.scaling(request.executors)
            policy.reset()
        injector = None
        if self.config.faults is not None:
            # Keyed by stream position: each query's fault streams are
            # stable across routing/admission interleavings.
            injector = self.config.faults.injector(q)
        plan = self._compiled_plan(arrival.query_id, graph)
        run = _QueryRun(
            arrival=arrival,
            core=ExecutionCore(
                plan,
                self.cluster,
                self.config.scheduler,
                record_log=self.config.record_logs,
                start_time=now,
                faults=injector,
                tracer=self.tracer,
                trace_pool=self.pool_index,
                trace_query=q,
            ),
            budget=request.executors,
            admit_time=now,
            prediction_cached=cached,
            prediction_seconds=pred_seconds,
            estimated_runtime_seconds=estimate,
            emit=lambda t, sid, eid, q=q: self.push(t, "task_done", q, (sid, eid)),
            policy=policy,
            injector=injector,
            annotations={} if annotations is None else annotations,
            outstanding=request.executors,
        )
        self.runs[q] = run
        if self.tracer is not None:
            # The admit payload carries everything the trace analyzer
            # needs to rebuild this query's ExecutionLog without touching
            # the workload: the DAG, the driver prefix, and the executor
            # shape (durations arrive later, one task_assign at a time).
            self._trace(
                now,
                "query_admit",
                q,
                arrival.query_id,
                {
                    "executors": request.executors,
                    "driver_seconds": float(plan.driver_seconds),
                    "cores_per_executor": self._ec,
                    "stage_deps": [list(deps) for deps in plan.dependencies],
                },
            )
        # Push order mirrors the dedicated scheduler's bootstrap
        # (driver_done, then the tick chain, then executor arrivals)
        # so that same-instant ties break identically in both paths.
        self.push(now + run.core.plan.driver_seconds, "driver_done", q)
        self.start_ticks(now)
        for t in self.cluster.grant_schedule(now, request.executors):
            self.push(t, "exec_arrive", q)
        self.poll_scaling(now, q)

    # --- event handlers ---------------------------------------------------
    def handle_driver_done(self, now: float, q: int) -> None:
        run = self.runs[q]
        run.core.mark_driver_done(now)
        run.core.assign(now, run.emit)
        self.poll_scaling(now, q)

    def handle_exec_arrive(self, now: float, q: int) -> None:
        run = self.runs[q]
        run.outstanding -= 1
        if run.finished:
            # The query beat its own provisioning ramp; hand the late
            # executor straight back to the pool.
            self.arbiter.release(q, 1)
            if self.tracer is not None:
                self._trace(
                    now,
                    "grant_release",
                    q,
                    run.arrival.query_id,
                    {"executors": 1, "reason": "late"},
                )
            self.record_pool(now)
            self.drain_admissions(now)
            if self.stats is not None and run.outstanding == 0:
                # Streaming: the last straggling grant is back; the run
                # held nothing but this countdown since it finished.
                del self.runs[q]
        else:
            eid = run.core.add_executor(now)
            if run.injector is not None:
                fail_at = run.injector.on_added(now, eid)
                if fail_at is not None:
                    self.push(fail_at, "exec_fail", q, eid)
                    if self.tracer is not None:
                        self._trace(
                            now,
                            "fault_inject",
                            q,
                            run.arrival.query_id,
                            {"eid": eid, "fail_at": float(fail_at)},
                        )
            run.core.assign(now, run.emit)
            self.poll_scaling(now, q)

    def handle_exec_fail(self, now: float, q: int, eid: int) -> None:
        """A drawn executor failure fired: revoke, requeue, re-provision.

        The failure kills the executor's in-flight tasks (they re-enter
        the query's pending queue, their lost progress is ledgered as
        wasted work) and — under ``replace_failed`` — schedules a
        replacement through the provisioning ramp *against the same
        arbiter reservation*: the admission grant survives the crash.
        Without replacement the slot returns to the pool, where queued
        admissions (and an autoscaler watching pressure signals) pick it
        up.
        """
        run = self.runs.get(q)
        if run is None or run.finished:
            # The query outran its failure; its grant is already back in
            # the pool (a streaming serve freed the run itself too).
            return
        outcome = run.core.fail_executor(now, eid)
        if outcome is None:
            return  # idle-released before the failure fired
        cause = run.injector.on_failed(now, eid, *outcome)
        if self.tracer is not None:
            self._trace(
                now,
                "exec_fail",
                q,
                run.arrival.query_id,
                {
                    "eid": eid,
                    "cause": cause,
                    "killed": outcome[0],
                    "wasted_s": float(outcome[1]),
                },
            )
        if self.config.faults.replace_failed:
            for t in self.cluster.grant_schedule(now, 1):
                self.push(t, "exec_arrive", q)
            run.outstanding += 1
        else:
            self.arbiter.release(q, 1)
            if self.tracer is not None:
                self._trace(
                    now,
                    "grant_release",
                    q,
                    run.arrival.query_id,
                    {"executors": 1, "reason": "failed"},
                )
            self.record_pool(now)
            self.drain_admissions(now)
        run.core.assign(now, run.emit)
        self.poll_scaling(now, q)

    def handle_task_done(self, now: float, q: int, payload: tuple) -> bool:
        """Returns ``True`` when this completion finished the query."""
        run = self.runs[q]
        stage_id, eid = payload
        if run.core.complete_task(now, stage_id, eid):
            self._finish_query(now, q)
            self.drain_admissions(now)
            return True
        run.core.assign(now, run.emit)
        self.poll_scaling(now, q)
        return False

    def _finish_query(self, now: float, q: int) -> None:
        run = self.runs[q]
        run.finished = True
        arrived = len(run.core.executors)
        run.core.executors.clear()
        if arrived:
            self.arbiter.release(q, arrived)
            if self.tracer is not None:
                self._trace(
                    now,
                    "grant_release",
                    q,
                    run.arrival.query_id,
                    {"executors": arrived, "reason": "finish"},
                )
            self.record_pool(now)
        if self.tracer is not None:
            self._trace(now, "query_finish", q, run.arrival.query_id)
        stats = self.stats
        record = QueryRecord(
            query_id=run.arrival.query_id,
            app_id=run.arrival.app_id,
            arrival_time=run.arrival.arrival_time,
            admit_time=run.admit_time,
            finish_time=now,
            executors_granted=run.budget,
            auc=run.core.skyline.auc(now),
            prediction_cached=run.prediction_cached,
            prediction_seconds=run.prediction_seconds,
            skyline=None if stats is not None else run.core.skyline,
            fault_stats=None if run.injector is None else run.injector.finalize(now),
            annotations=run.annotations,
            execution_log=run.core.build_log(),
        )
        feedback = self.config.feedback
        if feedback is not None:
            # The outcome loop: hand the finished query back to the sink
            # before the record is folded/stored, so a sink that swaps
            # the model affects every decision after this instant.  The
            # optimized-plan lookup hits the workload's memo (the same
            # object the allocator featurized).
            feedback.observe(
                now,
                record,
                run.estimated_runtime_seconds,
                self.workload.optimized_plan(run.arrival.query_id),
            )
        if stats is None:
            self.records[q] = record
            return
        # Streaming: fold, optionally spool, and free the run — its
        # skyline, core, and record all die here.  A run whose grant
        # ramp is still in flight stays until the last exec_arrive
        # hands the late executor back (handle_exec_arrive frees it).
        stats.observe(record)
        if self._spool is not None:
            self._spool.write(record.to_json())
            self._spool.write("\n")
        if run.outstanding == 0:
            del self.runs[q]

    def on_tick(self, now: float) -> None:
        """Periodic work: idle release, then per-run scaling polls."""
        released = False
        for q, run in self.runs.items():
            if run.finished:
                continue
            timeout, floor = self._idle_params(run)
            removed = run.core.release_idle(now, timeout, floor)
            if removed:
                self.arbiter.release(q, len(removed))
                released = True
                if self.tracer is not None:
                    self._trace(
                        now,
                        "grant_release",
                        q,
                        run.arrival.query_id,
                        {"executors": len(removed), "reason": "idle"},
                    )
                if run.injector is not None:
                    for eid in removed:
                        run.injector.on_removed(now, eid)
        if released:
            self.record_pool(now)
            self.drain_admissions(now)
        if self.config.scaling is not None:
            for q in self.runs:
                self.poll_scaling(now, q)

    # --- completion -------------------------------------------------------
    def unfinished_queries(self) -> list[int]:
        return [q for q, run in self.runs.items() if not run.finished]

    def finalize(
        self, serving_window: tuple[float, float] | None = None
    ) -> FleetMetrics:
        """Wrap this pool's outcome as :class:`FleetMetrics` (records in
        stream order).

        Args:
            serving_window: the billing span to impose (a sharded fleet
                passes the cluster-wide window so idle pools still pay
                for their provisioned capacity); ``None`` bills this
                pool's own records' span.
        """
        if self._spool is not None:
            self._spool.close()
            self._spool = None
        stats = self.stats
        if stats is not None:
            capacity = (
                stats.capacity.peak
                if stats.capacity is not None
                else self.arbiter.capacity
            )
            return FleetMetrics(
                capacity=capacity,
                cores_per_executor=self._ec,
                records=[],
                pool_skyline=self.pool_skyline,
                capacity_skyline=None,
                serving_window=serving_window,
                stats=stats,
            )
        capacity = (
            self.capacity_skyline.max_executors
            if self.capacity_skyline is not None
            else self.arbiter.capacity
        )
        return FleetMetrics(
            capacity=capacity,
            cores_per_executor=self._ec,
            records=[self.records[q] for q in sorted(self.records)],
            pool_skyline=self.pool_skyline,
            capacity_skyline=self.capacity_skyline,
            serving_window=serving_window,
        )


class FleetEngine:
    """Serve an arrival stream through a shared executor pool.

    A facade over a one-pool :class:`~repro.fleet.cluster.ShardedFleet`:
    the cluster's event loop is the only in-process fleet loop, so a
    fleet engine and a sharded fleet of one static pool agree by
    construction — records, skylines, summary and trace alike.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        capacity: pool size in executors — the arbiter's hard budget.
        allocator: per-query executor-budget decision (see module docs).
        cluster: node/executor shapes and provisioning lag.  Only the
            executor shape and grant ramp are used; pool *capacity* is
            this engine's ``capacity``, not ``cluster.max_executors``.
        admission: queueing policy (default FIFO).
        config: fleet knobs.
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving the
            run's full event stream, exactly as the one-pool cluster
            emits it.  ``None`` (the default) serves bit-identically to
            an untraced engine.
    """

    def __init__(
        self,
        workload: Workload,
        capacity: int,
        allocator: Allocator,
        cluster: Cluster = Cluster(),
        admission: AdmissionPolicy | None = None,
        config: FleetConfig = FleetConfig(),
        tracer: Tracer | None = None,
    ) -> None:
        # cluster.py imports this module, hence the local import.
        from repro.fleet.cluster import PoolSpec, ShardedFleet

        self.workload = workload
        self.capacity = int(capacity)
        self.allocator = allocator
        self.cluster = cluster
        self.admission = admission
        self.config = config
        self.tracer = tracer
        # Built once, so its compile-once memo persists across serves.
        self._fleet = ShardedFleet(
            workload,
            [PoolSpec(self.capacity, admission)],
            allocator,
            cluster=cluster,
            config=config,
            tracer=tracer,
        )

    def serve(self, arrivals: Iterable[QueryArrival]) -> FleetMetrics:
        """Play out the whole stream; returns the pool's metrics.

        In streaming mode (:attr:`FleetConfig.streaming`) ``arrivals``
        may be any time-ordered iterable — a generator is consumed
        lazily, one arrival ahead of the clock, so the stream never
        materializes.  Record mode keeps the eager list semantics (and
        its duplicate-index validation).
        """
        served = self._fleet.serve(arrivals)
        metrics = served.pools[0]
        # The one pool is the whole fleet, so it carries the ledger.
        metrics.adaptive = served.adaptive
        return metrics


def _raise_stalled(arbiter: CapacityArbiter, unfinished: int) -> None:
    if arbiter.queue_length > 0:
        raise RuntimeError(
            f"admission stalled: {arbiter.queue_length} queued requests, "
            "an idle pool, and a policy that admits none of them"
        )
    raise RuntimeError(
        f"fleet stalled: {unfinished} admitted queries hold no executors, "
        "have no grants in flight, and their scaling policies acquire none"
    )


def static_allocator(n: int) -> Allocator:
    """The fixed-budget baseline: every query gets ``n`` executors."""
    if n < 1:
        raise ValueError("static budgets need at least 1 executor")

    def allocate(query_id: str, plan: object) -> int:
        return n

    allocate.policy_name = "static"
    return allocate


def oracle_allocator(
    workload: Workload,
    cluster: Cluster = Cluster(),
    candidates: Sequence[int] = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48),
    objective: Callable[[np.ndarray, np.ndarray], int] | None = None,
    config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
) -> Allocator:
    """The hindsight baseline: the selection objective applied to the
    query's *true* run-time curve.

    AutoExecutor applies an objective (default: the paper's elbow) to a
    *predicted* ``t(n)``; the oracle measures the real curve with one
    batched simulator sweep over the candidate counts
    (:func:`repro.core.selection.true_runtime_curve`) and applies the
    same objective to it — perfect curve knowledge, zero prediction
    error.  Results are memoized per query id: the oracle exists as the
    bound predictions are judged against.
    """
    from repro.core.selection import elbow_point, true_runtime_curve

    if objective is None:
        objective = elbow_point
    usable = [n for n in candidates if 1 <= n <= cluster.max_executors]
    if len(usable) < 2:
        raise ValueError("need at least two usable candidate counts")
    grid = np.asarray(usable)
    cache: dict[str, int] = {}

    def allocate(query_id: str, plan: object) -> int:
        if query_id not in cache:
            graph = workload.stage_graph(query_id)
            curve = true_runtime_curve(graph, usable, cluster, config)
            cache[query_id] = int(objective(grid, curve))
        return cache[query_id]

    allocate.policy_name = "oracle"
    return allocate
