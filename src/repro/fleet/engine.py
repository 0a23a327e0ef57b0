"""The fleet engine: many concurrent query runs on one shared clock.

``repro.engine.scheduler.simulate_query`` plays out *one* query on a
dedicated cluster.  The fleet engine multiplexes a whole arrival stream:
each admitted query executes its stage DAG — waves of tasks, provisioning
lag, memory-pressure and coordination physics, idle releases — on the
executor budget the capacity arbiter granted it, and every grant and
release moves shared pool state that decides when the *next* queued query
may start.

Both simulators drive each query through one
:class:`~repro.engine.driver.QueryRun`; this module contributes only the
pool's part — admission through the
:class:`~repro.fleet.admission.CapacityArbiter`, the runs' grants, the
pool skyline and finish records.  Those parts live in :class:`PoolRuntime`,
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
budget) that is polled after its events and at every tick, by the
same code that polls the dedicated-cluster scheduler's policy.  Scale-up
requests draw additional executors from whatever the pool can spare
right now (no queueing — the reservation the query queued for was its
admission budget), and idle executors shed below the budget return to
the pool for other queries; the arbiter keeps the pool invariant either
way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.engine.allocation import AllocationPolicy
from repro.engine.checks import check_int, check_range
from repro.engine.cluster import Cluster
from repro.engine.execution import (
    DEFAULT_SCHEDULER_CONFIG,
    CompiledPlan,
    SchedulerConfig,
    compile_plan,
)
from repro.engine.driver import QueryRun
from repro.engine.faults import FaultPlan
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
from repro.fleet.routing import DEFAULT_RUNTIME_ESTIMATE_S, PoolView
from repro.obs.trace import Tracer
from repro.workloads.generator import Workload

__all__ = [
    "FeedbackSink",
    "FleetConfig",
    "FleetEngine",
    "PoolRuntime",
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
    budget, and the execution log, which a serve with a sink always
    records), the allocator's predicted runtime at decision time (``None``
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
class FleetConfig:
    """Fleet-engine knobs.

    Attributes:
        scheduler: per-query physics (same knobs as ``simulate_query``).
            Its ``tick_interval`` is the fleet's idle-check / policy
            polling period too: the tick chain is shared by every pool.
        idle_release_timeout: seconds of executor idleness before it is
            returned to the pool mid-query (``None`` holds budgets until
            completion; otherwise finite and ≥ 0).  Ignored when
            ``scaling`` is set — the per-query policy's ``idle_timeout``
            governs instead.  Idle release never shrinks a query below
            one executor, so a started query can always finish.
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
            float lists and records are otherwise tiny.  A ``feedback``
            sink turns it on, since retraining consumes the logs.
        streaming: the O(1)-memory serve mode.  ``False`` (the
            default) keeps every :class:`~repro.fleet.metrics.QueryRecord`
            and the full pool and capacity skylines.  ``True`` keeps
            only the :class:`~repro.fleet.metrics.PoolStreamStats` fold
            every pool feeds in both modes (percentiles become sketch
            estimates), frees all per-query state eagerly, and accepts
            generator arrival streams (time-ordered; consumed lazily).
        feedback: optional :class:`FeedbackSink` receiving every finished
            query's outcome (record, predicted runtime, optimized plan)
            on the simulation clock — the continual-learning loop's
            entry point (:mod:`repro.fleet.adaptive`).  ``None`` (the
            default) serves bit-identically to a feedback-free engine.
    """

    scheduler: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG
    idle_release_timeout: float | None = 30.0
    charge_prediction_overhead: bool = True
    scaling: ScalingFactory | None = None
    faults: FaultPlan | None = None
    record_logs: bool = False
    streaming: bool = False
    feedback: FeedbackSink | None = None

    def __post_init__(self) -> None:
        if self.idle_release_timeout is not None:
            check_range("idle_release_timeout", self.idle_release_timeout, 0.0)

    @property
    def wants_ticks(self) -> bool:
        """Whether serving this config needs the periodic tick chain."""
        return self.idle_release_timeout is not None or self.scaling is not None


#: A decided query, carried unchanged from the driver's decision to its
#: record: arrival, budget (clamped to the cluster's largest pool),
#: prediction cached, prediction seconds, estimated runtime seconds, and
#: the record annotations.
Submit = tuple[QueryArrival, int, bool | None, float, float | None, dict]


class _QueryRun(QueryRun):
    """A fleet query's :class:`~repro.engine.driver.QueryRun` plus what
    its record needs."""

    arrival: QueryArrival
    submit: Submit
    budget: int
    finished = False


class PoolRuntime:
    """One pool's serving state machine, driven by an external event heap.

    The runtime owns everything that belongs to a single pool — the
    capacity arbiter, the per-query :class:`_QueryRun` table, and the
    pool's :class:`~repro.fleet.metrics.PoolStreamStats` fold — while
    the *driver* owns the heap, the clock, and the tick chain.  Event
    handlers push follow-up events through the ``push`` callback the
    driver supplies, so every event in a multi-pool cluster still lands
    on one totally ordered heap, and the multiprocess driver
    (:mod:`repro.fleet.parallel`) can replay one pool's subsequence on
    a heap of its own.

    A query's :class:`_QueryRun` is freed, in record and streaming mode
    alike, once the query has finished and no grant of its is still
    ramping in (``outstanding == 0``): its record already holds the
    skyline and log.  Ticks, :attr:`active_queries` and
    :meth:`unfinished_queries` therefore cost O(live queries), not
    O(queries ever admitted).

    Every pool-usage and capacity step feeds the fold's trackers, and
    the capacity invariant is checked at the step itself, in both
    modes.  Record mode also keeps the full ``pool_skyline`` and
    ``capacity_skyline`` and every finished query's record, and folds
    the records at :meth:`finalize`; streaming mode folds each record
    as its query finishes and keeps none.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        capacity: the pool's (initial) size in executors.
        cluster: node/executor shapes and provisioning lag.
        admission: queueing policy (default FIFO).
        config: fleet knobs (shared across pools in a cluster).
        push: ``push(time, kind, q, payload)`` — schedule an event for
            this pool on the driver's heap.
        push_task: ``push_task(q, time, stage_id, executor_id)`` —
            schedule one task completion of query ``q`` for this pool
            (:meth:`~repro.engine.driver.EventHeap.push_task` with the
            pool bound).  Each run's emit binds ``q`` on top, so a
            started task reaches the heap through C-level partials
            only; the driver hands :meth:`handle_task_done` a same-instant
            list of completions.
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
        push_task: Callable[[int, float, int, int], None],
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
        self.push_task = push_task
        self.start_ticks = start_ticks
        self.tracer = tracer
        self.pool_index = pool_index
        self.arbiter = CapacityArbiter(capacity, admission, max_capacity=max_capacity)
        self.streaming = config.streaming
        self.record_logs = config.record_logs or config.feedback is not None
        self.stats = PoolStreamStats()
        self.pool_skyline = Skyline()
        self.pool_skyline.record(0.0, 0)
        self.capacity_skyline: Skyline | None = None
        self.runs: dict[int, _QueryRun] = {}
        #: Admitted queries not yet finished.
        self.active_queries = 0
        self.records: dict[int, QueryRecord] = {}
        self._pending: dict[int, Submit] = {}
        self._compiled = compiled
        self._ec = cluster.cores_per_executor
        # view()'s memo and the (arbiter.version, active_queries) it was
        # built at.
        self._view: PoolView | None = None
        self._view_key = (0, 0)
        # (T0, m) of the last full idle scan that released nothing; see
        # on_tick.
        self._quiet_since: tuple[float, float] | None = None

    # --- pool state views (routing / autoscaling) ------------------------
    @property
    def capacity(self) -> int:
        return self.arbiter.capacity

    @property
    def in_use(self) -> int:
        return self.arbiter.in_use

    def view(self) -> PoolView:
        """This pool's snapshot for routers and autoscalers.

        Every field derives from the arbiter's state, the live-query
        count and the queued queries' immutable runtime estimates, so
        the last snapshot is returned again while ``(arbiter.version,
        active_queries)`` is unchanged — as it is on most ticks.
        """
        key = (self.arbiter.version, self.active_queries)
        view = self._view
        if view is None or key != self._view_key:
            view = self._view = self._build_view()
            self._view_key = key
        return view

    def _build_view(self) -> PoolView:
        arbiter = self.arbiter
        queued_work = 0.0
        for request in arbiter.queued_requests:
            estimate = self._pending[request.query_index][4]
            if estimate is None:
                estimate = DEFAULT_RUNTIME_ESTIMATE_S
            queued_work += request.executors * estimate
        return PoolView(
            index=self.pool_index,
            capacity=arbiter.capacity,
            max_capacity=arbiter.max_capacity,
            free=arbiter.free,
            in_use=arbiter.in_use,
            queue_length=arbiter.queue_length,
            queued_executors=arbiter.queued_executors,
            queued_work_seconds=queued_work,
            active_queries=self.active_queries,
            oldest_submit_time=arbiter.oldest_submit_time,
        )

    # --- capacity elasticity ---------------------------------------------
    def track_capacity(self) -> None:
        """Start tracking provisioned capacity (autoscaled pools only;
        static pools keep ``stats.capacity`` ``None`` so their metrics —
        and the sharded-of-one parity contract — are unchanged).  Record
        mode also keeps the full ``capacity_skyline``."""
        capacity = self.arbiter.capacity
        self.stats.capacity = SkylineTracker(0.0, capacity)
        if not self.streaming:
            self.capacity_skyline = Skyline()
            self.capacity_skyline.record(0.0, capacity)

    def resize(self, now: float, new_capacity: int) -> int:
        """Move the pool to ``new_capacity`` (clamped by the arbiter:
        never below outstanding grants, never above ``max_capacity``),
        then admit whatever now fits.  Only pools under
        :meth:`track_capacity` are resized."""
        before = self.arbiter.capacity
        applied = self.arbiter.resize(new_capacity)
        if applied != before:
            # An unchanged capacity is no step, as the skyline collapses
            # it: splitting the tracker's segment would round its area
            # differently.
            self.stats.capacity.record(now, applied)
            if self.capacity_skyline is not None:
                self.capacity_skyline.record(now, applied)
        if self.tracer is not None:
            self.tracer.emit(
                (now, "pool_resize", self.pool_index, -1, None, applied)
            )
        self.drain_admissions(now)
        return applied

    # --- helpers ----------------------------------------------------------
    def _compiled_plan(self, query_id: str, graph: StageGraph) -> CompiledPlan:
        compiled = self._compiled.get(query_id)
        if compiled is None or compiled.graph is not graph:
            compiled = compile_plan(graph)
            self._compiled[query_id] = compiled
        return compiled

    def record_pool(self, now: float) -> None:
        arbiter = self.arbiter
        in_use = arbiter.in_use
        self.stats.record_usage(now, in_use, arbiter.capacity)
        if not self.streaming:
            self.pool_skyline.record(now, in_use)

    def _idle_params(self, run: _QueryRun) -> tuple[float | None, int]:
        """A run's idle timeout and floor: its policy's, else the
        fleet's timeout and a floor of one executor."""
        if run.policy is not None:
            return run.policy.idle_timeout, run.policy.min_executors
        return self.config.idle_release_timeout, 1

    # --- the runs' grant port (repro.engine.driver.GrantPort) -----------
    def grant(self, now: float, run: _QueryRun, count: int) -> int:
        """Scale-up grabs whatever the pool can spare right now; the
        admission queue is only for the initial budget."""
        got = self.arbiter.try_acquire(run.q, run.arrival.app_id, count)
        if got:
            if self.tracer is not None:
                self.tracer.emit(
                    (now, "grant_acquire", self.pool_index, run.q, run.query_id, got)
                )
            self.record_pool(now)
        return got

    def give_back(self, now: float, run: _QueryRun, count: int, reason: str) -> None:
        """Return a run's executors to the pool.  A late or failed slot
        admits queued work at once; an idle scan records the pool and
        admits once after the whole scan (:meth:`on_tick`), and a
        finishing query admits after its record is made."""
        self.arbiter.release(run.q, count)
        if self.tracer is not None:
            self.tracer.emit(
                (
                    now,
                    "grant_release",
                    self.pool_index,
                    run.q,
                    run.query_id,
                    count,
                    reason,
                )
            )
        if reason != "idle":
            self.record_pool(now)
            if reason != "finish":
                self.drain_admissions(now)

    # --- admission --------------------------------------------------------
    def submit(self, now: float, q: int, submit: Submit) -> None:
        """Queue a routed query's budget request on this pool.

        A budget beyond this pool's ``max_capacity`` is clamped — the
        admitted grant is recorded in ``QueryRecord.executors_granted``,
        so truncation is visible, and budget-aware routers
        (:class:`~repro.fleet.routing.LeastQueuedRouter`,
        :class:`~repro.fleet.routing.CostAwareRouter`) rank pools that
        cannot cover the budget last to avoid it where possible.
        """
        arrival = submit[0]
        budget = min(submit[1], self.arbiter.max_capacity)
        if self.tracer is not None:
            self.tracer.emit(
                (now, "query_submit", self.pool_index, q, arrival.query_id, budget)
            )
        self._pending[q] = submit
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
        submit = self._pending.pop(q)
        arrival = submit[0]
        graph = self.workload.stage_graph(arrival.query_id)
        plan = self._compiled_plan(arrival.query_id, graph)
        config = self.config
        policy = None
        if config.scaling is not None:
            policy = config.scaling(request.executors)
        run = _QueryRun(
            plan,
            self.cluster,
            config.scheduler,
            self,
            self.push,
            functools.partial(self.push_task, q),
            policy=policy,
            # Keyed by stream position: each query's fault streams are
            # stable across routing/admission interleavings.
            faults=config.faults,
            fault_key=q,
            record_log=self.record_logs,
            start_time=now,
            tracer=self.tracer,
            trace_pool=self.pool_index,
            q=q,
            query_id=arrival.query_id,
        )
        run.arrival, run.submit, run.budget = arrival, submit, request.executors
        self.runs[q] = run
        self.active_queries += 1
        if self.tracer is not None:
            # The admit payload carries everything the trace analyzer
            # needs to rebuild this query's ExecutionLog without touching
            # the workload: the DAG, the driver prefix, and the executor
            # shape (durations arrive later, one task_assign at a time).
            self.tracer.emit(
                (
                    now,
                    "query_admit",
                    self.pool_index,
                    q,
                    arrival.query_id,
                    request.executors,
                    float(plan.driver_seconds),
                    self._ec,
                    [list(deps) for deps in plan.dependencies],
                )
            )
        # Push order mirrors the dedicated scheduler's bootstrap
        # (driver_done, then the tick chain, then executor arrivals)
        # so that same-instant ties break identically in both paths.
        self.push(now + plan.driver_seconds, "driver_done", q)
        self.start_ticks(now)
        run.ramp(now, request.executors)
        run.poll(now)

    # --- event handlers ---------------------------------------------------
    def handle_driver_done(self, now: float, q: int) -> None:
        run = self.runs[q]
        run.driver_done(now)
        run.poll(now)

    def handle_exec_arrive(self, now: float, q: int) -> None:
        run = self.runs[q]
        if not run.finished:
            run.arrive(now)
            run.poll(now)
            return
        # The query beat its own provisioning ramp; hand the late
        # executor straight back to the pool.
        run.outstanding -= 1
        self.give_back(now, run, 1, "late")
        if run.outstanding == 0:
            # The last straggling grant is back; the run held nothing
            # but this countdown since it finished.
            del self.runs[q]

    def handle_exec_fail(self, now: float, q: int, eid: int) -> None:
        """A drawn executor failure fired.  A replacement ramps in against
        the same arbiter reservation; without replacement the slot goes
        back to the pool and queued admissions pick it up at once."""
        run = self.runs.get(q)
        # A query that outran its failure has its grant back in the pool
        # already (and the run itself may be freed).
        if run is not None and not run.finished and run.fail(now, eid):
            run.poll(now)

    def handle_task_done(
        self, now: float, q: int, payload: list[tuple[int, int]]
    ) -> bool:
        """Play one same-instant wave of query ``q``'s task completions
        (:meth:`~repro.engine.driver.QueryRun.play`).

        Returns ``True`` when the wave finished the query.  Any wave for
        a finished or freed run can only hold stale completions scheduled
        by an executor that failed (every task completes live exactly
        once), so it is a no-op.
        """
        run = self.runs.get(q)
        if run is None or run.finished or not run.play(now, payload):
            return False
        self._finish_query(now, q)
        self.drain_admissions(now)
        return True

    def _finish_query(self, now: float, q: int) -> None:
        run = self.runs[q]
        run.finished = True
        self.active_queries -= 1
        arrived = len(run.core.executors)
        run.core.executors.clear()
        if arrived:
            self.give_back(now, run, arrived, "finish")
        arrival, _, cached, seconds, estimate, annotations = run.submit
        if self.tracer is not None:
            self.tracer.emit(
                (now, "query_finish", self.pool_index, q, arrival.query_id)
            )
        record = QueryRecord(
            query_id=arrival.query_id,
            app_id=arrival.app_id,
            arrival_time=arrival.arrival_time,
            admit_time=run.start_time,
            finish_time=now,
            executors_granted=run.budget,
            auc=run.core.skyline.auc(now),
            prediction_cached=cached,
            prediction_seconds=seconds,
            skyline=None if self.streaming else run.core.skyline,
            fault_stats=None if run.injector is None else run.injector.finalize(now),
            annotations=annotations,
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
                now, record, estimate, self.workload.optimized_plan(arrival.query_id)
            )
        if self.streaming:
            # The core and record die with the run.
            self.stats.observe(record)
        else:
            # Folded at finalize; settle now so the trackers keep only
            # the steps since the latest finish, as in streaming mode.
            self.records[q] = record
            self.stats.settle(now)
        # Free the run.  One whose grant ramp is still in flight stays
        # until the last exec_arrive hands the late executor back
        # (handle_exec_arrive frees it then).
        if run.outstanding == 0:
            del self.runs[q]

    def on_tick(self, now: float) -> None:
        """Periodic work: idle release, then per-run scaling polls.

        The idle scan is skipped while it provably cannot release
        anything.  After a full scan at ``T0`` that released nothing,
        let ``m`` be the oldest ``idle_since`` of any fully idle executor
        of any live run.  An executor is released at tick ``T`` only if
        it has been fully idle since some ``s`` with ``T - s >=
        timeout``.  Every executor fully idle at ``T0`` has ``s >= m``;
        every other one went idle at or after ``T0``, so ``s >= T0``.
        Float subtraction is monotone, so while ``T - T0 < timeout`` and
        ``T - m < timeout`` no executor qualifies and the scan is a
        no-op.  With no timeout there is nothing to release at all.
        Runs under :attr:`FleetConfig.scaling` carry per-policy timeouts
        and are scanned on every tick, as before.
        """
        scaling = self.config.scaling
        if scaling is None:
            timeout = self.config.idle_release_timeout
            quiet = self._quiet_since
            if timeout is None or (
                quiet is not None
                and now - quiet[0] < timeout
                and now - quiet[1] < timeout
            ):
                return
        if self._scan_idle(now):
            self.record_pool(now)
            self.drain_admissions(now)
        if scaling is not None:
            for run in self.runs.values():
                if not run.finished:
                    run.poll(now)

    def _scan_idle(self, now: float) -> bool:
        """The full idle scan over every live run; True if it released.

        A scan that releases nothing records ``(now, m)`` for the
        quiet-scan rule in :meth:`on_tick`, ``m`` being the oldest
        ``idle_since`` of any fully idle executor of any live run.
        """
        released = False
        track = self.config.scaling is None
        oldest = math.inf
        for run in self.runs.values():
            if run.finished:
                continue
            if run.release_idle(now, *self._idle_params(run)):
                released = True
            elif track and not released:
                oldest = min(oldest, run.core.oldest_idle())
        self._quiet_since = (now, oldest) if track and not released else None
        return released

    # --- completion -------------------------------------------------------
    def unfinished_queries(self) -> list[int]:
        return [q for q, run in self.runs.items() if not run.finished]

    def finalize(
        self, serving_window: tuple[float, float] | None = None
    ) -> FleetMetrics:
        """Wrap this pool's outcome as :class:`FleetMetrics` (records in
        stream order).  Call once, after the serve: record mode folds
        its records here.

        Args:
            serving_window: the billing span to impose (a sharded fleet
                passes the cluster-wide window so idle pools still pay
                for their provisioned capacity); ``None`` bills this
                pool's own records' span.
        """
        stats = self.stats
        records = [self.records[q] for q in sorted(self.records)]
        # Stream order, not finish order: the order record-mode totals
        # have always been summed in, down to the last bit.
        for record in records:
            stats.observe(record)
        return FleetMetrics(
            capacity=(
                self.arbiter.capacity if stats.capacity is None else stats.capacity.peak
            ),
            cores_per_executor=self._ec,
            stats=stats,
            records=records,
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

        Arrivals are consumed lazily, one ahead of the clock.  In
        streaming mode (:attr:`FleetConfig.streaming`) ``arrivals`` may
        be any time-ordered iterable, so a generator stream never
        materializes.  Record mode validates the whole stream first
        (duplicate indices, emptiness) and plays it in arrival-time
        order.
        """
        served = self._fleet.serve(arrivals)
        metrics = served.pools[0]
        # The one pool is the whole fleet, so it carries the ledger.
        metrics.adaptive = served.adaptive
        return metrics


def static_allocator(n: int) -> Allocator:
    """The fixed-budget baseline: every query gets ``n`` executors."""
    check_int("n", n, 1)

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
    *predicted* ``t(n)``; the oracle applies the same objective to the
    real curve, measured with one batched simulator sweep over the
    candidate counts (:func:`repro.core.selection.oracle_executors`) —
    perfect curve knowledge, zero prediction error.  Results are
    memoized per query id: the oracle exists as the bound predictions
    are judged against.
    """
    from repro.core.selection import elbow_point, oracle_executors

    if objective is None:
        objective = elbow_point
    usable = [n for n in candidates if 1 <= n <= cluster.max_executors]
    if len(usable) < 2:
        raise ValueError("need at least two usable candidate counts")
    cache: dict[str, int] = {}

    def allocate(query_id: str, plan: object) -> int:
        if query_id not in cache:
            graph = workload.stage_graph(query_id)
            cache[query_id] = oracle_executors(
                graph, usable, cluster, objective, config
            )
        return cache[query_id]

    allocate.policy_name = "oracle"
    return allocate
