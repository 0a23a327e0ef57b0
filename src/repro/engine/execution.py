"""The shared execution core: one set of simulator physics, two drivers.

Both simulators in this repository play out the same per-query execution
state machine — executors arrive and idle out, ready stages emit their
tasks into a FIFO queue, waves of tasks are assigned one-per-core under a
spill × coordination slowdown, completed stages unlock their dependents,
and a :class:`~repro.engine.skyline.Skyline` records every fleet-size
step.  :func:`repro.engine.scheduler.simulate_query` drives one query on
a dedicated cluster; :class:`repro.fleet.engine.FleetEngine` multiplexes
many queries on one clock over a shared pool.  The physics must be the
*same physics*, down to the bit: a fleet of one query on an uncontended
pool is required to reproduce ``simulate_query`` exactly (runtime, AUC,
skyline), a contract the differential-parity suite
(``tests/engine/test_execution_parity.py``) and the CI bench gate assert
across the whole TPC-DS workload.

This module is that single copy:

- :class:`SchedulerConfig` — the physics knobs (spill, coordination,
  tick period);
- :func:`spill_factor` / :func:`coordination_factor` — the two
  second-order slowdowns the paper's error analysis depends on
  (Section 5.2);
- :class:`CompiledPlan` / :func:`compile_plan` — count-invariant
  simulation state (task-duration arrays, topology) computed once per
  stage graph and reused by every run, sweep, and fleet serve;
- :class:`ExecutionCore` — the per-query state machine itself.  The
  driver (:class:`repro.engine.driver.QueryRun` over the shared
  :class:`~repro.engine.driver.EventHeap`) owns the clock, the policy
  poll and the grants; the core owns everything else.

Task-completion events are identified by ``(stage_id, executor_id)``
pairs handed to the driver's ``emit`` callback and stored verbatim in
its heap (the heap orders on a unique push counter, so payloads are
never compared).  Both drivers' heap appends a completion to the
previous entry's list when that entry was the last push of any kind, is
a completion of the same query at the same instant, and has not been
popped yet.  That preserves the order: the appended completion would
have taken the very next counter value, so no event can sort between
the two.

One method, :meth:`ExecutionCore.play_wave`, holds the completion and
fill physics.  It plays a list of completions, each followed by a fill
of the free cores, so a run without a policy plays a whole heap entry in
one call; :meth:`~ExecutionCore.complete_task` (a completion alone) and
:meth:`~ExecutionCore.assign` (a fill alone) are one-line calls into
it, so every driver — faults, tracing and ``record_log`` included — runs
the same code.  The fill step takes executors from a min-heap of the ids
that hold a free core instead of scanning every executor; since ids only
grow, ascending id order is the executor dict's insertion order, the
order the scan used.  An earlier encoding packed the pair into
``stage_id * 10_000_000 + executor_id`` — executor ids are unbounded
under idle-release churn, so a long-lived run could collide an executor
id into the stage field; the pair representation is collision-free by
construction.

The simulation is deterministic.  Run-to-run variance (the paper's
4–7 %) is layered on top by :mod:`repro.experiments.runtime_data`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Sequence

import numpy as np

from repro.engine.checks import check_range
from repro.engine.cluster import Cluster
from repro.engine.faults import FaultInjector, FaultStats
from repro.engine.skyline import Skyline
from repro.engine.stages import StageGraph
from repro.obs.trace import Tracer
from repro.sparklens.log import ExecutionLog, StageLog

__all__ = [
    "SchedulerConfig",
    "DEFAULT_SCHEDULER_CONFIG",
    "SimulationResult",
    "CompiledPlan",
    "compile_plan",
    "ExecutionCore",
    "spill_factor",
    "coordination_factor",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """Physics knobs of the simulator.

    Attributes:
        spill_coefficient: slowdown per unit of working-set deficit.
        max_spill_factor: cap on the memory-pressure slowdown.
        coordination_coefficient: per-task slowdown per 47 extra executors.
        tick_interval: policy polling / idle-check period (Spark polls at
            ~1 s granularity too).
    """

    spill_coefficient: float = 0.8
    max_spill_factor: float = 3.5
    coordination_coefficient: float = 0.12
    tick_interval: float = 1.0

    def __post_init__(self) -> None:
        check_range("spill_coefficient", self.spill_coefficient, 0.0)
        # Spilling never speeds a task up.
        check_range("max_spill_factor", self.max_spill_factor, 1.0)
        check_range("coordination_coefficient", self.coordination_coefficient, 0.0)
        # A zero or negative period re-pushes each tick at (or before) its
        # own instant, so the event loop never advances.
        check_range("tick_interval", self.tick_interval, 0.0, open_low=True)


DEFAULT_SCHEDULER_CONFIG = SchedulerConfig()


@dataclass
class SimulationResult:
    """Outcome of one simulated query run.

    Attributes:
        runtime: elapsed seconds from submission to completion.
        skyline: allocated-executor step function over the run.
        auc: total executor occupancy ``∫ n_s ds`` (executor-seconds).
        max_executors: peak allocation during the run.
        total_tasks: tasks executed.
        execution_log: per-stage observed task durations (only when
            ``record_log=True``), consumable by Sparklens.
        fully_allocated: whether the policy's final target was entirely
            provisioned before the query finished (Figure 13 marks these
            queries with a diamond).
        fault_stats: the fault ledger (crashes, retries, wasted work,
            spot/on-demand split) when the run was perturbed by an
            active :class:`~repro.engine.faults.FaultPlan`; ``None`` for
            unperturbed runs.
    """

    runtime: float
    skyline: Skyline
    auc: float
    max_executors: int
    total_tasks: int
    execution_log: ExecutionLog | None = None
    fully_allocated: bool = True
    fault_stats: FaultStats | None = None


def spill_factor(
    graph: StageGraph,
    active_executors: int,
    cluster: Cluster,
    config: SchedulerConfig,
) -> float:
    """Memory-pressure slowdown for the current fleet size."""
    if graph.working_set_bytes <= 0 or active_executors < 1:
        return 1.0
    available = active_executors * cluster.executor_memory_bytes
    deficit = graph.working_set_bytes / available - 1.0
    if deficit <= 0:
        return 1.0
    factor = 1.0 + config.spill_coefficient * deficit
    return min(factor, config.max_spill_factor)


def coordination_factor(
    active_executors: int, config: SchedulerConfig
) -> float:
    """Mild fan-out overhead growing with fleet size."""
    return 1.0 + config.coordination_coefficient * max(
        0, active_executors - 1
    ) / 47.0


@dataclass(frozen=True)
class CompiledPlan:
    """Count-invariant simulation state, computed once per stage graph.

    Attributes:
        graph: the source stage DAG (kept for spill physics and metadata).
        durations: per-stage base task durations (before the run's
            spill/coordination factor), indexed by ``stage_id``.  The
            vectorized sweep (:mod:`.sweep`) reads these arrays.
        task_seconds: the same durations as tuples of Python floats,
            which :meth:`ExecutionCore.play_wave` reads per started task:
            arithmetic on them keeps every event time a Python ``float``
            (IEEE ``+`` and ``*`` give the bits ``np.float64`` gives),
            so heap comparisons and the clock never handle numpy scalars.
        dependencies: per-stage dependency ids, indexed by ``stage_id``.
        dependents: per-stage dependent ids (ascending), the reverse edges.
        roots: stages with no dependencies, in emission (id) order.
        driver_seconds: serial driver prefix.
        total_tasks: total task count across stages.
    """

    graph: StageGraph
    durations: tuple[np.ndarray, ...]
    task_seconds: tuple[tuple[float, ...], ...]
    dependencies: tuple[tuple[int, ...], ...]
    dependents: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    driver_seconds: float
    total_tasks: int

    def simulate(
        self,
        n: int,
        cluster: Cluster,
        config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
        record_log: bool = False,
    ) -> SimulationResult:
        """One static-allocation run at ``n`` executors (fast path)."""
        from repro.engine.sweep import _simulate_static

        if n < 1:
            raise ValueError("static allocation needs at least 1 executor")
        return _simulate_static(
            self, cluster.clamp_request(n), cluster, config, record_log
        )

    def sweep(
        self,
        counts: Sequence[int],
        cluster: Cluster,
        config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
        record_log: bool = False,
    ) -> list[SimulationResult]:
        """Static-allocation runs at every count (see :mod:`.sweep`)."""
        from repro.engine.sweep import _simulate_static

        results: dict[int, SimulationResult] = {}
        out = []
        for n in counts:
            n = int(n)
            if n < 1:
                raise ValueError(
                    "static allocation needs at least 1 executor"
                )
            n_eff = cluster.clamp_request(n)
            if n_eff not in results:
                results[n_eff] = _simulate_static(
                    self, n_eff, cluster, config, record_log
                )
            out.append(results[n_eff])
        return out


def compile_plan(graph: StageGraph) -> CompiledPlan:
    """Precompute the count-invariant work of simulating ``graph``.

    Task-duration arrays (the skew profile included) are materialized once
    and marked read-only, with a Python-float copy for the per-task path;
    topology is flattened into tuples so per-run state never has to
    rebuild dicts.
    """
    durations = []
    dependents: list[list[int]] = [[] for _ in graph.stages]
    for stage in graph.stages:
        base = stage.task_durations()
        base.flags.writeable = False
        durations.append(base)
        for dep in stage.dependencies:
            dependents[dep].append(stage.stage_id)
    return CompiledPlan(
        graph=graph,
        durations=tuple(durations),
        task_seconds=tuple(tuple(base.tolist()) for base in durations),
        dependencies=tuple(
            tuple(s.dependencies) for s in graph.stages
        ),
        dependents=tuple(tuple(d) for d in dependents),
        roots=tuple(
            s.stage_id for s in graph.stages if not s.dependencies
        ),
        driver_seconds=graph.driver_seconds,
        total_tasks=graph.total_tasks,
    )


@dataclass
class _Executor:
    executor_id: int
    cores: int
    free_cores: int
    idle_since: float | None


@dataclass
class _StageState:
    remaining_deps: int
    remaining_tasks: int
    emitted: bool = False
    observed: list[float] = field(default_factory=list)


#: Driver callback the core hands each started task to:
#: ``emit(finish_time, stage_id, executor_id)`` schedules the completion.
#: ``finish_time`` is always a Python ``float``.  Both drivers' emit is a
#: ``functools.partial`` over :meth:`repro.engine.driver.EventHeap.push_task`
#: (a C-level call, no Python frame of its own).
TaskEmit = Callable[[float, int, int], None]

#: The one-item wave :meth:`ExecutionCore.assign` plays: a fill step
#: with no completion before it.
_FILL_ONLY = (None,)


class ExecutionCore:
    """Per-query execution state machine shared by both simulators.

    The core owns the query-local state — executor slots, the pending
    task queue, per-stage dependency counts, the skyline, the observed
    task log — and exposes the exact transitions the event loops perform.
    Task completions and the fill of free cores go through one method,
    :meth:`play_wave`, which plays a list of completions and fills after
    each; :meth:`complete_task` and :meth:`assign` are its one-item
    forms.  Free cores are indexed by a min-heap of executor ids: ids
    are never reused and only grow, so popping the smallest id visits
    executors in the order a scan of :attr:`executors` would, while
    skipping those with no free core.  Ids of idle-released or failed
    executors are left in the heap and dropped when popped.
    The *driver* (:class:`repro.engine.driver.QueryRun`) owns the
    clock, the event heap, and capacity accounting: it decides when
    executors are granted (through a
    :class:`~repro.engine.driver.GrantPort`: the cluster's capacity on
    the dedicated path, the pool's arbiter on the fleet path) and feeds
    arrivals, task completions, and idle scans back into the core.

    Args:
        plan: the compiled stage DAG (see :func:`compile_plan`).
        cluster: executor shape (cores, memory) for assignment physics.
        config: scheduler physics.
        record_log: capture observed task durations per stage.
        start_time: clock instant the query's skyline opens at (query
            submission on the dedicated path, admission on the fleet
            path).
        faults: this query's fault injector, or ``None`` (the default)
            for unperturbed physics.  With an injector the core
            additionally tracks in-flight tasks per executor so
            :meth:`fail_executor` can kill and requeue exactly the work
            that was running; without one no extra state is kept and
            every code path is bit-identical to the pre-fault engine.
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving this
            query's execution events (task assign/kill, stage
            ready/done, executor add/remove).  ``None`` (the default) is
            the zero-cost off switch: every emission sits behind one
            ``is not None`` check and no event object is built.
        trace_pool / trace_query: identity stamped on emitted events —
            the owning pool index and arrival-stream position (``-1``
            for dedicated single-query runs).
    """

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: Cluster,
        config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
        record_log: bool = False,
        start_time: float = 0.0,
        faults: FaultInjector | None = None,
        tracer: Tracer | None = None,
        trace_pool: int = -1,
        trace_query: int = -1,
    ) -> None:
        self.plan = plan
        self.graph = plan.graph
        self.cluster = cluster
        self.config = config
        self.record_log = record_log
        self.faults = faults
        self.tracer = tracer
        self._trace_pool = trace_pool
        self._trace_query = trace_query
        self._trace_qid = plan.graph.query_id if tracer is not None else None
        # Hot-path emission context, prebuilt so assign() pays one load
        # + unpack per call instead of four attribute loads.
        self._assign_ctx = (
            (tracer.emit, trace_pool, trace_query, self._trace_qid)
            if tracer is not None
            else None
        )
        # In-flight task registry, kept only under fault injection:
        # eid -> [(finish time, stage_id, task_idx, start time), ...].
        self._inflight: dict[int, list[tuple[float, int, int, float]]] = {}
        self._failed: set[int] = set()
        self.executors: dict[int, _Executor] = {}
        # Min-heap of executor ids with a free core (the fill step's
        # index; stale ids of removed executors are dropped lazily).
        self._free: list[int] = []
        self._exec_ids = itertools.count()
        self._pending: list[tuple[int, int]] = []  # (stage, task), FIFO
        self._pending_head = 0
        # spill × coordination for the fleet size it was computed at;
        # recomputed by assign() only when the executor count changes.
        self._factor_n = -1
        self._factor = 1.0
        self.running = 0
        self.stages_left = len(plan.durations)
        self.driver_done = False
        self.states = [
            _StageState(
                remaining_deps=len(deps),
                remaining_tasks=len(plan.task_seconds[sid]),
            )
            for sid, deps in enumerate(plan.dependencies)
        ]
        self.skyline = Skyline()
        self.skyline.record(start_time, 0)

    # --- executors -------------------------------------------------------
    def add_executor(self, now: float) -> int:
        """One granted executor arrives; returns its id."""
        eid = next(self._exec_ids)
        ec = self.cluster.cores_per_executor
        self.executors[eid] = _Executor(eid, ec, ec, idle_since=now)
        heappush(self._free, eid)
        self.skyline.record(now, len(self.executors))
        if self.tracer is not None:
            self.tracer.emit(
                (now, "exec_add", self._trace_pool, self._trace_query, self._trace_qid, eid)
            )
        return eid

    def release_idle(
        self, now: float, timeout: float | None, floor: int
    ) -> list[int]:
        """Remove executors idle for ``timeout`` seconds, oldest first.

        Never shrinks the fleet below ``floor``, and never removes
        anything while runnable tasks are waiting.  Returns the removed
        executor ids so the driver can give the capacity back.
        """
        # Keep executors if there is still work for them to pick up, or if
        # the fleet is already at the floor — both are the common case, so
        # bail before scanning the fleet.
        if (
            timeout is None
            or self.pending_count() > 0
            or len(self.executors) <= floor
        ):
            return []
        removable = sorted(
            (e.idle_since, e.executor_id)
            for e in self.executors.values()
            if e.free_cores == e.cores
            and e.idle_since is not None
            and now - e.idle_since >= timeout
        )
        removed = []
        for _, eid in removable:
            if len(self.executors) <= floor:
                break
            del self.executors[eid]
            self.skyline.record(now, len(self.executors))
            removed.append(eid)
            if self.tracer is not None:
                self.tracer.emit(
                    (
                        now,
                        "exec_remove",
                        self._trace_pool,
                        self._trace_query,
                        self._trace_qid,
                        eid,
                    )
                )
        return removed

    def oldest_idle(self) -> float:
        """Earliest ``idle_since`` of a fully idle executor (``inf`` if
        none): no idle scan can release anything before this instant
        plus the timeout."""
        oldest = math.inf
        for e in self.executors.values():
            since = e.idle_since
            if since is not None and e.free_cores == e.cores and since < oldest:
                oldest = since
        return oldest

    def fail_executor(self, now: float, eid: int) -> tuple[int, float] | None:
        """An executor crashed or was reclaimed: kill its work, requeue.

        The executor is removed at ``now``; every task in flight on it
        loses all progress and re-enters the pending queue (in its
        original assignment order, behind whatever is already queued) to
        be re-executed from scratch.  Completions the dead executor had
        already scheduled on the driver's heap become stale and are
        dropped by :meth:`complete_task`.

        Returns ``(killed tasks, wasted task-seconds of progress)`` for
        the injector's ledger, or ``None`` when the executor is already
        gone (idle-released or the query finished) and the failure is a
        no-op.
        """
        executor = self.executors.pop(eid, None)
        if executor is None:
            return None
        self._failed.add(eid)
        self.skyline.record(now, len(self.executors))
        killed = self._inflight.pop(eid, [])
        wasted = 0.0
        for _, stage_id, task_idx, start in killed:
            self.running -= 1
            self._pending.append((stage_id, task_idx))
            wasted += now - start
            if self.tracer is not None:
                self.tracer.emit(
                    (
                        now,
                        "task_kill",
                        self._trace_pool,
                        self._trace_query,
                        self._trace_qid,
                        stage_id,
                        task_idx,
                        eid,
                    )
                )
        return len(killed), wasted

    # --- stages ----------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending) - self._pending_head

    def emit_ready(self, stage_id: int, now: float = 0.0) -> None:
        state = self.states[stage_id]
        if state.emitted or state.remaining_deps > 0:
            return
        state.emitted = True
        n_tasks = len(self.plan.task_seconds[stage_id])
        for task_idx in range(n_tasks):
            self._pending.append((stage_id, task_idx))
        if self.tracer is not None:
            self.tracer.emit(
                (
                    now,
                    "stage_ready",
                    self._trace_pool,
                    self._trace_query,
                    self._trace_qid,
                    stage_id,
                    n_tasks,
                )
            )

    def mark_driver_done(self, now: float = 0.0) -> None:
        """The serial driver prefix finished; root stages become ready.

        ``now`` stamps the emitted ``driver_done`` / ``stage_ready``
        events; it plays no role in untraced physics.
        """
        self.driver_done = True
        if self.tracer is not None:
            self.tracer.emit(
                (
                    now,
                    "driver_done",
                    self._trace_pool,
                    self._trace_query,
                    self._trace_qid,
                )
            )
        # No task runs before this instant, so only the roots can be
        # ready; they are in id order, the order a full scan emits.
        for sid in self.plan.roots:
            self.emit_ready(sid, now)

    # --- completions and assignment -------------------------------------
    def play_wave(
        self,
        now: float,
        wave: Sequence[tuple[int, int] | None],
        emit: TaskEmit | None,
    ) -> bool:
        """Play a list of same-instant task completions, in order.

        Each ``(stage_id, executor_id)`` item runs the completion step —
        free the core, retire the task, unlock the stage's dependents —
        then, when ``emit`` is given, the fill step: drain pending tasks
        FIFO onto free cores, lowest executor id first, scheduling each
        started task's completion through ``emit``.  A ``None`` item runs
        the fill step alone (:meth:`assign`); ``emit=None`` runs the
        completion step alone (:meth:`complete_task`).  Filling after
        each completion rather than once per wave is what keeps a wave
        identical to one event per completion: a single fill after the
        whole wave would hand freed cores out in executor order instead
        of completion order.

        Completions scheduled by an executor that has since failed are
        *stale*: the failure already killed and requeued the task, so the
        completion step drops them (heaps cannot retract events).

        Returns ``True`` as soon as a completion finishes the whole
        query; the rest of the wave is not played.
        """
        executors = self.executors
        free = self._free
        states = self.states
        pending = self._pending
        head = self._pending_head
        running = self.running
        faults = self.faults
        factor = None
        for item in wave:
            if item is not None:
                stage_id, eid = item
                if faults is None or self._settle_inflight(now, stage_id, eid):
                    running -= 1
                    executor = executors.get(eid)
                    if executor is not None:
                        cores = executor.free_cores + 1
                        executor.free_cores = cores
                        if cores == 1:
                            heappush(free, eid)
                        if cores == executor.cores:
                            executor.idle_since = now
                    # No per-task completion event: the finish instant is
                    # derivable from the task_assign event (time +
                    # duration_s) unless a task_kill retracted it — see
                    # repro.obs.trace.EVENT_KINDS.
                    state = states[stage_id]
                    state.remaining_tasks -= 1
                    if state.remaining_tasks == 0:
                        self._complete_stage(now, stage_id)
                        if self.stages_left == 0:
                            self.running = running
                            return True
            # --- the fill step ---
            end = len(pending)
            if emit is None or head == end or not free or not self.driver_done:
                continue
            if factor is None:
                # The executor count cannot change within a wave.
                n = len(executors)
                if n != self._factor_n:
                    self._factor_n = n
                    spill = spill_factor(self.graph, n, self.cluster, self.config)
                    # A Python float even for a graph built with numpy
                    # sizes, so every finish time below is one too.
                    self._factor = float(spill * coordination_factor(n, self.config))
                factor = self._factor
                durations = self.plan.task_seconds
                record_log = self.record_log
                ctx = self._assign_ctx
                if ctx is not None:
                    trace_emit, t_pool, t_query, t_qid = ctx
            while head < end and free:
                eid = heappop(free)
                executor = executors.get(eid)
                if executor is None:
                    continue  # idle-released or failed since it was pushed
                take = executor.free_cores
                if take > end - head:
                    take = end - head
                executor.free_cores -= take
                executor.idle_since = None
                running += take
                for stage_id, task_idx in pending[head : head + take]:
                    duration = durations[stage_id][task_idx] * factor
                    if faults is not None:
                        duration = faults.task_duration(
                            stage_id,
                            task_idx,
                            len(durations[stage_id]),
                            duration,
                        )
                        self._inflight.setdefault(eid, []).append(
                            (now + duration, stage_id, task_idx, now)
                        )
                    emit(now + duration, stage_id, eid)
                    if ctx is not None:
                        trace_emit(
                            (
                                now,
                                "task_assign",
                                t_pool,
                                t_query,
                                t_qid,
                                stage_id,
                                task_idx,
                                eid,
                                duration,
                            )
                        )
                    if record_log:
                        states[stage_id].observed.append(duration)
                head += take
                if executor.free_cores:
                    heappush(free, eid)  # the queue ran dry first
            self._pending_head = head
        self.running = running
        return False

    def _settle_inflight(self, now: float, stage_id: int, eid: int) -> bool:
        """Drop a completion from the fault registry; False if stale."""
        if eid in self._failed:
            return False
        entries = self._inflight.get(eid)
        if entries:
            for i, (finish, sid, _, _) in enumerate(entries):
                if sid == stage_id and finish == now:
                    entries.pop(i)
                    break
        return True

    def _complete_stage(self, now: float, stage_id: int) -> None:
        """A stage's last task finished: unlock its dependents."""
        self.stages_left -= 1
        if self.tracer is not None:
            self.tracer.emit(
                (
                    now,
                    "stage_done",
                    self._trace_pool,
                    self._trace_query,
                    self._trace_qid,
                    stage_id,
                )
            )
        for dep_id in self.plan.dependents[stage_id]:
            self.states[dep_id].remaining_deps -= 1
            self.emit_ready(dep_id, now)

    def assign(self, now: float, emit: TaskEmit) -> None:
        """Drain pending tasks onto free cores, FIFO (a fill step alone).

        Each started task's completion is scheduled through ``emit`` with
        its ``(stage_id, executor_id)`` identity; the driver must route
        the completion back via :meth:`complete_task` or
        :meth:`play_wave`.
        """
        self.play_wave(now, _FILL_ONLY, emit)

    def complete_task(self, now: float, stage_id: int, eid: int) -> bool:
        """One task finished (a completion step alone); returns True when
        the whole query just did."""
        return self.play_wave(now, ((stage_id, eid),), None)

    # --- starvation ------------------------------------------------------
    def starved(self) -> bool:
        """Work is waiting but nothing the core holds can ever run it."""
        return (
            self.driver_done
            and self.pending_count() > 0
            and self.running == 0
            and not self.executors
        )

    # --- results ---------------------------------------------------------
    def build_log(self) -> ExecutionLog | None:
        """The observed-duration log (``record_log`` runs only)."""
        if not self.record_log:
            return None
        stage_logs = []
        for sid, deps in enumerate(self.plan.dependencies):
            stage_logs.append(
                StageLog(
                    stage_id=sid,
                    dependencies=list(deps),
                    task_durations=np.asarray(
                        self.states[sid].observed, dtype=float
                    ),
                )
            )
        return ExecutionLog(
            query_id=self.graph.query_id,
            driver_seconds=self.plan.driver_seconds,
            stages=stage_logs,
            cores_per_executor=self.cluster.cores_per_executor,
            executors_used=self.skyline.max_executors,
        )

    def result(
        self, end_time: float, fully_allocated: bool = True
    ) -> SimulationResult:
        """Assemble the :class:`SimulationResult` for a finished run."""
        return SimulationResult(
            runtime=end_time,
            skyline=self.skyline,
            auc=self.skyline.auc(end_time),
            max_executors=self.skyline.max_executors,
            total_tasks=self.plan.total_tasks,
            execution_log=self.build_log(),
            fully_allocated=fully_allocated,
            fault_stats=None if self.faults is None else self.faults.finalize(end_time),
        )
