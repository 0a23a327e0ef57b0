"""Batched ("sweep") simulation: one compiled plan, many executor counts.

The paper's central artifact is a *sweep*: the run-time / occupancy curve
``t(n)``, ``AUC(n)`` of one query across the executor-count axis (Figures
1, 3c, 11–13; the training pipeline; the fleet's oracle baseline).  The
event-driven :func:`~repro.engine.scheduler.simulate_query` replays the
whole query from scratch for every single count — re-deriving the stage
DAG bookkeeping, task durations, and skyline each time, and paying
per-event policy polls and tick events that cannot change anything under
static allocation.

This module makes the sweep the engine's first-class operation:

- :func:`compile_plan` precomputes everything count-invariant once — per
  -stage task-duration arrays, dependency/dependent topology, root stages,
  task totals — into a reusable :class:`CompiledPlan`;
- :func:`simulate_query_sweep` evaluates all candidate counts against the
  compiled plan in one pass.  Under static allocation without active
  faults the run collapses to wave scheduling: every stage's ready tasks
  drain FIFO onto ``n·ec`` slots, fully-idle waves are evaluated as
  single vectorized numpy expressions, and only partially-overlapping
  waves fall back to a flat float min-heap.

The fast path is **exact**: it reproduces the event loop's arithmetic
operation-for-operation (the same ``duration × spill × coordination``
products, the same ``start + duration`` additions, the same FIFO
tie-breaking), so its results are bit-identical to per-count
:func:`simulate_query` — a property the test suite asserts across the
whole TPC-DS workload.  Configurations the closed form cannot express —
mid-query scaling policies, active fault plans — fall back to the
event-driven scheduler per count, trading speed for generality.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from repro.engine.allocation import AllocationPolicy, StaticAllocation
from repro.engine.cluster import Cluster
from repro.engine.execution import (
    DEFAULT_SCHEDULER_CONFIG,
    CompiledPlan,
    SchedulerConfig,
    SimulationResult,
    compile_plan,
    coordination_factor,
    spill_factor,
)
from repro.engine.faults import FaultPlan
from repro.engine.scheduler import simulate_query
from repro.engine.skyline import Skyline
from repro.engine.stages import StageGraph
from repro.sparklens.log import ExecutionLog, StageLog

__all__ = ["CompiledPlan", "compile_plan", "simulate_query_sweep"]


def _simulate_static(
    plan: CompiledPlan,
    n_eff: int,
    cluster: Cluster,
    config: SchedulerConfig,
    record_log: bool,
) -> SimulationResult:
    """Exact wave-scheduling replay of ``simulate_query`` under ``SA(n)``.

    Under static allocation on a dedicated cluster the event loop's state
    collapses: the fleet is ``n_eff`` from the first instant to the last,
    the spill/coordination factor is constant, ticks and policy polls are
    no-ops, and the whole simulation is a FIFO drain of stage task chunks
    onto ``n_eff × ec`` slots.  Chunks are processed in emission order
    (the order their stages' tasks entered the scheduler's pending queue),
    which this function reproduces exactly — including the event loop's
    tie-breaking, where simultaneous stage completions emit dependents in
    task-assignment (FIFO counter) order, then ascending stage id.
    """
    graph = plan.graph
    slots = n_eff * cluster.cores_per_executor
    factor = spill_factor(graph, n_eff, cluster, config) * (
        coordination_factor(n_eff, config)
    )

    # Slot availability times, kept sorted ascending.  A value is the time
    # the slot's last task completes (slots idle since before a chunk's
    # emission start work at the emission instant, exactly like the event
    # loop's idle cores picking up freshly emitted tasks).
    avail = np.zeros(slots)

    # Emission queue: (time, trigger counter, stage id).  The counter is
    # the global FIFO assignment index of the task whose completion
    # unlocked the stage — the event loop processes simultaneous
    # completions in push (= assignment) order, so this tuple reproduces
    # its tie-breaking; root stages emit at driver completion, before any
    # task event, hence counter -1.
    ready: list[tuple[float, int, int]] = [
        (plan.driver_seconds, -1, sid) for sid in plan.roots
    ]
    heapq.heapify(ready)

    remaining = [len(deps) for deps in plan.dependencies]
    # Per-stage emission key: the lexicographic max (time, counter) over
    # completed dependencies — the event at which the last dependency
    # finished, which is when the event loop emits the stage.
    emit_key: list[tuple[float, int]] = [
        (-math.inf, -1) for _ in plan.dependencies
    ]

    observed: list[np.ndarray | None] = [None] * len(plan.durations)
    next_counter = 0
    end_time = 0.0

    while ready:
        ready_time, _, sid = heapq.heappop(ready)
        d = plan.durations[sid] * factor
        m = d.shape[0]
        idle = int(np.searchsorted(avail, ready_time, side="right"))
        if m <= idle:
            # Every task starts on an already-idle slot at the emission
            # instant: one vectorized wave.
            comp = ready_time + d
            avail = np.sort(np.concatenate((avail[m:], comp)))
        else:
            # Tasks overlap slots still busy with earlier chunks: drain
            # FIFO through a flat float min-heap (a sorted array is a
            # valid heap), reproducing the event loop's one-completion-
            # one-assignment cadence.
            heap = avail.tolist()
            comp = np.empty(m)
            for i in range(m):
                start = heapq.heappop(heap)
                if start < ready_time:
                    start = ready_time
                finish = start + d[i]
                comp[i] = finish
                heapq.heappush(heap, finish)
            avail = np.sort(np.asarray(heap))
        if record_log:
            observed[sid] = d

        # The stage's completion event is its lexicographically last
        # (time, assignment counter) task completion.
        last = m - 1 - int(np.argmax(comp[::-1]))
        stage_end = comp[last]
        key = (float(stage_end), next_counter + last)
        next_counter += m
        if stage_end > end_time:
            end_time = float(stage_end)

        for dep_id in plan.dependents[sid]:
            if key > emit_key[dep_id]:
                emit_key[dep_id] = key
            remaining[dep_id] -= 1
            if remaining[dep_id] == 0:
                time, counter = emit_key[dep_id]
                heapq.heappush(ready, (time, counter, dep_id))

    skyline = Skyline(points=[(0.0, n_eff)])
    log = None
    if record_log:
        stage_logs = []
        for sid, deps in enumerate(plan.dependencies):
            stage_logs.append(
                StageLog(
                    stage_id=sid,
                    dependencies=list(deps),
                    task_durations=observed[sid],
                )
            )
        log = ExecutionLog(
            query_id=graph.query_id,
            driver_seconds=graph.driver_seconds,
            stages=stage_logs,
            cores_per_executor=cluster.cores_per_executor,
            executors_used=n_eff,
        )

    return SimulationResult(
        runtime=end_time,
        skyline=skyline,
        auc=skyline.auc(end_time),
        max_executors=n_eff,
        total_tasks=plan.total_tasks,
        execution_log=log,
        fully_allocated=True,
    )


def simulate_query_sweep(
    graph: StageGraph | CompiledPlan,
    counts: Sequence[int],
    cluster: Cluster,
    config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
    policy_factory: Callable[[int], AllocationPolicy] = StaticAllocation,
    record_log: bool = False,
    faults: FaultPlan | None = None,
) -> list[SimulationResult]:
    """Simulate one query at every candidate executor count.

    Args:
        graph: the query's stage DAG, or an already-:func:`compile_plan`'d
            plan (reuse the compiled form when sweeping the same query
            repeatedly).
        counts: candidate executor counts, in the order results are
            wanted; duplicates (including counts that clamp to the same
            effective fleet) share one evaluation.
        cluster: cluster shapes; counts are clamped to pool capacity the
            same way ``simulate_query`` clamps policy requests.
        config: scheduler physics.
        policy_factory: maps a count to the allocation policy simulated at
            that count.  The default :class:`StaticAllocation` takes the
            vectorized fast path; any other factory (mid-query scaling
            policies such as ``DynamicAllocation``) falls back to the
            exact event-driven scheduler per count.
        record_log: capture per-count execution logs.
        faults: optional :class:`~repro.engine.faults.FaultPlan`.  An
            *active* plan falls back to the event-driven scheduler per
            count — each count replays the same seeded fault streams, so
            the perturbed ``t(n)`` curve is comparable across counts —
            while ``None`` or an inert plan keeps the vectorized fast
            path (and its bit-identity to the unperturbed event loop).

    Returns:
        One :class:`~repro.engine.scheduler.SimulationResult` per entry of
        ``counts`` — bit-identical to calling ``simulate_query`` with
        ``policy_factory(count)`` for each count in turn.
    """
    plan = graph if isinstance(graph, CompiledPlan) else compile_plan(graph)
    if policy_factory is StaticAllocation and (faults is None or not faults.active):
        return plan.sweep(counts, cluster, config, record_log)
    return [
        simulate_query(
            plan,
            policy_factory(int(n)),
            cluster,
            config,
            record_log=record_log,
            faults=faults,
        )
        for n in counts
    ]
