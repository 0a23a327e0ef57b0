"""Discrete-event task scheduler: the dedicated-cluster driver.

Given a query's stage DAG, an allocation policy, and a cluster,
:func:`simulate_query` plays out the query — executors arrive with
provisioning lag, tasks are assigned one-per-core in waves, stages
respect dependencies, idle executors get released — and produces the run
time, the executor skyline, and (optionally) an execution log that
:mod:`repro.sparklens` can analyze post-hoc.

The execution physics themselves (wave assignment, spill × coordination
slowdowns, idle release, skyline bookkeeping) live in the shared
:class:`~repro.engine.execution.ExecutionCore`; this module contributes
only what is specific to a *dedicated* single-query run: the event heap,
the allocation-policy polling loop, and executor provisioning through a
:class:`~repro.engine.cluster.CapacitySource`.  The fleet engine
(:mod:`repro.fleet.engine`) drives the same core over a shared pool, and
a fleet of one query on an uncontended pool reproduces this function
bit-for-bit (see ``tests/engine/test_execution_parity.py``).

The simulation is deterministic.  Run-to-run variance (the paper's
4–7 %) is added by :mod:`repro.experiments.runtime_data` on top.
"""

from __future__ import annotations

import heapq
import itertools

from repro.engine.allocation import AllocationPolicy, AllocationState
from repro.engine.cluster import UNBOUNDED, CapacitySource, Cluster
from repro.engine.execution import (
    DEFAULT_SCHEDULER_CONFIG,
    CompiledPlan,
    ExecutionCore,
    SchedulerConfig,
    SimulationResult,
    compile_plan,
)
from repro.engine.faults import FaultPlan
from repro.engine.stages import StageGraph
from repro.obs.trace import TraceEvent, Tracer

__all__ = ["SchedulerConfig", "SimulationResult", "simulate_query"]


def simulate_query(
    graph: StageGraph | CompiledPlan,
    policy: AllocationPolicy,
    cluster: Cluster,
    config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
    record_log: bool = False,
    capacity_source: CapacitySource = UNBOUNDED,
    faults: FaultPlan | None = None,
    fault_key: int = 0,
    tracer: Tracer | None = None,
) -> SimulationResult:
    """Simulate one query run under an allocation policy.

    Args:
        graph: the query's stage DAG, or an already-compiled
            :class:`~repro.engine.execution.CompiledPlan` (reuse the
            compiled form when simulating the same query repeatedly).
        policy: allocation policy (reset before use).
        cluster: cluster manager (capacity + provisioning lag).
        config: scheduler physics.
        record_log: capture an :class:`~repro.sparklens.log.ExecutionLog`
            of observed task durations for post-hoc analysis.
        capacity_source: where executor grants come from — the dedicated
            cluster default grants every clamped request; a shared-pool
            arbiter (``repro.fleet``) may grant fewer.  Everything
            acquired is released back when the query finishes or sheds
            idle executors.
        faults: optional seed-driven perturbation layer
            (:mod:`repro.engine.faults`): executor crashes with task
            re-execution, stragglers, spot reclamation.  ``None`` — or a
            plan with every rate at zero — runs the exact unperturbed
            engine, bit for bit.
        fault_key: stable per-query RNG key for the fault streams (the
            fleet passes the arrival-stream position).
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving the
            run's execution events (and ``fault_inject`` draws).  ``None``
            (the default) runs bit-identically to an untraced simulation.

    Returns:
        A :class:`~repro.engine.execution.SimulationResult`.
    """
    plan = graph if isinstance(graph, CompiledPlan) else compile_plan(graph)
    policy.reset()
    injector = faults.injector(fault_key) if faults is not None else None
    replace_failed = faults.replace_failed if faults is not None else True
    core = ExecutionCore(
        plan,
        cluster,
        config,
        record_log=record_log,
        faults=injector,
        tracer=tracer,
    )

    # --- event machinery ------------------------------------------------
    counter = itertools.count()
    events: list[tuple[float, int, str, object]] = []

    def push(time: float, kind: str, payload: object = None) -> None:
        heapq.heappush(events, (time, next(counter), kind, payload))

    def emit_task(finish: float, stage_id: int, eid: int) -> None:
        push(finish, "task_done", (stage_id, eid))

    def arrive_executor(now: float) -> None:
        eid = core.add_executor(now)
        if injector is not None:
            fail_at = injector.on_added(now, eid)
            if fail_at is not None:
                push(fail_at, "exec_fail", eid)
                if tracer is not None:
                    tracer.emit(
                        TraceEvent(
                            now,
                            "fault_inject",
                            query_id=plan.graph.query_id,
                            data={"eid": eid, "fail_at": float(fail_at)},
                        )
                    )

    # --- capacity accounting ---------------------------------------------
    outstanding = 0
    granted_total = 0  # active + outstanding, i.e. everything provisioned

    def poll_policy(now: float) -> None:
        nonlocal outstanding, granted_total
        state = AllocationState(
            time=now,
            pending_tasks=core.pending_count(),
            running_tasks=core.running,
            active_executors=len(core.executors),
            outstanding=outstanding,
            cores_per_executor=cluster.cores_per_executor,
        )
        target = cluster.clamp_request(policy.desired_target(state))
        if target > granted_total:
            times = cluster.provision(
                now, target - granted_total, capacity_source
            )
            for t in times:
                push(t, "exec_arrive")
            outstanding += len(times)
            granted_total += len(times)

    # --- bootstrap ---------------------------------------------------------
    initial = capacity_source.acquire(
        cluster.clamp_request(policy.initial_executors)
    )
    for _ in range(initial):
        arrive_executor(0.0)
    granted_total = initial
    push(plan.driver_seconds, "driver_done")
    push(config.tick_interval, "tick")
    poll_policy(0.0)

    end_time: float | None = None

    # --- main loop -----------------------------------------------------------
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if kind == "driver_done":
            core.mark_driver_done(now)
            core.assign(now, emit_task)
        elif kind == "exec_arrive":
            outstanding -= 1
            arrive_executor(now)
            core.assign(now, emit_task)
        elif kind == "task_done":
            # One completion, then a fill of the freed core.
            if core.play_wave(now, (payload,), emit_task):
                end_time = now
                break
        elif kind == "exec_fail":
            outcome = core.fail_executor(now, payload)
            if outcome is not None:
                cause = injector.on_failed(now, payload, *outcome)
                if tracer is not None:
                    tracer.emit(
                        TraceEvent(
                            now,
                            "exec_fail",
                            query_id=plan.graph.query_id,
                            data={
                                "eid": payload,
                                "cause": cause,
                                "killed": outcome[0],
                                "wasted_s": float(outcome[1]),
                            },
                        )
                    )
                if replace_failed:
                    # The failed executor's grant survives: re-provision
                    # the slot through the normal ramp, no new acquire.
                    for t in cluster.grant_schedule(now, 1):
                        push(t, "exec_arrive")
                    outstanding += 1
                else:
                    granted_total -= 1
                    capacity_source.release(1)
                core.assign(now, emit_task)
        elif kind == "tick":
            removed = core.release_idle(
                now, policy.idle_timeout, policy.min_executors
            )
            if removed:
                granted_total -= len(removed)
                capacity_source.release(len(removed))
                if injector is not None:
                    for eid in removed:
                        injector.on_removed(now, eid)
            push(now + config.tick_interval, "tick")
        poll_policy(now)
        # Stall guard: work is waiting but nothing can ever run it — the
        # policy refuses executors and none are on the way.  Without this
        # the tick chain would spin forever.
        if core.starved() and outstanding == 0:
            raise RuntimeError(
                "simulation stalled: tasks are pending but the allocation "
                "policy provides no executors"
            )

    if end_time is None:
        raise RuntimeError(
            "simulation ended without completing the query (policy never "
            "provided executors?)"
        )

    # Hand everything provisioned — arrived or still in flight — back to
    # the capacity source now that the query is done.
    capacity_source.release(granted_total)

    return core.result(end_time, fully_allocated=outstanding == 0)
