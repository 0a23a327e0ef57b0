"""Discrete-event task scheduler: the dedicated-cluster driver.

Given a query's stage DAG, an allocation policy, and a cluster,
:func:`simulate_query` plays out the query — executors arrive with
provisioning lag, tasks are assigned one-per-core in waves, stages
respect dependencies, idle executors get released — and produces the run
time, the executor skyline, and (optionally) an execution log that
:mod:`repro.sparklens` can analyze post-hoc.

The physics live in :class:`~repro.engine.execution.ExecutionCore` and
the per-query handlers in :class:`~repro.engine.driver.QueryRun`, which
the fleet (:mod:`repro.fleet.engine`) runs too; this module adds the
bootstrap, a short dispatch over an :class:`~repro.engine.driver.EventHeap`,
the stall guard, and the dedicated cluster's grant port, which grants
every request up to the cluster's capacity.  A fleet of one query on an
uncontended pool reproduces this function bit-for-bit (see
``tests/engine/test_execution_parity.py``); a single query on a
contended shared pool is a fleet of one with a small capacity.

The simulation is deterministic.  Run-to-run variance (the paper's
4–7 %) is added by :mod:`repro.experiments.runtime_data` on top.
"""

from __future__ import annotations

import functools

from repro.engine.allocation import AllocationPolicy
from repro.engine.cluster import Cluster
from repro.engine.driver import EventHeap, QueryRun
from repro.engine.execution import (
    DEFAULT_SCHEDULER_CONFIG,
    CompiledPlan,
    SchedulerConfig,
    SimulationResult,
    compile_plan,
)
from repro.engine.faults import FaultPlan
from repro.engine.stages import StageGraph
from repro.obs.trace import Tracer

__all__ = ["SchedulerConfig", "SimulationResult", "simulate_query"]


def simulate_query(
    graph: StageGraph | CompiledPlan,
    policy: AllocationPolicy,
    cluster: Cluster,
    config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
    record_log: bool = False,
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
    heap = EventHeap()
    run = QueryRun(
        plan,
        cluster,
        config,
        _DedicatedPort(cluster.max_executors),
        functools.partial(heap.push, -1),
        functools.partial(heap.push_task, -1, -1),
        policy=policy,
        faults=faults,
        fault_key=fault_key,
        record_log=record_log,
        tracer=tracer,
    )
    core = run.core

    # The initial executors were provisioned at application submission:
    # they arrive at once, before the driver prefix starts (no task can
    # start yet, so their fills are no-ops).
    run.outstanding = cluster.clamp_request(policy.initial_executors)
    for _ in range(run.outstanding):
        run.arrive(0.0)
    heap.push(-1, plan.driver_seconds, "driver_done")
    heap.push(-1, config.tick_interval, "tick")
    run.poll(0.0)

    while True:
        now, _, _, kind, _, _, payload = heap.pop()
        if kind == "task_done":
            # play() polls after every completion that does not finish.
            if run.play(now, payload):
                break
        else:
            if kind == "driver_done":
                run.driver_done(now)
            elif kind == "exec_arrive":
                run.arrive(now)
            elif kind == "exec_fail":
                run.fail(now, payload)
            else:  # tick
                run.release_idle(now, policy.idle_timeout, policy.min_executors)
                heap.push(-1, now + config.tick_interval, "tick")
            run.poll(now)
        # Stall guard: work is waiting but nothing can ever run it — the
        # policy refuses executors and none are on the way.  Without this
        # the tick chain would spin forever.
        if core.starved() and run.outstanding == 0:
            raise RuntimeError(
                "simulation stalled: tasks are pending but the allocation "
                "policy provides no executors"
            )
    return core.result(now, fully_allocated=run.outstanding == 0)


class _DedicatedPort:
    """:func:`simulate_query`'s grants: every request, up to ``capacity``
    (the policy's target is capped there), and nothing to give back."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def grant(self, now: float, run: QueryRun, count: int) -> int:
        return count

    def give_back(self, now: float, run: QueryRun, count: int, reason: str) -> None:
        return None
