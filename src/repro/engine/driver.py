"""The per-query driver: one event heap and one copy of a run's handlers.

:class:`QueryRun` is the only copy of executor arrival (with its fault
draw), failure with replacement or give-back, the allocation-policy
poll, idle release and wave play.  ``simulate_query`` runs one on a
dedicated cluster over an :class:`EventHeap`; the fleet's ``PoolRuntime``
runs one per admitted query on a shared heap and is their
:class:`GrantPort`.  ``repro.engine`` never imports ``repro.fleet``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Protocol, Sequence

from repro.engine.allocation import AllocationPolicy, AllocationState
from repro.engine.cluster import Cluster
from repro.engine.execution import (
    CompiledPlan,
    ExecutionCore,
    SchedulerConfig,
    TaskEmit,
)
from repro.engine.faults import FaultPlan
from repro.obs.trace import Tracer

__all__ = ["EventHeap", "GrantPort", "QueryRun"]


class EventHeap:
    """The drivers' event heap: its total order and its task waves.

    Entries are ``(time, class, seq, kind, pool, q, payload)``.  Class 0
    is an arrival keyed by its stream position, class 1 everything else
    keyed by the push counter, so same-instant ties break arrivals-first
    in stream order, then in push order.  That is the total order a
    single counter gives when every arrival is pushed up front, and it
    also holds when arrivals enter the heap lazily, which lets streaming
    mode keep O(1) arrivals in flight without perturbing record mode by
    a single event.  A multiprocess parent orders its submits by the
    same class-0 key, and its workers push them as class-0 entries.  A
    dedicated run pushes class-1 entries only, with pool and query -1.

    Task completions enter through :meth:`push_task`, the only owner of
    the wave-join rule, one ``(stage_id, executor_id)`` completion per
    call; a ``task_done`` heap entry carries a list of them.  A
    completion for ``(pool, q)`` at ``time`` joins the previous entry's
    list when that entry was the last push of any kind, is a
    ``task_done`` for the same ``(pool, q)`` at the same ``time``, and
    has not been popped; anything else opens a new entry.  The order is
    unchanged: the joining completion would have taken the very next
    counter value, so no entry can sort between it and the one it joins,
    and handling the list in order at one pop plays the schedule
    back-to-back pops would have.  One ``assign`` that fills several
    cores with equal-length tasks becomes one entry instead of one per
    core.
    """

    __slots__ = ("events", "_counter", "_wave", "_wave_time", "_wave_pool", "_wave_q")

    def __init__(self) -> None:
        self.events: list[tuple[float, int, int, str, int, int, object]] = []
        self._counter = itertools.count()
        # Payload list of the last entry pushed, while that entry is an
        # unpopped task_done; None otherwise.
        self._wave: list[object] | None = None
        self._wave_time = 0.0
        self._wave_pool = -1
        self._wave_q = -1

    def push(
        self,
        pool: int,
        time: float,
        kind: str,
        q: int = -1,
        payload: object = None,
    ) -> None:
        """Schedule a class-1 event other than a task completion (those
        go through :meth:`push_task`); ``pool`` -1 marks a driver event.

        ``pool`` comes first so that ``functools.partial(heap.push, i)``
        is pool ``i``'s ``push(time, kind, q, payload)`` callback.
        """
        self._wave = None
        heapq.heappush(
            self.events, (time, 1, next(self._counter), kind, pool, q, payload)
        )

    def push_task(
        self, pool: int, q: int, time: float, stage_id: int, eid: int
    ) -> None:
        """Schedule query ``q``'s task completion ``(stage_id, eid)`` on
        pool ``pool`` at ``time``, joining the open wave when the rule in
        the class docstring allows.

        The argument order makes ``functools.partial(heap.push_task, i,
        q)`` an :data:`~repro.engine.execution.TaskEmit`: the core's
        ``emit(finish, stage_id, eid)`` then reaches this method with no
        Python frame in between.
        """
        wave = self._wave
        if (
            wave is not None
            and time == self._wave_time
            and q == self._wave_q
            and pool == self._wave_pool
        ):
            wave.append((stage_id, eid))
            return
        wave = self._wave = [(stage_id, eid)]
        self._wave_time = time
        self._wave_pool = pool
        self._wave_q = q
        heapq.heappush(
            self.events, (time, 1, next(self._counter), "task_done", pool, q, wave)
        )

    def push_arrival(
        self,
        time: float,
        pos: int,
        payload: object,
        kind: str = "arrive",
        pool: int = -1,
    ) -> None:
        """Schedule stream position ``pos`` (class 0): an arrival, or in
        a shard worker a ``"submit"`` its parent already routed to
        ``pool``."""
        self._wave = None
        heapq.heappush(self.events, (time, 0, pos, kind, pool, pos, payload))

    def pop(self) -> tuple[float, int, int, str, int, int, object]:
        """Remove and return the earliest entry; a popped wave is closed
        to further completions."""
        entry = heapq.heappop(self.events)
        if entry[6] is self._wave:
            self._wave = None
        return entry


class GrantPort(Protocol):
    """Where a run's executors come from: ``capacity`` caps a policy's
    target, ``grant`` returns how many of ``count`` more it granted, and
    ``give_back`` takes back what the run sheds (``reason`` "idle" or
    "failed")."""

    @property
    def capacity(self) -> int: ...

    def grant(self, now: float, run: QueryRun, count: int) -> int: ...

    def give_back(
        self, now: float, run: QueryRun, count: int, reason: str
    ) -> None: ...


class QueryRun:
    """One query's :class:`~repro.engine.execution.ExecutionCore` plus
    the handlers that feed it.

    Its grants held are the arrived executors plus :attr:`outstanding`.
    Only :meth:`play` polls the policy itself (after each completion);
    each driver polls after the other events it chooses.  ``push(time, kind,
    q, payload)`` and ``emit`` reach the driver's heap; ``q`` keys the
    run's entries and, with ``trace_pool`` and ``query_id`` (default
    the plan's), stamps its events.  The policy is reset here, and the
    fault injector is keyed by ``fault_key``.
    """

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: Cluster,
        config: SchedulerConfig,
        port: GrantPort,
        push: Callable[..., None],
        emit: TaskEmit,
        *,
        policy: AllocationPolicy | None = None,
        faults: FaultPlan | None = None,
        fault_key: int = 0,
        record_log: bool = False,
        start_time: float = 0.0,
        tracer: Tracer | None = None,
        trace_pool: int = -1,
        q: int = -1,
        query_id: str | None = None,
    ) -> None:
        self.injector = faults.injector(fault_key) if faults is not None else None
        self.replace_failed = faults is None or faults.replace_failed
        self.core = ExecutionCore(
            plan,
            cluster,
            config,
            record_log=record_log,
            start_time=start_time,
            faults=self.injector,
            tracer=tracer,
            trace_pool=trace_pool,
            trace_query=q,
        )
        self.port = port
        self.push = push
        self.emit = emit
        self.policy = policy
        if policy is not None:
            policy.reset()
        self.start_time = start_time
        self.tracer = tracer
        self.trace_pool = trace_pool
        self.q = q
        self.query_id = plan.graph.query_id if query_id is None else query_id
        #: Executors granted but not yet arrived.
        self.outstanding = 0

    def ramp(self, now: float, count: int) -> None:
        """Schedule ``count`` granted executors through the grant ramp."""
        for t in self.core.cluster.grant_schedule(now, count):
            self.push(t, "exec_arrive", self.q)
        self.outstanding += count

    def arrive(self, now: float) -> None:
        """A granted executor arrives, draws its failure time (if any)
        and takes pending work."""
        self.outstanding -= 1
        eid = self.core.add_executor(now)
        if self.injector is not None:
            fail_at = self.injector.on_added(now, eid)
            if fail_at is not None:
                self.push(fail_at, "exec_fail", self.q, eid)
                if self.tracer is not None:
                    self.tracer.emit(
                        (
                            now,
                            "fault_inject",
                            self.trace_pool,
                            self.q,
                            self.query_id,
                            eid,
                            float(fail_at),
                        )
                    )
        self.core.assign(now, self.emit)

    def driver_done(self, now: float) -> None:
        """The driver prefix ended: root stages start on free cores."""
        self.core.mark_driver_done(now)
        self.core.assign(now, self.emit)

    def fail(self, now: float, eid: int) -> bool:
        """A drawn failure fired: requeue the executor's work, then ramp
        in a replacement or give the slot back.  False if it was gone."""
        outcome = self.core.fail_executor(now, eid)
        if outcome is None:
            return False
        cause = self.injector.on_failed(now, eid, *outcome)
        if self.tracer is not None:
            self.tracer.emit(
                (
                    now,
                    "exec_fail",
                    self.trace_pool,
                    self.q,
                    self.query_id,
                    eid,
                    cause,
                    outcome[0],
                    float(outcome[1]),
                )
            )
        if self.replace_failed:
            # The failed executor's grant survives: re-provision the
            # slot through the normal ramp, no new grant.
            self.ramp(now, 1)
        else:
            self.port.give_back(now, self, 1, "failed")
        self.core.assign(now, self.emit)
        return True

    def release_idle(self, now: float, timeout: float | None, floor: int) -> bool:
        """Give back executors idle for ``timeout``; True if any were."""
        removed = self.core.release_idle(now, timeout, floor)
        if not removed:
            return False
        self.port.give_back(now, self, len(removed), "idle")
        if self.injector is not None:
            for eid in removed:
                self.injector.on_removed(now, eid)
        return True

    def poll(self, now: float) -> None:
        """Ask the policy for its target; grow toward it through the port."""
        policy = self.policy
        if policy is None:
            return
        core = self.core
        state = AllocationState(
            time=now - self.start_time,
            pending_tasks=core.pending_count(),
            running_tasks=core.running,
            active_executors=len(core.executors),
            outstanding=self.outstanding,
            cores_per_executor=core.cluster.cores_per_executor,
        )
        target = min(self.port.capacity, policy.desired_target(state))
        granted = len(core.executors) + self.outstanding
        if target > granted:
            got = self.port.grant(now, self, target - granted)
            if got:
                self.ramp(now, got)

    def play(self, now: float, wave: Sequence[tuple[int, int]]) -> bool:
        """Play one heap entry's completions; True if the query finished.

        Without a policy that is one ``play_wave`` call.  Under one, each
        completion is its own call followed by a poll, as if it had been
        its own event."""
        core = self.core
        if self.policy is None:
            return core.play_wave(now, wave, self.emit)
        for item in wave:
            if core.play_wave(now, (item,), self.emit):
                return True
            self.poll(now)
        return False
