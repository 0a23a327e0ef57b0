"""Executor allocation policies.

The paper compares three families of per-query allocation (Sections 2.3,
4.5–4.6, 5.4):

- **Static allocation** ``SA(n)``: all ``n`` executors requested at job
  submission and held for the query's lifetime.
- **Dynamic allocation** ``DA(min, max)``: Spark's reactive policy — when
  tasks back up for ``schedulerBacklogTimeout`` the target grows
  *exponentially* (1, 2, 4, … additional executors per round); executors
  idle longer than ``executorIdleTimeout`` are released.
- **Predictive allocation** (AutoExecutor's ``Rule``): the model-predicted
  count is requested during query optimization; reactive *scale-up* is
  disabled (the prediction replaces it) but reactive *deallocation* of idle
  executors is retained (Section 4.6).

Policies are consulted by the scheduler at every event and at 1-second
ticks; they return an absolute executor *target*, and the scheduler turns
target changes into (lagged) grants or idle removals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.engine.checks import check_int, check_range

__all__ = [
    "AllocationState",
    "AllocationPolicy",
    "StaticAllocation",
    "DynamicAllocation",
    "PredictiveAllocation",
    "BudgetAllocation",
]


@dataclass(frozen=True)
class AllocationState:
    """Scheduler state snapshot handed to a policy.

    Attributes:
        time: simulation clock (seconds since query submission).
        pending_tasks: runnable tasks not yet assigned to a core.
        running_tasks: tasks currently executing.
        active_executors: executors arrived and alive.
        outstanding: executors granted but not yet arrived.
        cores_per_executor: slots each executor contributes.
    """

    time: float
    pending_tasks: int
    running_tasks: int
    active_executors: int
    outstanding: int
    cores_per_executor: int


class AllocationPolicy(Protocol):
    """Protocol all allocation policies implement."""

    #: executors available the moment the query starts (already provisioned
    #: at application submission).
    initial_executors: int

    #: seconds of idleness after which an executor is released, or ``None``
    #: to hold executors until the query ends.
    idle_timeout: float | None

    #: floor below which idle removal must not shrink the fleet.
    min_executors: int

    def desired_target(self, state: AllocationState) -> int:
        """Return the absolute executor target at this instant."""
        ...  # pragma: no cover

    def reset(self) -> None:
        """Clear per-query state before a fresh simulation."""
        ...  # pragma: no cover


class StaticAllocation:
    """``SA(n)``: a fixed fleet for the query's whole lifetime."""

    def __init__(self, n: int) -> None:
        check_int("n", n, 1)
        self.n = int(n)
        self.initial_executors = self.n
        self.idle_timeout: float | None = None
        self.min_executors = self.n

    def desired_target(self, state: AllocationState) -> int:
        return self.n

    def reset(self) -> None:  # stateless
        return None

    def __repr__(self) -> str:
        return f"SA({self.n})"


class DynamicAllocation:
    """Spark-style reactive dynamic allocation.

    Args:
        min_executors / max_executors: the DA range (paper defaults are the
            pathological 0 and 2^31−1; experiments use 1..48).
        backlog_timeout: seconds of sustained backlog before the first
            scale-up round (Spark default 1 s).
        sustained_timeout: seconds between subsequent scale-up rounds.
        idle_timeout: idle-executor release threshold (Spark default 60 s).
        scale_up: set ``False`` to disable reactive growth (used by the
            hybrid predictive policy).
    """

    def __init__(
        self,
        min_executors: int = 1,
        max_executors: int = 48,
        backlog_timeout: float = 1.0,
        sustained_timeout: float = 1.0,
        idle_timeout: float | None = 60.0,
        scale_up: bool = True,
    ) -> None:
        check_int("min_executors", min_executors, 0)
        check_int("max_executors", max_executors, max(min_executors, 1))
        check_range("backlog_timeout", backlog_timeout, 0.0, open_low=True)
        check_range("sustained_timeout", sustained_timeout, 0.0, open_low=True)
        _check_idle_timeout(idle_timeout)
        self.min_executors = int(min_executors)
        self.max_executors = int(max_executors)
        self.backlog_timeout = backlog_timeout
        self.sustained_timeout = sustained_timeout
        self.idle_timeout = idle_timeout
        self.scale_up = scale_up
        self.initial_executors = max(self.min_executors, 1)
        self.reset()

    def reset(self) -> None:
        self._backlog_since: float | None = None
        self._next_round_at: float | None = None
        self._round_size = 1
        self._target = self.initial_executors

    def desired_target(self, state: AllocationState) -> int:
        self._target = max(self._target, self.min_executors)
        if not self.scale_up:
            return self._target
        if state.pending_tasks <= 0:
            # Backlog cleared: reset the exponential ramp.
            self._backlog_since = None
            self._next_round_at = None
            self._round_size = 1
            return self._target
        if self._backlog_since is None:
            self._backlog_since = state.time
            self._next_round_at = state.time + self.backlog_timeout
            return self._target
        assert self._next_round_at is not None
        if state.time < self._next_round_at:
            return self._target
        # One scale-up round: add exponentially more executors, capped only
        # by the configured range.  The paper (Section 2.3) stresses that
        # dynamic allocation "runs the risks of allocating too late as well
        # as exponentially overshooting the required count" — the overshoot
        # is part of the behaviour being measured.
        current = state.active_executors + state.outstanding
        proposal = min(current + self._round_size, self.max_executors)
        self._round_size *= 2
        self._next_round_at = state.time + self.sustained_timeout
        self._target = max(self._target, proposal)
        return self._target

    def __repr__(self) -> str:
        return f"DA({self.min_executors},{self.max_executors})"


class BudgetAllocation:
    """A shared-pool admission budget as a single-query policy.

    This is exactly how the fleet engine (:mod:`repro.fleet.engine`)
    treats an admitted query: it starts with *nothing* on the cluster,
    its whole reserved budget arrives through the provisioning ramp, idle
    executors may be shed down to a floor, and — unlike
    :class:`PredictiveAllocation`, whose standing target re-provisions
    whatever reactive deallocation releases — capacity returned to the
    pool is never asked for again.  Driving ``simulate_query`` with this
    policy therefore reproduces a fleet of one query on an uncontended
    pool bit-for-bit, the differential-parity contract asserted in
    ``tests/engine/test_execution_parity.py`` and the CI bench gate.

    Args:
        n: the admitted executor budget, requested once at submission.
        idle_timeout: reactive deallocation threshold (the fleet's
            ``idle_release_timeout``), or ``None`` to hold the budget.
        min_executors: floor idle release never shrinks below.
    """

    def __init__(
        self,
        n: int,
        idle_timeout: float | None = None,
        min_executors: int = 1,
    ) -> None:
        check_int("n", n, 1)
        _check_idle_timeout(idle_timeout)
        check_int("min_executors", min_executors, 0)
        self.n = int(n)
        self.initial_executors = 0
        self.idle_timeout = idle_timeout
        self.min_executors = int(min_executors)
        self.reset()

    def reset(self) -> None:
        self._requested = False

    def desired_target(self, state: AllocationState) -> int:
        if not self._requested:
            self._requested = True
            return self.n
        # After the one-shot budget request the target tracks whatever is
        # still granted, so idle releases stick instead of being undone.
        return state.active_executors + state.outstanding

    def __repr__(self) -> str:
        return f"Budget({self.n})"


class PredictiveAllocation:
    """AutoExecutor's hybrid policy: predictive up, reactive down.

    The model-predicted count is requested once, when the optimizer's
    prediction rule fires (``request_delay`` seconds into the query —
    optimization time).  Reactive scale-up stays disabled; executors idle
    longer than ``idle_timeout`` are released, but never below
    ``min_executors``.

    Args:
        predicted_executors: the count chosen by the PPM + objective.
        initial_executors: fleet present at submission (Figure 12's example
            run started with 5).
        request_delay: optimizer latency before the request is placed.
        idle_timeout: reactive deallocation threshold.
    """

    def __init__(
        self,
        predicted_executors: int,
        initial_executors: int = 5,
        request_delay: float = 1.0,
        idle_timeout: float | None = 60.0,
        min_executors: int = 1,
    ) -> None:
        check_int("predicted_executors", predicted_executors, 1)
        check_int("initial_executors", initial_executors, 0)
        check_range("request_delay", request_delay, 0.0)
        _check_idle_timeout(idle_timeout)
        check_int("min_executors", min_executors, 0)
        self.predicted_executors = int(predicted_executors)
        self.initial_executors = int(initial_executors)
        self.request_delay = request_delay
        self.idle_timeout = idle_timeout
        self.min_executors = int(min_executors)
        self.reset()

    def reset(self) -> None:
        self._requested = False

    def desired_target(self, state: AllocationState) -> int:
        if not self._requested and state.time >= self.request_delay:
            self._requested = True
        if self._requested:
            return max(self.predicted_executors, self.min_executors)
        return max(self.initial_executors, self.min_executors)

    def __repr__(self) -> str:
        return f"Rule({self.predicted_executors})"


def _check_idle_timeout(idle_timeout: float | None) -> None:
    """``None`` holds executors until the query ends; anything else is a
    finite, non-negative release threshold."""
    if idle_timeout is not None:
        check_range("idle_timeout", idle_timeout, 0.0)
