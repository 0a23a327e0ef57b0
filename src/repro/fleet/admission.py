"""Admission control: finite pool capacity, queueing, arbitration.

The shared pool holds a fixed number of executors.  Every query asks the
:class:`CapacityArbiter` for a budget before it may start; when the pool
cannot cover the budget the request queues.  Which queued request goes
next is the admission policy's call:

- :class:`FIFOAdmission` — strict arrival order with head-of-line
  blocking: a large request at the head makes everyone behind it wait,
  even if they would fit (the behaviour of a naive job queue).
- :class:`FairShareAdmission` — among the requests that fit *right now*,
  grant the one whose application currently holds the least capacity
  (ties broken by arrival order).  Small tenants are not starved by big
  bursty ones, and capacity that would sit idle under FIFO gets used.

Two acquisition paths exist side by side.  :meth:`CapacityArbiter.submit`
/ :meth:`~CapacityArbiter.admit` is the *queued, atomic* path: a query's
admission budget is reserved whole or not at all, under the admission
policy's ordering.  :meth:`CapacityArbiter.try_acquire` is the
*immediate, partial* path: grant whatever fits right now, used by the
fleet engine's mid-query dynamic scaling (growing an already-admitted
query's grant under backlog pressure).  Both paths reach a query run
through :class:`~repro.fleet.engine.PoolRuntime`, the pool's
:class:`~repro.engine.driver.GrantPort`.

The same bounded-wait discipline reappears one layer up in the HTTP
serving surface: :mod:`repro.serve` fronts the prediction service with
a bounded request queue that sheds (HTTP 429) rather than queueing into
timeout — admission control for recommendation traffic, where this
module is admission control for executor capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

__all__ = [
    "AdmissionRequest",
    "AdmissionPolicy",
    "FIFOAdmission",
    "FairShareAdmission",
    "CapacityArbiter",
]


@dataclass(frozen=True)
class AdmissionRequest:
    """A query's ask: an executor budget out of the shared pool.

    Attributes:
        query_index: the requesting query (fleet stream index).
        app_id: owning application (the fair-share unit).
        executors: budget requested — granted atomically or not at all.
        submit_time: fleet-clock time the request entered the queue.
    """

    query_index: int
    app_id: int
    executors: int
    submit_time: float

    def __post_init__(self) -> None:
        if self.executors < 1:
            raise ValueError("admission requests need at least 1 executor")


class AdmissionPolicy(Protocol):
    """Chooses which queued request (if any) is admitted next."""

    name: str

    def pick(
        self,
        queue: Sequence[AdmissionRequest],
        free: int,
        app_usage: Mapping[int, int],
    ) -> int | None:
        """Return the queue position to admit, or ``None`` to wait.

        Args:
            queue: pending requests in arrival order.
            free: uncommitted pool capacity (executors).
            app_usage: currently granted executors per application.
        """
        ...  # pragma: no cover


class FIFOAdmission:
    """Strict arrival order; the head of the line blocks everyone."""

    name = "fifo"

    def pick(
        self,
        queue: Sequence[AdmissionRequest],
        free: int,
        app_usage: Mapping[int, int],
    ) -> int | None:
        if queue and queue[0].executors <= free:
            return 0
        return None


class FairShareAdmission:
    """Least-loaded application first, among the requests that fit."""

    name = "fair_share"

    def pick(
        self,
        queue: Sequence[AdmissionRequest],
        free: int,
        app_usage: Mapping[int, int],
    ) -> int | None:
        best: int | None = None
        best_usage = -1
        for pos, request in enumerate(queue):
            if request.executors > free:
                continue
            usage = app_usage.get(request.app_id, 0)
            if best is None or usage < best_usage:
                best, best_usage = pos, usage
        return best


class CapacityArbiter:
    """Grants per-query executor budgets out of a finite pool.

    The invariant the whole fleet rests on: the sum of outstanding grants
    never exceeds ``capacity``.  Grants are atomic (a query starts with
    its full budget reserved, though executors still *arrive* gradually
    per the cluster's provisioning lag) and are returned piecemeal — idle
    releases hand back single executors, completion hands back the rest.

    Capacity is *time-varying* under a pool autoscaler
    (:mod:`repro.fleet.autoscaler`): :meth:`resize` moves the pool's
    size between grants.  Shrinks never revoke outstanding grants — a
    scale-down racing an in-flight grant clamps at ``in_use``; the
    arbiter keeps no pending target, so a caller that wants the lower
    size must re-issue :meth:`resize` once grants release (the
    autoscaler's periodic evaluation does exactly that) — so the grant
    invariant holds at every instant.  ``max_capacity`` is the ceiling
    the autoscaler may ever reach; budget requests are admissible up to
    that ceiling (they queue until capacity grows to fit them).

    Args:
        capacity: pool size in executors.
        policy: admission policy; defaults to FIFO.
        max_capacity: largest size :meth:`resize` may grow the pool to
            (defaults to ``capacity``: a statically provisioned pool).
    """

    def __init__(
        self,
        capacity: int,
        policy: AdmissionPolicy | None = None,
        max_capacity: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be at least 1 executor")
        self.capacity = int(capacity)
        self.max_capacity = (
            self.capacity if max_capacity is None else int(max_capacity)
        )
        if self.max_capacity < self.capacity:
            raise ValueError("max_capacity cannot be below capacity")
        self.policy: AdmissionPolicy = policy if policy is not None else FIFOAdmission()
        self._queue: list[AdmissionRequest] = []
        self._granted: dict[int, int] = {}
        self._app_of: dict[int, int] = {}
        self._app_usage: dict[int, int] = {}
        self.in_use = 0
        #: Bumped by every mutator, so a caller can tell an unchanged
        #: pool from its last look without comparing state.
        self.version = 0

    @property
    def free(self) -> int:
        return max(0, self.capacity - self.in_use)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def queued_executors(self) -> int:
        """Total executor demand sitting in the admission queue."""
        return sum(request.executors for request in self._queue)

    @property
    def queued_requests(self) -> tuple[AdmissionRequest, ...]:
        """Read-only snapshot of the queue, arrival order."""
        return tuple(self._queue)

    @property
    def oldest_submit_time(self) -> float | None:
        """Submit time of the longest-waiting queued request."""
        if not self._queue:
            return None
        return min(request.submit_time for request in self._queue)

    def resize(self, new_capacity: int) -> int:
        """Move the pool to ``new_capacity`` executors; returns the size
        actually applied.

        Shrinks clamp at ``in_use`` — outstanding grants are never
        revoked, the pool just stops granting until enough capacity is
        released.  The clamped size *sticks*: no pending target is
        remembered, so reaching a lower size after grants release takes
        another ``resize`` call.  Grows clamp at ``max_capacity``.
        """
        if new_capacity < 1:
            raise ValueError("pool capacity must be at least 1 executor")
        self.version += 1
        self.capacity = min(max(int(new_capacity), self.in_use, 1), self.max_capacity)
        return self.capacity

    def app_usage(self, app_id: int) -> int:
        """Executors currently reserved across an application's queries."""
        return self._app_usage.get(app_id, 0)

    def submit(self, request: AdmissionRequest) -> None:
        """Queue a budget request (admission happens in :meth:`admit`)."""
        if request.executors > self.max_capacity:
            raise ValueError(
                f"request for {request.executors} executors can never be "
                f"admitted to a pool of at most {self.max_capacity}"
            )
        if request.query_index in self._granted:
            raise ValueError(
                f"query {request.query_index} already holds a grant"
            )
        self.version += 1
        self._queue.append(request)

    def admit(self) -> list[AdmissionRequest]:
        """Admit queued requests while the policy finds one that fits."""
        admitted: list[AdmissionRequest] = []
        while self._queue:
            pos = self.policy.pick(self._queue, self.free, self._app_usage)
            if pos is None:
                break
            request = self._queue.pop(pos)
            self._grant(request.query_index, request.app_id, request.executors)
            admitted.append(request)
        return admitted

    def _grant(self, query_index: int, app_id: int, count: int) -> None:
        if count > self.free:
            raise RuntimeError(
                "admission policy granted beyond pool capacity"
            )
        self.version += 1
        self.in_use += count
        self._granted[query_index] = self._granted.get(query_index, 0) + count
        self._app_of[query_index] = app_id
        self._app_usage[app_id] = self._app_usage.get(app_id, 0) + count

    def try_acquire(self, query_index: int, app_id: int, count: int) -> int:
        """Immediately grant up to ``count`` executors, bypassing the queue.

        This is the incremental path: the fleet engine uses it to *grow*
        an admitted query's grant mid-run under a dynamic-scaling policy
        (initial budgets always reserve atomically through
        :meth:`submit`/:meth:`admit`).
        """
        granted = max(0, min(int(count), self.free))
        if granted:
            self._grant(query_index, app_id, granted)
        return granted

    def release(self, query_index: int, count: int | None = None) -> int:
        """Return executors from a query's grant back to the pool.

        Args:
            query_index: the grant to shrink.
            count: executors to return; ``None`` returns the whole grant.

        Returns:
            The number of executors actually returned.
        """
        held = self._granted.get(query_index, 0)
        count = held if count is None else int(count)
        if count > held:
            raise ValueError(
                f"query {query_index} holds {held} executors, cannot "
                f"release {count}"
            )
        if count <= 0:
            return 0
        self.version += 1
        self.in_use -= count
        app_id = self._app_of[query_index]
        self._app_usage[app_id] -= count
        remaining = held - count
        if remaining:
            self._granted[query_index] = remaining
        else:
            del self._granted[query_index]
            del self._app_of[query_index]
            if self._app_usage[app_id] == 0:
                del self._app_usage[app_id]
        return count
