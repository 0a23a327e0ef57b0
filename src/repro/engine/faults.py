"""Deterministic fault injection: crashes, stragglers, spot capacity.

The paper's price-performance tradeoff (right-sizing executor counts from
predicted runtime curves) assumes every granted executor runs to
completion at full speed.  Real serverless pools do not: executors crash
and take their in-flight tasks with them, stragglers run tasks several
times slower than their profile says, and preemptible ("spot") capacity
is cheaper precisely because the provider may reclaim it mid-run.  All
three bend the runtime curve the optimizer reasons over — lost work is
re-executed at full price, replacements pay the provisioning ramp again,
and a discount only wins while the reclamation rate stays below the
point where wasted work eats it.

This module is a *perturbation layer composed over the engine*, not a
fork of it:

- :class:`FaultPlan` — the seed-driven specification: crash hazard,
  straggler probability/slowdown, and an optional :class:`SpotMarket`
  (spot fraction, price discount, reclamation hazard).  A plan with
  every rate at zero is **inert**: no injector is built, no RNG is
  drawn, no event is scheduled, and the run is bit-identical to an
  unperturbed one (asserted across the whole TPC-DS workload in
  ``tests/engine/test_fault_parity.py`` and gated in CI by
  ``benchmarks/perf/compare.py``).
- :class:`FaultInjector` — one query's fault state: per-entity RNG
  streams plus the :class:`FaultStats` ledger.  Drivers ask it for each
  arriving executor's failure time and schedule the resulting
  ``exec_fail`` event on their own heap; the
  :class:`~repro.engine.execution.ExecutionCore` asks it for perturbed
  task durations and reports killed work.
- :class:`FaultStats` — the accounting the metrics layer consumes:
  crashes vs reclamations, task retries, wasted (destroyed) task
  seconds, and the spot/on-demand executor-second split that prices a
  run under the spot discount.

**Determinism contract.**  Every random draw derives from
``(FaultPlan.seed, query_key, entity)`` through a
:class:`numpy.random.SeedSequence` — never from event interleaving, wall
clock, or Python's salted ``hash``.  Executor ``eid`` draws happen at
executor arrival, straggler masks are materialized per stage, and both
are keyed by stable integer identities, so two serves of the same stream
with the same seed replay byte-identical faults — and whole serves are
byte-identical whenever the allocator is deterministic too (the online
prediction service charges *measured* wall-clock selection overhead into
the stream; turn ``charge_prediction_overhead`` off to make such serves
byte-stable).  Different seeds genuinely differ.  The determinism
regression suite (``tests/fleet/test_faults.py``) flushes out any RNG
not derived from the run seed.

**Failure semantics.**  A failing executor is removed at the drawn
instant; its in-flight tasks lose all progress (the destroyed
task-seconds are the ``wasted_task_seconds`` ledger entry) and re-enter
the pending queue to be re-executed from scratch.  With
``replace_failed=True`` (default) the executor's *grant survives the
failure*: the slot is re-provisioned through the cluster's normal grant
ramp — in the fleet, the capacity arbiter's reservation is untouched, so
a crash never silently shrinks a query's admission.  With
``replace_failed=False`` the capacity is returned to its source and the
query runs degraded unless a scaling policy re-acquires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.engine.checks import check_int, check_range

__all__ = ["SpotMarket", "FaultPlan", "FaultStats", "FaultInjector"]

# SeedSequence spawn domains: one namespace per random entity kind, so an
# executor's lifetime stream can never collide with a stage's straggler
# mask even when their integer ids coincide.
_EXECUTOR_DOMAIN = 1
_STRAGGLER_DOMAIN = 2


@dataclass(frozen=True)
class SpotMarket:
    """Preemptible capacity: cheaper executors the provider may reclaim.

    Attributes:
        fraction: probability a granted executor is a spot instance
            (drawn per executor at arrival; 1.0 = an all-spot pool).
        discount: spot price as a fraction of the on-demand price
            (0.35 ≈ the typical 60–70 % spot saving).
        reclaim_rate: reclamation hazard in events per spot
            executor-second (``1/600`` = one reclamation per ten
            spot-executor-minutes on average).
    """

    fraction: float = 1.0
    discount: float = 0.35
    reclaim_rate: float = 1.0 / 600.0

    def __post_init__(self) -> None:
        check_range("fraction", self.fraction, 0.0, 1.0)
        check_range("discount", self.discount, 0.0, 1.0)
        check_range("reclaim_rate", self.reclaim_rate, 0.0)


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven perturbation spec for one run (or one whole fleet).

    Attributes:
        seed: root of every random draw; runs with the same seed replay
            the same faults byte-for-byte.
        crash_rate: executor crash hazard in events per executor-second
            (applies to on-demand and spot instances alike).  Keep every
            hazard well under ``1 / longest task duration``: a task only
            finishes when it outlives its executor, so its expected
            attempt count grows like ``e^(hazard x duration)`` and a
            hazard past that scale makes the run astronomically long.
        straggler_rate: probability a task is a straggler; stragglers
            are intrinsic to the ``(stage, task)`` identity, so a
            re-executed straggler straggles again.
        straggler_factor: slowdown multiplier straggler tasks run at.
        spot: optional preemptible-capacity market; ``None`` keeps the
            pool all on-demand.
        replace_failed: whether a failed executor's grant survives — the
            slot is re-provisioned through the normal grant ramp
            (default).  ``False`` returns the capacity to its source;
            without a scaling policy to win it back the query runs on
            whatever survives (and a query that loses *everything* with
            work pending is a stall, reported as such by the drivers).
    """

    seed: int = 0
    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_factor: float = 4.0
    spot: SpotMarket | None = None
    replace_failed: bool = True

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0)
        check_range("crash_rate", self.crash_rate, 0.0)
        check_range("straggler_rate", self.straggler_rate, 0.0, 1.0)
        # Stragglers cannot run faster than their profile.
        check_range("straggler_factor", self.straggler_factor, 1.0)

    @property
    def active(self) -> bool:
        """Whether this plan perturbs anything at all.

        An inactive plan (every rate zero, no spot market) builds no
        injector: the engine takes the exact unperturbed code path, the
        zero-fault bit-identity contract.
        """
        return (
            self.crash_rate > 0.0
            or self.straggler_rate > 0.0
            or self.spot is not None
        )

    def injector(self, query_key: int = 0) -> "FaultInjector | None":
        """Build one query's injector, or ``None`` for an inert plan.

        Args:
            query_key: stable per-query identity (the fleet uses the
                arrival-stream position) separating the RNG streams of
                concurrent queries under one seed.
        """
        if not self.active:
            return None
        return FaultInjector(self, query_key)


@dataclass
class FaultStats:
    """One run's fault ledger (merged fleet-wide by the metrics layer).

    Attributes:
        crashes: on-demand/involuntary executor failures.
        reclamations: spot executors taken back by the provider.
        replacements: failed executors re-provisioned under
            ``replace_failed``.
        tasks_started: task assignments, re-executions included.
        tasks_killed: in-flight tasks destroyed by failures (each one
            re-enters the pending queue, so this is also the retry
            count).
        wasted_task_seconds: task progress destroyed by failures — work
            that was paid for on the skyline but must be redone.
        spot_executor_seconds: executor-seconds served by spot
            instances (billed at ``spot_discount``).
        ondemand_executor_seconds: executor-seconds served by on-demand
            instances (billed at full price).
        spot_discount: the spot price fraction in effect (1.0 when the
            plan has no spot market).
    """

    crashes: int = 0
    reclamations: int = 0
    replacements: int = 0
    tasks_started: int = 0
    tasks_killed: int = 0
    wasted_task_seconds: float = 0.0
    spot_executor_seconds: float = 0.0
    ondemand_executor_seconds: float = 0.0
    spot_discount: float = 1.0

    @property
    def failures(self) -> int:
        """Executor losses of either cause."""
        return self.crashes + self.reclamations

    @property
    def task_retries(self) -> int:
        """Re-executions forced by failures (== ``tasks_killed``)."""
        return self.tasks_killed

    @property
    def billed_executor_seconds(self) -> float:
        """On-demand-equivalent occupancy after the spot discount."""
        return (
            self.ondemand_executor_seconds
            + self.spot_executor_seconds * self.spot_discount
        )

    @classmethod
    def merged(cls, parts: Iterable["FaultStats"]) -> "FaultStats":
        """Sum ledgers across queries (fleet roll-up).

        The discount of the merged ledger is the parts' common
        non-default discount (fault plans are fleet-wide, so it never
        actually varies) — an all-zero ledger from an idle pool must not
        reset it back to full price.  An empty merge is the all-zero
        ledger.
        """
        total = cls()
        for part in parts:
            total.add(part)
        return total

    def add(self, part: "FaultStats") -> None:
        """Fold one ledger into this one, in place (see :meth:`merged`
        for the discount rule)."""
        self.crashes += part.crashes
        self.reclamations += part.reclamations
        self.replacements += part.replacements
        self.tasks_started += part.tasks_started
        self.tasks_killed += part.tasks_killed
        self.wasted_task_seconds += part.wasted_task_seconds
        self.spot_executor_seconds += part.spot_executor_seconds
        self.ondemand_executor_seconds += part.ondemand_executor_seconds
        if part.spot_discount != 1.0:
            self.spot_discount = part.spot_discount


class FaultInjector:
    """One query's fault state: seeded RNG streams plus the ledger.

    The injector is deliberately split from the execution physics: the
    :class:`~repro.engine.execution.ExecutionCore` owns *what a failure
    does* (kill in-flight work, requeue it, step the skyline) while the
    injector owns *when failures happen* and *what they cost*.  Drivers
    wire the two together: they schedule the failure time this class
    draws, route the resulting event into ``ExecutionCore.fail_executor``,
    and hand the outcome back to :meth:`on_failed` for accounting.

    Lifecycle per executor: :meth:`on_added` at arrival (classifies
    spot/on-demand, draws the failure time), then exactly one of
    :meth:`on_failed` (the failure fired while it was alive),
    :meth:`on_removed` (idle-released first), or :meth:`finalize` (alive
    at query completion) closes its billing interval.
    """

    def __init__(self, plan: FaultPlan, query_key: int = 0) -> None:
        if query_key < 0:
            raise ValueError("query_key must be a non-negative integer")
        self.plan = plan
        self.query_key = query_key
        self.stats = FaultStats(
            spot_discount=plan.spot.discount if plan.spot is not None else 1.0
        )
        # eid -> (birth time, is_spot, failure cause if one was drawn)
        self._open: dict[int, tuple[float, bool, str | None]] = {}
        self._straggler_masks: dict[int, np.ndarray] = {}
        self._finalized = False

    def _rng(self, domain: int, key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=(self.plan.seed, self.query_key, domain, key)
            )
        )

    # --- executors -------------------------------------------------------
    def on_added(self, now: float, eid: int) -> float | None:
        """Classify an arriving executor and draw its failure time.

        Returns the absolute clock time the executor fails, or ``None``
        if it lives forever; the driver schedules the returned time as
        an ``exec_fail`` event on its heap.
        """
        rng = self._rng(_EXECUTOR_DOMAIN, eid)
        spot = self.plan.spot
        is_spot = spot is not None and bool(rng.random() < spot.fraction)
        hazard = self.plan.crash_rate
        if is_spot:
            hazard += spot.reclaim_rate
        if hazard <= 0.0:
            self._open[eid] = (now, is_spot, None)
            return None
        lifetime = float(rng.exponential(1.0 / hazard))
        # Competing risks: attribute the failure to reclamation with its
        # share of the combined hazard (on-demand failures are always
        # crashes).
        cause = "crash"
        if is_spot and rng.random() < spot.reclaim_rate / hazard:
            cause = "reclaim"
        self._open[eid] = (now, is_spot, cause)
        return now + lifetime

    def _close(self, now: float, eid: int) -> tuple[bool, str | None]:
        birth, is_spot, cause = self._open.pop(eid)
        span = now - birth
        if is_spot:
            self.stats.spot_executor_seconds += span
        else:
            self.stats.ondemand_executor_seconds += span
        return is_spot, cause

    def on_removed(self, now: float, eid: int) -> None:
        """An executor left voluntarily (idle release): close billing."""
        self._close(now, eid)

    def on_failed(self, now: float, eid: int, killed: int, wasted: float) -> str:
        """A scheduled failure fired while the executor was alive.

        Args:
            now: failure instant.
            eid: the executor that died.
            killed: in-flight tasks destroyed (from
                ``ExecutionCore.fail_executor``).
            wasted: task-seconds of progress destroyed.

        Returns:
            The failure cause — ``"crash"`` or ``"reclaim"`` — so
            drivers can stamp it on their traced ``exec_fail`` events.
        """
        _, cause = self._close(now, eid)
        if cause == "reclaim":
            self.stats.reclamations += 1
        else:
            self.stats.crashes += 1
        if self.plan.replace_failed:
            self.stats.replacements += 1
        self.stats.tasks_killed += killed
        self.stats.wasted_task_seconds += wasted
        return cause or "crash"

    # --- tasks -----------------------------------------------------------
    def _mask(self, stage_id: int, n_tasks: int) -> np.ndarray:
        mask = self._straggler_masks.get(stage_id)
        if mask is None:
            rng = self._rng(_STRAGGLER_DOMAIN, stage_id)
            mask = rng.random(n_tasks) < self.plan.straggler_rate
            self._straggler_masks[stage_id] = mask
        return mask

    def task_duration(
        self, stage_id: int, task_idx: int, n_tasks: int, duration: float
    ) -> float:
        """Perturb one task assignment's duration (and count the start).

        Straggler-ness is intrinsic to the ``(stage, task)`` identity —
        the mask is one seeded draw per stage, independent of assignment
        order — so results do not depend on which executor picked the
        task up, and a re-executed straggler straggles again.
        """
        self.stats.tasks_started += 1
        if self.plan.straggler_rate > 0.0:
            if self._mask(stage_id, n_tasks)[task_idx]:
                return duration * self.plan.straggler_factor
        return duration

    # --- completion ------------------------------------------------------
    def finalize(self, end_time: float) -> FaultStats:
        """Close surviving executors' billing at ``end_time``; idempotent."""
        if not self._finalized:
            self._finalized = True
            for eid in sorted(self._open):
                self._close(end_time, eid)
        return self.stats
