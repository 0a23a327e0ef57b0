"""Pool autoscaling: elastic capacity from queue-delay and utilization.

A statically provisioned pool pays for its peak all the time; a pool
sized for its average melts down under bursts.  The
:class:`PoolAutoscaler` closes the gap the way serverless pool managers
do: watch two pressure signals — how long the oldest queued request has
waited, and how much of the provisioned capacity is reserved — and move
the pool's size between a floor and a ceiling.

Two asymmetries make the model honest:

- **Scale-up lag**: requested capacity is *not* usable immediately.  The
  driver schedules a ``scale_online`` event ``scale_up_lag_s`` in the
  future, and only when it fires does the arbiter's capacity grow — so a
  burst still queues through the provisioning window, exactly as it
  would against a real cluster manager.  Requested-but-not-yet-online
  capacity is tracked as ``pending`` and counted against demand, so the
  scaler does not re-request the same executors every tick of the lag
  window.
- **Scale-down cooldown**: after *any* scaling action the pool must hold
  its size for ``scale_down_cooldown_s`` before shrinking.  Without it,
  a bursty stream makes the scaler oscillate — shed capacity in every
  gap, re-buy it (plus the lag) at every burst — which is both slower
  and more expensive than holding.

Shrinks reclaim only *free* capacity (the arbiter additionally clamps at
outstanding grants, so a scale-down racing an in-flight grant can never
revoke it), and every provisioned executor-second — idle or not — is
billed by :class:`repro.fleet.metrics.FleetMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.checks import check_int, check_range
from repro.fleet.routing import PoolView
from repro.obs.trace import Tracer

__all__ = ["AutoscalerConfig", "PoolAutoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs for one pool's autoscaler.

    Attributes:
        min_capacity: floor the pool never shrinks below.
        max_capacity: ceiling the pool never grows above.
        scale_up_step: most executors added per scale-up decision.
        scale_down_step: most executors shed per scale-down decision.
        scale_up_lag_s: seconds between requesting capacity and that
            capacity coming online (the provisioning window).
        scale_down_cooldown_s: seconds after any scaling action before a
            shrink may trigger.
        queue_delay_threshold_s: oldest-queued-request wait that forces a
            scale-up regardless of utilization.
        high_utilization: reserved fraction above which a non-empty
            queue triggers a scale-up.
        low_utilization: reserved fraction below which an empty queue
            allows a scale-down.
    """

    min_capacity: int
    max_capacity: int
    scale_up_step: int = 8
    scale_down_step: int = 4
    scale_up_lag_s: float = 15.0
    scale_down_cooldown_s: float = 60.0
    queue_delay_threshold_s: float = 5.0
    high_utilization: float = 0.85
    low_utilization: float = 0.40

    def __post_init__(self) -> None:
        check_int("min_capacity", self.min_capacity, 1)
        check_int("max_capacity", self.max_capacity, self.min_capacity)
        check_int("scale_up_step", self.scale_up_step, 1)
        check_int("scale_down_step", self.scale_down_step, 1)
        check_range("scale_up_lag_s", self.scale_up_lag_s, 0.0)
        check_range("scale_down_cooldown_s", self.scale_down_cooldown_s, 0.0)
        check_range("queue_delay_threshold_s", self.queue_delay_threshold_s, 0.0)
        # 0 <= low_utilization < high_utilization <= 1.
        low = self.low_utilization
        check_range("low_utilization", low, 0.0, 1.0)
        check_range("high_utilization", self.high_utilization, low, 1.0, open_low=True)


class PoolAutoscaler:
    """Decides capacity deltas for one pool; the driver applies them.

    The contract with the driver (:class:`repro.fleet.cluster.ShardedFleet`):
    call :meth:`evaluate` at every tick with the pool's live view; a
    positive return is a capacity request the driver must bring online
    after :attr:`AutoscalerConfig.scale_up_lag_s` (then report via
    :meth:`capacity_online`); a negative return is an immediate shrink
    of free capacity.  The scaler keeps the pending-request and cooldown
    state; the arbiter keeps the grant invariant.

    Args:
        config: the scaling knobs.
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving one
            ``autoscale_up`` / ``autoscale_down`` event per non-zero
            decision.
        pool: pool index stamped on emitted events.
    """

    def __init__(
        self,
        config: AutoscalerConfig,
        tracer: Tracer | None = None,
        pool: int = -1,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.pool = pool
        self.pending = 0
        self.last_action_at: float | None = None
        self.scale_ups = 0
        self.scale_downs = 0

    def capacity_online(self, now: float, delta: int) -> None:
        """The driver brought ``delta`` requested executors online."""
        self.pending -= delta
        self.last_action_at = now

    def _cooldown_over(self, now: float) -> bool:
        if self.last_action_at is None:
            return True
        return now - self.last_action_at >= self.config.scale_down_cooldown_s

    def evaluate(self, now: float, view: PoolView) -> int:
        """Return the capacity delta to apply (0 = hold).

        Positive deltas update the scaler's own pending/cooldown state
        (the driver only schedules the online event); negative deltas
        update the cooldown clock.
        """
        cfg = self.config
        provisioned = view.capacity + self.pending
        utilization = view.in_use / view.capacity if view.capacity else 1.0

        queue_wait = 0.0
        if view.oldest_submit_time is not None:
            queue_wait = now - view.oldest_submit_time

        pressed = queue_wait >= cfg.queue_delay_threshold_s or (
            utilization >= cfg.high_utilization and view.queue_length > 0
        )
        if pressed and provisioned < cfg.max_capacity:
            # Demand-driven: grow toward what is reserved plus queued,
            # never past the ceiling, at most one step per decision.
            demand = view.in_use + view.queued_executors
            needed = demand - provisioned
            if needed > 0:
                delta = min(needed, cfg.scale_up_step, cfg.max_capacity - provisioned)
                self.pending += delta
                self.last_action_at = now
                self.scale_ups += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        (now, "autoscale_up", self.pool, -1, None, delta, self.pending)
                    )
                return delta

        if (
            view.queue_length == 0
            and self.pending == 0
            and utilization <= cfg.low_utilization
            and view.capacity > cfg.min_capacity
            and self._cooldown_over(now)
        ):
            # Only free capacity can be decommissioned; the arbiter
            # additionally clamps at in-flight grants.
            delta = min(
                cfg.scale_down_step, view.capacity - cfg.min_capacity, view.free
            )
            if delta > 0:
                self.last_action_at = now
                self.scale_downs += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        (now, "autoscale_down", self.pool, -1, None, delta)
                    )
                return -delta
        return 0
