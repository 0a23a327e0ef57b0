"""Sparklens scheduler replay: estimate t(n) from one finished run.

The estimator implements the model the paper attributes to Sparklens
(Section 3.2): for every hypothetical executor count ``n``, each stage
takes at least its *critical* (longest) task, and at most the time to push
its total observed work through ``n × ec`` slots; stage completion times
combine along the dependency DAG, and the driver time is added serially:

    stage_time(n)  = max(critical_task, total_work / (n · ec))
    finish(stage)  = max over deps finish + stage_time(n)
    t_est(n)       = driver + finish(final stage)

Properties (asserted in tests):

- monotone non-increasing in ``n``;
- saturates at ``driver + critical-path of longest tasks``;
- exact at ``n → ∞`` wave-free limit;
- *blind to input-size changes*: estimates are derived entirely from the
  logged durations, so a log from SF=10 cannot anticipate SF=100 behaviour
  (the paper's Section 5.5 observation).
"""

from __future__ import annotations

import numpy as np

from repro.sparklens.log import ExecutionLog

__all__ = ["SparklensEstimator"]


class SparklensEstimator:
    """Post-hoc t(n) estimator over a single run's execution log.

    Args:
        log: the finished run's execution log.

    The estimator is deterministic and cheap: one pass over the stage DAG
    per estimate.
    """

    def __init__(self, log: ExecutionLog) -> None:
        self.log = log

    def estimate(self, n_executors: int) -> float:
        """Estimated run time (seconds) with ``n_executors`` executors."""
        if n_executors < 1:
            raise ValueError("executor count must be >= 1")
        slots = n_executors * self.log.cores_per_executor
        finish: dict[int, float] = {}
        for stage in self.log.stages:
            stage_time = max(
                stage.critical_task, stage.total_work / slots
            )
            start = max(
                (finish[d] for d in stage.dependencies), default=0.0
            )
            finish[stage.stage_id] = start + stage_time
        return self.log.driver_seconds + max(finish.values())

    def estimate_curve(self, n_values: np.ndarray | list[int]) -> np.ndarray:
        """Vector of estimates over a grid of executor counts."""
        return np.array([self.estimate(int(n)) for n in n_values])

    def saturation_time(self) -> float:
        """Estimate at infinite parallelism (critical tasks only)."""
        finish: dict[int, float] = {}
        for stage in self.log.stages:
            start = max(
                (finish[d] for d in stage.dependencies), default=0.0
            )
            finish[stage.stage_id] = start + stage.critical_task
        return self.log.driver_seconds + max(finish.values())
