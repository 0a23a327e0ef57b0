"""Configuration selection objectives (paper Section 5.3).

Given a predicted run-time curve over a candidate grid of executor counts,
these objectives pick the operating point:

- :func:`min_time_executors` — smallest ``n`` achieving the curve minimum.
- :func:`limited_slowdown` — smallest ``n`` whose time is within a factor
  ``H`` of the minimum (``H = 1`` is "fastest with fewest executors").
- :func:`elbow_point` — the paper's default strategy: normalize both axes
  to [0, 1] (Equations 7–8) and take the smallest ``n`` where the
  normalized slope crosses from above 1 to at-most 1 (Equation 9) — the
  point right before the curve flattens.

All objectives take the curve as parallel arrays ``(n_grid, t_curve)``
and return a value from ``n_grid``.  Where the curve itself comes from is
the caller's choice: AutoExecutor applies objectives to *predicted*
curves, while :func:`true_runtime_curve` / :func:`oracle_executors`
measure the real curve with one batched simulator sweep
(:func:`~repro.engine.sweep.simulate_query_sweep`) — the hindsight
selection every prediction is judged against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.core.ppm import PricePerfModel
from repro.engine.cluster import Cluster
from repro.engine.scheduler import DEFAULT_SCHEDULER_CONFIG, SchedulerConfig
from repro.engine.stages import StageGraph
from repro.engine.sweep import simulate_query_sweep

__all__ = [
    "SelectionObjective",
    "select_on_curve",
    "min_time_executors",
    "limited_slowdown",
    "elbow_point",
    "true_runtime_curve",
    "oracle_executors",
]


#: An objective maps (n_grid, predicted curve) to a chosen executor count.
SelectionObjective = Callable[[np.ndarray, np.ndarray], int]


def _validate(n_grid: ArrayLike, t_curve: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    n = np.asarray(n_grid, dtype=float)
    t = np.asarray(t_curve, dtype=float)
    if n.shape != t.shape or n.ndim != 1:
        raise ValueError("n_grid and t_curve must be equal-length 1-D arrays")
    if n.size < 2:
        raise ValueError("selection needs at least two candidate points")
    if np.any(np.diff(n) <= 0):
        raise ValueError("n_grid must be strictly increasing")
    if np.any(t <= 0):
        raise ValueError("run times must be positive")
    return n, t


def min_time_executors(n_grid: ArrayLike, t_curve: ArrayLike) -> int:
    """Smallest ``n`` achieving the minimum time on the curve."""
    n, t = _validate(n_grid, t_curve)
    return int(n[int(np.argmin(t))])


def limited_slowdown(
    n_grid: ArrayLike, t_curve: ArrayLike, target_slowdown: float
) -> int:
    """Smallest ``n`` with ``t(n) ≤ H · t_min`` (paper's first scenario).

    Args:
        target_slowdown: ``H ≥ 1``; ``H = 1`` selects the fewest executors
            that still achieve the best performance.
    """
    if target_slowdown < 1.0:
        raise ValueError("target slowdown H must be >= 1")
    n, t = _validate(n_grid, t_curve)
    threshold = float(t.min()) * target_slowdown
    eligible = np.nonzero(t <= threshold + 1e-12)[0]
    return int(n[eligible[0]])


def elbow_point(n_grid: ArrayLike, t_curve: ArrayLike) -> int:
    """The paper's elbow selection (Equations 7–9).

    Both axes are range-scaled to [0, 1]:

        u(n) = (n − min n) / (max n − min n)
        v(t) = (t − min t) / (max t − min t)

    and the normalized slope between consecutive grid points is

        slope(u(n_i)) = (v(t_{i−1}) − v(t_i)) / (u(n_i) − u(n_{i−1})).

    The elbow ``L`` is the smallest ``n_i`` with ``slope(u(n_i)) ≥ 1`` and
    ``slope(u(n_{i+1})) ≤ 1``.  Falls back to the min-time point when the
    curve is flat (no normalization possible) and to the last grid point
    when the slope never drops to 1 (curve still steep at the end).
    """
    n, t = _validate(n_grid, t_curve)
    t_span = float(t.max() - t.min())
    n_span = float(n[-1] - n[0])
    if t_span <= 0:
        return min_time_executors(n, t)

    u = (n - n[0]) / n_span
    v = (t - t.min()) / t_span
    # slope[i] is the normalized descent rate arriving at grid point i.
    slope = (v[:-1] - v[1:]) / (u[1:] - u[:-1])

    for i in range(len(slope) - 1):
        if slope[i] >= 1.0 and slope[i + 1] <= 1.0:
            return int(n[i + 1])
    if slope[-1] >= 1.0:
        return int(n[-1])
    # The curve starts already flat (slope < 1 everywhere): the first
    # point is the elbow.
    return int(n[0])


def select_on_curve(
    ppm: PricePerfModel,
    n_grid: np.ndarray,
    objective: SelectionObjective,
    lo: int,
    hi: int,
) -> tuple[int, float]:
    """The one step from a predicted PPM to a decision: the objective's
    pick on ``ppm``'s curve, clamped to ``[lo, hi]``, and the predicted
    run time there (off the scored curve unless the clamp left the grid)."""
    curve = ppm.predict_curve(n_grid)
    chosen = int(min(max(objective(n_grid, curve), lo), hi))
    on_grid = np.nonzero(n_grid == chosen)[0]
    if on_grid.size:
        return chosen, float(curve[on_grid[0]])
    return chosen, ppm.predict(float(chosen))


def true_runtime_curve(
    graph: StageGraph,
    n_grid: Sequence[int],
    cluster: Cluster | None = None,
    config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
) -> np.ndarray:
    """The query's *actual* ``t(n)`` over the candidate grid.

    One batched sweep of the engine simulator under static allocation —
    the ground-truth curve selection objectives are evaluated against
    (and the fleet's oracle baseline measures).
    """
    cluster = cluster or Cluster()
    results = simulate_query_sweep(graph, n_grid, cluster, config)
    return np.array([r.runtime for r in results])


def oracle_executors(
    graph: StageGraph,
    n_grid: Sequence[int],
    cluster: Cluster | None = None,
    objective: SelectionObjective = elbow_point,
    config: SchedulerConfig = DEFAULT_SCHEDULER_CONFIG,
) -> int:
    """Hindsight selection: the objective applied to the true curve.

    Perfect curve knowledge, zero prediction error — the upper bound the
    paper's predicted selections chase (Section 5.3's "optimal" rows).
    """
    curve = true_runtime_curve(graph, n_grid, cluster, config)
    return int(objective(np.asarray(n_grid, dtype=float), curve))
