"""Executor-allocation skylines and AUC.

The paper's cost metric is the *total executor occupancy*
``AUC = ∫ n_s ds`` — the area under the skyline of allocated executors
``n_s`` over the query's lifetime (Section 2, Figure 1's data labels,
Figure 12).  A :class:`Skyline` is a right-continuous step function built
from executor arrival/removal events.

:meth:`Skyline.record` folds a running area up to the last breakpoint as
steps land, so :meth:`Skyline.auc` at or after the last breakpoint — every
finished query's bill — is O(1) with no numpy: the running area plus the
open last step.  The fold performs the same IEEE operations in the same
left-to-right order as the index's ``np.add.accumulate``, so both paths
agree bit for bit.

Point queries (:meth:`Skyline.value_at`) and areas ending before the last
breakpoint (the pool and capacity skylines' billing windows, the trace
analyzer) binary-search a lazily built index over the recorded
breakpoints — prefix areas plus a sorted time array — so repeated queries
against a long skyline are O(log n).  The index is invalidated by
:meth:`Skyline.record` and rebuilt on the next such query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Skyline"]


@dataclass
class Skyline:
    """Step function of allocated executors over time.

    Points are ``(time, count)`` steps: the count holds from each point's
    time until the next point.  Times must be non-decreasing.
    """

    points: list[tuple[float, int]] = field(default_factory=list)
    _index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Area from the first to the last breakpoint, folded left to right.
    _area: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for (t0, c0), (t1, _) in zip(self.points, self.points[1:]):
            self._area += float(c0) * (t1 - t0)

    def record(self, time: float, count: int) -> None:
        """Append a step; collapses consecutive equal counts."""
        if count < 0:
            raise ValueError("executor counts cannot be negative")
        if self.points:
            last_time, last_count = self.points[-1]
            if time < last_time:
                raise ValueError("skyline times must be non-decreasing")
            if count == last_count:
                return
            self._index = None
            if time == last_time:
                self.points[-1] = (time, count)
                return
            self._area += float(last_count) * (time - last_time)
        else:
            self._index = None
        self.points.append((time, count))

    def _ensure_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted breakpoint times, counts, and prefix areas.

        ``prefix[i]`` is the area accumulated left-to-right over segments
        ``0..i-1`` (each ``count · width``), matching the sequential
        summation order of the original scan so cached and scanned areas
        agree bit-for-bit.
        """
        if self._index is None:
            times = np.array([t for t, _ in self.points])
            counts = np.array([float(c) for _, c in self.points])
            widths = np.diff(times)
            prefix = np.concatenate(
                ([0.0], np.add.accumulate(counts[:-1] * widths))
            )
            self._index = (times, counts, prefix)
        return self._index

    def value_at(self, time: float) -> int:
        """Executor count in effect at ``time`` (0 before the first step)."""
        if not self.points:
            return 0
        times, _, _ = self._ensure_index()
        idx = int(np.searchsorted(times, time, side="right")) - 1
        if idx < 0:
            return 0
        return self.points[idx][1]

    @property
    def max_executors(self) -> int:
        """Peak allocation ``n = max(n_s)`` (paper metric 1)."""
        if not self.points:
            return 0
        return max(c for _, c in self.points)

    def auc(self, end_time: float) -> float:
        """Total executor occupancy up to ``end_time`` (executor-seconds)."""
        if end_time < 0:
            raise ValueError("end_time must be >= 0")
        if not self.points:
            return 0.0
        last_time, last_count = self.points[-1]
        if end_time >= last_time:
            return float(self._area + last_count * (end_time - last_time))
        times, _, prefix = self._ensure_index()
        # Rightmost step strictly before end_time; steps at or past the
        # end contribute nothing.
        idx = int(np.searchsorted(times, end_time, side="left")) - 1
        if idx < 0:
            return 0.0
        partial = self.points[idx][1] * (end_time - self.points[idx][0])
        return float(prefix[idx] + partial)

    def truncated(self, end_time: float) -> "Skyline":
        """Copy of this skyline cut off at ``end_time``."""
        out = Skyline()
        for t, c in self.points:
            if t >= end_time:
                break
            out.record(t, c)
        return out
