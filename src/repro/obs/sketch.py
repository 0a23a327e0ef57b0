"""A mergeable, bounded-memory quantile sketch for streaming metrics.

:class:`repro.fleet.metrics.FleetMetrics` computes latency percentiles
from the materialized per-query record list — exact, but O(n) memory and
impossible to shard.  The ROADMAP's million-query streaming goal needs
the opposite trade: a :class:`QuantileSketch` holds a logarithmic bucket
histogram (the DDSketch construction: bucket ``i`` covers
``(γ^(i-1), γ^i]`` with ``γ = (1+α)/(1-α)``), so

- **memory** is bounded by the number of occupied buckets,
  ``O(log(v_max / v_min) / α)`` — independent of stream length;
- **accuracy** is relative: the estimate for any quantile is within
  ``α`` (``relative_accuracy``) of the true order statistic at that
  rank (see :meth:`QuantileSketch.quantile` for the exact statement);
- **merging** is bucket-wise counter addition — exactly associative and
  commutative on the histogram state, so shards can be combined in any
  order and any grouping with identical results.  (The auxiliary ``sum``
  is float-accumulated and therefore associative only up to float
  rounding; everything quantiles are computed from is exact.)

Determinism: inserting the same multiset of values always produces the
same bucket histogram — there is no randomness and no collapse heuristic.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Log-bucket quantile sketch over non-negative values.

    Args:
        relative_accuracy: the α of the accuracy guarantee (default 1 %).
            Smaller α means more buckets: the bucket count grows like
            ``log(v_max / v_min) / (2α)``.

    Values must be ≥ 0 (latencies, delays, durations); zeros are counted
    in a dedicated bucket and returned exactly.
    """

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_counts",
        "_zeros",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._counts: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    # --- ingestion -------------------------------------------------------
    def add(self, value: float) -> None:
        """Insert one value (must be ≥ 0 and finite)."""
        v = float(value)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError("sketch values must be finite and >= 0")
        if v == 0.0:
            self._zeros += 1
        else:
            key = math.ceil(math.log(v) / self._log_gamma)
            self._counts[key] = self._counts.get(key, 0) + 1
        self._count += 1
        self._sum += v
        if self._min is None or v < self._min:
            self._min = v
        if self._max is None or v > self._max:
            self._max = v

    def extend(self, values: Iterable[float]) -> None:
        """Insert every value of an iterable."""
        for v in values:
            self.add(v)

    # --- state views -----------------------------------------------------
    @property
    def count(self) -> int:
        """Values inserted so far."""
        return self._count

    @property
    def sum(self) -> float:
        """Float-accumulated total of inserted values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of inserted values (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float | None:
        """Exact minimum seen (``None`` when empty)."""
        return self._min

    @property
    def max(self) -> float | None:
        """Exact maximum seen (``None`` when empty)."""
        return self._max

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the sketch's actual memory footprint."""
        return len(self._counts) + (1 if self._zeros else 0)

    # --- quantiles -------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Guarantee: with ``n`` inserted values and rank
        ``k = max(1, ceil(q/100 · n))``, the estimate ``x̂`` satisfies
        ``|x̂ − x_(k)| ≤ α · x_(k)`` where ``x_(k)`` is the exact k-th
        smallest inserted value (the ``method="inverted_cdf"`` order
        statistic) and ``α`` is ``relative_accuracy``.  Zeros are
        returned exactly.  An empty sketch returns 0.0, matching
        :class:`~repro.fleet.metrics.FleetMetrics` on no records.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self._count))
        if rank <= self._zeros:
            return 0.0
        cumulative = self._zeros
        for key in sorted(self._counts):
            cumulative += self._counts[key]
            if cumulative >= rank:
                # Bucket midpoint 2γ^k/(γ+1): at most α relative error
                # from any value in (γ^(k-1), γ^k].
                return 2.0 * self._gamma**key / (self._gamma + 1.0)
        # Unreachable: cumulative counts always reach self._count >= rank.
        raise AssertionError("sketch counts inconsistent")

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Batch :meth:`quantile` over many percentiles."""
        return [self.quantile(q) for q in qs]

    # --- merging ---------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two sketches into a new one (inputs untouched).

        Requires identical ``relative_accuracy`` (the bucket geometries
        must line up).  The histogram state merges by exact counter
        addition, so ``merge`` is associative and commutative on
        everything quantiles are computed from.
        """
        if self.relative_accuracy != other.relative_accuracy:
            raise ValueError("can only merge sketches of equal accuracy")
        out = QuantileSketch(self.relative_accuracy)
        out._counts = dict(self._counts)
        for key, count in other._counts.items():
            out._counts[key] = out._counts.get(key, 0) + count
        out._zeros = self._zeros + other._zeros
        out._count = self._count + other._count
        out._sum = self._sum + other._sum
        mins = [m for m in (self._min, other._min) if m is not None]
        maxs = [m for m in (self._max, other._max) if m is not None]
        out._min = min(mins) if mins else None
        out._max = max(maxs) if maxs else None
        return out

    # --- equality / serialization ---------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.relative_accuracy == other.relative_accuracy
            and self._zeros == other._zeros
            and self._count == other._count
            and self._counts == other._counts
            and self._min == other._min
            and self._max == other._max
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(relative_accuracy={self.relative_accuracy}, "
            f"count={self._count}, buckets={self.bucket_count})"
        )
