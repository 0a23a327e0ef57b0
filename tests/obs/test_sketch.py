"""Property suite for the mergeable quantile sketch.

The sketch's contract has three load-bearing parts: the relative-error
bound against exact order statistics, the *exact* associativity and
commutativity of merge (a distributed collector must get the same sketch
no matter how shards combine), and serialization round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import QuantileSketch

positive_values = st.lists(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def exact_quantile(values, q):
    """Order-statistic quantile: the smallest value with rank >= q."""
    return float(np.percentile(np.asarray(values), q, method="inverted_cdf"))


class TestAccuracy:
    @given(values=positive_values, q=st.integers(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_rank_error_bound(self, values, q):
        alpha = 0.01
        sketch = QuantileSketch(relative_accuracy=alpha)
        sketch.extend(values)
        estimate = sketch.quantile(q)
        exact = exact_quantile(values, q)
        # The DDSketch guarantee is relative error alpha against the
        # order statistic in the same bucket; bracket with both
        # neighbouring order statistics to absorb rank ties at bucket
        # boundaries.
        ranks = np.sort(np.asarray(values))
        lo = ranks[max(0, int(np.ceil(q / 100 * len(ranks))) - 2)]
        hi = ranks[min(len(ranks) - 1, int(np.ceil(q / 100 * len(ranks))))]
        assert lo * (1 - 2 * alpha) <= estimate <= hi * (1 + 2 * alpha), (
            estimate,
            exact,
        )

    def test_documented_bound_on_latency_like_data(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=3.0, sigma=1.0, size=5000)
        sketch = QuantileSketch(relative_accuracy=0.01)
        sketch.extend(values)
        for q in (50, 95, 99):
            exact = exact_quantile(values, q)
            assert abs(sketch.quantile(q) - exact) <= 0.02 * exact

    def test_zeros_and_empty(self):
        sketch = QuantileSketch()
        assert sketch.quantile(50) == 0.0
        sketch.add(0.0)
        sketch.add(0.0)
        assert sketch.count == 2
        assert sketch.quantile(99) == 0.0

    def test_rejects_bad_values(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)


class TestMergeAlgebra:
    @given(a=positive_values, b=positive_values)
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, a, b):
        sa, sb = QuantileSketch(), QuantileSketch()
        sa.extend(a)
        sb.extend(b)
        assert sa.merge(sb) == sb.merge(sa)

    @given(a=positive_values, b=positive_values, c=positive_values)
    @settings(max_examples=100, deadline=None)
    def test_associative(self, a, b, c):
        sa, sb, sc = QuantileSketch(), QuantileSketch(), QuantileSketch()
        sa.extend(a)
        sb.extend(b)
        sc.extend(c)
        assert sa.merge(sb).merge(sc) == sa.merge(sb.merge(sc))

    @given(a=positive_values, b=positive_values)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_single_stream(self, a, b):
        """Sharded ingestion is indistinguishable from one stream."""
        sa, sb, sall = QuantileSketch(), QuantileSketch(), QuantileSketch()
        sa.extend(a)
        sb.extend(b)
        sall.extend(a)
        sall.extend(b)
        assert sa.merge(sb) == sall

    def test_merge_requires_matching_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.01).merge(
                QuantileSketch(relative_accuracy=0.02)
            )

    def test_merge_does_not_mutate(self):
        sa, sb = QuantileSketch(), QuantileSketch()
        sa.extend([1.0, 2.0])
        sb.extend([3.0])
        merged = sa.merge(sb)
        assert sa.count == 2 and sb.count == 1 and merged.count == 3


class TestSerialization:
    def test_bounded_memory(self):
        """Bucket count grows logarithmically, not with stream length."""
        sketch = QuantileSketch(relative_accuracy=0.01)
        rng = np.random.default_rng(1)
        sketch.extend(rng.lognormal(3.0, 1.0, size=50_000))
        assert sketch.count == 50_000
        assert sketch.bucket_count < 1500
