"""Unit tests for KFold / RepeatedKFold / train_test_split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.model_selection import KFold, RepeatedKFold, train_test_split


class TestKFold:
    def test_folds_partition_the_dataset(self):
        kf = KFold(n_splits=5)
        seen = []
        for train, test in kf.split(23):
            seen.extend(test.tolist())
            assert set(train) | set(test) == set(range(23))
            assert not set(train) & set(test)
        assert sorted(seen) == list(range(23))

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in KFold(5).split(103)]
        assert sorted(sizes) == [20, 20, 21, 21, 21]  # the paper's 80:20

    def test_shuffle_changes_order_deterministically(self):
        a = [t.tolist() for _, t in KFold(3, shuffle=True, random_state=0).split(12)]
        b = [t.tolist() for _, t in KFold(3, shuffle=True, random_state=0).split(12)]
        c = [t.tolist() for _, t in KFold(3, shuffle=True, random_state=1).split(12)]
        assert a == b
        assert a != c

    def test_accepts_array_input(self):
        X = np.zeros((10, 2))
        folds = list(KFold(2).split(X))
        assert len(folds) == 2

    def test_rejects_one_split(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_rejects_more_folds_than_samples(self):
        with pytest.raises(ValueError, match="folds"):
            list(KFold(5).split(3))

    def test_random_state_without_shuffle_rejected(self):
        with pytest.raises(ValueError, match="shuffle"):
            KFold(3, shuffle=False, random_state=1)


class TestRepeatedKFold:
    def test_yields_repeats_times_splits_folds(self):
        rkf = RepeatedKFold(n_splits=5, n_repeats=10, random_state=0)
        assert len(list(rkf.split(103))) == 50  # the paper's protocol size

    def test_each_repeat_is_a_full_partition(self):
        rkf = RepeatedKFold(n_splits=4, n_repeats=3, random_state=0)
        folds = list(rkf.split(20))
        assert len(folds) == 12
        for start in range(0, len(folds), 4):  # one repeat per 4 folds
            repeat = folds[start : start + 4]
            covered = sorted(i for _, test in repeat for i in test)
            assert covered == list(range(20))

    def test_repeats_use_different_shuffles(self):
        rkf = RepeatedKFold(n_splits=2, n_repeats=2, random_state=0)
        folds = list(rkf.split(16))  # two folds per repeat
        assert folds[0][1].tolist() != folds[2][1].tolist()

    def test_deterministic_given_seed(self):
        r1 = [t.tolist() for _, t in RepeatedKFold(3, 2, random_state=5).split(9)]
        r2 = [t.tolist() for _, t in RepeatedKFold(3, 2, random_state=5).split(9)]
        assert r1 == r2

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            RepeatedKFold(n_repeats=0)


class TestTrainTestSplit:
    def test_split_sizes(self, rng):
        X = rng.random((100, 2))
        X_tr, X_te = train_test_split(X, test_size=0.2, random_state=0)
        assert X_tr.shape == (80, 2)
        assert X_te.shape == (20, 2)

    def test_multiple_arrays_stay_aligned(self, rng):
        X = np.arange(50, dtype=float)[:, None]
        y = np.arange(50, dtype=float) * 10
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, random_state=0)
        assert np.allclose(X_tr[:, 0] * 10, y_tr)
        assert np.allclose(X_te[:, 0] * 10, y_te)

    def test_no_shuffle_keeps_order(self):
        X = np.arange(10)
        X_tr, X_te = train_test_split(X, test_size=0.3, shuffle=False)
        assert X_te.tolist() == [0, 1, 2]
        assert X_tr.tolist() == [3, 4, 5, 6, 7, 8, 9]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_test_size(self, bad):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), test_size=bad)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="same length"):
            train_test_split(np.arange(5), np.arange(6))

    def test_rejects_no_arrays(self):
        with pytest.raises(ValueError):
            train_test_split()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=200),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=99),
)
def test_property_kfold_always_partitions(n, k, seed):
    if n < k:
        return
    seen = []
    for train, test in KFold(k, shuffle=True, random_state=seed).split(n):
        assert len(test) >= 1
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(n))
