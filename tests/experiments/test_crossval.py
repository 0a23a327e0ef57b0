"""Unit tests for the cross-validation driver."""

import numpy as np
import pytest

from repro.experiments.crossval import run_cross_validation


@pytest.fixture(scope="module")
def cv(dataset_small, actuals_small):
    return run_cross_validation(
        dataset_small, actuals_small, n_repeats=2, n_splits=3, seed=0
    )


class TestProtocol:
    def test_fold_count(self, cv):
        assert len(cv.folds) == 6  # 2 repeats x 3 splits

    def test_no_test_query_in_train(self, cv):
        """Section 5.1: no test query appears in its training dataset."""
        for fold in cv.folds:
            assert not set(fold.train_ids) & set(fold.test_ids)

    def test_each_repeat_covers_all_queries(self, cv, dataset_small):
        by_repeat = {}
        for fold in cv.folds:
            by_repeat.setdefault(fold.repeat, []).extend(fold.test_ids)
        for ids in by_repeat.values():
            assert sorted(ids) == sorted(dataset_small.query_ids)

    def test_both_families_trained(self, cv):
        for fold in cv.folds:
            assert set(fold.predicted_curves) == {"power_law", "amdahl"}

    def test_curves_cover_all_queries(self, cv, dataset_small):
        fold = cv.folds[0]
        for family in ("power_law", "amdahl"):
            assert set(fold.predicted_curves[family]) == set(
                dataset_small.query_ids
            )

    def test_predicted_curves_monotone(self, cv):
        for fold in cv.folds[:2]:
            for curves in fold.predicted_curves.values():
                for curve in curves.values():
                    assert np.all(np.diff(curve) <= 1e-9)


class TestErrors:
    def test_error_per_fold_shape(self, cv):
        errs = cv.error_at("power_law", 8)
        assert errs.shape == (6,)
        assert np.all(errs >= 0)

    def test_sparklens_errors_available(self, cv):
        assert cv.error_at("sparklens", 16).shape == (6,)

    def test_train_split_errors(self, cv):
        errs = cv.error_at("amdahl", 8, split="train")
        assert np.all(np.isfinite(errs))

    def test_invalid_split_rejected(self, cv):
        with pytest.raises(ValueError, match="split"):
            cv.error_at("amdahl", 8, split="validation")

    def test_mean_error_scalar(self, cv):
        assert isinstance(cv.mean_error_at("power_law", 8), float)

    def test_test_curves_enumeration(self, cv, dataset_small):
        tested = [
            (fold.repeat, qid, fold.predicted_curves["power_law"][qid])
            for fold in cv.folds
            for qid in fold.test_ids
        ]
        # every query appears once per repeat
        assert len(tested) == 2 * len(dataset_small.query_ids)

    def test_deterministic(self, dataset_small, actuals_small):
        a = run_cross_validation(
            dataset_small, actuals_small, n_repeats=1, n_splits=3, seed=5
        )
        b = run_cross_validation(
            dataset_small, actuals_small, n_repeats=1, n_splits=3, seed=5
        )
        assert np.allclose(
            a.error_at("power_law", 8), b.error_at("power_law", 8)
        )
