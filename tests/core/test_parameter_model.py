"""Unit tests for the parameter model g: features -> PPM parameters."""

import numpy as np
import pytest

from repro.core.features import FEATURE_NAMES, QueryFeatures
from repro.core.parameter_model import ParameterModel
from repro.core.ppm import AmdahlPPM, PowerLawPPM
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.workloads.generator import Workload
from repro.workloads.tpcds import QUERY_IDS


def synthetic_dataset(n=60, seed=0):
    """Features whose data-size columns determine Amdahl parameters."""
    rng = np.random.default_rng(seed)
    X = np.abs(rng.normal(1.0, 0.3, size=(n, len(FEATURE_NAMES))))
    bytes_col = FEATURE_NAMES.index("TotalInputBytes")
    rows_col = FEATURE_NAMES.index("TotalRowsProcessed")
    X[:, bytes_col] = np.exp(rng.uniform(18, 25, n))
    X[:, rows_col] = np.exp(rng.uniform(15, 22, n))
    s = 2.0 + np.log(X[:, rows_col]) / 4
    p = X[:, bytes_col] / 1e8
    return X, np.column_stack([s, p])


class TestConstruction:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            ParameterModel(family="bogus")

    def test_unknown_feature_names_rejected(self):
        with pytest.raises(ValueError, match="feature names"):
            ParameterModel(family="amdahl", feature_names=("NotAFeature",))

    def test_default_estimator_is_100_tree_forest(self):
        model = ParameterModel(family="power_law")
        assert model.estimator.n_estimators == 100

    def test_param_names_per_family(self):
        assert ParameterModel(family="power_law").param_names == ("a", "b", "m")
        assert ParameterModel(family="amdahl").param_names == ("s", "p")


class TestFitPredict:
    def test_fit_and_predict_ppm_types(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(family="amdahl").fit(X, Y)
        ppm = model.predict_ppm(X[0])
        assert isinstance(ppm, AmdahlPPM)

        pl_targets = np.column_stack([-np.ones(len(X)) * 0.5, Y[:, 1], Y[:, 0]])
        pl = ParameterModel(family="power_law").fit(X, pl_targets)
        assert isinstance(pl.predict_ppm(X[0]), PowerLawPPM)

    def test_predictions_always_valid_monotone_ppms(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(family="amdahl").fit(X, Y)
        grid = np.arange(1, 49)
        for row in X[:10]:
            curve = model.predict_ppm(row).predict_curve(grid)
            assert np.all(np.diff(curve) <= 1e-9)
            assert np.all(curve > 0)

    def test_in_sample_accuracy_reasonable(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(family="amdahl").fit(X, Y)
        pred = model.predict_params(X)
        rel = np.abs(pred - Y) / np.abs(Y)
        assert np.median(rel) < 0.2

    def test_log_space_training_preserves_scale_ordering(self):
        """b spans orders of magnitude; predictions must track rank."""
        X, Y = synthetic_dataset(n=80)
        model = ParameterModel(family="amdahl").fit(X, Y)
        pred = model.predict_params(X)
        rank_corr = np.corrcoef(
            np.argsort(np.argsort(Y[:, 1])), np.argsort(np.argsort(pred[:, 1]))
        )[0, 1]
        assert rank_corr > 0.9

    def test_batch_and_single_prediction_agree(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(family="amdahl").fit(X, Y)
        batch = model.predict_params(X[:3])
        for i in range(3):
            assert np.allclose(model.predict_params(X[i]), batch[i])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ParameterModel(family="amdahl").predict_params(np.zeros(19))

    def test_wrong_param_width_rejected(self):
        X, Y = synthetic_dataset()
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            ParameterModel(family="power_law").fit(X, Y)  # Y has 2 cols

    def test_row_count_mismatch_rejected(self):
        X, Y = synthetic_dataset()
        with pytest.raises(ValueError, match="row counts"):
            ParameterModel(family="amdahl").fit(X[:-1], Y)


class TestBatchScoring:
    """``predict_ppm_batch`` is the prediction service's one inference
    path, so its rows must be ``predict_ppm``'s, bit for bit."""

    @pytest.fixture(scope="class")
    def tpcds_features(self):
        rows = []
        for scale_factor in (10, 100):
            workload = Workload(scale_factor=scale_factor)
            for qid in QUERY_IDS:
                plan = workload.optimized_plan(qid)
                rows.append(QueryFeatures.from_plan(plan).values)
        return np.array(rows)

    @pytest.mark.parametrize("family", ["power_law", "amdahl"])
    def test_rows_equal_single_scoring_on_every_tpcds_plan(
        self, family, dataset_small, tpcds_features
    ):
        forest = RandomForestRegressor(n_estimators=20, random_state=0)
        model = dataset_small.fit_parameter_model(family, estimator=forest)
        grid = np.arange(1, 49)
        batch = model.predict_ppm_batch(tpcds_features)
        assert len(batch) == len(tpcds_features) == 2 * len(QUERY_IDS)
        for row, ppm in zip(tpcds_features, batch):
            single = model.predict_ppm(row)
            assert type(ppm) is type(single)
            assert ppm.parameters().tobytes() == single.parameters().tobytes()
            assert (
                ppm.predict_curve(grid).tobytes()
                == single.predict_curve(grid).tobytes()
            )

    def test_one_row_vector_is_promoted(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(family="amdahl").fit(X, Y)
        (ppm,) = model.predict_ppm_batch(X[0])
        assert ppm == model.predict_ppm(X[0])


class TestFeatureSubsets:
    """The Section 5.7 ablation interface."""

    def test_subset_projection_from_full_vectors(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(
            family="amdahl",
            feature_names=("TotalInputBytes", "TotalRowsProcessed"),
        ).fit(X, Y)
        ppm = model.predict_ppm(X[0])
        assert isinstance(ppm, AmdahlPPM)

    def test_subset_width_input_rejected(self):
        # Rows are always full Table 2 vectors, even for a subset model.
        X, Y = synthetic_dataset()
        cols = [
            FEATURE_NAMES.index("TotalInputBytes"),
            FEATURE_NAMES.index("TotalRowsProcessed"),
        ]
        model = ParameterModel(
            family="amdahl",
            feature_names=("TotalInputBytes", "TotalRowsProcessed"),
        )
        with pytest.raises(ValueError, match="columns"):
            model.fit(X[:, cols], Y)
        model.fit(X, Y)
        with pytest.raises(ValueError, match="columns"):
            model.predict_params(X[0, cols])

    def test_wrong_width_rejected(self):
        X, Y = synthetic_dataset()
        model = ParameterModel(
            family="amdahl", feature_names=("TotalInputBytes",)
        ).fit(X, Y)
        with pytest.raises(ValueError, match="columns"):
            model.predict_params(np.zeros((1, 7)))


class TestCustomEstimator:
    def test_any_fit_predict_estimator_works(self):
        """Figure 6: 'any ML library' — here, a linear model."""
        X, Y = synthetic_dataset()
        model = ParameterModel(family="amdahl", estimator=LinearRegression())
        model.fit(X, Y)
        ppm = model.predict_ppm(X[0])
        assert ppm.s >= 0 and ppm.p >= 0
