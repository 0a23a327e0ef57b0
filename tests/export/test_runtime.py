"""Unit tests for the portable model runtime (the ONNX-runtime stand-in)."""

import numpy as np
import pytest

from repro.core.ppm import AmdahlPPM, PowerLawPPM
from repro.export.format import save_model_file
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.packed import NonFiniteFeaturesError


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry")
    rng = np.random.default_rng(0)
    X = rng.random((60, 19))
    Y_al = np.abs(rng.random((60, 2))) + 0.1
    forest = RandomForestRegressor(n_estimators=6, random_state=0).fit(X, Y_al)
    save_model_file(forest, root / "ae_al.json", metadata={"family": "amdahl"})
    linear = LinearRegression().fit(X, Y_al)
    save_model_file(linear, root / "lin.json", metadata={"family": "amdahl"})
    forest_nofam = RandomForestRegressor(n_estimators=2, random_state=0).fit(
        X, Y_al
    )
    save_model_file(forest_nofam, root / "nofam.json")
    return root, forest, X


class TestRuntime:
    def test_predictions_match_training_library(self, registry):
        """The runtime must agree exactly with the training-side forest —
        the ONNX fidelity requirement."""
        root, forest, X = registry
        runtime = PortableModelRuntime(root)
        out = runtime.predict("ae_al", X)
        assert np.array_equal(out, forest.predict(X))
        assert out.tobytes() == forest.predict(X).tobytes()

    def test_single_row_prediction(self, registry):
        root, forest, X = registry
        runtime = PortableModelRuntime(root)
        assert np.allclose(
            runtime.predict("ae_al", X[0]), forest.predict(X[:1])[0]
        )

    def test_linear_model_scoring(self, registry):
        root, _, X = registry
        runtime = PortableModelRuntime(root)
        out = runtime.predict("lin", X[:5])
        assert out.shape == (5, 2)

    def test_model_cached_after_first_load(self, registry):
        root, _, X = registry
        runtime = PortableModelRuntime(root)
        assert runtime.timings["load"].count == 0
        runtime.predict("ae_al", X[:1])
        assert runtime.timings["load"].count == 1
        runtime.predict("ae_al", X[:1])
        assert runtime.timings["load"].count == 1  # no reload

    def test_timings_recorded(self, registry):
        root, _, X = registry
        runtime = PortableModelRuntime(root)
        runtime.predict("ae_al", X[:1])
        runtime.predict("ae_al", X[:1])
        assert runtime.timings["load"].count == 1
        assert runtime.timings["setup"].count == 1
        assert runtime.timings["inference"].count == 2
        assert runtime.mean_timing("inference") > 0

    def test_mean_timing_empty_phase_zero(self, registry):
        runtime = PortableModelRuntime(registry[0])
        assert runtime.mean_timing("load") == 0.0

    def test_missing_model_raises(self, registry):
        runtime = PortableModelRuntime(registry[0])
        with pytest.raises(FileNotFoundError):
            runtime.load("does_not_exist")

    def test_wrong_feature_width_rejected(self, registry):
        root, _, _ = registry
        runtime = PortableModelRuntime(root)
        with pytest.raises(ValueError, match="expects"):
            runtime.predict("ae_al", np.zeros((1, 3)))


class TestPPMScorer:
    def test_scores_to_valid_ppm(self, registry):
        root, _, X = registry
        scorer = PortablePPMScorer(PortableModelRuntime(root), "ae_al")
        ppm = scorer.predict_ppm(X[0])
        assert isinstance(ppm, AmdahlPPM)
        assert ppm.s >= 0 and ppm.p >= 0

    def test_missing_family_metadata_rejected(self, registry):
        root, _, X = registry
        scorer = PortablePPMScorer(PortableModelRuntime(root), "nofam")
        with pytest.raises(ValueError, match="family"):
            scorer.predict_ppm(X[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_single_row_non_finite_rejected(self, registry, value):
        root, _, X = registry
        scorer = PortablePPMScorer(PortableModelRuntime(root), "ae_al")
        row = X[0].copy()
        row[4] = value
        with pytest.raises(NonFiniteFeaturesError, match="row 0"):
            scorer.predict_ppm(row)

    def test_batch_non_finite_names_first_bad_row(self, registry):
        root, _, X = registry
        scorer = PortablePPMScorer(PortableModelRuntime(root), "ae_al")
        batch = X[:6].copy()
        batch[2, 0] = np.inf
        batch[4, 1] = np.nan
        with pytest.raises(NonFiniteFeaturesError, match="row 2") as info:
            scorer.predict_ppm_batch(batch)
        assert info.value.row == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_linear_single_row_non_finite_rejected(self, registry, value):
        root, _, X = registry
        runtime = PortableModelRuntime(root)
        row = X[0].copy()
        row[7] = value
        with pytest.raises(NonFiniteFeaturesError, match="row 0"):
            runtime.predict("lin", row)

    def test_linear_batch_non_finite_names_first_bad_row(self, registry):
        root, _, X = registry
        runtime = PortableModelRuntime(root)
        batch = X[:6].copy()
        batch[3, 2] = -np.inf
        batch[5, 0] = np.nan
        with pytest.raises(NonFiniteFeaturesError, match="row 3") as info:
            runtime.predict("lin", batch)
        assert info.value.row == 3

    def test_integrates_with_autoexecutor_rule(self, registry):
        from repro.core.autoexecutor import AutoExecutorRule
        from repro.engine.optimizer import Optimizer
        from repro.workloads.tpcds import build_query

        root, _, _ = registry
        runtime = PortableModelRuntime(root)
        rule = AutoExecutorRule(
            model_loader=lambda: PortablePPMScorer(runtime, "ae_al")
        )
        opt = Optimizer(extension_rules=[rule])
        context = opt.optimize(build_query("q55", scale_factor=1))
        assert context.requested_executors is not None
