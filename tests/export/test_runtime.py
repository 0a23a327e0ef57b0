"""Unit tests for the portable model runtime (the ONNX-runtime stand-in)."""

import numpy as np
import pytest

from repro.core.features import FEATURE_NAMES, QueryFeatures
from repro.core.parameter_model import ParameterModel
from repro.core.ppm import AmdahlPPM, PowerLawPPM
from repro.export.format import save_model_file, save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.fleet.prediction import PredictionService
from repro.ml.forest import RandomForestRegressor
from repro.ml.packed import NonFiniteFeaturesError


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry")
    rng = np.random.default_rng(0)
    X = rng.random((60, 19))
    Y_al = np.abs(rng.random((60, 2))) + 0.1
    forest = RandomForestRegressor(n_estimators=6, random_state=0).fit(X, Y_al)
    save_model_file(forest, root / "ae_al.json", metadata={"family": "amdahl"})
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


class TestMetadataValidation:
    """Metadata that disagrees with the model's shape is refused at first
    use, naming the model, instead of decoding to a wrong PPM."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bad_registry")
        rng = np.random.default_rng(1)
        X = rng.random((40, len(FEATURE_NAMES)))
        two = RandomForestRegressor(n_estimators=2, random_state=0)
        two.fit(X, rng.random((40, 2)) + 0.1)
        three = RandomForestRegressor(n_estimators=2, random_state=0)
        three.fit(X, rng.random((40, 3)) + 0.1)
        cases = {
            "unknown_family": (two, {"family": "cubic"}),
            "wrong_outputs": (two, {"family": "power_law"}),
            "short_mask": (three, {"family": "power_law", "log_params": [0, 1]}),
            "unknown_feature": (
                two,
                {"family": "amdahl", "feature_names": ["NoSuchFeature"]},
            ),
            "names_vs_width": (
                two,
                {"family": "amdahl", "feature_names": ["NumOps", "MaxDepth"]},
            ),
        }
        for name, (forest, metadata) in cases.items():
            save_model_file(forest, root / f"{name}.json", metadata=metadata)
        return root, X

    MESSAGES = {
        "unknown_family": "valid PPM family",
        "wrong_outputs": "2 outputs; family 'power_law' has 3",
        "short_mask": "log_params has 2 entries for 3 outputs",
        "unknown_feature": r"unknown features: \['NoSuchFeature'\]",
        "names_vs_width": "lists 2 feature names; it reads 19$",
    }

    @pytest.mark.parametrize("name", sorted(MESSAGES))
    def test_rejected_naming_the_model(self, root, name):
        registry, X = root
        scorer = PortablePPMScorer(PortableModelRuntime(registry), name)
        pattern = f"model '{name}'.*{self.MESSAGES[name]}"
        for score in (scorer.predict_ppm, scorer.predict_ppm_batch):
            with pytest.raises(ValueError, match=pattern):
                score(X[0])


class TestSubsetModel:
    """A Section 5.7 feature-subset model scores the same exported as in
    process, from the same full Table 2 rows."""

    KEEP = ("TotalInputBytes", "TotalRowsProcessed")

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        rng = np.random.default_rng(2)
        X = rng.random((50, len(FEATURE_NAMES))) * 100.0
        params = np.column_stack(
            [-rng.random(50), rng.random(50) * 500 + 1, rng.random(50) * 20]
        )
        model = ParameterModel(
            family="power_law",
            estimator=RandomForestRegressor(n_estimators=5, random_state=0),
            feature_names=self.KEEP,
        ).fit(X, params)
        root = tmp_path_factory.mktemp("subset_registry")
        save_parameter_model(model, root / "subset.json")
        scorer = PortablePPMScorer(PortableModelRuntime(root), "subset")
        return model, scorer, X

    def test_scores_bit_identical_to_in_process(self, exported):
        model, scorer, X = exported
        for row in X[:10]:
            assert scorer.predict_ppm(row).parameters().tobytes() == (
                model.predict_ppm(row).parameters().tobytes()
            )
        batch = scorer.predict_ppm_batch(X)
        expected = model.predict_ppm_batch(X)
        assert [p.parameters().tobytes() for p in batch] == [
            p.parameters().tobytes() for p in expected
        ]

    def test_served_answers_match_in_process(self, exported):
        model, scorer, X = exported
        rows = [QueryFeatures(values=row) for row in X]

        def answers(scorer):
            served = PredictionService(scorer).predict_batch(rows)
            return [(p.executors, p.estimated_runtime_seconds.hex()) for p in served]

        assert answers(scorer) == answers(model)
