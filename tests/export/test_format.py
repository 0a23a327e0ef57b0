"""Unit tests for the portable model format."""

import json

import numpy as np
import pytest

from repro.export.format import (
    FORMAT_VERSION,
    export_model,
    load_model_file,
    save_model_file,
    validate_document,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture(scope="module")
def fitted_forest():
    rng = np.random.default_rng(0)
    X, Y = rng.random((60, 5)), rng.random((60, 2))
    return RandomForestRegressor(n_estimators=8, random_state=0).fit(X, Y), X


class TestExport:
    def test_forest_document_structure(self, fitted_forest):
        forest, _ = fitted_forest
        doc = export_model(forest, metadata={"family": "amdahl"})
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["kind"] == "random_forest"
        assert doc["n_features"] == 5
        assert doc["n_outputs"] == 2
        assert len(doc["trees"]) == 8
        assert doc["metadata"]["family"] == "amdahl"

    def test_document_is_json_serializable(self, fitted_forest):
        forest, _ = fitted_forest
        json.dumps(export_model(forest))  # must not raise

    def test_single_tree_exports_as_one_tree_forest(self, rng):
        tree = DecisionTreeRegressor().fit(rng.random((20, 2)), rng.random(20))
        doc = export_model(tree)
        assert doc["kind"] == "random_forest"
        assert len(doc["trees"]) == 1

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="unfitted"):
            export_model(RandomForestRegressor())
        with pytest.raises(ValueError, match="unfitted"):
            export_model(DecisionTreeRegressor())

    def test_unsupported_type_rejected(self, rng):
        with pytest.raises(TypeError, match="cannot export"):
            export_model(object())
        linear = LinearRegression().fit(rng.random((20, 3)), rng.random(20))
        with pytest.raises(TypeError, match="LinearRegression"):
            export_model(linear)


class TestSaveLoad:
    def test_round_trip(self, fitted_forest, tmp_path):
        forest, _ = fitted_forest
        path = tmp_path / "model.json"
        size = save_model_file(forest, path, metadata={"family": "amdahl"})
        assert size > 0
        assert path.stat().st_size == size
        doc = load_model_file(path)
        assert doc["metadata"]["family"] == "amdahl"

    def test_creates_parent_directories(self, fitted_forest, tmp_path):
        forest, _ = fitted_forest
        path = tmp_path / "registry" / "deep" / "model.json"
        save_model_file(forest, path)
        assert path.exists()

    def test_file_size_scales_with_trees(self, rng, tmp_path):
        X, y = rng.random((80, 5)), rng.random(80)
        small = RandomForestRegressor(n_estimators=2, random_state=0).fit(X, y)
        big = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        s_small = save_model_file(small, tmp_path / "s.json")
        s_big = save_model_file(big, tmp_path / "b.json")
        assert s_big > 5 * s_small


class TestValidation:
    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            validate_document({"format_version": 99})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            validate_document({"format_version": 1, "kind": "svm"})

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="no trees"):
            validate_document(
                {"format_version": 1, "kind": "random_forest", "trees": []}
            )

    def test_inconsistent_arrays_rejected(self):
        doc = {
            "format_version": 1,
            "kind": "random_forest",
            "trees": [
                {
                    "feature": [0, -1],
                    "threshold": [0.5],  # wrong length
                    "left": [1, -1],
                    "right": [1, -1],
                    "value": [[0.0], [1.0]],
                }
            ],
        }
        with pytest.raises(ValueError, match="disagree"):
            validate_document(doc)

    def test_linear_kind_rejected(self):
        # The format has one kind; a linear document is an unknown one.
        doc = {"format_version": 1, "kind": "linear", "coef": [[1.0]]}
        with pytest.raises(ValueError, match="unknown model kind: 'linear'"):
            validate_document(doc)
