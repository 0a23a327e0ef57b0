"""The portable model file format.

A portable model is a JSON document:

    {
      "format_version": 1,
      "kind": "random_forest",      # the one kind; a tree is a 1-tree forest
      "n_features": int, "n_outputs": int,
      "metadata": {...},            # PPM family, log mask, feature names
      "trees": [
        {"feature": [...], "threshold": [...],
         "left": [...], "right": [...], "value": [[...], ...]},
        ...
      ]
    }

Any other ``kind``, a ``linear`` one included, is rejected as unknown.
Like ONNX, the format captures only what inference needs — no training
state — and is independent of the library that produced it.  File sizes
land in the same ~1 MB ballpark the paper reports for its 103-query
TPC-DS models (Section 5.6), which the overhead bench verifies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

if TYPE_CHECKING:
    from repro.core.parameter_model import ParameterModel

__all__ = ["FORMAT_VERSION", "export_model", "save_model_file", "load_model_file"]

FORMAT_VERSION = 1


def _export_tree(tree: DecisionTreeRegressor) -> dict[str, Any]:
    features, thresholds, left, right, values = tree._compile()
    return {
        "feature": features.tolist(),
        "threshold": [
            None if not np.isfinite(t) else float(t) for t in thresholds
        ],
        "left": left.tolist(),
        "right": right.tolist(),
        "value": values.tolist(),
    }


def export_model(
    model: object, metadata: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Serialize a fitted forest (or single tree) into the portable document.

    ``metadata`` is carried verbatim (put feature names and the PPM
    family there).
    """
    metadata = dict(metadata or {})
    if isinstance(model, RandomForestRegressor):
        if not model.estimators_:
            raise ValueError("cannot export an unfitted forest")
        trees = model.estimators_
    elif isinstance(model, DecisionTreeRegressor):
        if not model.nodes_:
            raise ValueError("cannot export an unfitted tree")
        trees = [model]
    else:
        raise TypeError(f"cannot export models of type {type(model).__name__}")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "random_forest",
        "n_features": model.n_features_in_,
        "n_outputs": model.n_outputs_,
        "metadata": metadata,
        "trees": [_export_tree(t) for t in trees],
    }


def save_model_file(
    model: object, path: str | Path, metadata: dict[str, Any] | None = None
) -> int:
    """Export and write a model; returns the file size in bytes."""
    document = export_model(model, metadata)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f)
    return path.stat().st_size


def save_parameter_model(parameter_model: ParameterModel, path: str | Path) -> int:
    """Export a fitted :class:`repro.core.parameter_model.ParameterModel`.

    Writes the underlying estimator together with the metadata a
    :class:`repro.export.runtime.PortablePPMScorer` needs (see
    ``export_metadata``).  Returns the file size in bytes.
    """
    return save_model_file(
        parameter_model.estimator, path, parameter_model.export_metadata()
    )


def load_model_file(path: str | Path) -> dict[str, Any]:
    """Read and validate a portable model document."""
    with open(path, encoding="utf-8") as f:
        document = json.load(f)
    validate_document(document)
    return document


def validate_document(document: dict[str, Any]) -> None:
    """Structural validation of a portable model document."""
    if document.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version: {document.get('format_version')!r}"
        )
    kind = document.get("kind")
    if kind != "random_forest":
        raise ValueError(f"unknown model kind: {kind!r}")
    trees = document.get("trees")
    if not trees:
        raise ValueError("forest document has no trees")
    for tree in trees:
        n = len(tree["feature"])
        for key in ("threshold", "left", "right", "value"):
            if len(tree[key]) != n:
                raise ValueError(f"tree arrays disagree on length ({key})")
