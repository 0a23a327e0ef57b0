"""The portable model runtime (the paper's in-optimizer ONNX runtime).

:class:`PortableModelRuntime` is a model *registry + scorer*: it loads
portable model files from a directory, caches them (the paper caches loaded
models inside the optimizer because inference is on the live query path),
and runs inference through the numpy-only packed-forest kernel it shares
with training (:mod:`repro.ml.packed`), so both sides agree bit for bit.
It imports no training classes from :mod:`repro.ml`, just as the ONNX
runtime is independent of scikit-learn.

:class:`PortablePPMScorer` adapts a loaded model to the ``predict_ppm``
interface :class:`repro.core.autoexecutor.AutoExecutorRule` expects,
decoding as the in-process parameter model does: through
:mod:`repro.core.ppm`'s family table and target codec and
:func:`repro.core.features.project_features`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.core.features import FEATURE_NAMES, QueryFeatures, project_features
from repro.core.ppm import FAMILIES, PricePerfModel, from_targets
from repro.export.format import load_model_file
from repro.ml.packed import PackedForest
from repro.obs.sketch import QuantileSketch

__all__ = ["PortableModelRuntime", "PortablePPMScorer"]


class _CompiledForest:
    """Inference-ready representation of a forest document."""

    def __init__(self, document: dict[str, Any]) -> None:
        self.n_features = int(document["n_features"])
        self.n_outputs = int(document["n_outputs"])
        self.metadata = dict(document.get("metadata", {}))
        keys = ("feature", "threshold", "left", "right", "value")
        self.forest = PackedForest(
            [[tree[key] for key in keys] for tree in document["trees"]]
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input has {X.shape[1]} features; model expects "
                f"{self.n_features}"
            )
        out = self.forest.predict(X)
        return out[0] if single else out


class PortableModelRuntime:
    """Load-once, cached scoring of portable model files.

    Args:
        registry_dir: directory holding ``<name>.json`` model files (the
            stand-in for the AML/MLflow model registry of Figure 6).

    Timing of loads, compilations, and inferences is folded into one
    bounded :class:`~repro.obs.sketch.QuantileSketch` per phase in
    :attr:`timings` (count, mean, quantiles) to reproduce the Section 5.6
    overhead table; memory stays flat however many inferences a
    long-lived runtime serves.
    """

    def __init__(self, registry_dir: str | Path) -> None:
        self.registry_dir = Path(registry_dir)
        self._cache: dict[str, _CompiledForest] = {}
        self.timings: dict[str, QuantileSketch] = {
            phase: QuantileSketch() for phase in ("load", "setup", "inference")
        }

    def load(self, name: str) -> _CompiledForest:
        """Fetch a model, reading and compiling it only on first use."""
        if name not in self._cache:
            start = time.perf_counter()
            document = load_model_file(self.registry_dir / f"{name}.json")
            self.timings["load"].add(time.perf_counter() - start)
            start = time.perf_counter()
            self._cache[name] = _CompiledForest(document)
            self.timings["setup"].add(time.perf_counter() - start)
        return self._cache[name]

    def predict(self, name: str, X: np.ndarray) -> np.ndarray:
        """Score the named model; inference time is recorded."""
        model = self.load(name)
        start = time.perf_counter()
        out = model.predict(X)
        self.timings["inference"].add(time.perf_counter() - start)
        return out

    def mean_timing(self, phase: str) -> float:
        """Mean seconds of a phase (``load``/``setup``/``inference``)."""
        return self.timings[phase].mean


class PortablePPMScorer:
    """Adapt a registry model to the AutoExecutor rule's interface.

    The metadata :meth:`~repro.core.parameter_model.ParameterModel
    .export_metadata` writes names the PPM ``"family"``, the
    ``"log_params"`` target mask (absent: all raw) and the
    ``"feature_names"`` full rows are projected onto (absent: none).
    Metadata that disagrees with the model raises a ``ValueError``
    naming the model at first use.
    """

    def __init__(self, runtime: PortableModelRuntime, name: str) -> None:
        self.runtime = runtime
        self.name = name

    def _decoding(
        self, model: _CompiledForest
    ) -> tuple[type[PricePerfModel], list[bool], list[str] | None]:
        """The model's PPM family, log mask and feature subset, checked."""
        metadata = model.metadata
        family = metadata.get("family")
        ppm_class = FAMILIES.get(family) if isinstance(family, str) else None
        n_params = len(ppm_class.PARAM_NAMES) if ppm_class else 0
        log_mask = list(metadata.get("log_params", [False] * n_params))
        names = metadata.get("feature_names")
        unknown = sorted(set(names or ()) - set(FEATURE_NAMES))
        if ppm_class is None:
            problem = f"metadata lacks a valid PPM family (got {family!r})"
        elif model.n_outputs != n_params:
            problem = f"has {model.n_outputs} outputs; family {family!r} has {n_params}"
        elif len(log_mask) != n_params:
            problem = f"log_params has {len(log_mask)} entries for {n_params} outputs"
        elif unknown:
            problem = f"names unknown features: {unknown}"
        elif names is not None and len(names) != model.n_features:
            problem = f"lists {len(names)} feature names; it reads {model.n_features}"
        else:
            return ppm_class, log_mask, names
        raise ValueError(f"model {self.name!r} {problem}")

    def predict_ppm(self, features: QueryFeatures | ArrayLike) -> PricePerfModel:
        """One query's PPM: row 0 of :meth:`predict_ppm_batch`."""
        return self.predict_ppm_batch(getattr(features, "values", features))[0]

    def predict_ppm_batch(self, features_matrix: ArrayLike) -> list[PricePerfModel]:
        """Score a batch of feature rows in one runtime call.

        Rows are full Table 2 vectors (ordered as
        :data:`~repro.core.features.FEATURE_NAMES`, even for a subset
        model); a 1-D vector is one row.  Output ``i`` scores row ``i``,
        :meth:`predict_ppm` is row 0, and the forest scores each row
        independently, so batching (``PredictionService.predict_batch``,
        the HTTP micro-batcher) changes the dispatch count, never a
        prediction — the serving layer's byte-identical guarantee.
        """
        model = self.runtime.load(self.name)
        ppm_class, log_mask, names = self._decoding(model)
        matrix = np.atleast_2d(np.asarray(features_matrix, dtype=float))
        if names is not None:
            matrix = project_features(matrix, names)
        params = from_targets(self.runtime.predict(self.name, matrix), log_mask)
        return [ppm_class.from_parameters(row) for row in params]
