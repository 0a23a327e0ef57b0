"""The portable model runtime (the paper's in-optimizer ONNX runtime).

:class:`PortableModelRuntime` is a model *registry + scorer*: it loads
portable model files from a directory, caches them (the paper caches loaded
models inside the optimizer because inference is on the live query path),
and runs inference through the numpy-only packed-forest kernel it shares
with training (:mod:`repro.ml.packed`), so both sides agree bit for bit.
It imports no training classes from :mod:`repro.ml`, just as the ONNX
runtime is independent of scikit-learn.

:class:`PortablePPMScorer` adapts a loaded model to the ``predict_ppm``
interface :class:`repro.core.autoexecutor.AutoExecutorRule` expects, using
the PPM family recorded in the model's metadata.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.ppm import AmdahlPPM, PowerLawPPM, PricePerfModel
from repro.export.format import load_model_file
from repro.ml.packed import PackedForest, reject_non_finite
from repro.obs.sketch import QuantileSketch

__all__ = ["PortableModelRuntime", "PortablePPMScorer"]


class _CompiledForest:
    """Inference-ready representation of a forest document."""

    def __init__(self, document: dict) -> None:
        self.kind = document["kind"]
        self.n_features = int(document["n_features"])
        self.metadata = dict(document.get("metadata", {}))
        if self.kind == "linear":
            self.coef = np.asarray(document["coef"], dtype=float)
            self.intercept = np.asarray(document["intercept"], dtype=float)
        else:
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
        if self.kind == "linear":
            # A NaN/inf row would price to a NaN/inf curve; refuse it the
            # way the forest kernel does.
            reject_non_finite(X)
            out = X @ self.coef.T + self.intercept
        else:
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

    def model_path(self, name: str) -> Path:
        return self.registry_dir / f"{name}.json"

    def load(self, name: str) -> _CompiledForest:
        """Fetch a model, reading and compiling it only on first use."""
        if name not in self._cache:
            start = time.perf_counter()
            document = load_model_file(self.model_path(name))
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


_FAMILIES: dict[str, type[PricePerfModel]] = {
    "power_law": PowerLawPPM,
    "amdahl": AmdahlPPM,
}


class PortablePPMScorer:
    """Adapt a registry model to the AutoExecutor rule's interface.

    The model's metadata must record its PPM family under ``"family"``
    and — when the training pipeline regressed targets in log space — the
    per-parameter mask under ``"log_params"``.  Both are written by
    :meth:`repro.core.parameter_model.ParameterModel.export_metadata`.
    """

    _LOG_EPSILON = 1e-3  # must match the parameter model's transform

    def __init__(self, runtime: PortableModelRuntime, name: str) -> None:
        self.runtime = runtime
        self.name = name

    def _family(self) -> type[PricePerfModel]:
        metadata = self.runtime.load(self.name).metadata
        family = metadata.get("family")
        if family not in _FAMILIES:
            raise ValueError(
                f"model {self.name!r} metadata lacks a valid PPM family "
                f"(got {family!r})"
            )
        return _FAMILIES[family]

    def _untransform(self, params: np.ndarray) -> np.ndarray:
        """Undo the training pipeline's log-space target transform."""
        metadata = self.runtime.load(self.name).metadata
        log_mask = metadata.get("log_params", [False] * params.shape[-1])
        for col, use_log in enumerate(log_mask):
            if use_log:
                params[..., col] = np.maximum(
                    np.exp(params[..., col]) - self._LOG_EPSILON, 0.0
                )
        return params

    def predict_ppm(self, features) -> PricePerfModel:
        vector = getattr(features, "values", features)
        raw = self.runtime.predict(self.name, np.asarray(vector, dtype=float))
        family = self._family()
        params = self._untransform(np.array(raw, dtype=float))
        return family.from_parameters(params)

    def predict_ppm_batch(self, features_matrix) -> list[PricePerfModel]:
        """Score a whole batch of feature rows in one runtime call.

        This is the batch-inference contract every consumer leans on —
        :meth:`repro.fleet.prediction.PredictionService.predict_batch`
        for cache warm-up, and the HTTP serving layer's micro-batcher
        (:mod:`repro.serve.batching`) for request coalescing:

        - **Input shape**: ``features_matrix`` is array-like of shape
          ``(n, n_features)`` with one feature vector per row, ordered
          as :data:`repro.core.features.FEATURE_NAMES`.  A single
          1-D vector is promoted to a one-row matrix.
        - **Ordering**: the result is one fitted PPM per row, with
          output ``i`` scoring input row ``i``.
        - **Equivalence**: output ``i`` is *identical* to calling
          :meth:`predict_ppm` on row ``i`` alone — batching changes the
          dispatch count (one runtime call instead of ``n``; the
          batching the paper's in-optimizer ONNX runtime relies on),
          never the predictions.  The serving layer's byte-identical
          recommendation guarantee rests on this.
        """
        matrix = np.atleast_2d(np.asarray(features_matrix, dtype=float))
        raw = self.runtime.predict(self.name, matrix)
        family = self._family()
        params = self._untransform(np.array(raw, dtype=float))
        return [family.from_parameters(row) for row in params]
