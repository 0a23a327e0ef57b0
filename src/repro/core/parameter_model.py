"""The parameter model ``g: query features → PPM parameters``.

This is the ML half of the paper's framework (Section 3.4): a regression
model trained with one row per query — features from Table 2, targets the
fitted PPM parameters — and scored *once* per query at optimization time.
The predicted parameters instantiate the PPM, and evaluating ``t(n)`` at
any number of candidate configurations is then just arithmetic.  (The
contrast with the non-parametric approach — one row and one model score
per configuration — is benchmarked in the ablation bench.)

The default estimator is the random forest the paper uses (100 trees,
default settings); any estimator with ``fit``/``predict`` works, mirroring
the paper's "any ML library" flexibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FEATURE_NAMES, QueryFeatures, project_features
from repro.core.ppm import FAMILIES, PricePerfModel, from_targets, to_targets
from repro.ml.forest import RandomForestRegressor

__all__ = ["ParameterModel"]

#: Scale-like parameters (run times / work volumes) span orders of
#: magnitude across queries; the estimator regresses them in log space
#: (:func:`repro.core.ppm.to_targets`) so that leaf averaging is
#: multiplicative, not additive.  Shape parameters (``a``) stay raw.
_LOG_PARAMS: dict[str, tuple[bool, ...]] = {
    "power_law": (False, True, True),  # (a, b, m)
    "amdahl": (True, True),  # (s, p)
}


@dataclass
class ParameterModel:
    """A trained map from plan features to a PPM instance.

    Args:
        family: ``"power_law"`` (AE_PL) or ``"amdahl"`` (AE_AL).
        estimator: multi-output regressor; defaults to the paper's random
            forest (100 estimators).
        feature_names: feature subset to use, in order (defaults to the
            full Table 2 list; pass a subset for the Section 5.7 feature
            ablation).
    """

    family: str
    estimator: object | None = None
    feature_names: tuple[str, ...] = FEATURE_NAMES
    _fitted: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown PPM family {self.family!r}; "
                f"expected one of {sorted(FAMILIES)}"
            )
        if self.estimator is None:
            self.estimator = RandomForestRegressor(
                n_estimators=100, random_state=0
            )
        unknown = set(self.feature_names) - set(FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown feature names: {sorted(unknown)}")

    @property
    def param_names(self) -> tuple[str, ...]:
        return FAMILIES[self.family].PARAM_NAMES

    def fit(self, features: np.ndarray, params: np.ndarray) -> "ParameterModel":
        """Train on one row per query.

        Args:
            features: matrix ``(n_queries, n_features)`` (full Table 2
                vectors are projected onto the configured subset).
            params: matrix ``(n_queries, n_params)`` of fitted PPM
                parameters, ordered as :attr:`param_names`.
        """
        features = np.asarray(features, dtype=float)
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != len(self.param_names):
            raise ValueError(
                f"params must be (n, {len(self.param_names)}) for family "
                f"{self.family!r}"
            )
        if features.shape[0] != params.shape[0]:
            raise ValueError("features and params row counts differ")
        targets = to_targets(params, _LOG_PARAMS[self.family])
        self.estimator.fit(project_features(features, self.feature_names), targets)
        self._fitted = True
        return self

    def predict_params(self, features: np.ndarray) -> np.ndarray:
        """Raw predicted parameter matrix for a batch of feature rows."""
        if not self._fitted:
            raise RuntimeError("this ParameterModel is not fitted yet")
        features = np.asarray(features, dtype=float)
        single = features.ndim == 1
        if single:
            features = features[None, :]
        projected = project_features(features, self.feature_names)
        targets = np.atleast_2d(self.estimator.predict(projected))
        out = from_targets(targets, _LOG_PARAMS[self.family])
        return out[0] if single else out

    def predict_ppm(self, features: QueryFeatures | np.ndarray) -> PricePerfModel:
        """Score once and instantiate the predicted PPM for one query:
        row 0 of :meth:`predict_ppm_batch`."""
        if isinstance(features, QueryFeatures):
            features = features.values
        return self.predict_ppm_batch(features)[0]

    def predict_ppm_batch(self, features_matrix) -> list[PricePerfModel]:
        """Score a batch of feature rows with one estimator call.

        Predicted parameters are clamped into the family's monotone-valid
        region by ``from_parameters`` (the paper's monotonicity constraint
        applied to ML outputs).  The forest scores each row independently,
        so batching changes the call count, never a parameter.
        """
        matrix = np.atleast_2d(np.asarray(features_matrix, dtype=float))
        family = FAMILIES[self.family]
        return [family.from_parameters(row) for row in self.predict_params(matrix)]

    def export_metadata(self) -> dict:
        """Metadata a portable-model scorer needs to reproduce this model's
        predictions exactly: the PPM family and the log-space target mask
        (the estimator predicts transformed targets; see ``_LOG_PARAMS``),
        and the feature subset a full Table 2 row is projected onto.
        """
        return {
            "family": self.family,
            "log_params": list(_LOG_PARAMS[self.family]),
            "feature_names": list(self.feature_names),
        }
