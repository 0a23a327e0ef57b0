"""Random forest regression, mirroring scikit-learn's defaults.

The paper (Section 3.4, Section 5.6) trains its parameter model with
scikit-learn's ``RandomForestRegressor`` at default settings: 100
estimators, bootstrap sampling, and all features considered at each split
(the regression default).  This module reproduces that estimator on top of
:class:`repro.ml.tree.DecisionTreeRegressor`.
"""

from __future__ import annotations

import numpy as np

from repro.ml.packed import PackedForest
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bagged ensemble of CART regression trees.

    Args:
        n_estimators: number of trees (paper/scikit-learn default: 100).
        max_depth: per-tree depth cap.
        min_samples_split: per-tree split threshold.
        min_samples_leaf: per-tree leaf size floor.
        max_features: per-split feature subsample (``None`` = all features,
            the scikit-learn regression default).
        bootstrap: draw each tree's training set with replacement.
        random_state: seed controlling bootstrap draws and feature
            subsampling; fitting is deterministic given the seed.

    Supports multi-output ``y`` (the AE_PL parameter model predicts the
    triple ``(a, b, m)`` and AE_AL the pair ``(s, p)`` jointly).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] = []
        self.n_features_in_: int = 0
        self.n_outputs_: int = 0
        self._y_was_1d = False
        self._packed: PackedForest | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit ``n_estimators`` trees on bootstrap resamples of (X, y)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        self._y_was_1d = y.ndim == 1
        y2d = y[:, None] if self._y_was_1d else y
        if y2d.ndim != 2:
            raise ValueError(f"y must be 1-D or 2-D, got shape {y.shape}")
        if X.shape[0] != y2d.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a forest on an empty dataset")

        self.n_features_in_ = X.shape[1]
        self.n_outputs_ = y2d.shape[1]
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]

        self.estimators_ = []
        self._packed = None
        for _ in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=rng,
            )
            tree.fit(X[sample], y2d[sample])
            self.estimators_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average the per-tree predictions (one packed descent)."""
        if not self.estimators_:
            raise RuntimeError("this RandomForestRegressor is not fitted yet")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; the forest was fit with "
                f"{self.n_features_in_}"
            )
        if self._packed is None:
            self._packed = PackedForest([t._compile() for t in self.estimators_])
        acc = self._packed.predict(X)
        if self._y_was_1d:
            return acc[:, 0]
        return acc

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean of the per-tree normalized impurity importances."""
        if not self.estimators_:
            raise RuntimeError("this RandomForestRegressor is not fitted yet")
        acc = np.zeros(self.n_features_in_)
        for tree in self.estimators_:
            acc += tree.feature_importances_
        return acc / len(self.estimators_)
