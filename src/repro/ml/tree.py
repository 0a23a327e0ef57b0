"""CART regression trees with multi-output support.

This is the tree substrate underneath :class:`repro.ml.forest.RandomForestRegressor`.
It implements the classic CART algorithm for regression:

- splits minimize the weighted sum of per-child output variance
  (equivalently, maximize variance reduction / MSE improvement);
- leaves predict the mean of the training targets that reach them;
- multi-output targets are handled by summing the variance criterion
  across outputs, exactly as scikit-learn does.

The implementation is vectorized with numpy: candidate split evaluation for
a feature is done with cumulative sums over the sorted targets, giving
``O(n log n)`` per feature per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.packed import PackedForest

__all__ = ["DecisionTreeRegressor", "TreeNode"]

_LEAF = -1  # sentinel feature index marking leaf nodes


@dataclass
class TreeNode:
    """A single node in a fitted regression tree.

    Attributes:
        feature: index of the split feature, or ``-1`` for a leaf.
        threshold: split threshold; samples with ``x[feature] <= threshold``
            go left.
        left: index of the left child in the tree's node list (leaves: -1).
        right: index of the right child in the tree's node list (leaves: -1).
        value: mean target vector of the training samples at this node.
        n_samples: number of training samples that reached this node.
        impurity: total (summed over outputs) variance at this node.
    """

    feature: int
    threshold: float
    left: int
    right: int
    value: np.ndarray
    n_samples: int
    impurity: float

    @property
    def is_leaf(self) -> bool:
        return self.feature == _LEAF


@dataclass
class _Frontier:
    """Work item for the iterative tree builder."""

    indices: np.ndarray
    depth: int
    parent: int
    is_left: bool


def _best_split_all_features(
    X_node: np.ndarray,
    y_node: np.ndarray,
    candidates: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Find the best (feature, threshold) over all candidate features.

    Evaluation is fully vectorized: one column-wise argsort of the node's
    feature block, prefix sums of the (per-feature-sorted) targets, and a
    single SSE matrix of shape ``(n-1, n_candidates)`` scoring every split
    position of every candidate feature at once.  Splits minimize the
    total child sum-of-squared-deviations (summed over outputs).

    Returns ``None`` when no valid split exists (constant features, or
    ``min_samples_leaf`` unsatisfiable).
    """
    X_sub = X_node[:, candidates]
    n = X_sub.shape[0]

    order = np.argsort(X_sub, axis=0, kind="stable")
    xs = np.take_along_axis(X_sub, order, axis=0)
    ys = y_node[order]  # (n, n_candidates, n_outputs)

    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(ys * ys, axis=0)
    total = csum[-1]
    total2 = csum2[-1]

    counts_left = np.arange(1, n)[:, None]
    valid = xs[1:] != xs[:-1]
    valid &= counts_left >= min_samples_leaf
    valid &= (n - counts_left) >= min_samples_leaf
    if not np.any(valid):
        return None

    left_sum = csum[:-1]
    left_sum2 = csum2[:-1]
    right_sum = total - left_sum
    right_sum2 = total2 - left_sum2
    nl = counts_left[:, :, None].astype(float)
    nr = float(n) - nl

    score = (left_sum2 - left_sum * left_sum / nl).sum(axis=2)
    score += (right_sum2 - right_sum * right_sum / nr).sum(axis=2)
    score[~valid] = np.inf

    flat = int(np.argmin(score))
    pos, col = divmod(flat, score.shape[1])
    if not np.isfinite(score[pos, col]):
        return None
    threshold = 0.5 * (xs[pos, col] + xs[pos + 1, col])
    return int(candidates[col]), float(threshold)


class DecisionTreeRegressor:
    """CART regression tree.

    Args:
        max_depth: maximum tree depth; ``None`` grows until pure or until
            ``min_samples_split`` stops growth.
        min_samples_split: minimum samples required to consider splitting.
        min_samples_leaf: minimum samples in each child of a split.
        max_features: number of features examined per split.  ``None`` or
            ``1.0`` uses all features (scikit-learn's regression default);
            an ``int`` uses that many; a ``float`` in (0, 1] uses that
            fraction; ``"sqrt"`` / ``"log2"`` use the usual heuristics.
        random_state: seed (or :class:`numpy.random.Generator`) for feature
            subsampling.

    The estimator follows the scikit-learn protocol: ``fit(X, y)`` then
    ``predict(X)``.  ``y`` may be 1-D or 2-D; predictions mirror its shape.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.nodes_: list[TreeNode] = []
        self.n_features_in_: int = 0
        self.n_outputs_: int = 0
        self._y_was_1d = False
        self._packed: PackedForest | None = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on training data ``X`` (n, d) and targets ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim == 1:
            self._y_was_1d = True
            y = y[:, None]
        elif y.ndim == 2:
            self._y_was_1d = False
        else:
            raise ValueError(f"y must be 1-D or 2-D, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X and y have inconsistent lengths: {X.shape[0]} vs {y.shape[0]}"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")

        self.n_features_in_ = X.shape[1]
        self.n_outputs_ = y.shape[1]
        rng = _as_generator(self.random_state)
        n_candidates = _resolve_max_features(self.max_features, self.n_features_in_)

        self.nodes_ = []
        root_indices = np.arange(X.shape[0])
        stack = [_Frontier(root_indices, depth=0, parent=-1, is_left=False)]
        while stack:
            item = stack.pop()
            node_id = self._add_node(X, y, item)
            split = self._find_split(X, y, item, rng, n_candidates)
            if split is None:
                continue
            feature, threshold, left_idx, right_idx = split
            node = self.nodes_[node_id]
            node.feature = feature
            node.threshold = threshold
            stack.append(
                _Frontier(right_idx, item.depth + 1, parent=node_id, is_left=False)
            )
            stack.append(
                _Frontier(left_idx, item.depth + 1, parent=node_id, is_left=True)
            )
        self._packed = None
        return self

    def _compile(self) -> tuple[np.ndarray, ...]:
        """Flatten the node list into parallel arrays (packing, export)."""
        nodes = self.nodes_
        return (
            np.array([n.feature for n in nodes], dtype=int),
            np.array([n.threshold for n in nodes], dtype=float),
            np.array([n.left for n in nodes], dtype=int),
            np.array([n.right for n in nodes], dtype=int),
            np.stack([n.value for n in nodes]),
        )

    def _pack(self) -> PackedForest:
        """This tree as a one-tree pack for the shared kernel."""
        self._check_fitted()
        if self._packed is None:
            self._packed = PackedForest([self._compile()])
        return self._packed

    def _add_node(self, X: np.ndarray, y: np.ndarray, item: _Frontier) -> int:
        ys = y[item.indices]
        value = ys.mean(axis=0)
        impurity = float(((ys - value) ** 2).sum())
        node = TreeNode(
            feature=_LEAF,
            threshold=float("nan"),
            left=-1,
            right=-1,
            value=value,
            n_samples=int(item.indices.shape[0]),
            impurity=impurity,
        )
        self.nodes_.append(node)
        node_id = len(self.nodes_) - 1
        if item.parent >= 0:
            if item.is_left:
                self.nodes_[item.parent].left = node_id
            else:
                self.nodes_[item.parent].right = node_id
        return node_id

    def _find_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        item: _Frontier,
        rng: np.random.Generator,
        n_candidates: int,
    ) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        indices = item.indices
        n = indices.shape[0]
        if n < self.min_samples_split or n < 2 * self.min_samples_leaf:
            return None
        if self.max_depth is not None and item.depth >= self.max_depth:
            return None
        ys = y[indices]
        if np.allclose(ys, ys[0]):
            return None

        if n_candidates >= self.n_features_in_:
            candidates = np.arange(self.n_features_in_)
        else:
            candidates = rng.choice(
                self.n_features_in_, size=n_candidates, replace=False
            )

        split = _best_split_all_features(
            X[indices], ys, candidates, self.min_samples_leaf
        )
        if split is None:
            return None
        best_feature, best_threshold = split

        mask = X[indices, best_feature] <= best_threshold
        left_idx = indices[mask]
        right_idx = indices[~mask]
        if left_idx.size == 0 or right_idx.size == 0:  # numeric edge case
            return None
        return best_feature, best_threshold, left_idx, right_idx

    # ------------------------------------------------------------------
    # prediction / introspection
    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X``; shape mirrors the training ``y``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; the tree was fit with "
                f"{self.n_features_in_}"
            )
        values = self._pack().value[self.apply(X)]
        if self._y_was_1d:
            return values[:, 0]
        return values

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf node index each row of ``X`` lands in.

        A one-tree call of the packed kernel (:mod:`repro.ml.packed`).
        """
        return self._pack().apply(np.asarray(X, dtype=float))[0]

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (root-only tree has depth 0)."""
        return self._pack().depth

    @property
    def n_leaves_(self) -> int:
        self._check_fitted()
        return sum(1 for node in self.nodes_ if node.is_leaf)

    def feature_importances_raw(self) -> np.ndarray:
        """Impurity-based importances (unnormalized variance reductions)."""
        self._check_fitted()
        importances = np.zeros(self.n_features_in_)
        for node in self.nodes_:
            if node.is_leaf:
                continue
            left = self.nodes_[node.left]
            right = self.nodes_[node.right]
            gain = node.impurity - left.impurity - right.impurity
            importances[node.feature] += max(gain, 0.0)
        return importances

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized impurity-based feature importances (sum to 1)."""
        raw = self.feature_importances_raw()
        total = raw.sum()
        if total <= 0:
            return np.zeros_like(raw)
        return raw / total

    def _check_fitted(self) -> None:
        if not self.nodes_:
            raise RuntimeError("this DecisionTreeRegressor is not fitted yet")


def _as_generator(
    random_state: int | np.random.Generator | None,
) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def _resolve_max_features(
    max_features: int | float | str | None, n_features: int
) -> int:
    """Translate a scikit-learn style ``max_features`` spec to a count."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        raise ValueError(f"unknown max_features spec: {max_features!r}")
    if isinstance(max_features, bool):
        raise ValueError("max_features must not be a bool")
    if isinstance(max_features, int):
        if max_features < 1:
            raise ValueError("integer max_features must be >= 1")
        return min(max_features, n_features)
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(round(max_features * n_features)))
    raise TypeError(f"unsupported max_features type: {type(max_features)!r}")
