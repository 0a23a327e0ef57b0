"""The one tree-ensemble inference kernel, shared by training and runtime.

:class:`PackedForest` concatenates every tree's nodes into one array set
with a root offset per tree.  A leaf loops back to itself (threshold
``+inf``, both children the leaf), so all trees x rows descend together
for exactly ``depth`` rounds with no masking.  Leaf values are summed in
tree order from ``0.0`` with a sequential ``np.add.accumulate`` (never
the pairwise ``np.sum``), so a forest's mean is bit-identical to a
per-tree ``acc += tree.predict(X)`` loop.  It imports only numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["NonFiniteFeaturesError", "PackedForest", "reject_non_finite"]


class NonFiniteFeaturesError(ValueError):
    """A feature row holds NaN or ±inf, which no tree can price."""

    def __init__(self, row: int) -> None:
        super().__init__(f"feature row {row} is not finite")
        self.row = row


def reject_non_finite(X: np.ndarray) -> None:
    """Raise :class:`NonFiniteFeaturesError` naming the first row of 2-D
    ``X`` that holds NaN or ±inf."""
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise NonFiniteFeaturesError(int(np.argmin(finite)))


class PackedForest:
    """Trees packed for one joint descent.

    ``trees`` holds per tree the parallel node arrays ``(feature,
    threshold, left, right, value)``; ``feature < 0`` marks a leaf (its
    threshold may be NaN or ``None``), ``value`` is ``(n_nodes, n_outputs)``.
    """

    def __init__(self, trees: Sequence[Sequence[ArrayLike]]) -> None:
        def cat(k: int, dtype: type) -> np.ndarray:
            return np.concatenate([np.asarray(t[k], dtype=dtype) for t in trees])

        feature, left, right = cat(0, np.intp), cat(2, np.intp), cat(3, np.intp)
        sizes = [np.size(t[0]) for t in trees]
        self.roots = np.cumsum([0, *sizes[:-1]])
        shift = np.repeat(self.roots, sizes)
        leaf = feature < 0
        node = np.arange(feature.size)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, np.inf, cat(1, float))
        self.left = np.where(leaf, node, left + shift)
        self.right = np.where(leaf, node, right + shift)
        self.value = cat(4, float)
        # Rounds every (tree, row) pair needs: the deepest tree's depth.
        self.depth = 0
        frontier = self.roots[~leaf[self.roots]]
        while frontier.size:
            self.depth += 1
            children = np.concatenate([self.left[frontier], self.right[frontier]])
            frontier = children[~leaf[children]]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Packed leaf index per tree and row of 2-D ``X``, shape
        ``(n_trees, n_rows)``; raises :class:`NonFiniteFeaturesError`
        naming the first row that holds NaN or ±inf."""
        reject_non_finite(X)
        n_rows, n_cols = X.shape
        flat = X.ravel()
        row_start = np.tile(np.arange(n_rows) * n_cols, len(self.roots))
        idx = np.repeat(self.roots, n_rows)
        for _ in range(self.depth):
            x = flat.take(row_start + self.feature.take(idx))
            go_left = x <= self.threshold.take(idx)
            idx = np.where(go_left, self.left.take(idx), self.right.take(idx))
        return idx.reshape(len(self.roots), n_rows)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf value over the trees, shape ``(n_rows, n_outputs)``."""
        leaves = self.value[self.apply(X)]
        zero = np.zeros((1, *leaves.shape[1:]))
        total = np.add.accumulate(np.concatenate([zero, leaves]), axis=0)[-1]
        return total / len(self.roots)
