"""Cross-validation splitters.

The paper's evaluation protocol (Section 5.1) is a 5-fold cross-validation
(80:20 train/test split over TPC-DS query templates) repeated 10 times with
different shuffles; no test query ever appears in the corresponding training
fold.  :class:`RepeatedKFold` implements exactly that protocol.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["KFold", "RepeatedKFold", "train_test_split"]


class KFold:
    """K-fold cross-validation splitter.

    Args:
        n_splits: number of folds (paper: 5).
        shuffle: shuffle sample indices before folding.
        random_state: seed for the shuffle.

    ``split`` yields ``(train_indices, test_indices)`` pairs; the test
    folds partition the dataset.
    """

    def __init__(
        self,
        n_splits: int = 5,
        shuffle: bool = False,
        random_state: int | None = None,
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        if not shuffle and random_state is not None:
            raise ValueError("random_state only makes sense with shuffle=True")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples_or_X) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield train/test index pairs.

        Accepts either the sample count or an array-like whose first
        dimension is the sample count.
        """
        n = _n_samples(n_samples_or_X)
        if n < self.n_splits:
            raise ValueError(
                f"cannot make {self.n_splits} folds from {n} samples"
            )
        indices = np.arange(n)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n // self.n_splits, dtype=int)
        fold_sizes[: n % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield np.sort(train), np.sort(test)
            start += size


class RepeatedKFold:
    """K-fold CV repeated with different shuffles (paper: 10 × 5-fold).

    Args:
        n_splits: folds per repeat.
        n_repeats: number of repeats.
        random_state: seed; each repeat derives its own shuffle seed.
    """

    def __init__(
        self,
        n_splits: int = 5,
        n_repeats: int = 10,
        random_state: int | None = None,
    ) -> None:
        if n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        self.n_splits = n_splits
        self.n_repeats = n_repeats
        self.random_state = random_state

    def split(self, n_samples_or_X) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = _n_samples(n_samples_or_X)
        seed_rng = np.random.default_rng(self.random_state)
        for _ in range(self.n_repeats):
            fold_seed = int(seed_rng.integers(0, 2**31 - 1))
            kf = KFold(self.n_splits, shuffle=True, random_state=fold_seed)
            yield from kf.split(n)


def train_test_split(
    *arrays: np.ndarray,
    test_size: float = 0.2,
    random_state: int | None = None,
    shuffle: bool = True,
) -> list[np.ndarray]:
    """Split arrays into random train and test subsets.

    Returns ``[a_train, a_test, b_train, b_test, ...]`` matching the input
    order, like scikit-learn.
    """
    if not arrays:
        raise ValueError("at least one array is required")
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    n = _n_samples(arrays[0])
    for arr in arrays[1:]:
        if _n_samples(arr) != n:
            raise ValueError("all arrays must have the same length")
    n_test = max(1, int(round(n * test_size)))
    if n_test >= n:
        raise ValueError("test_size leaves no training samples")
    indices = np.arange(n)
    if shuffle:
        rng = np.random.default_rng(random_state)
        rng.shuffle(indices)
    test_idx = indices[:n_test]
    train_idx = indices[n_test:]
    out: list[np.ndarray] = []
    for arr in arrays:
        arr = np.asarray(arr)
        out.append(arr[train_idx])
        out.append(arr[test_idx])
    return out


def _n_samples(n_samples_or_X) -> int:
    if isinstance(n_samples_or_X, (int, np.integer)):
        return int(n_samples_or_X)
    return int(np.asarray(n_samples_or_X).shape[0])
