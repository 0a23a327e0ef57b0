"""The paper's cross-validation protocol (Sections 5.1–5.2).

"For evaluating how well the model predictions generalize across query
templates, we do a 5-fold cross validation (80:20 training:test dataset
split) and repeat it 10 times" — with every fold's test queries excluded
from its training set.  For each fold we train both parameter-model
families on the *training* queries' Sparklens-fit labels and predict full
run-time curves for the *test* queries; errors ``E(n)`` are computed
against the actual (simulated, averaged) run times.

The per-fold predicted curves are retained: the configuration-selection
experiments (Figures 10, 11, 13) consume them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import e_metric
from repro.core.training import TrainingDataset
from repro.experiments.runtime_data import ActualRuns
from repro.ml.model_selection import RepeatedKFold

__all__ = ["FoldResult", "CrossValResult", "run_cross_validation", "FAMILIES"]

FAMILIES: tuple[str, ...] = ("power_law", "amdahl")

#: Display labels matching the paper's series names.
FAMILY_LABELS: dict[str, str] = {"power_law": "AE_PL", "amdahl": "AE_AL"}


@dataclass
class FoldResult:
    """One fold of one repeat.

    Attributes:
        repeat: repeat index (0-based).
        train_ids / test_ids: query split.
        predicted_curves: ``{family: {query_id: curve over n_grid}}`` for
            both train and test queries (train curves are the "fit" error
            series of Figure 9a).
    """

    repeat: int
    train_ids: list[str]
    test_ids: list[str]
    predicted_curves: dict[str, dict[str, np.ndarray]] = field(
        default_factory=dict
    )


@dataclass
class CrossValResult:
    """All folds plus the shared inputs needed to score them."""

    folds: list[FoldResult]
    dataset: TrainingDataset
    actuals: ActualRuns
    n_grid: np.ndarray

    def error_at(
        self, family_or_sparklens: str, n: int, split: str = "test"
    ) -> np.ndarray:
        """Per-fold ``E(n)`` values for one series.

        Args:
            family_or_sparklens: ``"power_law"``, ``"amdahl"`` or
                ``"sparklens"``.
            n: executor count (must be one of the actuals' sampled counts).
            split: ``"test"`` (prediction error) or ``"train"`` (fit error).

        Returns:
            Array of one E(n) per fold (50 entries for the full protocol).
        """
        if split not in ("train", "test"):
            raise ValueError("split must be 'train' or 'test'")
        col = int(np.nonzero(self.n_grid == n)[0][0])
        actual_all = self.actuals.times_by_query(n)
        out = []
        for fold in self.folds:
            ids = fold.test_ids if split == "test" else fold.train_ids
            actual = {q: actual_all[q] for q in ids}
            if family_or_sparklens == "sparklens":
                predicted = {
                    q: float(self.dataset.sparklens_curves[q][col]) for q in ids
                }
            else:
                curves = fold.predicted_curves[family_or_sparklens]
                predicted = {q: float(curves[q][col]) for q in ids}
            out.append(e_metric(actual, predicted))
        return np.array(out)

    def mean_error_at(
        self, family_or_sparklens: str, n: int, split: str = "test"
    ) -> float:
        return float(self.error_at(family_or_sparklens, n, split).mean())


def run_cross_validation(
    dataset: TrainingDataset,
    actuals: ActualRuns,
    n_repeats: int = 10,
    n_splits: int = 5,
    families: tuple[str, ...] = FAMILIES,
    seed: int = 0,
    model_kwargs: dict | None = None,
) -> CrossValResult:
    """Run the repeated-k-fold protocol over a training dataset.

    Args:
        dataset: the full (all-queries) training dataset.
        actuals: ground truth for error computation.
        n_repeats / n_splits: protocol shape (paper: 10 × 5).
        families: PPM families to train per fold.
        seed: shuffle seed.
        model_kwargs: forwarded to :class:`ParameterModel` (e.g. a custom
            estimator, or ``feature_names`` for the Section 5.7 ablation).
    """
    model_kwargs = model_kwargs or {}
    n_queries = len(dataset.query_ids)
    splitter = RepeatedKFold(
        n_splits=n_splits, n_repeats=n_repeats, random_state=seed
    )
    folds: list[FoldResult] = []
    for fold_index, (train_idx, test_idx) in enumerate(
        splitter.split(n_queries)
    ):
        train = dataset.subset(train_idx)
        fold = FoldResult(
            repeat=fold_index // n_splits,
            train_ids=train.query_ids,
            test_ids=[dataset.query_ids[i] for i in test_idx],
        )
        for family in families:
            model = train.fit_parameter_model(family, **model_kwargs)
            # One batched score for all queries, then pure PPM arithmetic
            # (the parametric approach: model scoring is per-query, curve
            # evaluation is per-configuration).
            ppms = model.predict_ppm_batch(dataset.features)
            fold.predicted_curves[family] = {
                qid: ppm.predict_curve(dataset.n_grid)
                for qid, ppm in zip(dataset.query_ids, ppms)
            }
        folds.append(fold)
    return CrossValResult(
        folds=folds,
        dataset=dataset,
        actuals=actuals,
        n_grid=dataset.n_grid,
    )
