"""Compile-time query featurization (paper Table 2).

The parameter model's features must be available *before* execution — at
compile/optimization time — because AutoExecutor predicts the executor
count before the query runs and must score the model with the same features
it was trained on (Section 3.4).  The feature list is exactly Table 2:

- the count of each operator kind in the optimized plan (14 kinds),
- the total operator count,
- the maximum plan depth,
- the number of input data sources,
- the estimated total input bytes,
- the estimated total rows processed by all operators.

No runtime statistics appear here, by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.engine.plan import OPERATOR_KINDS, LogicalPlan, OperatorKind

__all__ = ["FEATURE_NAMES", "QueryFeatures", "featurize_plans", "project_features"]


#: Feature vector layout.  The names for the two data-size features match
#: the paper's Figure 15 labels.
FEATURE_NAMES: tuple[str, ...] = tuple(
    [kind.value for kind in OPERATOR_KINDS]
    + ["NumOps", "MaxDepth", "NumInputs", "TotalInputBytes", "TotalRowsProcessed"]
)


@dataclass(frozen=True)
class QueryFeatures:
    """Featurized query plan.

    Attributes:
        values: feature vector ordered as :data:`FEATURE_NAMES`.
        query_id: source query identifier (bookkeeping only; never fed to
            the model).
    """

    values: np.ndarray
    query_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float)
        )
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"feature vector must have {len(FEATURE_NAMES)} entries, "
                f"got shape {self.values.shape}"
            )

    @classmethod
    def from_plan(cls, plan: LogicalPlan) -> "QueryFeatures":
        """Extract Table 2 features from an optimized plan in one walk.

        One pre-order walk over an explicit ``(node, depth)`` stack
        gathers everything: per-kind counts, the operator count, the
        deepest leaf, and the scans' bytes and each operator's rows
        processed in walk order.  The two sums are then taken with
        ``sum`` over those lists, started at ``0`` — the same additions
        in the same order as :meth:`LogicalPlan.total_input_bytes` and
        :meth:`LogicalPlan.total_rows_processed`, so the vector is bit
        for bit the one the :class:`LogicalPlan` helpers give (they
        remain the reference; ``tests/core/test_features.py`` checks
        the two agree).
        """
        scan = OperatorKind.SCAN
        counts = dict.fromkeys(OPERATOR_KINDS, 0)
        input_bytes: list[float] = []
        rows: list[float] = []
        depth_max = 0
        stack = [(plan.root, 1)]
        pop, push = stack.pop, stack.append
        while stack:
            node, depth = pop()
            kind = node.kind
            counts[kind] += 1
            children = node.children
            if kind == scan:
                source = node.source
                input_bytes.append(source.bytes)
                rows.append(source.rows)
            elif len(children) == 1:
                # PlanNode.rows_in's sum() of one child, without the list.
                rows.append(0 + children[0].rows_out)
            else:
                rows.append(sum([child.rows_out for child in children]))
            if children:
                depth += 1
                for child in reversed(children):
                    push((child, depth))
            elif depth > depth_max:
                depth_max = depth
        values = [float(counts[kind]) for kind in OPERATOR_KINDS]
        values.append(float(len(rows)))
        values.append(float(depth_max))
        values.append(float(len(input_bytes)))
        values.append(sum(input_bytes))
        values.append(sum(rows))
        return cls(values=np.array(values), query_id=plan.query_id)

    def __getitem__(self, name: str) -> float:
        """Look a feature up by name (e.g. ``features["MaxDepth"]``)."""
        try:
            index = FEATURE_NAMES.index(name)
        except ValueError:
            raise KeyError(name) from None
        return float(self.values[index])


def featurize_plans(plans: Iterable[LogicalPlan]) -> np.ndarray:
    """Stack Table 2 feature vectors for a sequence of plans into a matrix."""
    return np.stack([QueryFeatures.from_plan(p).values for p in plans])


def project_features(matrix: np.ndarray, feature_names: Sequence[str]) -> np.ndarray:
    """Project full Table 2 rows onto a model's features, in
    ``feature_names`` order: a Section 5.7 subset, or the full set in
    another order.  Rows of any other width are rejected."""
    if matrix.shape[1] != len(FEATURE_NAMES):
        raise ValueError(
            f"feature matrix has {matrix.shape[1]} columns; expected "
            f"{len(FEATURE_NAMES)} (full Table 2 rows)"
        )
    if tuple(feature_names) == FEATURE_NAMES:
        return matrix
    cols = [FEATURE_NAMES.index(name) for name in feature_names]
    return matrix[:, cols]
