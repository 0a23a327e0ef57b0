"""AutoExecutor: the end-to-end system (paper Section 4, Figure 6).

Two entry points:

- :class:`AutoExecutor` — the offline facade: train parameter models from a
  workload, predict curves, select configurations.
- :class:`AutoExecutorRule` — the optimizer extension implementing
  Figure 6's five steps inside the live query path:

  1. model load and cache (models are loaded into the optimizer process
     once and cached — the inference step is on the query's critical path);
  2. plan featurization;
  3. PPM parameter prediction (one model score per query);
  4. selection (default: the point "right before the performance flattens",
     i.e. the elbow);
  5. resource request via the optimizer context.

The rule pairs with :class:`repro.engine.allocation.PredictiveAllocation`
for execution: predictive scale-up, reactive idle deallocation
(Section 4.6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.cores import Factorization, factorize_cores
from repro.core.features import QueryFeatures
from repro.core.parameter_model import ParameterModel
from repro.core.ppm import PricePerfModel
from repro.core.selection import SelectionObjective, elbow_point, select_on_curve
from repro.core.training import (
    DEFAULT_N_GRID,
    TrainingDataset,
    build_training_dataset,
)
from repro.engine.checks import check_int
from repro.engine.cluster import Cluster, NodeSpec
from repro.engine.optimizer import OptimizerContext
from repro.obs.sketch import QuantileSketch
from repro.workloads.generator import Workload

__all__ = ["AutoExecutor", "AutoExecutorRule", "SelectionObjective"]


@dataclass
class AutoExecutor:
    """Offline facade: train once, predict and select per query.

    Args:
        family: PPM family, ``"power_law"`` (the paper's better performer)
            or ``"amdahl"``.
        n_grid: candidate executor counts.
        objective: selection strategy over predicted curves (default: the
            paper's elbow selection).
    """

    family: str = "power_law"
    n_grid: np.ndarray = field(default_factory=lambda: DEFAULT_N_GRID.copy())
    objective: SelectionObjective = elbow_point
    model: ParameterModel | None = None
    dataset: TrainingDataset | None = None

    def train(
        self, workload: Workload, cluster: Cluster | None = None
    ) -> "AutoExecutor":
        """Build training data from the workload and fit the model."""
        self.dataset = build_training_dataset(
            workload, cluster, n_grid=self.n_grid
        )
        self.model = self.dataset.fit_parameter_model(self.family)
        return self

    def _require_model(self) -> ParameterModel:
        if self.model is None:
            raise RuntimeError("AutoExecutor is not trained yet")
        return self.model

    def predict_ppm(self, plan_or_features) -> PricePerfModel:
        """Predict the PPM for a query (scored once, per Section 3.4)."""
        features = _as_features(plan_or_features)
        return self._require_model().predict_ppm(features)

    def predict_curve(self, plan_or_features) -> np.ndarray:
        return self.predict_ppm(plan_or_features).predict_curve(self.n_grid)

    def select_executors(self, plan_or_features) -> int:
        """Predict the curve and apply the selection objective."""
        curve = self.predict_curve(plan_or_features)
        return self.objective(self.n_grid, curve)

    def select_configuration(
        self,
        plan_or_features,
        cores_per_executor: int = 4,
        node: NodeSpec = NodeSpec(),
        executor_memory_gb: float = 28.0,
    ) -> Factorization:
        """Select a full (executors, cores-per-executor) configuration.

        Section 3.3: the PPM's resource axis is really the total core
        count ``k = n · ec`` — run times collapse onto ``k`` regardless of
        the factorization.  This method selects the executor count on the
        trained (ec-specific) curve, converts it to a core budget, and
        factorizes that budget back into ``(n, ec)`` by minimizing
        stranded node cores subject to memory.
        """
        n = self.select_executors(plan_or_features)
        k = n * cores_per_executor
        return factorize_cores(
            k, node=node, executor_memory_gb=executor_memory_gb
        )

    def make_rule(self, **rule_kwargs) -> "AutoExecutorRule":
        """Package the trained model as an optimizer extension rule."""
        model = self._require_model()
        return AutoExecutorRule(
            model_loader=lambda: model,
            n_grid=self.n_grid,
            objective=self.objective,
            **rule_kwargs,
        )


def _as_features(plan_or_features) -> QueryFeatures:
    if isinstance(plan_or_features, QueryFeatures):
        return plan_or_features
    return QueryFeatures.from_plan(plan_or_features)


class AutoExecutorRule:
    """Prediction-based optimizer rule (Figure 6, steps 1–5).

    Args:
        model_loader: zero-arg callable returning an object with
            ``predict_ppm`` — a :class:`ParameterModel` or a portable-model
            scorer from :mod:`repro.export`.  Called lazily on the first
            query and cached (step 1): model load must not recur in the
            live query path.
        n_grid: candidate executor counts.
        objective: selection strategy (default elbow).
        min_executors / max_executors: clamp on the final request.

    The rule records its decisions (predicted parameters, chosen count,
    timings) in the optimizer context's annotations for observability.
    """

    def __init__(
        self,
        model_loader: Callable[[], object],
        n_grid: np.ndarray = DEFAULT_N_GRID,
        objective: SelectionObjective = elbow_point,
        min_executors: int = 1,
        max_executors: int = 48,
    ) -> None:
        check_int("min_executors", min_executors, 1)
        check_int("max_executors", max_executors, min_executors)
        self._model_loader = model_loader
        self._model_cache: object | None = None
        self.n_grid = np.asarray(n_grid)
        self.objective = objective
        self.min_executors = min_executors
        self.max_executors = max_executors
        #: cumulative timing telemetry (Section 5.6 overheads): one
        #: bounded quantile sketch of seconds per phase.
        self.timings: dict[str, QuantileSketch] = {
            phase: QuantileSketch()
            for phase in ("model_load", "featurize", "score", "select")
        }

    def _load_model(self) -> object:
        # Step 1: load once, cache in-process.
        if self._model_cache is None:
            start = time.perf_counter()
            self._model_cache = self._model_loader()
            self.timings["model_load"].add(time.perf_counter() - start)
        return self._model_cache

    def apply(self, context: OptimizerContext) -> None:
        """Run steps 1–5 against an optimized plan."""
        model = self._load_model()

        start = time.perf_counter()
        features = QueryFeatures.from_plan(context.plan)  # step 2
        self.timings["featurize"].add(time.perf_counter() - start)

        start = time.perf_counter()
        ppm = model.predict_ppm(features)  # step 3 (single score)
        self.timings["score"].add(time.perf_counter() - start)

        start = time.perf_counter()
        chosen, _ = select_on_curve(  # step 4: PPM arithmetic, not scoring
            ppm, self.n_grid, self.objective, self.min_executors, self.max_executors
        )
        self.timings["select"].add(time.perf_counter() - start)

        context.request_executors(chosen)  # step 5
        context.annotations["autoexecutor.ppm_params"] = ppm.parameters()
        context.annotations["autoexecutor.executors"] = chosen
