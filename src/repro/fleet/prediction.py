"""The online prediction service in front of the fleet.

In production, executor-count selection sits on every query's critical
path (Section 5.6 measures the overheads).  The fleet therefore serves
predictions through a service that behaves like the deployed one:

- a **plan-signature memo cache**: recurring queries — the common case in
  the paper's telemetry, where most applications resubmit near-identical
  queries (Figure 2b's low plan variability) — hit the cache and skip
  model inference entirely;
- **measured overhead**: every prediction reports the wall-clock seconds
  it cost, and the fleet engine charges that latency to the query instead
  of assuming selection is free;
- **batched inference**: :meth:`PredictionService.predict_batch` scores
  all of a batch's cache misses in one ``predict_ppm_batch`` call,
  amortizing the model dispatch the way the paper's ONNX runtime
  batches do.

The scorer is any :class:`PPMScorer`: a trained
:class:`repro.core.parameter_model.ParameterModel` or a portable-model
scorer from :mod:`repro.export`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, Sequence

import numpy as np

from repro.core.features import QueryFeatures
from repro.core.ppm import PricePerfModel
from repro.core.selection import SelectionObjective, elbow_point, select_on_curve
from repro.core.training import DEFAULT_N_GRID
from repro.engine.checks import check_int
from repro.engine.plan import LogicalPlan
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.core.autoexecutor import AutoExecutor

__all__ = ["PPMScorer", "Prediction", "PredictionService"]


class PPMScorer(Protocol):
    """Structural type for scorers: features in, fitted PPM out.

    Satisfied by a trained :class:`~repro.core.parameter_model
    .ParameterModel` and by the portable-model scorer
    :class:`~repro.export.runtime.PortablePPMScorer`.  ``predict_ppm``
    is row 0 of ``predict_ppm_batch``, so output ``i`` of a batch equals
    ``predict_ppm`` on row ``i``.
    """

    def predict_ppm(self, features: QueryFeatures) -> PricePerfModel: ...

    def predict_ppm_batch(
        self, features_matrix: np.ndarray
    ) -> list[PricePerfModel]: ...


@dataclass(frozen=True)
class Prediction:
    """One served executor-count decision.

    Attributes:
        executors: the selected executor budget.
        cached: whether the plan signature hit the memo cache.
        seconds: wall-clock selection overhead of this call (featurize +
            lookup, plus model inference and selection on a miss).
        estimated_runtime_seconds: the PPM's predicted run time at the
            selected count — the cost signal sharded-fleet routing
            (:class:`repro.fleet.routing.CostAwareRouter`) weighs queued
            work by.  ``None`` when the scorer predicts no curve.
    """

    executors: int
    cached: bool
    seconds: float
    estimated_runtime_seconds: float | None = None


class PredictionService:
    """Cached, measured executor-count selection for the live query path.

    Args:
        scorer: a :class:`PPMScorer` (one PPM per row, singly or batched).
        n_grid: candidate executor counts.
        objective: selection strategy over predicted curves (paper
            default: elbow).
        min_executors / max_executors: clamp on the selected count.
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving one
            ``prediction`` event per served decision (count, cache hit,
            measured seconds).  The service has no simulation clock, so
            events are stamped at time ``0.0`` — they account for the
            service, not the fleet timeline (the engines emit the
            on-clock ``query_predict`` events).
    """

    #: Bound on the per-query featurization memo, copied to
    #: ``self.features_memo_size``.  The memo is an LRU (a hit refreshes
    #: its entry, an insert past the bound evicts the least recently used
    #: query id): the streaming-mode O(1)-memory contract forbids any
    #: per-query state that outlives the bound, and an evicted entry only
    #: costs a re-featurization on its next arrival — never a wrong answer.
    FEATURES_MEMO_SIZE = 4096

    #: Bound on the plan-signature memo cache, copied to
    #: ``self.decision_cache_size``.  The cache is an LRU like the
    #: featurization memo: a hit refreshes its entry, an insert past the
    #: bound evicts the least recently used signature and counts one
    #: :attr:`evictions`.  An evicted signature only costs a re-inference
    #: on its next request.
    DECISION_CACHE_SIZE = 65536

    def __init__(
        self,
        scorer: PPMScorer,
        n_grid: np.ndarray = DEFAULT_N_GRID,
        objective: SelectionObjective = elbow_point,
        min_executors: int = 1,
        max_executors: int = 48,
        tracer: Tracer | None = None,
    ) -> None:
        check_int("min_executors", min_executors, 1)
        check_int("max_executors", max_executors, min_executors)
        self.scorer = scorer
        self.n_grid = np.asarray(n_grid)
        self.objective = objective
        self.min_executors = int(min_executors)
        self.max_executors = int(max_executors)
        self.tracer = tracer
        self.features_memo_size = self.FEATURES_MEMO_SIZE
        self.decision_cache_size = self.DECISION_CACHE_SIZE
        #: Model generation: bumped by :meth:`invalidate` (and so by
        #: :meth:`swap_scorer`).  Every memo-cache entry is tagged with
        #: the generation that produced it, so a decision can never be
        #: served from a model that is no longer behind the service.
        self.generation = 0
        # signature -> (generation, chosen count, predicted runtime); an
        # LRU (insertion order = recency) bounded by decision_cache_size.
        self._cache: dict[tuple[float, ...], tuple[int, int, float]] = {}
        #: Decision-cache entries dropped by the ``decision_cache_size``
        #: bound (reported by the serving layer's ``/metrics``).
        self.evictions = 0
        # Featurization memo for the fleet path, keyed like the engine's
        # compiled-plan memo: one optimized plan per query id, so the id
        # keys its feature vector and recurring arrivals skip the plan
        # walk.  The plan object rides along as an identity guard — if a
        # query id ever maps to a new plan, it is re-featurized.  An LRU
        # (insertion order = recency) bounded by features_memo_size; it
        # survives :meth:`invalidate` (features are model-independent).
        self._features_by_query: dict[str, tuple[object, QueryFeatures]] = {}
        self.hits = 0
        self.misses = 0
        self.total_seconds = 0.0

    @classmethod
    def from_autoexecutor(
        cls, system: AutoExecutor, **kwargs: Any
    ) -> "PredictionService":
        """Wrap a trained :class:`repro.core.autoexecutor.AutoExecutor`."""
        if system.model is None:
            raise RuntimeError("AutoExecutor is not trained yet")
        return cls(scorer=system.model, n_grid=system.n_grid, **kwargs)

    @staticmethod
    def signature(features: QueryFeatures) -> tuple[float, ...]:
        """The memo-cache key: the full compile-time feature vector.

        Two plans with identical Table-2 features get — by construction —
        identical predictions, so they are the same cache entry.
        ``values`` is a float64 array, so ``tolist`` yields the same
        Python floats as converting entry by entry, in one C call.
        """
        return tuple(features.values.tolist())

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def invalidate(self) -> None:
        """Drop every memoized decision and bump the model generation.

        Call this whenever the scorer's answers may have changed (a
        scorer swap does it for you).  The featurization memo survives:
        features are compile-time properties of the plan, independent of
        the model behind the service.
        """
        self.generation += 1
        self._cache.clear()

    def swap_scorer(self, scorer: PPMScorer) -> int:
        """Hot-swap the model behind the service.

        Atomic from a caller's view: the scorer is replaced and every
        cached decision invalidated, so the next decision — cached or
        not — comes from the new model.

        Returns:
            The new model generation.
        """
        self.scorer = scorer
        self.invalidate()
        return self.generation

    def mean_overhead_seconds(self) -> float:
        served = self.hits + self.misses
        return self.total_seconds / served if served else 0.0

    def _live(self, key: tuple[float, ...]) -> tuple[int, float] | None:
        """The current-generation decision for ``key``, or None.

        A live entry is refreshed as the most recently used.
        """
        entry = self._cache.get(key)
        if entry is None or entry[0] != self.generation:
            return None
        del self._cache[key]
        self._cache[key] = entry
        return entry[1], entry[2]

    def _remember(self, key: tuple[float, ...], decision: tuple[int, float]) -> None:
        """Cache a freshly scored decision, evicting past the bound."""
        cache = self._cache
        cache.pop(key, None)
        cache[key] = (self.generation, *decision)
        if len(cache) > self.decision_cache_size:
            del cache[next(iter(cache))]
            self.evictions += 1

    def lookup(self, features: QueryFeatures) -> Prediction | None:
        """Answer from the memo cache alone, or None on a miss.

        A hit is counted and returned exactly as :meth:`predict_batch`
        would return it (``cached=True``, ``seconds=0.0``).  A miss
        counts nothing: the caller is expected to score it through
        :meth:`predict_batch`, which counts it, so ``hits + misses``
        stays the number of decisions served.
        """
        decision = self._live(self.signature(features))
        if decision is None:
            return None
        self.hits += 1
        return Prediction(
            executors=decision[0],
            cached=True,
            seconds=0.0,
            estimated_runtime_seconds=decision[1],
        )

    def _featurize(
        self, plan_or_features: LogicalPlan | QueryFeatures
    ) -> QueryFeatures:
        if isinstance(plan_or_features, QueryFeatures):
            return plan_or_features
        return QueryFeatures.from_plan(plan_or_features)

    def _select(self, ppm: PricePerfModel) -> tuple[int, float]:
        """The chosen count and the predicted run time at that count."""
        return select_on_curve(
            ppm, self.n_grid, self.objective, self.min_executors, self.max_executors
        )

    def predict_batch(self, plans: Sequence) -> list[Prediction]:
        """Serve many decisions at once, batching uncached inference.

        All cache misses go through a single ``predict_ppm_batch`` call;
        the batch's wall-clock cost is split evenly across the misses.
        """
        start = time.perf_counter()
        featurized = [self._featurize(p) for p in plans]
        keys = [self.signature(f) for f in featurized]

        # Every row's decision is read from here, never back out of the
        # cache: a batch with more misses than the cache bound evicts
        # some of its own answers before they are handed out.
        decisions: dict[tuple[float, ...], tuple[int, float]] = {}
        miss_order: list[int] = []
        missed: set[tuple[float, ...]] = set()
        for i, key in enumerate(keys):
            if key in decisions or key in missed:
                continue
            decision = self._live(key)
            if decision is None:
                miss_order.append(i)
                missed.add(key)
            else:
                decisions[key] = decision

        if miss_order:
            matrix = np.stack([featurized[i].values for i in miss_order])
            ppms = self.scorer.predict_ppm_batch(matrix)
            for i, ppm in zip(miss_order, ppms):
                decision = decisions[keys[i]] = self._select(ppm)
                self._remember(keys[i], decision)

        elapsed = time.perf_counter() - start
        per_miss = elapsed / len(miss_order) if miss_order else 0.0
        out: list[Prediction] = []
        for key in keys:
            cached = key not in missed
            if cached:
                self.hits += 1
            else:
                self.misses += 1
                missed.discard(key)  # later repeats in the batch are hits
            chosen, runtime = decisions[key]
            out.append(
                Prediction(
                    executors=chosen,
                    cached=cached,
                    seconds=0.0 if cached else per_miss,
                    estimated_runtime_seconds=runtime,
                )
            )
        self.total_seconds += elapsed
        return out

    def allocate(self, query_id: str, plan: LogicalPlan) -> Prediction:
        """The fleet engine's allocator interface.

        The decision depends only on the optimized plan; the query id
        memoizes featurization so a recurring query pays the plan walk
        once and every later arrival is a pure signature lookup.  The
        memo lookup and any featurization stay inside the measured
        window, so ``Prediction.seconds`` keeps its "featurize + lookup"
        contract.  The memo is bounded by :attr:`FEATURES_MEMO_SIZE`.
        """
        start = time.perf_counter()
        memo = self._features_by_query
        entry = memo.pop(query_id, None)
        if entry is None or entry[0] is not plan:
            entry = (plan, self._featurize(plan))
        memo[query_id] = entry  # reinsert = most recently used
        while len(memo) > self.features_memo_size:
            memo.pop(next(iter(memo)))
        features = entry[1]
        key = self.signature(features)
        decision = self._live(key)
        cached = decision is not None
        if decision is None:
            self.misses += 1
            decision = self._select(self.scorer.predict_ppm(features))
            self._remember(key, decision)
        else:
            self.hits += 1
        chosen, runtime = decision
        elapsed = time.perf_counter() - start
        self.total_seconds += elapsed
        if self.tracer is not None:
            self.tracer.emit(
                (0.0, "prediction", -1, -1, None, chosen, cached, elapsed, runtime)
            )
        return Prediction(
            executors=chosen,
            cached=cached,
            seconds=elapsed,
            estimated_runtime_seconds=runtime,
        )

    # Bound methods proxy attribute reads to the function, so the fleet
    # drivers' decision annotations see this on ``service.allocate``.
    allocate.policy_name = "prediction"
