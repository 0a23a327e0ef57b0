"""Continual learning for the fleet: close prediction → outcome → retrain.

The paper trains the price-performance model offline and serves it
frozen, but its own input-size-change scenario (fig. 14; reproduced in
``benchmarks/test_fig14_input_size_change.py``) shows exactly how that
fails in production: input sizes grow, predictions drift, and the fleet
over- or under-provisions until someone retrains.  This module closes
the loop the ROADMAP names — the fleet already generates exactly the
(features, true runtime) pairs the training pipeline consumes:

- every finished query's outcome flows into a **bounded,
  seed-deterministic replay buffer** (:class:`ReplayBuffer`, reservoir
  sampling) through the fleet's :class:`~repro.fleet.engine.FeedbackSink`
  hook (:attr:`FleetConfig.feedback <repro.fleet.engine.FleetConfig>`);
- a **drift detector** (:class:`DriftDetector`) watches the rolling
  relative error between the predicted and observed run time and raises
  a ``drift_alarm`` when the windowed mean crosses its threshold;
- **retraining** runs the existing production pipeline
  (:func:`repro.core.training.build_training_dataset_from_logs` over the
  buffered plans + execution logs) on a drift- or count-triggered
  cadence, producing a candidate :class:`~repro.core.parameter_model
  .ParameterModel`;
- the candidate **shadow-scores** live traffic against the incumbent for
  a validation window — both models predict each finished query's run
  time at its granted budget, nobody's decisions change — and is
  **promoted** (hot-swapped behind the
  :class:`~repro.fleet.prediction.PredictionService`, with
  generation-tagged cache invalidation) only if it wins;
- every retraining pass is **billed**: a deterministic modeled
  executor-second cost per training point accumulates into
  :class:`~repro.fleet.metrics.AdaptiveStats` and is priced into
  :attr:`FleetMetrics.total_dollar_cost
  <repro.fleet.metrics.FleetMetrics>`, so adaptive-vs-frozen
  comparisons include what adaptation costs.

Determinism contract: the controller never reads the wall clock — every
event it emits carries the simulation-clock instant the feedback hook
fired at, and the retraining bill is modeled, not measured.  The only
randomness is the replay buffer's seeded reservoir; same seed + same
finish stream ⇒ byte-identical buffer contents, retrain points, and
promoted models, and a controller that never retrains serves
bit-identically to the frozen fleet (``tests/fleet/test_adaptive.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.features import QueryFeatures
from repro.core.training import build_training_dataset_from_logs
from repro.engine.checks import check_int, check_range
from repro.engine.plan import LogicalPlan
from repro.fleet.metrics import AdaptiveStats, QueryRecord
from repro.fleet.prediction import PPMScorer, PredictionService
from repro.ml.forest import RandomForestRegressor
from repro.obs.trace import Tracer
from repro.sparklens.log import ExecutionLog

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "DriftDetector",
    "ReplayBuffer",
    "ReplayPoint",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for the continual-learning loop.

    Attributes:
        seed: the replay buffer's reservoir seed — the loop's only
            randomness.
        buffer_capacity: replay-buffer bound (points kept for
            retraining; reservoir sampling keeps a uniform sample of the
            whole finish stream once it overflows).
        min_retrain_points: retraining never runs on fewer buffered
            points than this, whatever triggered it — a model fitted on
            a handful of queries would be noise.
        retrain_interval: count cadence — retrain after this many
            observations since the last retrain (``None``, the default,
            retrains on drift alarms only).
        drift_window: observations in the drift detector's rolling
            window.
        drift_threshold: windowed mean relative error that raises a
            ``drift_alarm`` (``|predicted − observed| / observed``).
        shadow_window: finished queries a retrained candidate
            shadow-scores before the promote-or-reject decision.
        promote_margin: promote when ``candidate_error ≤ margin ×
            incumbent_error`` over the shadow window (1.0 = candidate
            must be at least as good).
        family: PPM family retraining fits (same choices as
            :meth:`repro.core.training.TrainingDataset
            .fit_parameter_model`).
        n_estimators: forest size for retrained models (the paper's 100
            is the offline default; online retraining may trade a few
            trees for cadence).
        retrain_cost_executor_seconds_per_point: the modeled
            executor-seconds one training point costs (Sparklens
            augmentation + curve fits + forest training, expressed as
            cluster work).  Deterministic by construction — the dollar
            gates in the adaptive bench must not depend on host speed.
    """

    seed: int = 0
    buffer_capacity: int = 512
    min_retrain_points: int = 24
    retrain_interval: int | None = None
    drift_window: int = 32
    drift_threshold: float = 0.75
    shadow_window: int = 24
    promote_margin: float = 1.0
    family: str = "power_law"
    n_estimators: int = 100
    retrain_cost_executor_seconds_per_point: float = 0.5

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0)
        check_int("buffer_capacity", self.buffer_capacity, 1)
        check_int("min_retrain_points", self.min_retrain_points, 1)
        if self.retrain_interval is not None:
            check_int("retrain_interval", self.retrain_interval, 1)
        check_int("drift_window", self.drift_window, 1)
        check_range("drift_threshold", self.drift_threshold, 0.0, open_low=True)
        check_int("shadow_window", self.shadow_window, 1)
        check_range("promote_margin", self.promote_margin, 0.0, open_low=True)
        check_int("n_estimators", self.n_estimators, 1)
        check_range(
            "retrain_cost_executor_seconds_per_point",
            self.retrain_cost_executor_seconds_per_point,
            0.0,
        )


@dataclass(frozen=True)
class ReplayPoint:
    """One observed outcome, held for retraining.

    The pair the training pipeline consumes is ``(plan, log)``; the
    rest is the loop's own bookkeeping (drift scoring, diagnostics).
    """

    index: int
    query_id: str
    features: QueryFeatures
    plan: LogicalPlan
    log: ExecutionLog
    observed_runtime_seconds: float
    predicted_runtime_seconds: float | None


class ReplayBuffer:
    """Bounded, seed-deterministic reservoir of training points.

    Algorithm-R reservoir sampling: the first ``capacity`` points fill
    the buffer; the *n*-th point thereafter replaces a uniformly chosen
    slot with probability ``capacity / n``, so the buffer is always a
    uniform sample of everything observed — old-regime points decay
    naturally as a shifted workload streams in, without the cliff of a
    plain ring buffer.  All randomness comes from one seeded generator:
    the same seed and the same add stream reproduce the buffer byte for
    byte.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._points: list[ReplayPoint] = []
        self.observed = 0

    def add(self, point: ReplayPoint) -> bool:
        """Offer one point; returns whether the buffer retained it."""
        self.observed += 1
        if len(self._points) < self.capacity:
            self._points.append(point)
            return True
        slot = int(self._rng.integers(0, self.observed))
        if slot < self.capacity:
            self._points[slot] = point
            return True
        return False

    @property
    def points(self) -> list[ReplayPoint]:
        """The retained points (slot order — stable for determinism)."""
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)


class DriftDetector:
    """Rolling-window alarm on relative prediction error.

    Folds each observation's ``|predicted − observed| / observed`` into
    a window of the last ``window`` errors; once the window is full and
    its mean exceeds ``threshold``, :meth:`observe` returns ``True`` and
    the window resets — the detector re-fills before it can alarm
    again, so one sustained shift raises one alarm per window, not one
    per query.
    """

    def __init__(self, window: int, threshold: float) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        self.window = int(window)
        self.threshold = float(threshold)
        self._errors: deque[float] = deque(maxlen=self.window)
        self.alarms = 0
        self.last_mean = 0.0

    def observe(self, relative_error: float) -> bool:
        """Fold one error in; returns ``True`` when this one alarms."""
        self._errors.append(float(relative_error))
        if len(self._errors) < self.window:
            return False
        self.last_mean = sum(self._errors) / len(self._errors)
        if self.last_mean <= self.threshold:
            return False
        self.alarms += 1
        self._errors.clear()
        return True


class _ShadowTrial:
    """One candidate model's validation window on live traffic.

    Both models predict each finished query's run time at the budget it
    actually ran on; nobody's decisions change while the trial runs.
    Errors accumulate as mean relative error over the window.
    """

    __slots__ = (
        "incumbent",
        "candidate",
        "window",
        "scored",
        "incumbent_error_sum",
        "candidate_error_sum",
    )

    def __init__(
        self, incumbent: PPMScorer, candidate: PPMScorer, window: int
    ) -> None:
        self.incumbent = incumbent
        self.candidate = candidate
        self.window = int(window)
        self.scored = 0
        self.incumbent_error_sum = 0.0
        self.candidate_error_sum = 0.0

    @staticmethod
    def _predict(scorer: PPMScorer, features: QueryFeatures, n: int) -> float:
        return scorer.predict_ppm(features).predict(float(n))

    def score(self, features: QueryFeatures, executors: int, observed: float) -> bool:
        """Score one finished query; returns ``True`` when the window
        is complete."""
        if observed > 0.0:
            incumbent = self._predict(self.incumbent, features, executors)
            candidate = self._predict(self.candidate, features, executors)
            self.incumbent_error_sum += abs(incumbent - observed) / observed
            self.candidate_error_sum += abs(candidate - observed) / observed
            self.scored += 1
        return self.scored >= self.window

    @property
    def incumbent_error(self) -> float:
        return self.incumbent_error_sum / self.scored if self.scored else 0.0

    @property
    def candidate_error(self) -> float:
        return self.candidate_error_sum / self.scored if self.scored else 0.0


class AdaptiveController:
    """The continual-learning loop behind a :class:`PredictionService`.

    Attach as :attr:`FleetConfig.feedback
    <repro.fleet.engine.FleetConfig>` (which turns on execution logs:
    the retraining pipeline consumes each finished query's log) while
    the same service's :meth:`~repro.fleet.prediction
    .PredictionService.allocate` serves as the fleet's allocator::

        service = PredictionService.from_autoexecutor(system)
        controller = AdaptiveController(service, AdaptiveConfig(seed=7))
        config = FleetConfig(feedback=controller)
        engine = FleetEngine(
            workload, capacity=64, allocator=service.allocate, config=config
        )

    Lifecycle per finished query (:meth:`observe`, called by the fleet
    on the simulation clock): buffer the outcome → fold the prediction
    error into the drift detector (``drift_alarm`` on a threshold
    crossing) → advance any running shadow trial (promote or reject at
    the end of its window) → otherwise retrain if a drift alarm is
    pending or the count cadence is due (``model_retrain``; the new
    model enters shadow).  Promotion hot-swaps the scorer
    (``model_promote``), bumping the service's generation so every
    memoized decision is invalidated at once.

    Args:
        service: the live prediction service to retrain behind.
        config: loop knobs (:class:`AdaptiveConfig`).
        tracer: optional tracer for the loop's three event kinds —
            typically the same tracer the fleet engine uses, so alarms
            and swaps interleave with query lifecycle events on one
            timeline.
    """

    def __init__(
        self,
        service: PredictionService,
        config: AdaptiveConfig = AdaptiveConfig(),
        tracer: Tracer | None = None,
    ) -> None:
        self.service = service
        self.config = config
        self.tracer = tracer
        self.buffer = ReplayBuffer(config.buffer_capacity, seed=config.seed)
        self.drift = DriftDetector(config.drift_window, config.drift_threshold)
        self.observations = 0
        self.retrains = 0
        self.promotions = 0
        self.rejections = 0
        self.retrain_points = 0
        self.retrain_executor_seconds = 0.0
        self._since_retrain = 0
        self._drift_pending = False
        self._shadow: _ShadowTrial | None = None

    # --- the FeedbackSink hook -------------------------------------------
    def observe(
        self,
        now: float,
        record: QueryRecord,
        predicted_runtime_seconds: float | None,
        plan: LogicalPlan,
    ) -> None:
        """Fold one finished query into the loop (fleet-called)."""
        log = record.execution_log
        # A serve with a feedback sink always records execution logs.
        assert log is not None
        self.observations += 1
        self._since_retrain += 1
        features = QueryFeatures.from_plan(plan)
        observed = record.run_seconds
        self.buffer.add(
            ReplayPoint(
                index=self.observations - 1,
                query_id=record.query_id,
                features=features,
                plan=plan,
                log=log,
                observed_runtime_seconds=observed,
                predicted_runtime_seconds=predicted_runtime_seconds,
            )
        )
        if predicted_runtime_seconds is not None and observed > 0.0:
            error = abs(predicted_runtime_seconds - observed) / observed
            if self.drift.observe(error):
                self._drift_pending = True
                if self.tracer is not None:
                    self.tracer.emit(
                        (
                            now,
                            "drift_alarm",
                            -1,
                            -1,
                            None,
                            self.drift.last_mean,
                            self.config.drift_threshold,
                            self.config.drift_window,
                            self.observations,
                        )
                    )
        shadow = self._shadow
        if shadow is not None:
            if shadow.score(features, record.executors_granted, observed):
                self._resolve_shadow(now)
        elif self._should_retrain():
            self._retrain(now)

    # --- retraining -------------------------------------------------------
    def _should_retrain(self) -> bool:
        if len(self.buffer) < self.config.min_retrain_points:
            return False
        if self._drift_pending:
            return True
        interval = self.config.retrain_interval
        return interval is not None and self._since_retrain >= interval

    def _retrain(self, now: float) -> None:
        """Fit a candidate from the buffer and start its shadow trial."""
        points = self.buffer.points
        dataset = build_training_dataset_from_logs(
            [p.plan for p in points], [p.log for p in points]
        )
        candidate = dataset.fit_parameter_model(
            self.config.family,
            estimator=RandomForestRegressor(
                n_estimators=self.config.n_estimators, random_state=0
            ),
        )
        self.retrains += 1
        self.retrain_points += len(points)
        cost = (
            len(points) * self.config.retrain_cost_executor_seconds_per_point
        )
        self.retrain_executor_seconds += cost
        triggered_by_drift = self._drift_pending
        self._since_retrain = 0
        self._drift_pending = False
        self._shadow = _ShadowTrial(
            incumbent=self.service.scorer,
            candidate=candidate,
            window=self.config.shadow_window,
        )
        if self.tracer is not None:
            self.tracer.emit(
                (
                    now,
                    "model_retrain",
                    -1,
                    -1,
                    None,
                    len(points),
                    cost,
                    "drift" if triggered_by_drift else "interval",
                    self.retrains,
                )
            )

    def _resolve_shadow(self, now: float) -> None:
        """Promote or reject the candidate at the end of its window."""
        trial = self._shadow
        assert trial is not None
        self._shadow = None
        incumbent_error = trial.incumbent_error
        candidate_error = trial.candidate_error
        if candidate_error <= self.config.promote_margin * incumbent_error:
            generation = self.service.swap_scorer(trial.candidate)
            self.promotions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    (
                        now,
                        "model_promote",
                        -1,
                        -1,
                        None,
                        generation,
                        incumbent_error,
                        candidate_error,
                        trial.scored,
                    )
                )
        else:
            self.rejections += 1

    # --- reporting --------------------------------------------------------
    def stats_snapshot(self) -> AdaptiveStats:
        """The ledger the fleet drivers attach to their metrics."""
        return AdaptiveStats(
            observations=self.observations,
            drift_alarms=self.drift.alarms,
            retrains=self.retrains,
            promotions=self.promotions,
            rejections=self.rejections,
            model_generation=self.service.generation,
            buffer_size=len(self.buffer),
            retrain_points=self.retrain_points,
            retrain_executor_seconds=self.retrain_executor_seconds,
            last_drift_error=self.drift.last_mean,
        )
