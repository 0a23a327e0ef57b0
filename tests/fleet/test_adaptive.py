"""The continual-learning loop: seed determinism, drift semantics, and
zero-retrain parity with the frozen fleet.

The module's determinism contract (``repro.fleet.adaptive``): the replay
buffer's seeded reservoir is the loop's only randomness, so the same
seed and the same finish stream reproduce the buffer, the retrain
points, and the promoted models byte for byte — and a controller that
never retrains serves bit-identically to a frozen fleet (same pattern
as ``tests/engine/test_fault_parity.py``'s inert ``FaultPlan``).

Cross-run comparisons disable ``charge_prediction_overhead`` and zero
``QueryRecord.prediction_seconds``: selection overhead is *measured*
wall-clock by design, the one intentionally nondeterministic field.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.autoexecutor import AutoExecutor
from repro.core.ppm import PowerLawPPM
from repro.fleet.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    DriftDetector,
    ReplayBuffer,
    ReplayPoint,
)
from repro.fleet.arrivals import poisson_arrivals
from repro.fleet.cluster import ShardedFleet
from repro.fleet.engine import FleetConfig, FleetEngine, static_allocator
from repro.fleet.parallel import ProcessShardExecutor
from repro.fleet.prediction import PredictionService
from repro.obs.trace import EVENT_KINDS, RingBufferTracer
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")

#: Aggressive loop knobs for tests: small windows so a short serve can
#: drift, retrain, and promote; a small forest so retraining is cheap.
FAST = dict(
    buffer_capacity=32,
    min_retrain_points=8,
    drift_window=8,
    drift_threshold=0.3,
    shadow_window=6,
    n_estimators=8,
)


@pytest.fixture(scope="module")
def trained():
    """An AutoExecutor trained on the pre-shift regime (SF=10)."""
    return AutoExecutor(family="power_law").train(
        Workload(scale_factor=10, query_ids=QIDS)
    )


@pytest.fixture(scope="module")
def shifted():
    """The post-shift regime the frozen model mispredicts (SF=100)."""
    return Workload(scale_factor=100, query_ids=QIDS)


def _point(i: int) -> ReplayPoint:
    """A buffer-only point: the reservoir never reads the payload."""
    return ReplayPoint(
        index=i,
        query_id=f"q{i}",
        features=None,
        plan=None,
        log=None,
        observed_runtime_seconds=1.0,
        predicted_runtime_seconds=None,
    )


def _retained(buffer: ReplayBuffer) -> list[int]:
    return [p.index for p in buffer.points]


def stable_records(metrics):
    """Records with the wall-clock measurement field zeroed."""
    return [replace(r, prediction_seconds=0.0) for r in metrics.records]


def adaptive_serve(system, workload, arrivals, seed=0, tracer=None, **overrides):
    """One adaptive serve; returns (metrics, controller, service)."""
    knobs = {**FAST, **overrides}
    service = PredictionService.from_autoexecutor(system)
    controller = AdaptiveController(
        service, AdaptiveConfig(seed=seed, **knobs), tracer=tracer
    )
    config = FleetConfig(
        record_logs=True, feedback=controller, charge_prediction_overhead=False
    )
    metrics = FleetEngine(
        workload, capacity=64, allocator=service.allocate, config=config
    ).serve(arrivals)
    return metrics, controller, service


class TestReplayBuffer:
    def test_fills_in_order_below_capacity(self):
        buffer = ReplayBuffer(capacity=8, seed=0)
        for i in range(5):
            assert buffer.add(_point(i)) is True
        assert _retained(buffer) == [0, 1, 2, 3, 4]
        assert len(buffer) == 5
        assert buffer.observed == 5

    def test_bounded_and_counts_everything(self):
        buffer = ReplayBuffer(capacity=16, seed=0)
        for i in range(200):
            buffer.add(_point(i))
        assert len(buffer) == 16
        assert buffer.observed == 200
        # Reservoir sampling keeps late-stream points: the buffer is a
        # uniform sample of all 200, not the first 16.
        assert max(_retained(buffer)) >= 16

    def test_same_seed_same_stream_byte_identical(self):
        a, b = ReplayBuffer(16, seed=3), ReplayBuffer(16, seed=3)
        for i in range(200):
            a.add(_point(i))
            b.add(_point(i))
        assert _retained(a) == _retained(b)

    def test_different_seeds_diverge(self):
        a, b = ReplayBuffer(16, seed=0), ReplayBuffer(16, seed=1)
        for i in range(200):
            a.add(_point(i))
            b.add(_point(i))
        assert _retained(a) != _retained(b)

    def test_points_is_a_copy(self):
        buffer = ReplayBuffer(4, seed=0)
        buffer.add(_point(0))
        buffer.points.clear()
        assert len(buffer) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)


class TestDriftDetector:
    def test_no_alarm_until_window_full(self):
        drift = DriftDetector(window=4, threshold=0.5)
        assert [drift.observe(2.0) for _ in range(3)] == [False] * 3
        assert drift.observe(2.0) is True
        assert drift.alarms == 1

    def test_window_resets_after_alarm(self):
        drift = DriftDetector(window=4, threshold=0.5)
        for _ in range(4):
            drift.observe(2.0)
        assert drift.alarms == 1
        # The window cleared: three more high errors cannot re-alarm yet.
        assert [drift.observe(2.0) for _ in range(3)] == [False] * 3
        assert drift.observe(2.0) is True
        assert drift.alarms == 2

    def test_no_alarm_below_threshold(self):
        drift = DriftDetector(window=4, threshold=0.5)
        assert not any(drift.observe(0.4) for _ in range(40))
        assert drift.alarms == 0
        assert drift.last_mean == pytest.approx(0.4)

    def test_one_spike_in_a_quiet_window_stays_quiet(self):
        drift = DriftDetector(window=8, threshold=0.5)
        errors = [0.1] * 7 + [2.0]  # mean 0.3375
        assert not any(drift.observe(e) for e in errors)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(window=0, threshold=0.5)
        with pytest.raises(ValueError):
            DriftDetector(window=4, threshold=0.0)


class TestAdaptiveConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"buffer_capacity": 0},
            {"min_retrain_points": 0},
            {"retrain_interval": 0},
            {"drift_window": 0},
            {"drift_threshold": 0.0},
            {"shadow_window": 0},
            {"promote_margin": 0.0},
            {"n_estimators": 0},
            {"retrain_cost_executor_seconds_per_point": -0.1},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            AdaptiveConfig(**bad)


class TestAdaptiveServe:
    """The loop end to end: a frozen SF=10 model serving SF=100 traffic."""

    def test_shift_drifts_retrains_and_promotes(self, trained, shifted):
        tracer = RingBufferTracer()
        arrivals = poisson_arrivals(QIDS, n_queries=60, rate_qps=0.5, seed=5)
        metrics, controller, service = adaptive_serve(
            trained, shifted, arrivals, seed=0, tracer=tracer
        )
        stats = metrics.adaptive
        assert stats is not None
        assert stats.observations == 60
        assert stats.drift_alarms >= 1
        assert stats.retrains >= 1
        assert stats.model_generation == service.generation
        assert stats.retrains == stats.promotions + stats.rejections + (
            1 if controller._shadow is not None else 0
        )
        # The retraining bill is deterministic, modeled, and priced in.
        per_point = controller.config.retrain_cost_executor_seconds_per_point
        assert stats.retrain_executor_seconds == stats.retrain_points * per_point
        summary = metrics.summary()
        assert summary["model_retrains"] == float(stats.retrains)
        assert summary["retrain_dollar_cost"] > 0.0
        assert metrics.retrain_executor_seconds == stats.retrain_executor_seconds
        # The loop's events ride the fleet timeline, inside the taxonomy.
        kinds = [e.kind for e in tracer.events]
        assert set(kinds) <= EVENT_KINDS.keys()
        assert "drift_alarm" in kinds
        assert "model_retrain" in kinds
        times = [e.time for e in tracer.events]
        assert times == sorted(times)

    def test_same_seed_byte_identical(self, trained, shifted):
        arrivals = poisson_arrivals(QIDS, n_queries=60, rate_qps=0.5, seed=5)
        first = adaptive_serve(trained, shifted, arrivals, seed=7)
        second = adaptive_serve(trained, shifted, arrivals, seed=7)
        m1, c1, s1 = first
        m2, c2, s2 = second
        assert stable_records(m1) == stable_records(m2)
        assert _retained(c1.buffer) == _retained(c2.buffer)
        assert [p.query_id for p in c1.buffer.points] == [
            p.query_id for p in c2.buffer.points
        ]
        assert c1.stats_snapshot() == c2.stats_snapshot()
        assert s1.generation == s2.generation
        # The promoted models are the same model: identical curves on
        # every buffered feature vector.
        grid = np.array([2, 8, 32])
        for p1, p2 in zip(c1.buffer.points, c2.buffer.points):
            curve1 = s1.scorer.predict_ppm(p1.features).predict_curve(grid)
            curve2 = s2.scorer.predict_ppm(p2.features).predict_curve(grid)
            assert np.array_equal(np.asarray(curve1), np.asarray(curve2))

    def test_different_seeds_diverge(self, trained, shifted):
        arrivals = poisson_arrivals(QIDS, n_queries=60, rate_qps=0.5, seed=5)
        _, c1, _ = adaptive_serve(trained, shifted, arrivals, seed=0)
        _, c2, _ = adaptive_serve(trained, shifted, arrivals, seed=1)
        assert _retained(c1.buffer) != _retained(c2.buffer)

    def test_feedback_alone_records_logs_and_retrains(self, trained, shifted):
        # No record_logs=True: the feedback sink turns the logs on.
        service = PredictionService.from_autoexecutor(trained)
        controller = AdaptiveController(service, AdaptiveConfig(**FAST))
        arrivals = poisson_arrivals(QIDS, n_queries=30, rate_qps=0.5, seed=5)
        metrics = FleetEngine(
            shifted,
            capacity=64,
            allocator=service.allocate,
            config=FleetConfig(feedback=controller),
        ).serve(arrivals)
        assert controller.observations == 30
        assert controller.retrains >= 1
        assert all(r.execution_log is not None for r in metrics.records)

    def test_process_shard_executor_rejects_feedback(self, shifted):
        class FixedScorer:
            def predict_ppm(self, features):
                return PowerLawPPM(a=-0.8, b=400.0, m=10.0)

            def predict_ppm_batch(self, matrix):
                return [self.predict_ppm(row) for row in matrix]

        controller = AdaptiveController(PredictionService(FixedScorer()))
        with pytest.raises(ValueError, match="feedback"):
            ProcessShardExecutor(
                shifted,
                [16],
                static_allocator(4),
                config=FleetConfig(record_logs=True, feedback=controller),
            )


class TestZeroRetrainParity:
    """A controller that never retrains is invisible: bit-identical
    records, skylines, and (frozen-key) summaries versus no feedback
    at all — the adaptive analogue of the inert-``FaultPlan`` parity."""

    #: Thresholds no finite serve can cross: the loop observes
    #: everything and changes nothing.
    INERT = dict(drift_threshold=1e9, min_retrain_points=10**6)

    def test_fleet_engine_bit_identical(self, trained, shifted):
        arrivals = poisson_arrivals(QIDS, n_queries=40, rate_qps=0.5, seed=3)
        config = FleetConfig(record_logs=True, charge_prediction_overhead=False)

        frozen = PredictionService.from_autoexecutor(trained)
        reference = FleetEngine(
            shifted, capacity=64, allocator=frozen.allocate, config=config
        ).serve(arrivals)

        service = PredictionService.from_autoexecutor(trained)
        controller = AdaptiveController(service, AdaptiveConfig(**self.INERT))
        candidate = FleetEngine(
            shifted,
            capacity=64,
            allocator=service.allocate,
            config=replace(config, feedback=controller),
        ).serve(arrivals)

        assert stable_records(candidate) == stable_records(reference)
        assert candidate.pool_skyline.points == reference.pool_skyline.points
        ref_summary, candidate_summary = reference.summary(), candidate.summary()
        # The frozen key set is bit-identical; the candidate only *adds*
        # the continual-learning keys, all reporting an idle loop.
        assert {k: candidate_summary[k] for k in ref_summary} == ref_summary
        assert candidate.total_dollar_cost == reference.total_dollar_cost
        assert controller.observations == 40
        assert controller.retrains == 0
        assert service.generation == 0
        assert candidate.adaptive is not None
        assert candidate.adaptive.retrain_executor_seconds == 0.0

    def test_sharded_fleet_bit_identical(self, trained, shifted):
        arrivals = poisson_arrivals(QIDS, n_queries=40, rate_qps=1.0, seed=11)
        # The reference does not even record logs: capturing them for
        # the feedback hook must not perturb the serve either.
        frozen = PredictionService.from_autoexecutor(trained)
        reference = ShardedFleet(
            shifted,
            [48, 48],
            frozen.allocate,
            config=FleetConfig(charge_prediction_overhead=False),
        ).serve(arrivals)

        service = PredictionService.from_autoexecutor(trained)
        controller = AdaptiveController(service, AdaptiveConfig(**self.INERT))
        candidate = ShardedFleet(
            shifted,
            [48, 48],
            service.allocate,
            config=FleetConfig(
                record_logs=True,
                feedback=controller,
                charge_prediction_overhead=False,
            ),
        ).serve(arrivals)

        assert stable_records(candidate) == stable_records(reference)
        for cand_pool, ref_pool in zip(candidate.pools, reference.pools):
            assert cand_pool.pool_skyline.points == ref_pool.pool_skyline.points
            # The ledger attaches once, at the cluster level — never per
            # pool, where N copies would multiply the retraining bill.
            assert cand_pool.adaptive is None
        assert candidate.adaptive is not None
        ref_summary, candidate_summary = reference.summary(), candidate.summary()
        assert {k: candidate_summary[k] for k in ref_summary} == ref_summary
        assert controller.observations == 40
        assert controller.retrains == 0
