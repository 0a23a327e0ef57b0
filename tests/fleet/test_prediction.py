"""Prediction-service tests: memo cache, batching, portable runtime."""

import numpy as np
import pytest

from repro.core.features import FEATURE_NAMES, QueryFeatures
from repro.core.ppm import PowerLawPPM
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.fleet.prediction import PredictionService
from repro.workloads.generator import Workload


class CountingScorer:
    """Fixed-curve scorer that counts scored rows."""

    def __init__(self):
        self.calls = 0

    def predict_ppm(self, features):
        self.calls += 1
        return PowerLawPPM(a=-0.8, b=400.0, m=10.0)

    def predict_ppm_batch(self, matrix):
        return [self.predict_ppm(QueryFeatures(values=row)) for row in matrix]


def features(seed: float) -> QueryFeatures:
    values = np.full(len(FEATURE_NAMES), seed, dtype=float)
    return QueryFeatures(values=values)


class TestMemoCache:
    def test_hit_and_miss_counts(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        f1, f2 = features(1.0), features(2.0)
        service.predict_batch([f1])
        service.predict_batch([f2])
        service.predict_batch([f1])
        service.predict_batch([f1])
        assert service.misses == 2
        assert service.hits == 2
        assert service.cache_size == 2
        assert scorer.calls == 2  # inference only on misses

    def test_cached_flag_and_overhead(self):
        service = PredictionService(CountingScorer())
        first = service.predict_batch([features(1.0)])[0]
        second = service.predict_batch([features(1.0)])[0]
        assert not first.cached
        assert second.cached
        assert first.seconds >= 0.0
        assert service.mean_overhead_seconds() >= 0.0

    def test_identical_plan_identical_prediction(self):
        """Two independent builds of the same query featurize identically,
        so the second is a cache hit with the same executor count."""
        w1 = Workload(scale_factor=50, query_ids=("q3",))
        w2 = Workload(scale_factor=50, query_ids=("q3",))
        service = PredictionService(CountingScorer())
        a = service.predict_batch([w1.optimized_plan("q3")])[0]
        b = service.predict_batch([w2.optimized_plan("q3")])[0]
        assert a.executors == b.executors
        assert not a.cached
        assert b.cached

    def test_signature_is_the_float_feature_vector(self):
        rng = np.random.default_rng(3)
        f = QueryFeatures(values=rng.random(len(FEATURE_NAMES)) * 1e9)
        key = PredictionService.signature(f)
        assert key == tuple(float(v) for v in f.values)
        assert all(type(v) is float for v in key)

    def test_clamps_to_range(self):
        # The fixed curve's elbow would land mid-grid; a tight clamp wins.
        service = PredictionService(
            CountingScorer(), min_executors=3, max_executors=3
        )
        assert service.predict_batch([features(1.0)])[0].executors == 3

    def test_invalid_clamp_rejected(self):
        with pytest.raises(ValueError):
            PredictionService(CountingScorer(), min_executors=0)
        with pytest.raises(ValueError):
            PredictionService(
                CountingScorer(), min_executors=8, max_executors=4
            )

    @pytest.mark.parametrize(
        "bounds",
        [
            {"min_executors": 1.5},
            {"max_executors": 3.7},
            {"min_executors": True},
            {"max_executors": 8.0},
        ],
    )
    def test_non_integer_clamp_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be an integer"):
            PredictionService(CountingScorer(), **bounds)


class TestAllocateFeaturizationMemo:
    def test_recurring_query_id_skips_plan_walk(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        workload = Workload(scale_factor=10, query_ids=("q1", "q2"))
        plan = workload.optimized_plan("q1")

        first = service.allocate("q1", plan)
        second = service.allocate("q1", plan)
        assert scorer.calls == 1  # one inference, then signature hits
        assert first.executors == second.executors
        assert second.cached is True
        assert "q1" in service._features_by_query

    def test_changed_plan_for_same_id_is_refeaturized(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        small = Workload(scale_factor=10, query_ids=("q1",))
        big = Workload(scale_factor=100, query_ids=("q1",))

        service.allocate("q1", small.optimized_plan("q1"))
        pred = service.allocate("q1", big.optimized_plan("q1"))
        # the identity guard must notice the new plan, not serve stale
        # features: the bigger plan has a different signature => a miss
        assert pred.cached is False
        assert scorer.calls == 2
        assert service._features_by_query["q1"][0] is big.optimized_plan("q1")

    def test_allocate_matches_direct_predict(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        workload = Workload(scale_factor=10, query_ids=("q1", "q2"))
        via_allocate = service.allocate("q2", workload.optimized_plan("q2"))
        via_batch = PredictionService(CountingScorer()).predict_batch(
            [workload.optimized_plan("q2")]
        )[0]
        assert via_allocate.executors == via_batch.executors


class TestGenerationAndSwap:
    """The stale-model fix: every cached decision is generation-tagged,
    and a scorer swap invalidates the lot atomically."""

    def test_invalidate_bumps_generation_and_clears_cache(self):
        service = PredictionService(CountingScorer())
        service.predict_batch([features(1.0)])
        assert service.generation == 0
        assert service.cache_size == 1
        service.invalidate()
        assert service.generation == 1
        assert service.cache_size == 0

    def test_invalidate_keeps_featurization_memo(self):
        # Features are compile-time plan properties, model-independent:
        # a model swap must not force recurring queries to re-walk plans.
        service = PredictionService(CountingScorer())
        workload = Workload(scale_factor=10, query_ids=("q1",))
        service.allocate("q1", workload.optimized_plan("q1"))
        service.invalidate()
        assert len(service._features_by_query) == 1

    def test_stale_generation_entry_is_a_miss(self):
        # Belt and braces: even an entry that somehow survived the clear
        # is dead, because its generation tag no longer matches.
        scorer = CountingScorer()
        service = PredictionService(scorer)
        service.predict_batch([features(1.0)])
        key, entry = next(iter(service._cache.items()))
        service.invalidate()
        service._cache[key] = entry  # resurrect a generation-0 entry
        pred = service.predict_batch([features(1.0)])[0]
        assert pred.cached is False
        assert scorer.calls == 2
        assert service._cache[key][0] == 1  # re-tagged at the new generation

    def test_swap_scorer_serves_the_new_model(self):
        class SlowerScorer(CountingScorer):
            def predict_ppm(self, features):
                self.calls += 1
                return PowerLawPPM(a=-0.8, b=800.0, m=20.0)

        service = PredictionService(CountingScorer())
        before = service.predict_batch([features(1.0)])[0]
        generation = service.swap_scorer(SlowerScorer())
        assert generation == 1
        assert service.generation == 1
        after = service.predict_batch([features(1.0)])[0]
        # Without invalidation this would be a cache hit serving the old
        # model's decision — the exact stale-model bug.
        assert after.cached is False
        assert (
            after.estimated_runtime_seconds != before.estimated_runtime_seconds
        )


class TestFeaturesMemoLRU:
    """The unbounded-memo fix: ``_features_by_query`` is a bounded LRU."""

    def test_bound_enforced_with_lru_eviction(self):
        service = PredictionService(CountingScorer())
        service.features_memo_size = 4
        workload = Workload(scale_factor=10, query_ids=("q1",))
        plan = workload.optimized_plan("q1")
        for i in range(12):
            service.allocate(f"id{i}", plan)
        assert len(service._features_by_query) == 4
        assert list(service._features_by_query) == ["id8", "id9", "id10", "id11"]

    def test_hit_refreshes_recency(self):
        service = PredictionService(CountingScorer())
        service.features_memo_size = 2
        workload = Workload(scale_factor=10, query_ids=("q1",))
        plan = workload.optimized_plan("q1")
        service.allocate("a", plan)
        service.allocate("b", plan)
        service.allocate("a", plan)  # refresh: "a" is now most recent
        service.allocate("c", plan)  # evicts "b", not "a"
        assert list(service._features_by_query) == ["a", "c"]

    def test_eviction_only_costs_refeaturization(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        service.features_memo_size = 1
        workload = Workload(scale_factor=10, query_ids=("q1",))
        plan = workload.optimized_plan("q1")
        first = service.allocate("a", plan)
        service.allocate("b", plan)  # evicts "a"
        again = service.allocate("a", plan)  # re-featurizes, same signature
        assert again.executors == first.executors
        assert again.cached is True
        assert scorer.calls == 1  # the signature cache still absorbed it
        assert service.misses == 1
        assert service.hits == 2

    def test_validation(self):
        # The bound is a class constant, not a constructor option.
        service = PredictionService(CountingScorer())
        assert service.features_memo_size == PredictionService.FEATURES_MEMO_SIZE
        with pytest.raises(TypeError):
            PredictionService(CountingScorer(), features_memo_size=0)


class TestLookup:
    """``lookup`` answers from the memo cache alone, for the HTTP fast
    path; a miss is left to ``predict_batch`` to score and count."""

    def test_hit_matches_a_batch_hit(self):
        service = PredictionService(CountingScorer())
        service.predict_batch([features(1.0)])
        hit = service.lookup(features(1.0))
        batch_hit = service.predict_batch([features(1.0)])[0]
        assert hit == batch_hit
        assert hit is not None and hit.cached and hit.seconds == 0.0
        assert (service.hits, service.misses) == (2, 1)

    def test_miss_counts_nothing(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        assert service.lookup(features(1.0)) is None
        assert (service.hits, service.misses) == (0, 0)
        assert scorer.calls == 0
        assert service.cache_size == 0

    def test_stale_generation_entry_is_not_a_hit(self):
        service = PredictionService(CountingScorer())
        service.predict_batch([features(1.0)])
        key, entry = next(iter(service._cache.items()))
        service.invalidate()
        service._cache[key] = entry  # resurrect a generation-0 entry
        assert service.lookup(features(1.0)) is None
        assert service.hits == 0


class TestDecisionCacheLRU:
    """The unbounded-cache fix: ``_cache`` is a bounded LRU."""

    def test_bound_enforced_with_lru_eviction(self):
        service = PredictionService(CountingScorer())
        service.decision_cache_size = 3
        for seed in range(6):
            service.predict_batch([features(float(seed))])
        assert service.cache_size == 3
        assert service.evictions == 3
        assert [key[0] for key in service._cache] == [3.0, 4.0, 5.0]

    @pytest.mark.parametrize("path", ["lookup", "allocate", "predict_batch"])
    def test_every_hit_path_refreshes_recency(self, path):
        service = PredictionService(CountingScorer())
        service.decision_cache_size = 2
        service.predict_batch([features(1.0)])
        service.predict_batch([features(2.0)])
        if path == "predict_batch":
            service.predict_batch([features(1.0)])
        elif path == "allocate":
            # allocate featurizes a plan; a QueryFeatures passes through.
            service.allocate("q", features(1.0))
        else:
            service.lookup(features(1.0))
        service.predict_batch([features(3.0)])  # evicts 2.0, not the refreshed 1.0
        assert [key[0] for key in service._cache] == [1.0, 3.0]
        assert service.evictions == 1

    def test_eviction_only_costs_reinference(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        service.decision_cache_size = 1
        first = service.predict_batch([features(1.0)])[0]
        service.predict_batch([features(2.0)])  # evicts 1.0
        again = service.predict_batch([features(1.0)])[0]
        assert again.cached is False
        assert again.executors == first.executors
        assert scorer.calls == 3

    def test_batch_with_more_misses_than_the_bound(self):
        class ScaledScorer(CountingScorer):
            def predict_ppm(self, features):
                self.calls += 1
                b = 100.0 * (1.0 + features.values[0])
                return PowerLawPPM(a=-0.8, b=b, m=10.0)

        rows = [features(float(i % 7)) for i in range(12)]
        bounded = PredictionService(ScaledScorer())
        bounded.decision_cache_size = 2
        unbounded = PredictionService(ScaledScorer())
        out = bounded.predict_batch(rows)
        reference = unbounded.predict_batch(rows)
        assert [
            (p.executors, p.estimated_runtime_seconds, p.cached) for p in out
        ] == [
            (p.executors, p.estimated_runtime_seconds, p.cached)
            for p in reference
        ]
        assert bounded.cache_size == 2
        assert bounded.evictions == 5
        assert (bounded.hits, bounded.misses) == (5, 7)


class TestBatching:
    def test_batch_matches_sequential(self):
        plans = [features(float(i % 3)) for i in range(7)]
        sequential = PredictionService(CountingScorer())
        one_by_one = [
            sequential.predict_batch([p])[0].executors for p in plans
        ]
        batched = PredictionService(CountingScorer())
        batch = batched.predict_batch(plans)
        assert [p.executors for p in batch] == one_by_one
        assert batched.hits == sequential.hits
        assert batched.misses == sequential.misses

    def test_repeats_within_batch_hit_the_cache(self):
        scorer = CountingScorer()
        service = PredictionService(scorer)
        out = service.predict_batch(
            [features(1.0), features(1.0), features(2.0)]
        )
        assert [p.cached for p in out] == [False, True, False]
        assert scorer.calls == 2

    def test_no_fallback_event_for_batched_scorer(self):
        """Every miss of a batch goes through one ``predict_ppm_batch``
        call; there is no per-miss path and no event beyond the
        taxonomy."""
        from repro.obs.trace import EVENT_KINDS, RingBufferTracer

        class BatchScorer(CountingScorer):
            def __init__(self):
                super().__init__()
                self.batches = []

            def predict_ppm_batch(self, matrix):
                self.batches.append(len(matrix))
                return super().predict_ppm_batch(matrix)

        scorer = BatchScorer()
        tracer = RingBufferTracer()
        service = PredictionService(scorer, tracer=tracer)
        service.predict_batch([features(1.0), features(2.0), features(1.0)])
        service.predict_batch([features(2.0)])  # all hits: no call
        assert scorer.batches == [2]
        assert all(e.kind in EVENT_KINDS for e in tracer.events)


class TestPortableRuntime:
    """The service in front of the exported-model runtime, as deployed."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        from repro import AutoExecutor

        qids = ("q1", "q2", "q3", "q5", "q6", "q7", "q8", "q94")
        workload = Workload(scale_factor=50, query_ids=qids)
        system = AutoExecutor(family="power_law").train(workload)
        registry = tmp_path_factory.mktemp("registry")
        save_parameter_model(system.model, registry / "ppm.json")
        scorer = PortablePPMScorer(PortableModelRuntime(registry), "ppm")
        return workload, system, scorer

    def test_portable_matches_in_process_model(self, trained):
        """Every decision surface answers the same from the exported
        model as from the in-process one, on every plan, to the bit."""
        from repro.core.autoexecutor import AutoExecutorRule
        from repro.engine.optimizer import OptimizerContext

        workload, system, scorer = trained
        qids = workload.query_ids
        plans = [workload.optimized_plan(q) for q in qids]

        def decisions(model):
            single = PredictionService(model, n_grid=system.n_grid)
            batch = PredictionService(model, n_grid=system.n_grid)
            rule = AutoExecutorRule(lambda: model, n_grid=system.n_grid)
            rows = []
            for qid, plan, batched in zip(qids, plans, batch.predict_batch(plans)):
                allocated = single.allocate(qid, plan)
                context = OptimizerContext(plan=plan)
                rule.apply(context)
                rows.append(
                    (
                        allocated.executors,
                        float.hex(allocated.estimated_runtime_seconds),
                        batched.executors,
                        float.hex(batched.estimated_runtime_seconds),
                        context.requested_executors,
                    )
                )
            return rows

        portable = decisions(scorer)
        assert portable == decisions(system.model)
        expected = [system.select_executors(plan) for plan in plans]
        for row, executors in zip(portable, expected):
            assert row[0] == row[2] == row[4] == executors
            assert row[1] == row[3]

    def test_batch_inference_single_runtime_dispatch(self, trained):
        workload, system, scorer = trained
        service = PredictionService(scorer, n_grid=system.n_grid)
        plans = [workload.optimized_plan(q) for q in workload.query_ids]
        before = scorer.runtime.timings["inference"].count
        out = service.predict_batch(plans)
        after = scorer.runtime.timings["inference"].count
        assert after - before == 1  # one batched dispatch for all misses
        expected = [system.select_executors(p) for p in plans]
        assert [p.executors for p in out] == expected
