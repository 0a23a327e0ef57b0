"""Unit tests for the AutoExecutor facade and optimizer rule."""

import numpy as np
import pytest

from repro.core.autoexecutor import AutoExecutor, AutoExecutorRule
from repro.core.ppm import AmdahlPPM
from repro.core.selection import limited_slowdown
from repro.engine.optimizer import Optimizer, OptimizerContext
from repro.workloads.tpcds import build_query


class _FixedScorer:
    def __init__(self, s=10.0, p=400.0):
        self.ppm = AmdahlPPM(s=s, p=p)
        self.calls = 0

    def predict_ppm(self, features):
        self.calls += 1
        return self.ppm


@pytest.fixture(scope="module")
def trained(workload_small, cluster, dataset_small):
    model = dataset_small.fit_parameter_model("power_law")
    return AutoExecutor(family="power_law", model=model, dataset=dataset_small)


class TestFacade:
    def test_training_produces_model(self, trained):
        assert trained.model is not None
        assert trained.dataset is not None

    def test_predict_curve_shape_and_monotonicity(self, trained, workload_small):
        curve = trained.predict_curve(workload_small.optimized_plan("q1"))
        assert curve.shape == (48,)
        assert np.all(np.diff(curve) <= 1e-9)

    def test_select_executors_in_range(self, trained, workload_small):
        for qid in list(workload_small)[:5]:
            n = trained.select_executors(workload_small.optimized_plan(qid))
            assert 1 <= n <= 48

    def test_untrained_facade_raises(self, workload_small):
        with pytest.raises(RuntimeError, match="not trained"):
            AutoExecutor().predict_curve(workload_small.optimized_plan("q1"))

    def test_custom_objective(self, dataset_small, workload_small):
        system = AutoExecutor(
            family="amdahl",
            objective=lambda grid, curve: limited_slowdown(grid, curve, 1.0),
            model=dataset_small.fit_parameter_model("amdahl"),
        )
        # AE_AL with H=1 must always select the max (no saturation)
        n = system.select_executors(workload_small.optimized_plan("q1"))
        assert n == 48

    def test_select_configuration_factorizes_cores(self, trained, workload_small):
        """Section 3.3: n -> k -> (n, ec) with no stranded node cores on
        the paper's testbed shape."""
        factorization = trained.select_configuration(
            workload_small.optimized_plan("q1")
        )
        n_direct = trained.select_executors(workload_small.optimized_plan("q1"))
        assert factorization.total_cores == n_direct * 4
        assert factorization.stranded_cores_per_node == 0
        assert factorization.cores_per_executor in (1, 2, 4, 8)

    def test_make_rule_wires_trained_model(self, trained, workload_small):
        rule = trained.make_rule()
        opt = Optimizer(extension_rules=[rule])
        context = opt.optimize(workload_small.plan("q1"))
        assert context.requested_executors is not None


class TestRule:
    def make_context(self):
        plan = build_query("q10", scale_factor=1)
        return OptimizerContext(plan=plan)

    def test_five_steps_produce_request_and_annotations(self):
        rule = AutoExecutorRule(model_loader=_FixedScorer)
        context = self.make_context()
        rule.apply(context)
        assert context.requested_executors is not None
        assert "autoexecutor.ppm_params" in context.annotations
        assert (
            context.annotations["autoexecutor.executors"]
            == context.requested_executors
        )

    def test_model_loaded_once_and_cached(self):
        loads = []

        def loader():
            loads.append(1)
            return _FixedScorer()

        rule = AutoExecutorRule(model_loader=loader)
        for _ in range(5):
            rule.apply(self.make_context())
        assert len(loads) == 1  # step 1: cache inside the optimizer

    def test_scored_once_per_query(self):
        scorer = _FixedScorer()
        rule = AutoExecutorRule(model_loader=lambda: scorer)
        rule.apply(self.make_context())
        assert scorer.calls == 1  # parametric: one score, many curve points

    def test_default_objective_is_elbow(self):
        # AE_AL fixed model -> elbow 7 on [1, 48]
        rule = AutoExecutorRule(model_loader=_FixedScorer)
        context = self.make_context()
        rule.apply(context)
        assert context.requested_executors == 7

    def test_clamping(self):
        rule = AutoExecutorRule(
            model_loader=_FixedScorer, min_executors=10, max_executors=20
        )
        context = self.make_context()
        rule.apply(context)
        assert 10 <= context.requested_executors <= 20

    def test_invalid_clamp_rejected(self):
        with pytest.raises(ValueError):
            AutoExecutorRule(model_loader=_FixedScorer, min_executors=0)
        with pytest.raises(ValueError):
            AutoExecutorRule(
                model_loader=_FixedScorer, min_executors=5, max_executors=2
            )

    @pytest.mark.parametrize(
        "bounds",
        [
            {"min_executors": 2.5},
            {"max_executors": 20.5},
            {"min_executors": True},
        ],
    )
    def test_non_integer_clamp_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be an integer"):
            AutoExecutorRule(model_loader=_FixedScorer, **bounds)

    def test_timings_collected(self):
        rule = AutoExecutorRule(model_loader=_FixedScorer)
        rule.apply(self.make_context())
        rule.apply(self.make_context())
        assert rule.timings["model_load"].count == 1
        assert rule.timings["featurize"].count == 2
        assert rule.timings["score"].count == 2
        assert rule.timings["select"].count == 2
