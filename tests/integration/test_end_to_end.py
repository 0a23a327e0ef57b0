"""End-to-end integration: the full AutoExecutor loop.

These tests exercise the complete pipeline the paper deploys — telemetry →
Sparklens augmentation → parameter-model training → portable-model export →
in-optimizer scoring → predictive allocation → execution — across module
boundaries.
"""

import numpy as np
import pytest

from repro.core.autoexecutor import AutoExecutor, AutoExecutorRule
from repro.core.selection import limited_slowdown
from repro.engine.allocation import (
    DynamicAllocation,
    PredictiveAllocation,
    StaticAllocation,
)
from repro.engine.optimizer import Optimizer
from repro.engine.scheduler import simulate_query
from repro.engine.session import SparkApplication
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer


class TestTrainPredictSelect:
    def test_facade_end_to_end(self, workload_mid, cluster, dataset_mid):
        system = AutoExecutor(model=dataset_mid.fit_parameter_model("power_law"))
        for qid in list(workload_mid)[:10]:
            n = system.select_executors(workload_mid.optimized_plan(qid))
            assert 1 <= n <= 48

    def test_selected_configs_beat_production_default(
        self, workload_mid, cluster, dataset_mid, actuals_mid
    ):
        """The paper's core value claim: predicted configurations are much
        faster than the default of 2 executors (Section 5.3 reports 2.6x
        expected speedup over static n=2)."""
        system = AutoExecutor(
            family="power_law",
            objective=lambda g, c: limited_slowdown(g, c, 1.0),
            model=dataset_mid.fit_parameter_model("power_law"),
        )
        grid = np.arange(1, 49)
        speedups = []
        for qid in list(workload_mid)[::4]:
            n = system.select_executors(workload_mid.optimized_plan(qid))
            curve = actuals_mid.curve(qid, grid)
            speedups.append(curve[1] / curve[n - 1])  # vs static n=2
        assert np.mean(speedups) > 1.5


class TestPortableModelPath:
    def test_export_register_score_allocate(
        self, workload_mid, cluster, dataset_mid, tmp_path
    ):
        """Figure 6's full deployment path through the model registry."""
        model = dataset_mid.fit_parameter_model("power_law")
        save_parameter_model(model, tmp_path / "ae_pl.json")
        runtime = PortableModelRuntime(tmp_path)
        rule = AutoExecutorRule(
            model_loader=lambda: PortablePPMScorer(runtime, "ae_pl")
        )
        optimizer = Optimizer(extension_rules=[rule])
        context = optimizer.optimize(workload_mid.plan("q5"))
        n = context.requested_executors
        assert n is not None and 1 <= n <= 48

        # run the query under the predictive policy the rule implies
        graph = workload_mid.stage_graph("q5")
        result = simulate_query(
            graph, PredictiveAllocation(n, initial_executors=5), cluster
        )
        assert result.runtime > 0
        assert result.max_executors <= max(n, 5)

    def test_portable_scorer_agrees_with_direct_model(
        self, workload_mid, dataset_mid, tmp_path
    ):
        model = dataset_mid.fit_parameter_model("amdahl")
        save_parameter_model(model, tmp_path / "ae_al.json")
        scorer = PortablePPMScorer(PortableModelRuntime(tmp_path), "ae_al")
        from repro.core.features import QueryFeatures

        features = QueryFeatures.from_plan(workload_mid.optimized_plan("q7"))
        direct = model.predict_ppm(features).parameters()
        portable = scorer.predict_ppm(features).parameters()
        assert np.allclose(direct, portable, rtol=1e-9)


class TestInteractiveApplication:
    def test_figure7_lifecycle(self, workload_mid, cluster, dataset_mid):
        """Two queries in one app: predictive allocation per query,
        reactive deallocation in the gap."""
        system = AutoExecutor(model=dataset_mid.fit_parameter_model("power_law"))
        optimizer = Optimizer()
        optimizer.inject_rule(system.make_rule())
        app = SparkApplication(
            cluster=cluster, optimizer=optimizer, default_executors=2,
            idle_timeout=30.0,
        )
        row1 = app.run_query(workload_mid.plan("q7"))
        app.idle(60.0)
        row2 = app.run_query(workload_mid.plan("q19"))
        assert row1.executors_requested >= 1
        assert row2.executors_requested >= 1
        # the idle gap released the fleet down to the minimum
        gap_fleet = app.skyline.value_at(row1.runtime + 45.0)
        assert gap_fleet == 1


class TestPolicyComparison:
    def test_rule_saves_occupancy_versus_da_and_sa(
        self, workload_mid, cluster, dataset_mid, cv_mid
    ):
        """Directional Figure 13 check on the integration slice."""
        grid = np.arange(1, 49)
        rule_n = {}
        for fold in cv_mid.folds:
            for qid in fold.test_ids:
                rule_n[qid] = limited_slowdown(
                    grid, fold.predicted_curves["power_law"][qid], 1.05
                )
        total = {"da": 0.0, "sa": 0.0, "rule": 0.0}
        for qid in list(workload_mid)[::3]:
            graph = workload_mid.stage_graph(qid)
            total["da"] += simulate_query(
                graph, DynamicAllocation(1, 48), cluster
            ).auc
            total["sa"] += simulate_query(
                graph, StaticAllocation(48), cluster
            ).auc
            total["rule"] += simulate_query(
                graph,
                PredictiveAllocation(rule_n[qid], initial_executors=5),
                cluster,
            ).auc
        assert total["rule"] < total["da"] * 0.85
        assert total["rule"] < total["sa"] * 0.75
