"""Public API surface checks.

A downstream user depends on the names the package exports and on module
documentation existing; these tests pin that surface.
"""

import importlib
import inspect

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.ppm",
    "repro.core.features",
    "repro.core.parameter_model",
    "repro.core.selection",
    "repro.core.cores",
    "repro.core.autoexecutor",
    "repro.core.training",
    "repro.core.errors",
    "repro.engine",
    "repro.engine.plan",
    "repro.engine.optimizer",
    "repro.engine.stages",
    "repro.engine.cluster",
    "repro.engine.allocation",
    "repro.engine.execution",
    "repro.engine.faults",
    "repro.engine.scheduler",
    "repro.engine.sweep",
    "repro.engine.skyline",
    "repro.engine.metrics",
    "repro.engine.session",
    "repro.sparklens",
    "repro.sparklens.log",
    "repro.sparklens.simulator",
    "repro.workloads",
    "repro.workloads.tpcds",
    "repro.workloads.generator",
    "repro.workloads.production",
    "repro.ml",
    "repro.ml.tree",
    "repro.ml.forest",
    "repro.ml.packed",
    "repro.ml.linear",
    "repro.ml.model_selection",
    "repro.ml.metrics",
    "repro.ml.importance",
    "repro.export",
    "repro.export.format",
    "repro.export.runtime",
    "repro.fleet",
    "repro.fleet.arrivals",
    "repro.fleet.admission",
    "repro.fleet.engine",
    "repro.fleet.prediction",
    "repro.fleet.metrics",
    "repro.fleet.routing",
    "repro.fleet.cluster",
    "repro.fleet.parallel",
    "repro.serve",
    "repro.serve.protocol",
    "repro.serve.batching",
    "repro.serve.app",
    "repro.serve.server",
    "repro.serve.client",
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.sketch",
    "repro.obs.metrics",
    "repro.obs.analyze",
    "repro.experiments",
    "repro.experiments.runtime_data",
    "repro.experiments.crossval",
    "repro.experiments.harness",
    "repro.experiments.figures",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_top_level_quickstart_names():
    assert repro.__version__
    for name in ("AutoExecutor", "AutoExecutorRule", "PowerLawPPM",
                 "AmdahlPPM", "Workload", "FleetEngine",
                 "PredictionService", "TraceEvent", "RingBufferTracer",
                 "JsonlTracer", "TraceAnalyzer", "QuantileSketch"):
        assert hasattr(repro, name)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES[1:])
def test_public_classes_and_functions_documented(module_name):
    """Every public item defined in the package carries a doc comment."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert obj.__doc__, f"{module_name}.{name} is undocumented"
