#!/usr/bin/env python3
"""Deployment path: train in Python, score inside the optimizer.

The paper trains with scikit-learn but scores inside the JVM-hosted Spark
optimizer by exporting to ONNX (Section 4.3).  This example reproduces
that lifecycle with the portable model format:

1. train both PPM families and export them to a model registry directory;
2. stand up a :class:`PortableModelRuntime` (the ONNX-runtime stand-in)
   over the registry;
3. inject an AutoExecutor rule that lazily loads and caches the portable
   model, then optimize queries and watch the requests;
4. report the Section 5.6 overheads: file sizes, load/setup time, and
   per-query inference time.

Run:  python examples/portable_model_deployment.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import AutoExecutor, Workload
from repro.core.autoexecutor import AutoExecutorRule
from repro.engine.cluster import Cluster
from repro.engine.optimizer import Optimizer
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer


def main() -> None:
    workload = Workload(scale_factor=100)
    cluster = Cluster()

    print("training AE_PL and AE_AL parameter models ...")
    system = AutoExecutor(family="power_law").train(workload, cluster)
    assert system.dataset is not None
    models = {
        "ae_pl": system.dataset.fit_parameter_model("power_law"),
        "ae_al": system.dataset.fit_parameter_model("amdahl"),
    }

    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "registry"

        print("\nexporting to the portable model registry:")
        for name, model in models.items():
            size = save_parameter_model(model, registry / f"{name}.json")
            print(f"   {name}.json  {size / 1024**2:5.2f} MB")

        runtime = PortableModelRuntime(registry)
        rule = AutoExecutorRule(
            model_loader=lambda: PortablePPMScorer(runtime, "ae_pl")
        )
        optimizer = Optimizer(extension_rules=[rule])

        print("\noptimizing queries with in-process portable-model scoring:")
        for qid in ("q3", "q37", "q72", "q94"):
            context = optimizer.optimize(workload.plan(qid))
            print(
                f"   {qid:>4s}: requested {context.requested_executors:2d} "
                f"executors"
            )

        print("\noverheads (paper Section 5.6 analogues):")
        print(f"   model file load     {1e3 * runtime.mean_timing('load'):8.2f} ms (once)")
        print(f"   runtime setup       {1e3 * runtime.mean_timing('setup'):8.2f} ms (once)")
        print(f"   inference per query {1e3 * runtime.mean_timing('inference'):8.2f} ms")
        print(f"   plan featurization  {1e3 * rule.timings['featurize'].mean:8.2f} ms")
        print(f"   curve + selection   {1e3 * rule.timings['select'].mean:8.2f} ms")


if __name__ == "__main__":
    main()
