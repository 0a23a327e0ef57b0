#!/usr/bin/env python3
"""Handling input data growth: stale models, stale Sparklens, retraining.

A production dataset grows 10x (TPC-DS SF=10 -> SF=100).  This example
shows the Section 5.5 story as an operator would live it:

1. a model trained when the data was small keeps *partial* accuracy on the
   grown data, because its features include the input sizes;
2. Sparklens estimates cached from old runs are badly wrong — the tool
   replays observed task durations and cannot anticipate data growth;
3. retraining on fresh telemetry (one run per query at n=16, the paper's
   cheap protocol) restores accuracy.

Run:  python examples/data_growth.py
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import e_metric
from repro.core.training import build_training_dataset
from repro.engine.cluster import Cluster
from repro.experiments.runtime_data import collect_actual_runtimes
from repro.workloads.generator import Workload

EVAL_N = (3, 8, 16, 32)


def report_errors(label: str, predicted_by_n: dict, actuals) -> None:
    errs = []
    for n in EVAL_N:
        actual = actuals.times_by_query(n)
        errs.append(e_metric(actual, predicted_by_n[n]))
    print(f"   {label:<38s} E(n) = "
          + "  ".join(f"{e:5.2f}" for e in errs)
          + f"   (n = {EVAL_N})")


def model_predictions(model, dataset, n_values):
    ppms = model.predict_ppm_batch(dataset.features)
    return {
        n: {qid: ppm.predict(n) for qid, ppm in zip(dataset.query_ids, ppms)}
        for n in n_values
    }


def main() -> None:
    cluster = Cluster()
    small = Workload(scale_factor=10)
    grown = Workload(scale_factor=100)

    print("training on the small dataset (SF=10) ...")
    dataset_small = build_training_dataset(small, cluster)
    model_old = dataset_small.fit_parameter_model("power_law")

    print("the data grows 10x; collecting ground truth at SF=100 ...")
    dataset_grown = build_training_dataset(grown, cluster)
    actuals = collect_actual_runtimes(grown, cluster, repeats=3)

    print("\nprediction error on the grown data:")
    report_errors(
        "stale model (trained at SF=10)",
        model_predictions(model_old, dataset_grown, EVAL_N),
        actuals,
    )

    grid = dataset_small.n_grid
    stale_sparklens = {
        n: {
            qid: float(
                dataset_small.sparklens_curves[qid][int(np.searchsorted(grid, n))]
            )
            for qid in dataset_grown.query_ids
        }
        for n in EVAL_N
    }
    report_errors("stale Sparklens estimates (SF=10 logs)", stale_sparklens, actuals)

    model_new = dataset_grown.fit_parameter_model("power_law")
    report_errors(
        "retrained model (fresh SF=100 telemetry)",
        model_predictions(model_new, dataset_grown, EVAL_N),
        actuals,
    )

    print(
        "\nreading: the stale model degrades gracefully (its features see "
        "the new input sizes); cached Sparklens estimates do not see data "
        "sizes at all; one cheap retraining run per query restores "
        "accuracy."
    )


if __name__ == "__main__":
    main()
