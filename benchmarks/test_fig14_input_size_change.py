"""Figure 14: generalization across input data sizes (scale factors).

Train the models on one TPC-DS scale factor and test on the other.  Paper
observations reproduced:

  - the error pattern matches the query-template generalization case
    (largest at small n);
  - the models — whose features include the input sizes — can beat
    Sparklens estimates carried over from the *training* scale factor,
    because Sparklens does not account for data-size changes at all.
"""

import numpy as np

from repro.core.errors import e_metric
from repro.experiments.figures import render_series_table

REPORT_N = (1, 3, 8, 16, 32, 48)


def _cross_sf_errors(ctx, train_sf, test_sf):
    """E(n) series for models trained on train_sf, tested on test_sf."""
    train_ds = ctx.training_dataset(train_sf)
    test_ds = ctx.training_dataset(test_sf)
    actuals = ctx.actuals(test_sf)
    grid = train_ds.n_grid
    cols = np.searchsorted(grid, REPORT_N)

    series = {}
    for label, family in (("AE_PL", "power_law"), ("AE_AL", "amdahl")):
        model = train_ds.fit_parameter_model(family)
        ppms = model.predict_ppm_batch(test_ds.features)
        errs = []
        for j, n in zip(cols, REPORT_N):
            actual = actuals.times_by_query(n)
            predicted = {
                qid: ppm.predict(n) for qid, ppm in zip(test_ds.query_ids, ppms)
            }
            errs.append(e_metric(actual, predicted))
        series[label] = np.array(errs)

    # Sparklens reference curves from each scale factor's own logs
    for label, sf in (("S_10", 10), ("S_100", 100)):
        source = ctx.training_dataset(sf)
        errs = []
        for j, n in zip(cols, REPORT_N):
            actual = actuals.times_by_query(n)
            predicted = {
                qid: float(source.sparklens_curves[qid][j])
                for qid in test_ds.query_ids
            }
            errs.append(e_metric(actual, predicted))
        series[label] = np.array(errs)
    return series


def test_fig14_input_size_change(ctx, report, benchmark):
    blocks = []
    all_series = {}
    for train_sf, test_sf, tag in ((100, 10, "a"), (10, 100, "b")):
        series = _cross_sf_errors(ctx, train_sf, test_sf)
        all_series[(train_sf, test_sf)] = series
        blocks.append(
            f"({tag}) train SF={train_sf}, test SF={test_sf}:\n"
            + render_series_table(
                "n", REPORT_N, series, float_format="{:10.3f}"
            )
        )
    report(
        "fig14_input_size_change",
        "Figure 14 — E(n) across scale-factor changes\n"
        + "\n\n".join(blocks)
        + "\npaper: same pattern as template generalization; Sparklens "
        "estimates from the training SF miss data-size changes entirely",
    )

    for (train_sf, test_sf), series in all_series.items():
        # errors largest at small n, like Figure 9
        for label in ("AE_PL", "AE_AL"):
            assert series[label][0] >= series[label][1:4].min()
        # Sparklens carried over from the *training* SF is far off the
        # testing SF at scale-sensitive points (it ignores data sizes)
        stale = f"S_{train_sf}"
        fresh = f"S_{test_sf}"
        assert series[stale][2:].mean() > series[fresh][2:].mean()
        # the trained models (which see input sizes) beat the stale
        # Sparklens reference somewhere in the operating range
        assert series["AE_PL"][2:].min() < series[stale][2:].max()

    benchmark(
        lambda: ctx.training_dataset(10).fit_parameter_model(
            "amdahl"
        ).predict_params(ctx.training_dataset(100).features[:10])
    )
