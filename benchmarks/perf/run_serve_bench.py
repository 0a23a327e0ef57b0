#!/usr/bin/env python
"""Serving load test: thousands of live HTTP requests against the budget.

The serving layer (:mod:`repro.serve`) promises four things the unit
tests can only spot-check at small scale; this benchmark holds it to
them under sustained concurrent load, end to end through real sockets:

1. **latency** — a closed-loop fleet of keep-alive clients replays a
   fleet-generated Poisson arrival mix (recurring queries included, so
   the memo cache participates exactly as in production) and the
   client-observed p99 must stay inside the checked-in budget
   (``--p99-budget-ms``);
2. **batching** — under that concurrency the micro-batcher must
   actually coalesce: the server-reported mean batch size must exceed
   1 (otherwise the batching layer is dead weight and every inference
   pays its own dispatch);
3. **fidelity** — every recommendation served over HTTP must be
   byte-identical to a direct
   :meth:`~repro.export.runtime.PortablePPMScorer.predict_ppm_batch`
   call plus elbow selection over the same exported model (JSON float
   round-trips are exact, so strict equality is the right check);
4. **robustness** — every request is answered 200: no sheds, timeouts,
   or connection errors at the benchmarked rate.

The result is written as ``BENCH_serve.json`` (schema
``repro-bench-serve/v1``, documented in ``benchmarks/perf/README.md``);
CI uploads it as an artifact and gates regressions against the
checked-in ``baseline_serve.json`` via ``compare.py``.

Run from the repository root:

    python benchmarks/perf/run_serve_bench.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.features import FEATURE_NAMES  # noqa: E402
from repro.core.selection import elbow_point  # noqa: E402
from repro.core.training import DEFAULT_N_GRID  # noqa: E402
from repro.export.format import save_model_file  # noqa: E402
from repro.export.runtime import (  # noqa: E402
    PortableModelRuntime,
    PortablePPMScorer,
)
from repro.fleet.arrivals import poisson_arrivals  # noqa: E402
from repro.ml.forest import RandomForestRegressor  # noqa: E402
from repro.serve import (  # noqa: E402
    RecommendApp,
    RecommendationServer,
    ServeClient,
    ServerConfig,
)

SCHEMA = "repro-bench-serve/v1"


def build_registry(root: Path, seed: int) -> None:
    """Export a deterministic power-law forest into ``root``.

    Same recipe as the serving test fixtures: random features, random
    (a, b, m) parameter targets — ``from_parameters`` clamps, so every
    raw forest output builds a valid PPM.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    X = rng.random((120, len(FEATURE_NAMES)))
    Y = np.column_stack(
        [
            -np.abs(rng.random(120)) - 0.1,
            np.abs(rng.random(120)) * 50 + 10,
            np.abs(rng.random(120)) * 2,
        ]
    )
    forest = RandomForestRegressor(n_estimators=8, random_state=0).fit(X, Y)
    save_model_file(
        forest, root / "ae_pl.json", metadata={"family": "power_law"}
    )


def build_traffic(args):
    """The request mix: a Poisson arrival stream over recurring queries.

    Returns ``(order, features_by_query)``: the arrival-ordered list of
    query ids and each distinct query's feature vector.  Recurrence is
    what exercises the memo cache — ``distinct_queries`` shapes spread
    over ``n_requests`` arrivals.
    """
    rng = np.random.default_rng(args.seed + 1)
    query_ids = [f"q{i:03d}" for i in range(args.distinct_queries)]
    features_by_query = {
        qid: [float(v) for v in rng.random(len(FEATURE_NAMES))]
        for qid in query_ids
    }
    arrivals = poisson_arrivals(
        query_ids,
        n_queries=args.n_requests,
        rate_qps=args.rate_qps,
        seed=args.seed,
    )
    return [a.query_id for a in arrivals], features_by_query


def reference_answers(registry_dir, features_by_query):
    """The fidelity oracle: direct batch scoring + elbow selection.

    One ``predict_ppm_batch`` call over every distinct query's features,
    then the same selection the service applies (elbow over the default
    grid, clamped to [1, 48]).
    """
    scorer = PortablePPMScorer(PortableModelRuntime(registry_dir), "ae_pl")
    query_ids = sorted(features_by_query)
    matrix = np.array([features_by_query[q] for q in query_ids])
    ppms = scorer.predict_ppm_batch(matrix)
    answers = {}
    for qid, ppm in zip(query_ids, ppms):
        curve = ppm.predict_curve(DEFAULT_N_GRID)
        chosen = int(np.clip(elbow_point(DEFAULT_N_GRID, curve), 1, 48))
        runtime = float(curve[np.nonzero(DEFAULT_N_GRID == chosen)[0][0]])
        answers[qid] = (chosen, runtime)
    return answers


async def drive_load(host, port, order, features_by_query, concurrency):
    """Closed-loop workers over keep-alive connections.

    Each worker owns one connection and pulls the next arrival off the
    shared order; per-request latency is measured client-side, around
    the full request/response round trip.
    """
    cursor = iter(enumerate(order))
    latencies = [0.0] * len(order)
    responses: list = [None] * len(order)

    async def worker():
        async with ServeClient(host, port) as client:
            for index, query_id in cursor:
                payload = {
                    "features": features_by_query[query_id],
                    "query_id": query_id,
                }
                start = time.perf_counter()
                reply = await client.post_json("/v1/recommend", payload)
                latencies[index] = time.perf_counter() - start
                responses[index] = (reply.status, reply.json())

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return latencies, responses


async def run_serve(registry_dir, order, features_by_query, args):
    """Start the server, drive the load, snapshot /metrics, drain."""
    app = RecommendApp.from_registry(
        registry_dir,
        "ae_pl",
        max_batch_size=args.max_batch_size,
        max_wait_s=args.max_wait_ms / 1e3,
    )
    server = RecommendationServer(
        app, ServerConfig(port=0, request_timeout_s=args.timeout_ms / 1e3)
    )
    await server.start()
    host, port = server.address
    try:
        start = time.perf_counter()
        latencies, responses = await drive_load(
            host, port, order, features_by_query, args.concurrency
        )
        wall = time.perf_counter() - start
        async with ServeClient(host, port) as client:
            metrics = (await client.get("/metrics")).json()
    finally:
        await server.shutdown()
    return wall, latencies, responses, metrics


def summarize(wall, latencies, responses, metrics, reference, args):
    ms = np.sort(np.asarray(latencies)) * 1e3
    n_ok = sum(1 for status, _ in responses if status == 200)
    p99 = float(np.percentile(ms, 99))

    mismatches = 0
    for status, body in responses:
        if status != 200:
            continue
        chosen, runtime = reference[body["query_id"]]
        if (
            body["executors"] != chosen
            or body["estimated_runtime_s"] != runtime
        ):
            mismatches += 1

    batch = metrics["batch"]
    prediction = metrics["prediction"]
    return {
        "serve": {
            "n_requests": len(responses),
            "n_ok": n_ok,
            "errors": len(responses) - n_ok,
            "wall_seconds": round(wall, 3),
            "throughput_rps": round(len(responses) / wall, 1),
            "p50_ms": round(float(np.percentile(ms, 50)), 3),
            "p95_ms": round(float(np.percentile(ms, 95)), 3),
            "p99_ms": round(p99, 3),
            "max_ms": round(float(ms[-1]), 3),
            "p99_budget_ms": args.p99_budget_ms,
            "under_p99_budget": bool(p99 <= args.p99_budget_ms),
        },
        "batch": {
            "batches": batch["batches"],
            "items": batch["items"],
            "mean_size": round(batch["mean_size"], 3),
            "peak_size": batch["peak_size"],
            "batching_active": bool(batch["mean_size"] > 1.0),
        },
        "cache": {
            "hits": prediction["hits"],
            "misses": prediction["misses"],
            "hit_rate": round(prediction["hit_rate"], 4),
        },
        "parity": {
            "n_checked": n_ok,
            "mismatches": mismatches,
            "bit_identical": bool(mismatches == 0 and n_ok == len(responses)),
        },
    }


def run(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        registry_dir = Path(tmp)
        build_registry(registry_dir, args.seed)
        order, features_by_query = build_traffic(args)
        reference = reference_answers(registry_dir, features_by_query)

        print(
            f"serve: {args.n_requests:,} requests, "
            f"{args.distinct_queries} distinct queries, "
            f"{args.concurrency} concurrent clients ..."
        )
        wall, latencies, responses, metrics = asyncio.run(
            run_serve(registry_dir, order, features_by_query, args)
        )

    result_body = summarize(
        wall, latencies, responses, metrics, reference, args
    )
    serve, batch = result_body["serve"], result_body["batch"]
    parity = result_body["parity"]
    print(
        f"  {serve['wall_seconds']}s wall, {serve['throughput_rps']:,} req/s, "
        f"p99 {serve['p99_ms']}ms (budget {serve['p99_budget_ms']}ms)"
    )
    print(
        f"  batching: mean size {batch['mean_size']} over "
        f"{batch['batches']} batches (peak {batch['peak_size']}); "
        f"cache hit rate {result_body['cache']['hit_rate']}"
    )
    print(
        f"  parity: {parity['mismatches']} mismatches in "
        f"{parity['n_checked']} responses"
    )

    result = {
        "schema": SCHEMA,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "params": {
            "n_requests": args.n_requests,
            "distinct_queries": args.distinct_queries,
            "concurrency": args.concurrency,
            "rate_qps": args.rate_qps,
            "max_batch_size": args.max_batch_size,
            "max_wait_ms": args.max_wait_ms,
            "timeout_ms": args.timeout_ms,
            "p99_budget_ms": args.p99_budget_ms,
            "seed": args.seed,
        },
        **result_body,
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    ok = (
        serve["errors"] == 0
        and serve["n_requests"] >= 1000
        and serve["under_p99_budget"]
        and batch["batching_active"]
        and parity["bit_identical"]
    )
    return 0 if ok else 1


def main(argv=None):
    default_out = REPO_ROOT / "benchmarks" / "perf" / "output" / "BENCH_serve.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(default_out), help="output JSON path")
    parser.add_argument(
        "--n-requests",
        type=int,
        default=2000,
        help="total requests driven through the live server",
    )
    parser.add_argument(
        "--distinct-queries",
        type=int,
        default=50,
        help="distinct query shapes in the mix (recurrence feeds the cache)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=32,
        help="closed-loop client connections",
    )
    parser.add_argument(
        "--rate-qps",
        type=float,
        default=500.0,
        help="Poisson rate of the generated arrival mix (shapes recurrence "
        "order only; the closed loop drives as fast as the server answers)",
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="server-side cap on coalesced requests per inference",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="server-side micro-batching window",
    )
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=5000.0,
        help="server-side per-request deadline",
    )
    parser.add_argument(
        "--p99-budget-ms",
        type=float,
        default=250.0,
        help="client-observed p99 latency budget (the checked-in gate)",
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic/model seed")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
