#!/usr/bin/env python3
"""Serving path: train, export, and answer HTTP recommendation traffic.

:mod:`repro.serve` is the last hop of the deployment lifecycle that
``examples/portable_model_deployment.py`` walks in-process: the exported
model behind a real (loopback) HTTP server, with micro-batching and the
prediction memo cache doing the work the paper's optimizer integration
does inside the query engine.  This example:

1. trains a power-law AutoExecutor and exports it to a model registry;
2. boots :class:`~repro.serve.RecommendationServer` on an ephemeral port;
3. fires one concurrent burst per round of real TPC-DS plan features at
   ``POST /v1/recommend`` and shows the coalesced batch sizes;
4. repeats the round to show the plan-signature cache taking over;
5. prints the ``/metrics`` self-measurement and drains cleanly.

Run:  python examples/model_server.py

For a standalone server over an existing registry, use the CLI instead:

    python -m repro.serve --registry MODELS_DIR --model ae_pl --port 8080

(docs/serving.md documents the endpoints, error codes, and knobs.)
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro import Workload
from repro.core.autoexecutor import AutoExecutor
from repro.core.features import QueryFeatures
from repro.export.format import save_parameter_model
from repro.serve import (
    RecommendApp,
    RecommendationServer,
    ServeClient,
    ServerConfig,
)

QUERY_IDS = ("q1", "q2", "q3", "q5", "q6", "q7", "q8", "q94")


def train_and_export(registry: Path) -> Workload:
    """Train the power-law family and export it as ``ae_pl``."""
    print("training the AE_PL parameter model ...")
    workload = Workload(scale_factor=50, query_ids=QUERY_IDS)
    system = AutoExecutor(family="power_law").train(workload)
    size = save_parameter_model(system.model, registry / "ae_pl.json")
    print(f"exported ae_pl.json ({size / 1024**2:.2f} MB)\n")
    return workload


async def one_round(
    host: str, port: int, payloads: list[dict], label: str
) -> None:
    """Fire every payload concurrently on its own keep-alive client."""

    async def ask(payload: dict) -> dict:
        async with ServeClient(host, port) as client:
            reply = await client.post_json("/v1/recommend", payload)
            assert reply.status == 200, reply.body
            return dict(reply.json())

    answers = await asyncio.gather(*(ask(p) for p in payloads))
    print(f"{label}:")
    for answer in answers:
        if answer["cached"]:
            source = "cache hit"
        else:
            source = f"model inference, batch of {answer['batch_size']}"
        print(
            f"   {answer['query_id']:>4s}: {answer['executors']:2d} "
            f"executors, est {answer['estimated_runtime_s']:7.1f} s  "
            f"({source})"
        )


async def serve_and_query(registry: Path, workload: Workload) -> None:
    app = RecommendApp.from_registry(
        registry, "ae_pl", max_batch_size=16, max_wait_s=0.005
    )
    server = RecommendationServer(app, ServerConfig(port=0))
    await server.start()
    host, port = server.address
    print(f"serving on http://{host}:{port}\n")

    payloads = [
        {
            "query_id": qid,
            "features": QueryFeatures.from_plan(
                workload.optimized_plan(qid)
            ).values.tolist(),
        }
        for qid in QUERY_IDS
    ]
    # Burst one: every plan is new, so the burst coalesces into one
    # model inference.  Burst two: identical plans, so every answer is
    # a plan-signature cache hit, answered without entering a batch.
    await one_round(host, port, payloads, "first burst (cold cache)")
    print()
    await one_round(host, port, payloads, "second burst (warm cache)")

    async with ServeClient(host, port) as client:
        metrics = dict((await client.get("/metrics")).json())
    cache = metrics["prediction"]
    batch = metrics["batch"]
    print("\n/metrics after both bursts:")
    print(f"   requests answered   {metrics['requests']}")
    print(f"   mean batch size     {batch['mean_size']:.1f}")
    print(
        f"   cache hit rate      {cache['hit_rate']:.2f} "
        f"({cache['hits']} hits / {cache['misses']} misses)"
    )

    await server.shutdown()
    print("\nserver drained and shut down cleanly")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "registry"
        workload = train_and_export(registry)
        asyncio.run(serve_and_query(registry, workload))


if __name__ == "__main__":
    main()
