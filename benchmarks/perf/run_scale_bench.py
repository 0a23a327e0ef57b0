#!/usr/bin/env python
"""Streaming-scale benchmark: a million-query serve under a memory ceiling.

The streaming serving mode (:attr:`FleetConfig.streaming
<repro.fleet.engine.FleetConfig>`) promises O(1) memory per pool: sketch
accumulators instead of record lists, per-query state freed the moment a
query finishes, and generator arrival streams that are never
materialized.  This benchmark holds the mode to that promise at a scale
the record-based drivers cannot reach:

1. **scale** — a 1,000,000-query Poisson stream served end to end by a
   sharded fleet in streaming mode, on a synthetic micro-workload sized
   so the pools keep up with the arrival rate.  Gated quantities: the
   process's **peak RSS** (``resource.getrusage``) must stay under a
   hard ceiling, and throughput (simulated queries per wall-clock
   second) must not regress against the checked-in baseline.  A second,
   shorter pass runs under ``tracemalloc`` to gate peak *Python heap*
   allocations — catching per-query leaks that disappear into RSS
   noise;
2. **parity** — the mode's two correctness contracts, re-proven at
   bench scale: a streaming serve must agree with the record-based
   serve on every exact summary field and put every latency percentile
   inside the sketch's rank-error bound; and a multiprocess
   :class:`~repro.fleet.parallel.ProcessShardExecutor` serve must equal
   the single-process sharded serve bit for bit.

The result is written as ``BENCH_scale.json`` (schema
``repro-bench-scale/v1``, documented in ``benchmarks/perf/README.md``);
CI uploads it as an artifact and gates regressions against the
checked-in ``baseline_scale.json`` via ``compare.py``.

Run from the repository root:

    python benchmarks/perf/run_scale_bench.py
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.engine.stages import Stage, StageGraph  # noqa: E402
from repro.fleet.arrivals import poisson_arrival_stream  # noqa: E402
from repro.fleet.cluster import ShardedFleet  # noqa: E402
from repro.fleet.engine import FleetConfig, static_allocator  # noqa: E402
from repro.fleet.parallel import ProcessShardExecutor  # noqa: E402

SCHEMA = "repro-bench-scale/v1"

# The streaming sketches' relative accuracy (PoolStreamStats' sketches).
ALPHA = 0.01


class MicroWorkload:
    """Synthetic single-stage queries small enough to serve by the million.

    The scale gate measures the *serving machinery* — heap churn, metric
    folds, per-query state lifetime — not TPC-DS plan execution, so the
    graphs are deliberately tiny: one stage, two or three tasks.
    """

    def __init__(self):
        self._graphs = {
            "m1": StageGraph(
                stages=[Stage(stage_id=0, num_tasks=2, task_seconds=1.0)],
                query_id="m1",
            ),
            "m2": StageGraph(
                stages=[Stage(stage_id=0, num_tasks=3, task_seconds=0.8)],
                query_id="m2",
            ),
            "m3": StageGraph(
                stages=[Stage(stage_id=0, num_tasks=2, task_seconds=1.6)],
                query_id="m3",
            ),
        }

    @property
    def query_ids(self):
        return tuple(self._graphs)

    def optimized_plan(self, query_id):
        return None  # static allocators never read the plan

    def stage_graph(self, query_id):
        return self._graphs[query_id]


def peak_rss_mb() -> float:
    """High-water RSS of this process, in MiB (Linux reports KiB)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss_kb / 1024.0


def build_fleet(workload, args, streaming):
    config = FleetConfig(
        # No idle-release ticks: static pools never release capacity, so
        # ticks would only burn heap events at 1M-query scale.
        idle_release_timeout=None,
        streaming=streaming,
    )
    return ShardedFleet(
        workload,
        [args.pool_capacity] * args.pools,
        static_allocator(args.budget),
        config=config,
    )


def stream(workload, n_queries, rate_qps, seed):
    return poisson_arrival_stream(
        workload.query_ids, n_queries=n_queries, rate_qps=rate_qps, seed=seed
    )


def run_scale(workload, args):
    """The gated 1M-query streaming serve: wall clock + peak RSS."""
    gc.collect()
    rss_before = peak_rss_mb()
    start = time.perf_counter()
    metrics = build_fleet(workload, args, streaming=True).serve(
        stream(workload, args.n_queries, args.rate_qps, args.seed)
    )
    wall = time.perf_counter() - start
    rss_after = peak_rss_mb()
    assert metrics.records == []
    n_served = sum(pool.stats.n_queries for pool in metrics.pools)
    if n_served != args.n_queries:
        raise SystemExit(
            f"scale serve dropped queries: {n_served} != {args.n_queries}"
        )
    return {
        "n_queries": args.n_queries,
        "wall_seconds": round(wall, 2),
        "throughput_qps": round(args.n_queries / wall, 1),
        "peak_rss_mb": round(rss_after, 1),
        "peak_rss_before_mb": round(rss_before, 1),
        "rss_ceiling_mb": args.rss_ceiling_mb,
        "under_rss_ceiling": bool(rss_after <= args.rss_ceiling_mb),
        "makespan_s": round(metrics.makespan, 1),
    }


def run_tracemalloc(workload, args):
    """A shorter pass under tracemalloc: peak Python-heap allocations.

    tracemalloc slows the serve several-fold, so this pass is sized in
    the hundred-thousands; a per-query leak of even a few hundred bytes
    would blow the ceiling regardless.
    """
    gc.collect()
    tracemalloc.start()
    build_fleet(workload, args, streaming=True).serve(
        stream(workload, args.tracemalloc_queries, args.rate_qps, args.seed + 1)
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / (1024.0 * 1024.0)
    return {
        "n_queries": args.tracemalloc_queries,
        "peak_heap_mb": round(peak_mb, 2),
        "heap_ceiling_mb": args.heap_ceiling_mb,
        "under_heap_ceiling": bool(peak_mb <= args.heap_ceiling_mb),
    }


def check_streaming_parity(workload, args):
    """Streaming summary vs the record-based serve on one stream.

    Exact accumulator fields must agree to float noise; each latency
    percentile must land inside the sketch's rank-error bracket around
    the record-based order statistic.
    """
    arrivals = list(
        stream(workload, args.parity_queries, args.rate_qps, args.seed + 2)
    )
    recorded = build_fleet(workload, args, streaming=False).serve(arrivals)
    streamed = build_fleet(workload, args, streaming=True).serve(iter(arrivals))
    ranks = np.sort([r.latency for r in recorded.records])
    rs, ss = recorded.summary(), streamed.summary()
    exact_ok = True
    bound_ok = True
    for key, want in rs.items():
        got = ss[key]
        if key.startswith("p") and key.endswith("_latency_s"):
            q = int(key[1:-10])
            k = math.ceil(q / 100 * len(ranks))
            lo = ranks[max(0, k - 2)] * (1 - 2 * ALPHA)
            hi = ranks[min(len(ranks) - 1, k)] * (1 + 2 * ALPHA)
            if not lo <= got <= hi:
                bound_ok = False
                print(f"  BOUND MISS {key}: {got} outside [{lo}, {hi}]")
        elif not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            exact_ok = False
            print(f"  EXACT MISS {key}: {got} != {want}")
    return {
        "n_queries": args.parity_queries,
        "exact_fields_equal": bool(exact_ok),
        "percentiles_within_bound": bool(bound_ok),
        "relative_accuracy": ALPHA,
    }


def check_multiprocess_parity(workload, args):
    """Multiprocess merge vs the single-process sharded serve, bit for bit."""
    arrivals = list(
        stream(workload, args.multiprocess_queries, args.rate_qps, args.seed + 3)
    )
    config = FleetConfig(idle_release_timeout=None)
    pools = [args.pool_capacity] * args.pools
    allocator = static_allocator(args.budget)
    single = ShardedFleet(workload, pools, allocator, config=config).serve(
        arrivals
    )
    multi = ProcessShardExecutor(
        workload, pools, allocator, config=config
    ).serve(arrivals)
    identical = (
        multi.pool_of == single.pool_of
        and multi.records == single.records
        and multi.summary() == single.summary()
    )
    return {
        "n_queries": args.multiprocess_queries,
        "bit_identical": bool(identical),
    }


def run(args) -> int:
    workload = MicroWorkload()

    print(
        f"scale: serving {args.n_queries:,} queries "
        f"({args.pools}x{args.pool_capacity} pools, {args.rate_qps} qps) ..."
    )
    scale = run_scale(workload, args)
    print(
        f"  {scale['wall_seconds']}s wall, {scale['throughput_qps']:,} q/s, "
        f"peak RSS {scale['peak_rss_mb']} MiB "
        f"(ceiling {scale['rss_ceiling_mb']} MiB)"
    )
    print(f"tracemalloc: serving {args.tracemalloc_queries:,} queries ...")
    heap = run_tracemalloc(workload, args)
    print(
        f"  peak Python heap {heap['peak_heap_mb']} MiB "
        f"(ceiling {heap['heap_ceiling_mb']} MiB)"
    )
    print(f"parity: streaming vs records on {args.parity_queries:,} queries ...")
    streaming_parity = check_streaming_parity(workload, args)
    print(
        f"  exact={streaming_parity['exact_fields_equal']} "
        f"bound={streaming_parity['percentiles_within_bound']}"
    )
    print(
        f"parity: multiprocess merge on {args.multiprocess_queries:,} "
        "queries ..."
    )
    multiprocess_parity = check_multiprocess_parity(workload, args)
    print(f"  bit_identical={multiprocess_parity['bit_identical']}")

    result = {
        "schema": SCHEMA,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "params": {
            "n_queries": args.n_queries,
            "tracemalloc_queries": args.tracemalloc_queries,
            "parity_queries": args.parity_queries,
            "multiprocess_queries": args.multiprocess_queries,
            "rate_qps": args.rate_qps,
            "pools": args.pools,
            "pool_capacity": args.pool_capacity,
            "budget": args.budget,
            "seed": args.seed,
            "rss_ceiling_mb": args.rss_ceiling_mb,
            "heap_ceiling_mb": args.heap_ceiling_mb,
        },
        "scale": scale,
        "tracemalloc": heap,
        "parity": {
            "streaming": streaming_parity,
            "multiprocess": multiprocess_parity,
        },
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    ok = (
        scale["under_rss_ceiling"]
        and heap["under_heap_ceiling"]
        and streaming_parity["exact_fields_equal"]
        and streaming_parity["percentiles_within_bound"]
        and multiprocess_parity["bit_identical"]
    )
    return 0 if ok else 1


def main(argv=None):
    default_out = REPO_ROOT / "benchmarks" / "perf" / "output" / "BENCH_scale.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(default_out), help="output JSON path")
    parser.add_argument(
        "--n-queries",
        type=int,
        default=1_000_000,
        help="stream length of the gated streaming serve",
    )
    parser.add_argument(
        "--tracemalloc-queries",
        type=int,
        default=100_000,
        help="stream length of the tracemalloc heap-gate pass",
    )
    parser.add_argument(
        "--parity-queries",
        type=int,
        default=50_000,
        help="stream length of the streaming-vs-records parity check",
    )
    parser.add_argument(
        "--multiprocess-queries",
        type=int,
        default=20_000,
        help="stream length of the multiprocess merge parity check",
    )
    parser.add_argument(
        "--rate-qps",
        type=float,
        default=30.0,
        help="Poisson arrival rate; must stay below the pools' service "
        "capacity — including the executor provisioning ramp each query "
        "holds capacity through — or the waiting queue (and with it, "
        "memory) grows without bound and the gate measures backlog, not "
        "the serving mode (the 4x48/budget-2 micro pools saturate just "
        "past 40 qps)",
    )
    parser.add_argument("--pools", type=int, default=4, help="pool count")
    parser.add_argument(
        "--pool-capacity", type=int, default=48, help="executors per pool"
    )
    parser.add_argument(
        "--budget", type=int, default=2, help="executors granted per query"
    )
    parser.add_argument("--seed", type=int, default=0, help="stream RNG seed")
    parser.add_argument(
        # The serve measures ~38 MiB peak RSS (interpreter + numpy
        # included); the ceiling leaves room for runner/interpreter
        # variance while still catching ~0.15 KB/query of growth at 1M.
        "--rss-ceiling-mb",
        type=float,
        default=192.0,
        help="hard peak-RSS ceiling for the 1M-query serve (MiB)",
    )
    parser.add_argument(
        # Measured peak is ~0.5 MiB; a per-query leak of even ~150 bytes
        # blows this ceiling at the tracemalloc pass's stream length.
        "--heap-ceiling-mb",
        type=float,
        default=16.0,
        help="hard tracemalloc peak ceiling for the heap-gate pass (MiB)",
    )
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
