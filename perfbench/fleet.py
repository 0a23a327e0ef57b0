"""The two fleet workloads: ``fleet-stream`` and ``fleet-tpcds``.

Both drive :class:`repro.fleet.cluster.ShardedFleet` with inputs the
benchmark generates from its seed, and both serve that one stream again
and again (a *pass* each) until the run's time budget is spent.  Passes
repeat the same simulated work exactly, so deterministic per-layer counts
are taken from pass 0 and repeat however many passes fit, and wall-clock
figures use, for every position in the stream, the fastest of its passes
(see :func:`end_to_end`).

Correctness, every run:

- each pass's simulated outputs must satisfy the fleet's own invariants
  (every query served, capacity respected);
- a fixed check stream (seed :data:`CHECK_SEED`) is served too, and the
  hash of its summary (and, on ``fleet-tpcds``, of every per-query
  executor decision) must equal the value recorded in ``golden.json``.
  Traced runs serve the check stream with every wrapper installed, so
  the same hash proves that tracing changes nothing.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from perfbench import layers
from perfbench.common import ROOT, digest, peak_rss_mb, per, percentile
from perfbench.tracing import SpanRecorder, install
from repro.core.autoexecutor import AutoExecutor
from repro.engine.stages import Stage, StageGraph
from repro.fleet.arrivals import QueryArrival, poisson_arrival_stream
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import PoolSpec, ShardedFleet
from repro.fleet.engine import FleetConfig, static_allocator
from repro.fleet.prediction import PredictionService
from repro.fleet.routing import CostAwareRouter
from repro.workloads.generator import Workload

GOLDEN_PATH = ROOT / "perfbench" / "golden.json"

#: Seed of the fixed check stream whose hashes ``golden.json`` records.
CHECK_SEED = 0

#: Applications queries are attributed to (as ``poisson_arrivals``).
N_APPS = 16


class MicroWorkload:
    """Three single-stage queries, the ``bench-scale`` micro workload.

    The graphs are tiny on purpose: the workload loads the serving
    machinery (heap churn, finish accounting, metric folds), not plan
    execution.
    """

    def __init__(self) -> None:
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
    def query_ids(self) -> tuple[str, ...]:
        return tuple(self._graphs)

    def optimized_plan(self, query_id: str) -> None:
        return None  # static allocators never read the plan

    def stage_graph(self, query_id: str) -> StageGraph:
        return self._graphs[query_id]


class MixedScaleWorkload:
    """TPC-DS plans at several scale factors behind one id space.

    Ids read ``"<scale factor>:<query id>"``; each scale factor is its
    own :class:`~repro.workloads.generator.Workload`.  Duck-typed like
    every fleet workload (``optimized_plan`` + ``stage_graph``).
    """

    def __init__(self, scale_factors: tuple[int, ...]) -> None:
        self.workloads = {sf: Workload(scale_factor=sf) for sf in scale_factors}
        self.query_ids = tuple(
            f"{sf}:{qid}" for sf, workload in self.workloads.items() for qid in workload
        )

    def _route(self, query_id: str) -> tuple[Workload, str]:
        sf, qid = query_id.split(":", 1)
        return self.workloads[int(sf)], qid

    def optimized_plan(self, query_id: str):
        workload, qid = self._route(query_id)
        return workload.optimized_plan(qid)

    def stage_graph(self, query_id: str):
        workload, qid = self._route(query_id)
        return workload.stage_graph(qid)

    def warm(self) -> None:
        """Generate, optimize and compile every plan (set-up work)."""
        for query_id in self.query_ids:
            self.stage_graph(query_id)


class ArrivalClock:
    """Wrap an allocator to stamp the wall clock at every call.

    The fleet calls its allocator once per arrival, in arrival order,
    so consecutive stamps bound the wall time the event loop spent on
    one arrival and the events up to the next.  The serve's start and
    end are stamped too, so the gaps add up to the whole serve.
    """

    def __init__(self, allocator: Callable) -> None:
        self.stamps: list[float] = []
        stamp, clock = self.stamps.append, time.perf_counter

        def allocate(query_id: str, plan: object) -> Any:
            stamp(clock())
            return allocator(query_id, plan)

        allocate.policy_name = getattr(allocator, "policy_name", "custom")
        self.allocate = allocate

    def gaps(self) -> list[float]:
        """Start to first arrival, arrival to arrival, last arrival to end."""
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class TimedArrivals:
    """An arrival iterator whose every pull is an ``arrivals.pull`` span."""

    def __init__(self, arrivals: Iterator[QueryArrival], recorder: SpanRecorder):
        self._arrivals = arrivals
        self._recorder = recorder

    def __iter__(self) -> "TimedArrivals":
        return self

    def __next__(self) -> QueryArrival:
        opened = self._recorder.enter("arrivals.pull")
        try:
            return next(self._arrivals)
        finally:
            self._recorder.exit(opened)


@dataclass
class PassResult:
    """One served stream: wall clock, simulated outputs, optional trace."""

    queries: int
    wall_s: float
    #: Start to first arrival, one gap per later arrival, then the drain.
    gaps: list[float]
    summary: dict[str, float]
    digests: dict[str, str]
    hit_rate: float = 0.0
    trace: dict[str, Any] | None = None
    spans: dict[str, Any] | None = None


@dataclass
class FleetWorkload:
    """What differs between the two fleet workloads."""

    name: str
    state: Any = None
    train_s: float = 0.0
    train_trace: dict[str, Any] | None = None
    system: AutoExecutor | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def train(self, recorder: SpanRecorder | None) -> None:
        """Work timed apart from set-up (training, on ``fleet-tpcds``)."""

    def serve(
        self, rng: np.random.Generator, recorder: SpanRecorder | None, check: bool
    ) -> PassResult:
        raise NotImplementedError


class FleetStream(FleetWorkload):
    """4 static pools of 48, budget 2, round-robin, streaming mode."""

    POOLS = 4
    POOL_CAPACITY = 48
    BUDGET = 2
    #: The pools saturate just past 40 q/s; 30 q/s keeps queues bounded.
    RATE_QPS = 30.0
    PASS_QUERIES = 20_000
    CHECK_QUERIES = 5_000

    def setup(self) -> None:
        self.state = MicroWorkload()

    def serve(self, rng, recorder, check):
        n = self.CHECK_QUERIES if check else self.PASS_QUERIES
        arrivals: Iterator[QueryArrival] = poisson_arrival_stream(
            self.state.query_ids,
            n_queries=n,
            rate_qps=self.RATE_QPS,
            n_apps=N_APPS,
            seed=int(rng.integers(0, 2**31)),
        )
        if recorder is not None:
            arrivals = TimedArrivals(arrivals, recorder)
        clock = ArrivalClock(static_allocator(self.BUDGET))
        fleet = ShardedFleet(
            self.state,
            [self.POOL_CAPACITY] * self.POOLS,
            clock.allocate,
            config=FleetConfig(streaming=True, idle_release_timeout=None),
        )
        metrics, wall, summary = _timed_serve(fleet, arrivals, clock)
        served = sum(pool.stats.n_queries for pool in metrics.pools)
        if served != n or not metrics.capacity_respected:
            raise RuntimeError(f"fleet-stream served {served} of {n} queries")
        return PassResult(
            queries=n,
            wall_s=wall,
            gaps=clock.gaps(),
            summary=summary,
            digests={"summary": digest(summary)},
        )


class FleetTpcds(FleetWorkload):
    """AutoExecutor-predicted budgets over 206 TPC-DS plans, 4 autoscaled
    pools behind the cost-aware router, record mode."""

    #: Scale factor 1000 is left out: its longest plans run ~40,000
    #: simulated seconds, so every pass ended in a drain of autoscaler
    #: ticks worth ~40% of its wall time, a run fitted only 3-4 passes,
    #: and the per-position minima (see :func:`end_to_end`) swung by up to
    #: 0.47 (quartile distance over median) across ten runs.
    SCALE_FACTORS = (10, 100)
    TRAIN_SCALE_FACTOR = 100
    POOLS = 4
    MIN_CAPACITY = 16
    MAX_CAPACITY = 96
    #: Below saturation: queries wait ~2 s on average for admission
    #: against a p95 latency of ~330 s.
    RATE_QPS = 0.1
    #: Each pass serves every plan this many times, in seeded order.
    ROUNDS = 2
    CHECK_ROUNDS = 1

    def setup(self) -> None:
        self.state = MixedScaleWorkload(self.SCALE_FACTORS)
        self.state.warm()

    def train(self, recorder):
        workload = self.state.workloads[self.TRAIN_SCALE_FACTOR]
        start = time.perf_counter()
        with _maybe_install(recorder, layers.FLEET_PATCHES):
            self.system = AutoExecutor(family="power_law").train(workload)
        self.train_s = time.perf_counter() - start
        if recorder is not None:
            self.train_trace = recorder.snapshot()

    def arrivals(self, rng: np.random.Generator, check: bool) -> list[QueryArrival]:
        """Every plan ``ROUNDS`` times, each round in seeded order, at
        Poisson times: the plan mix (and so the work) is the same for
        every seed, its order and timing are not."""
        ids = self.state.query_ids
        rounds = self.CHECK_ROUNDS if check else self.ROUNDS
        picks = np.concatenate([rng.permutation(len(ids)) for _ in range(rounds)])
        gaps = rng.exponential(1.0 / self.RATE_QPS, size=len(picks))
        times = np.cumsum(gaps) - gaps[0]
        apps = rng.integers(0, N_APPS, size=len(picks))
        return [
            QueryArrival(i, ids[p], int(apps[i]), float(times[i]))
            for i, p in enumerate(picks)
        ]

    def serve(self, rng, recorder, check):
        arrivals = self.arrivals(rng, check)
        service = PredictionService.from_autoexecutor(self.system)
        clock = ArrivalClock(service.allocate)
        pools = [
            PoolSpec(
                capacity=self.MIN_CAPACITY,
                autoscaler=AutoscalerConfig(
                    min_capacity=self.MIN_CAPACITY, max_capacity=self.MAX_CAPACITY
                ),
            )
            for _ in range(self.POOLS)
        ]
        fleet = ShardedFleet(
            self.state,
            pools,
            clock.allocate,
            router=CostAwareRouter(),
            config=FleetConfig(charge_prediction_overhead=False),
        )
        metrics, wall, summary = _timed_serve(fleet, arrivals, clock)
        if len(metrics.records) != len(arrivals) or not metrics.capacity_respected:
            raise RuntimeError("fleet-tpcds dropped queries or overran a pool")
        decisions = [
            [r.query_id, r.annotations["predicted_executors"], r.executors_granted, pool]
            for r, pool in zip(metrics.records, metrics.pool_of)
        ]
        return PassResult(
            queries=len(arrivals),
            wall_s=wall,
            gaps=clock.gaps(),
            summary=summary,
            digests={"summary": digest(summary), "decisions": digest(decisions)},
            hit_rate=per(service.hits, service.hits + service.misses),
        )


WORKLOADS: dict[str, type[FleetWorkload]] = {
    "fleet-stream": FleetStream,
    "fleet-tpcds": FleetTpcds,
}


def _maybe_install(recorder: SpanRecorder | None, patches):
    """The fleet wrappers when tracing, nothing otherwise."""
    return nullcontext() if recorder is None else install(recorder, patches)


def _timed_serve(fleet, arrivals, clock):
    """Time the serve call, stamping its start and end on ``clock``."""
    gc.collect()
    clock.stamps.append(time.perf_counter())
    metrics = fleet.serve(arrivals)
    clock.stamps.append(time.perf_counter())
    return metrics, clock.stamps[-1] - clock.stamps[0], metrics.summary()


def load_golden() -> dict[str, dict[str, str]]:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_stream(workload: FleetWorkload, traced: bool) -> dict[str, str]:
    """Serve the fixed check stream; return its digests."""
    recorder = None
    if traced:
        recorder = SpanRecorder()
        recorder.keep_spans = False
    rng = np.random.default_rng(CHECK_SEED)
    with _maybe_install(recorder, layers.FLEET_PATCHES):
        return workload.serve(rng, recorder, check=True).digests


def setup(name: str) -> FleetWorkload:
    workload = WORKLOADS[name](name)
    workload.setup()
    return workload


def run(
    name: str, seed: int, seconds: float, traced: bool, log: Callable[[str], None]
) -> dict[str, Any]:
    """One measured run: set up, (train), serve passes, check, report."""
    workload = setup(name)
    workload.train(SpanRecorder() if traced else None)

    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        recorder = None
        if traced:
            recorder = SpanRecorder(sampled=layers.SAMPLED_SPANS)
            recorder.keep_spans = not passes
        rng = np.random.default_rng(seed)
        with _maybe_install(recorder, layers.FLEET_PATCHES):
            result = workload.serve(rng, recorder, check=False)
        if recorder is not None:
            result.trace = recorder.snapshot()
            if not passes:
                result.spans = recorder.raw_spans()
        passes.append(result)
        log(
            f"pass {len(passes) - 1}: {result.queries} queries in "
            f"{result.wall_s:.3f} s; digests {json.dumps(result.digests, sort_keys=True)}"
        )

    golden = load_golden().get(name)
    check = check_stream(workload, traced)
    log(f"check stream digests {json.dumps(check, sort_keys=True)}; golden {golden}")
    replayed = all(p.digests == passes[0].digests for p in passes)
    if not replayed:
        log("passes of one stream disagree: the serve is not deterministic")
    return {
        "workload": workload,
        "passes": passes,
        "correct": replayed and golden is not None and check == golden,
        "attempted": sum(p.queries for p in passes),
        "failed": 0,
        "peak_rss_mb": peak_rss_mb(),
        "spans": passes[0].spans,
    }


def end_to_end(outcome: dict[str, Any]) -> dict[str, float]:
    """Wall-clock figures of the stream's fastest replay.

    Every pass does identical work, so each gap (one position in the
    stream) is timed once per pass and its minimum kept: on a shared
    machine, interference only ever adds time, and the per-position
    minimum removes it where any pass ran clear of it.  Throughput is
    queries over the sum of the minima; the latency percentiles are over
    the per-arrival minima (start and drain excluded).
    """
    passes: list[PassResult] = outcome["passes"]
    best = np.min(np.array([p.gaps for p in passes]), axis=0)
    per_arrival = best[1:-1].tolist()
    return {
        "throughput_per_s": per(passes[0].queries, float(best.sum())),
        "latency_p50_ms": percentile(per_arrival, 50) * 1e3,
        "latency_p99_ms": percentile(per_arrival, 99) * 1e3,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def per_layer(outcome: dict[str, Any]) -> dict[str, float]:
    """The fleet layers' metrics from a traced run's passes."""
    passes: list[PassResult] = outcome["passes"]
    workload: FleetWorkload = outcome["workload"]
    first = passes[0]
    queries = sum(p.queries for p in passes)
    out = layers.fleet_metrics(
        [p.trace for p in passes], first.trace, queries, first.queries
    )
    out.update(layers.training_metrics(workload.train_trace or {}))
    out.update(
        {
            "sim_queries_per_s": per(queries, sum(p.wall_s for p in passes)),
            "train_s": workload.train_s,
            "sim_p95_latency_s": first.summary["p95_latency_s"],
            "sim_dollar_cost": first.summary["total_dollar_cost"],
            "admission.mean_queue_delay_s": first.summary["mean_queue_delay_s"],
            "prediction.hit_rate": first.hit_rate,
            "error_share": per(outcome["failed"], outcome["attempted"]),
        }
    )
    for key, value in end_to_end(outcome).items():
        if key != "peak_rss_mb":
            out[f"traced.{key}"] = value
    return out
