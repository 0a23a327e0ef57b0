"""Which ``repro`` functions each layer's spans wrap, and the metrics the
spans turn into.

Layers are named after the ``src/repro`` module that owns the wrapped
function.  A patch goes where the caller looks the name up: a class
attribute for methods, and the importing module's global for functions
imported by name (``compile_plan`` in ``repro.fleet.engine``,
``simulate_query_sweep`` in ``repro.core.training``, ``read_request``
in ``repro.serve.server``, ...).

Suffixes: ``_calls_per_q`` calls per served query (pass 0 only, so the
count repeats exactly); ``_s_per_kq`` wall seconds per 1,000 served
queries (all passes, inclusive of child spans unless the name says
``self``); ``_calls`` and ``_s`` per pass.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.core.autoexecutor as autoexecutor_module
import repro.core.training as training_module
import repro.fleet.engine as engine_module
import repro.serve.server as server_module
from repro.core.features import QueryFeatures
from repro.export.runtime import PortablePPMScorer
from repro.core.parameter_model import ParameterModel
from repro.engine.execution import ExecutionCore
from repro.engine.skyline import Skyline
from repro.fleet.admission import CapacityArbiter
from repro.fleet.autoscaler import PoolAutoscaler
from repro.fleet.cluster import ShardedFleet
from repro.fleet.engine import PoolRuntime
from repro.fleet.metrics import ClusterMetrics, PoolStreamStats
from repro.fleet.prediction import PredictionService
from repro.fleet.routing import CostAwareRouter, RoundRobinRouter
from repro.ml.forest import RandomForestRegressor
from repro.serve.app import RecommendApp
from repro.serve.batching import MicroBatcher

from perfbench.common import per, percentile
from perfbench.tracing import Patch, SpanRecorder

#: Fleet-side wrappers (``PoolRuntime`` handlers carry the query index
#: as their third positional argument: ``(self, now, q, ...)``).
FLEET_PATCHES: tuple[Patch, ...] = (
    Patch(ShardedFleet, "serve", "cluster.serve"),
    Patch(ShardedFleet, "max_budget", "cluster.max_budget"),
    Patch(RoundRobinRouter, "pick", "routing.pick"),
    Patch(CostAwareRouter, "pick", "routing.pick"),
    Patch(PoolRuntime, "submit", "pool.submit", id_arg=2),
    Patch(PoolRuntime, "drain_admissions", "pool.drain_admissions"),
    Patch(PoolRuntime, "handle_driver_done", "pool.driver_done", id_arg=2),
    Patch(PoolRuntime, "handle_exec_arrive", "pool.exec_arrive", id_arg=2),
    Patch(PoolRuntime, "handle_task_done", "pool.task_done", id_arg=2),
    Patch(PoolRuntime, "on_tick", "pool.tick"),
    Patch(PoolRuntime, "resize", "pool.resize"),
    Patch(PoolRuntime, "finalize", "pool.finalize"),
    Patch(CapacityArbiter, "submit", "admission.submit"),
    Patch(CapacityArbiter, "admit", "admission.admit"),
    Patch(CapacityArbiter, "try_acquire", "admission.try_acquire"),
    Patch(CapacityArbiter, "release", "admission.release"),
    Patch(CapacityArbiter, "resize", "admission.resize"),
    Patch(PoolAutoscaler, "evaluate", "autoscaler.evaluate"),
    Patch(PoolAutoscaler, "capacity_online", "autoscaler.capacity_online"),
    Patch(ExecutionCore, "assign", "execution.assign"),
    Patch(ExecutionCore, "complete_task", "execution.complete_task"),
    Patch(engine_module, "compile_plan", "execution.compile_plan"),
    Patch(Skyline, "auc", "skyline.auc"),
    Patch(Skyline, "record", "skyline.record"),
    Patch(PoolStreamStats, "observe", "metrics.observe"),
    Patch(ClusterMetrics, "summary", "metrics.summary"),
    Patch(PredictionService, "allocate", "prediction.allocate"),
    Patch(QueryFeatures, "from_plan", "features.from_plan"),
    Patch(ParameterModel, "predict_ppm", "model.predict_ppm"),
    Patch(autoexecutor_module, "build_training_dataset", "training.build_dataset"),
    Patch(training_module, "simulate_query_sweep", "sweep"),
    Patch(RandomForestRegressor, "fit", "forest.fit"),
)

#: Spans whose every duration is kept, for percentiles.
SAMPLED_SPANS = ("prediction.allocate",)

_ADMISSION_SPANS = (
    "admission.submit",
    "admission.admit",
    "admission.try_acquire",
    "admission.release",
    "admission.resize",
)


def _sum(traces: list[dict[str, Any]], kind: str, *names: str) -> float:
    return sum(trace[kind].get(name, 0.0) for trace in traces for name in names)


def fleet_metrics(
    traces: list[dict[str, Any]],
    first: dict[str, Any],
    queries: int,
    first_queries: int,
) -> dict[str, float]:
    """Per-layer fleet metrics: timings over every pass, counts from the
    first."""
    passes = len(traces)

    def calls_per_q(*names: str) -> float:
        return per(sum(first["calls"].get(n, 0) for n in names), first_queries)

    def s_per_kq(*names: str, kind: str = "total") -> float:
        return per(_sum(traces, kind, *names), queries, 1e3)

    def s_per_pass(name: str) -> float:
        return per(_sum(traces, "total", name), passes)

    allocate_us = [
        s * 1e6
        for trace in traces
        for s in trace["samples"].get("prediction.allocate", [])
    ]
    return {
        "arrivals.pull_s_per_kq": s_per_kq("arrivals.pull"),
        "cluster.serve_self_s_per_kq": s_per_kq("cluster.serve", kind="self"),
        "cluster.max_budget_calls_per_q": calls_per_q("cluster.max_budget"),
        "routing.pick_calls_per_q": calls_per_q("routing.pick"),
        "routing.pick_s_per_kq": s_per_kq("routing.pick"),
        "pool.submit_s_per_kq": s_per_kq("pool.submit"),
        "pool.drain_admissions_s_per_kq": s_per_kq("pool.drain_admissions"),
        "pool.exec_arrive_calls_per_q": calls_per_q("pool.exec_arrive"),
        "pool.exec_arrive_s_per_kq": s_per_kq("pool.exec_arrive"),
        "pool.task_done_calls_per_q": calls_per_q("pool.task_done"),
        "pool.task_done_s_per_kq": s_per_kq("pool.task_done"),
        "pool.tick_calls_per_q": calls_per_q("pool.tick"),
        "pool.tick_s_per_kq": s_per_kq("pool.tick"),
        "admission.acquire_calls_per_q": calls_per_q(
            "admission.submit", "admission.admit", "admission.try_acquire"
        ),
        "admission.release_calls_per_q": calls_per_q("admission.release"),
        "admission.s_per_kq": s_per_kq(*_ADMISSION_SPANS),
        "autoscaler.s_per_kq": s_per_kq(
            "autoscaler.evaluate", "autoscaler.capacity_online"
        ),
        "autoscaler.resizes": float(first["calls"].get("pool.resize", 0)),
        "execution.assign_calls_per_q": calls_per_q("execution.assign"),
        "execution.assign_s_per_kq": s_per_kq("execution.assign"),
        "execution.complete_task_calls_per_q": calls_per_q("execution.complete_task"),
        "execution.complete_task_s_per_kq": s_per_kq("execution.complete_task"),
        "execution.compile_plan_calls": float(
            first["calls"].get("execution.compile_plan", 0)
        ),
        "execution.compile_plan_s": s_per_pass("execution.compile_plan"),
        "skyline.auc_calls_per_q": calls_per_q("skyline.auc"),
        "skyline.auc_s_per_kq": s_per_kq("skyline.auc"),
        "skyline.record_calls_per_q": calls_per_q("skyline.record"),
        "metrics.observe_s_per_kq": s_per_kq("metrics.observe"),
        "metrics.summary_s": s_per_pass("metrics.summary"),
        "prediction.allocate_calls_per_q": calls_per_q("prediction.allocate"),
        "prediction.allocate_p50_us": percentile(allocate_us, 50),
        "prediction.allocate_p99_us": percentile(allocate_us, 99),
        "features.from_plan_calls": float(first["calls"].get("features.from_plan", 0)),
        "features.from_plan_s": s_per_pass("features.from_plan"),
        "model.predict_ppm_calls": float(first["calls"].get("model.predict_ppm", 0)),
        "model.predict_ppm_s": s_per_pass("model.predict_ppm"),
    }


class _FirstLineReader:
    """Stream-reader proxy noting when a request's first line arrived,
    so ``read_request`` is timed from there, not from the keep-alive
    wait that precedes it."""

    def __init__(self, reader: Any, clock: Callable[[], float]) -> None:
        self._reader = reader
        self._clock = clock
        self.first: float | None = None

    async def readuntil(self, separator: bytes = b"\n") -> bytes:
        line = await self._reader.readuntil(separator)
        if self.first is None:
            self.first = self._clock()
        return line

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)


@dataclass
class ServeTrace:
    """Server-side measurements beyond per-span aggregates."""

    submitted: dict[int, float] = field(default_factory=dict)
    queue_waits: list[float] = field(default_factory=list)
    handle: list[float] = field(default_factory=list)
    handle_by_request: dict[str, float] = field(default_factory=dict)
    rows: int = 0


def serve_patches(recorder: SpanRecorder, state: ServeTrace) -> tuple[Patch, ...]:
    """Server-side wrappers; every span of one request shares the id
    assigned when ``read_request`` returns it."""
    clock = recorder.clock
    request_ids = itertools.count()
    batch_ids = itertools.count()

    def read_request(original: Callable) -> Callable:
        async def wrapper(reader: Any, **kwargs: Any) -> Any:
            proxy = _FirstLineReader(reader, clock)
            request = await original(proxy, **kwargs)
            if request is not None and proxy.first is not None:
                recorder.current_id.set(next(request_ids))
                recorder.record("protocol.read_request", proxy.first, clock())
            return request

        return wrapper

    def handle(original: Callable) -> Callable:
        async def wrapper(self: Any, request: Any) -> Any:
            opened = recorder.enter("app.handle")
            try:
                return await original(self, request)
            finally:
                duration = recorder.exit(opened)
                if request.target == "/v1/recommend":
                    state.handle.append(duration)
                    request_id = json.loads(request.body).get("query_id")
                    state.handle_by_request[str(request_id)] = duration

        return wrapper

    def submit(original: Callable) -> Callable:
        async def wrapper(self: Any, item: Any) -> Any:
            opened = recorder.enter("batching.submit")
            state.submitted[id(item)] = opened[0].start
            try:
                return await original(self, item)
            finally:
                recorder.exit(opened)

        return wrapper

    def predict_batch(original: Callable) -> Callable:
        def wrapper(self: Any, plans: Any) -> Any:
            opened = recorder.enter("serve_prediction.predict_batch", next(batch_ids))
            start = opened[0].start
            for item in plans:
                submitted = state.submitted.pop(id(item), None)
                if submitted is not None:
                    state.queue_waits.append(start - submitted)
            try:
                return original(self, plans)
            finally:
                recorder.exit(opened)

        return wrapper

    def predict_ppm_batch(original: Callable) -> Callable:
        def wrapper(self: Any, matrix: Any) -> Any:
            opened = recorder.enter("inference.predict_ppm_batch")
            try:
                return original(self, matrix)
            finally:
                recorder.exit(opened)
                state.rows += len(matrix)

        return wrapper

    return (
        Patch(server_module, "read_request", factory=read_request),
        Patch(server_module, "render_response", "protocol.render"),
        Patch(RecommendApp, "handle", factory=handle),
        Patch(MicroBatcher, "submit", factory=submit),
        Patch(PredictionService, "predict_batch", factory=predict_batch),
        Patch(PortablePPMScorer, "predict_ppm_batch", factory=predict_ppm_batch),
    )


def serve_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """Per-layer server metrics from the launcher's trace document."""
    calls, total = trace["calls"], trace["total"]

    def us_per_call(name: str) -> float:
        return per(total.get(name, 0.0), calls.get(name, 0), 1e6)

    handle_us = [s * 1e6 for s in trace["handle"]]
    waits_us = [s * 1e6 for s in trace["queue_waits"]]
    batches = calls.get("serve_prediction.predict_batch", 0)
    inferences = calls.get("inference.predict_ppm_batch", 0)
    return {
        "protocol.read_request_us_per_req": us_per_call("protocol.read_request"),
        "protocol.render_us_per_req": us_per_call("protocol.render"),
        "app.handle_us_p50": percentile(handle_us, 50),
        "app.handle_us_p99": percentile(handle_us, 99),
        "batching.queue_wait_us_p50": percentile(waits_us, 50),
        "batching.queue_wait_us_p99": percentile(waits_us, 99),
        "batching.batch_size_mean": per(len(trace["queue_waits"]), batches),
        "batching.batches": float(batches),
        "serve_prediction.predict_batch_us_per_batch": us_per_call(
            "serve_prediction.predict_batch"
        ),
        "inference.predict_ppm_batch_us_per_call": us_per_call(
            "inference.predict_ppm_batch"
        ),
        "inference.rows_per_call": per(trace["rows"], inferences),
    }


def training_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """Training-layer metrics from the traced training call (0 if none)."""
    total = trace.get("total", {})
    return {
        "training.build_dataset_s": total.get("training.build_dataset", 0.0),
        "sweep.calls": float(trace.get("calls", {}).get("sweep", 0)),
        "sweep.s": total.get("sweep", 0.0),
        "forest.fit_s": total.get("forest.fit", 0.0),
    }
