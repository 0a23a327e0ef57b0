"""The recommendation application: routes, batching, self-measurement.

:class:`RecommendApp` is the HTTP-independent core of the serving layer:
it owns the :class:`~repro.fleet.prediction.PredictionService` (and with
it the plan-signature memo cache), the
:class:`~repro.serve.batching.MicroBatcher` that coalesces concurrent
recommendation requests into single
:meth:`~repro.export.runtime.PortablePPMScorer.predict_ppm_batch`
dispatches, and a :class:`~repro.obs.metrics.MetricsRegistry` of
counters and :class:`~repro.obs.sketch.QuantileSketch`\\ es that
self-measure the service (p50/p95/p99 service latency per endpoint,
batch-size distribution, cache hit rate) — served back as JSON at
``/metrics``.

**Measured overhead.**  This is the serving layer's one
*measured-overhead* module: service latency is real elapsed wall-clock
time (``time.perf_counter`` around each request's queue + batch + score
path), exactly like the prediction service's measured selection
overhead.  It is therefore allowlisted for the ``wall-clock`` analysis
rule; the rest of :mod:`repro.serve` must stay clock-free.

Endpoints (full request/response schemas in ``docs/serving.md``):

- ``POST /v1/recommend`` — one feature vector in, one executor-count
  recommendation out (a memo-cache hit is answered on the spot; misses
  are coalesced server-side into batched inference).
- ``GET /metrics`` — JSON self-measurement snapshot.
- ``GET /healthz`` — liveness + draining state.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from repro.core.features import FEATURE_NAMES, QueryFeatures
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.fleet.prediction import Prediction, PredictionService
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.batching import (
    BatcherClosedError,
    MicroBatcher,
    QueueFullError,
)
from repro.serve.protocol import HttpRequest, HttpResponse, ProtocolError, json_response

__all__ = ["ROUTES", "RecommendApp"]

#: The public routes, in documentation order.
ROUTES: tuple[str, ...] = ("/v1/recommend", "/metrics", "/healthz")


class RecommendApp:
    """Route recommendation traffic onto a batched prediction service.

    Args:
        service: the prediction service to answer with; its memo cache,
            hit counters, and batch inference path are reused verbatim,
            so an HTTP recommendation is the same decision the fleet
            allocator would have made.
        model_name: reported by ``/healthz`` and ``/metrics``.
        max_batch_size: cap on coalesced requests per inference call.
        max_wait_s: micro-batching window (see
            :class:`~repro.serve.batching.MicroBatcher`).
        queue_limit: bound on queued requests; beyond it requests are
            shed with 429.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, the
            app emits one ``serve_request`` event per handled request
            and one ``serve_batch`` event per coalesced dispatch (both
            stamped at time ``0.0``: the service has no simulation
            clock).
    """

    def __init__(
        self,
        service: PredictionService,
        *,
        model_name: str = "model",
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        queue_limit: int = 1024,
        tracer: Tracer | None = None,
    ) -> None:
        self.service = service
        self.model_name = model_name
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        self.draining = False
        self.batcher: MicroBatcher[QueryFeatures, tuple[Prediction, int]] = (
            MicroBatcher(
                self._score_batch,
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
                max_pending=queue_limit,
                observe_batch=self._observe_batch,
            )
        )

    @classmethod
    def from_registry(
        cls,
        registry_dir: str | Path,
        model_name: str,
        *,
        tracer: Tracer | None = None,
        **kwargs: object,
    ) -> "RecommendApp":
        """Build an app over a portable-model registry directory.

        Stands up the load-once :class:`~repro.export.runtime
        .PortableModelRuntime`, adapts the named model through
        :class:`~repro.export.runtime.PortablePPMScorer`, and fronts it
        with a fresh :class:`~repro.fleet.prediction.PredictionService`.
        """
        runtime = PortableModelRuntime(registry_dir)
        scorer = PortablePPMScorer(runtime, model_name)
        service = PredictionService(scorer, tracer=tracer)
        return cls(
            service,
            model_name=model_name,
            tracer=tracer,
            **kwargs,  # type: ignore[arg-type]
        )

    # --- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start the batching dispatcher (requires a running loop)."""
        self.batcher.start()

    async def close(self) -> None:
        """Drain the batcher; queued requests still get answers."""
        self.draining = True
        await self.batcher.close()

    # --- scoring ---------------------------------------------------------
    def _score_batch(
        self, items: list[QueryFeatures]
    ) -> list[tuple[Prediction, int]]:
        """One coalesced inference call; results ride with batch size."""
        predictions = self.service.predict_batch(items)
        return [(p, len(items)) for p in predictions]

    def _observe_batch(self, size: int) -> None:
        self.metrics.sketch("serve.batch_size").add(float(size))
        if self.tracer is not None:
            self.tracer.emit((0.0, "serve_batch", -1, -1, None, size))

    # --- request handling ------------------------------------------------
    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one parsed request, measuring its service latency.

        The measured window covers validation, queueing, the batching
        wait, inference, and response construction — everything between
        the request being parsed off the socket and its response bytes
        being ready, which is the latency a caller's deadline budget
        actually spends.
        """
        start = time.perf_counter()
        route, response = await self._route(request)
        elapsed = time.perf_counter() - start
        self.metrics.counter(f"http.requests.{route}").inc()
        self.metrics.counter(f"http.status.{response.status}").inc()
        self.metrics.sketch(f"serve.latency_s.{route}").add(elapsed)
        if self.tracer is not None:
            self.tracer.emit(
                (0.0, "serve_request", -1, -1, None, route, response.status, elapsed)
            )
        return response

    async def _route(self, request: HttpRequest) -> tuple[str, HttpResponse]:
        """Dispatch to the matching endpoint; returns (route label, response)."""
        path = request.target.split("?", 1)[0]
        if path == "/v1/recommend":
            if request.method != "POST":
                return path, _method_not_allowed("POST")
            return path, await self._recommend(request)
        if path == "/metrics":
            if request.method != "GET":
                return path, _method_not_allowed("GET")
            return path, json_response(200, self.metrics_snapshot())
        if path == "/healthz":
            if request.method != "GET":
                return path, _method_not_allowed("GET")
            return path, json_response(
                200,
                {
                    "status": "draining" if self.draining else "ok",
                    "model": self.model_name,
                },
            )
        return "other", json_response(
            404, {"error": f"unknown route {path!r}", "routes": list(ROUTES)}
        )

    async def _recommend(self, request: HttpRequest) -> HttpResponse:
        try:
            features = _parse_features(request)
        except ProtocolError as exc:
            return json_response(exc.status, {"error": exc.detail})
        # A memo hit needs no inference, so it skips the batching
        # window.  Once draining it goes through the batcher like a miss
        # and gets the same 503.
        prediction = None if self.draining else self.service.lookup(features)
        if prediction is not None:
            batch_size = 0
        else:
            try:
                prediction, batch_size = await self.batcher.submit(features)
            except QueueFullError:
                self.metrics.counter("serve.shed").inc()
                return json_response(
                    429,
                    {"error": "request queue is full; retry later"},
                    headers={"Retry-After": "1"},
                )
            except BatcherClosedError:
                return json_response(503, {"error": "server is draining"})
        return json_response(
            200,
            {
                "query_id": features.query_id,
                "executors": prediction.executors,
                "estimated_runtime_s": prediction.estimated_runtime_seconds,
                "cached": prediction.cached,
                "batch_size": batch_size,
            },
        )

    def note_timeout(self) -> None:
        """Record a request the server expired at its deadline (504)."""
        self.metrics.counter("serve.timeout").inc()
        self.metrics.counter("http.status.504").inc()

    # --- self-measurement ------------------------------------------------
    def metrics_snapshot(self) -> dict[str, object]:
        """The ``/metrics`` document: one JSON-safe self-measurement.

        Latency quantiles come from the per-endpoint sketches and carry
        the sketch's relative-accuracy bound; counts, cache stats, and
        batch totals are exact.
        """
        latency: dict[str, dict[str, float]] = {}
        for name, sketch in sorted(self.metrics.sketches.items()):
            if not name.startswith("serve.latency_s."):
                continue
            route = name[len("serve.latency_s.") :]
            latency[route] = {
                "count": float(sketch.count),
                "mean_ms": sketch.mean * 1e3,
                "p50_ms": sketch.quantile(50) * 1e3,
                "p95_ms": sketch.quantile(95) * 1e3,
                "p99_ms": sketch.quantile(99) * 1e3,
                "max_ms": (sketch.max or 0.0) * 1e3,
            }
        batch_sketch = self.metrics.sketches.get("serve.batch_size")
        batcher = self.batcher
        service = self.service
        decisions = service.hits + service.misses
        return {
            "model": self.model_name,
            "draining": self.draining,
            "requests": {
                name[len("http.requests.") :]: int(counter.value)
                for name, counter in sorted(self.metrics.counters.items())
                if name.startswith("http.requests.")
            },
            "status": {
                name[len("http.status.") :]: int(counter.value)
                for name, counter in sorted(self.metrics.counters.items())
                if name.startswith("http.status.")
            },
            "latency_ms": latency,
            "batch": {
                "batches": batcher.n_batches,
                "items": batcher.n_items,
                "mean_size": (
                    batcher.n_items / batcher.n_batches
                    if batcher.n_batches
                    else 0.0
                ),
                "peak_size": batcher.peak_batch_size,
                "p50_size": (
                    batch_sketch.quantile(50) if batch_sketch is not None else 0.0
                ),
                "pending": batcher.pending,
            },
            "prediction": {
                "hits": service.hits,
                "misses": service.misses,
                "hit_rate": service.hits / decisions if decisions else 0.0,
                "cache_size": service.cache_size,
                "evictions": service.evictions,
                "model_generation": service.generation,
                "mean_overhead_ms": service.mean_overhead_seconds() * 1e3,
            },
            "shed": int(self.metrics.counter("serve.shed").value),
            "timeouts": int(self.metrics.counter("serve.timeout").value),
        }


def _method_not_allowed(allowed: str) -> HttpResponse:
    return json_response(
        405, {"error": "method not allowed"}, headers={"Allow": allowed}
    )


def _parse_features(request: HttpRequest) -> QueryFeatures:
    """Validate a recommend payload into :class:`QueryFeatures`.

    Raises:
        ProtocolError: status 400 with a field-level message on any
            malformed payload — undecodable JSON, a non-object document,
            a missing/wrong-length/non-numeric/non-finite feature vector.
    """
    document = request.json()
    if not isinstance(document, dict):
        raise ProtocolError(400, "request body must be a JSON object")
    raw = document.get("features")
    if not isinstance(raw, list):
        raise ProtocolError(400, 'missing or non-array "features" field')
    if len(raw) != len(FEATURE_NAMES):
        raise ProtocolError(
            400,
            f'"features" must have {len(FEATURE_NAMES)} entries '
            f"(got {len(raw)}); the order is repro.core.features"
            ".FEATURE_NAMES",
        )
    values: list[float] = []
    for position, entry in enumerate(raw):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ProtocolError(
                400, f'"features"[{position}] is not a number'
            )
        try:
            value = float(entry)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            # json.loads accepts NaN / Infinity / -Infinity; the model
            # cannot price them.
            raise ProtocolError(400, f'"features"[{position}] is not finite')
        values.append(value)
    query_id = document.get("query_id", "")
    if not isinstance(query_id, str):
        raise ProtocolError(400, '"query_id" must be a string when present')
    return QueryFeatures(values=np.asarray(values), query_id=query_id)
