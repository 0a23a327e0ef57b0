"""End-to-end tests: live server, real sockets, full request lifecycle.

Deterministic stub scorers stand in for the model on lifecycle tests
(the PPM is a pure function of feature[0], so cache behaviour is
scripted exactly); the parity tests at the bottom use the conftest's
real exported-forest registry.  Everything drives asyncio inline with
``asyncio.run`` — the repo has no pytest-asyncio.
"""

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro.core.features import FEATURE_NAMES, QueryFeatures
from repro.core.parameter_model import ParameterModel
from repro.core.ppm import PowerLawPPM
from repro.core.selection import elbow_point
from repro.core.training import DEFAULT_N_GRID
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.fleet.prediction import PredictionService
from repro.ml.forest import RandomForestRegressor
from repro.obs.trace import EVENT_KINDS, RingBufferTracer
from repro.serve import RecommendApp, ServeClient, ServerConfig
from repro.serve.server import RecommendationServer

N_FEATURES = len(FEATURE_NAMES)


def features_payload(scale=1.0, query_id=""):
    """A valid /v1/recommend JSON body; ``scale`` keys the cache entry."""
    payload = {"features": [float(scale)] * N_FEATURES}
    if query_id:
        payload["query_id"] = query_id
    return payload


def _ppm_for(scale):
    return PowerLawPPM(a=-0.8, b=50.0 + 10.0 * float(scale), m=2.0)


class StubScorer:
    """Deterministic scorer: the PPM is a function of feature[0] only."""

    def __init__(self):
        self.single_calls = 0
        self.batch_calls = 0
        self.batch_sizes = []

    def predict_ppm(self, features):
        self.single_calls += 1
        return _ppm_for(np.asarray(features.values)[0])

    def predict_ppm_batch(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.batch_calls += 1
        self.batch_sizes.append(matrix.shape[0])
        return [_ppm_for(row[0]) for row in matrix]


@contextlib.asynccontextmanager
async def serve_stack(
    scorer=None,
    *,
    app_kwargs=None,
    config=None,
    tracer=None,
):
    """Start an app+server over ``scorer``; yield (server, app, host, port)."""
    service = PredictionService(
        scorer if scorer is not None else StubScorer(), tracer=tracer
    )
    app = RecommendApp(
        service, model_name="test", tracer=tracer, **(app_kwargs or {})
    )
    server = RecommendationServer(app, config or ServerConfig(port=0))
    await server.start()
    host, port = server.address
    try:
        yield server, app, host, port
    finally:
        await server.shutdown()


@pytest.fixture()
def stub_scorer():
    return StubScorer()


class TestRoutes:
    def test_healthz(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    reply = await client.get("/healthz")
                    return reply.status, reply.json()

        status, body = asyncio.run(run())
        assert status == 200
        assert body == {"model": "test", "status": "ok"}

    def test_recommend_roundtrip_and_cache(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    first = (
                        await client.post_json(
                            "/v1/recommend", features_payload(1.0, "q-1")
                        )
                    ).json()
                    second = (
                        await client.post_json(
                            "/v1/recommend", features_payload(1.0, "q-1")
                        )
                    ).json()
                    return first, second

        first, second = asyncio.run(run())
        assert first["query_id"] == "q-1"
        assert first["cached"] is False
        assert second["cached"] is True  # same signature: memo hit
        assert second["executors"] == first["executors"]
        assert second["estimated_runtime_s"] == first["estimated_runtime_s"]

    def test_unknown_route_404_lists_routes(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    reply = await client.get("/nope")
                    return reply.status, reply.json()

        status, body = asyncio.run(run())
        assert status == 404
        assert "/v1/recommend" in body["routes"]

    def test_method_not_allowed_405(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    get_on_post = await client.get("/v1/recommend")
                    post_on_get = await client.post_json("/metrics", {})
                    return get_on_post, post_on_get

        get_on_post, post_on_get = asyncio.run(run())
        assert get_on_post.status == 405
        assert get_on_post.headers["allow"] == "POST"
        assert post_on_get.status == 405

    def test_keep_alive_connection_reuse(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    statuses = []
                    for _ in range(5):
                        statuses.append((await client.get("/healthz")).status)
                    return statuses

        assert asyncio.run(run()) == [200] * 5


class TestValidation:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([1, 2, 3], "JSON object"),
            ({}, '"features"'),
            ({"features": "nope"}, '"features"'),
            ({"features": [1.0] * 3}, "19 entries"),
            (
                {"features": [1.0] * (len(FEATURE_NAMES) - 1) + ["x"]},
                "not a number",
            ),
            (
                {"features": [1.0] * (len(FEATURE_NAMES) - 1) + [True]},
                "not a number",
            ),
            (
                {"features": [1.0] * len(FEATURE_NAMES), "query_id": 7},
                "query_id",
            ),
        ],
    )
    def test_bad_payloads_400(self, stub_scorer, payload, fragment):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    reply = await client.post_json("/v1/recommend", payload)
                    return reply.status, reply.json()

        status, body = asyncio.run(run())
        assert status == 400
        assert fragment in body["error"]

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "int-overflow"],
    )
    def test_non_finite_feature_400(self, stub_scorer, literal):
        """``json.loads`` parses NaN/Infinity/-Infinity (and an integer
        past the float range overflows ``float``); none of them can be
        priced, so the parse rejects them before the batcher."""
        last = len(FEATURE_NAMES) - 1
        body = '{"features": [' + "1.0, " * last + literal + "]}"

        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    reply = await client.request(
                        "POST", "/v1/recommend", body=body.encode()
                    )
                    return reply.status, reply.json()

        status, reply = asyncio.run(run())
        assert status == 400
        assert reply["error"] == f'"features"[{last}] is not finite'
        assert stub_scorer.batch_calls == 0
        assert stub_scorer.single_calls == 0

    def test_malformed_json_400(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    reply = await client.request(
                        "POST", "/v1/recommend", body=b"{not json"
                    )
                    return reply.status

        assert asyncio.run(run()) == 400

    def test_oversized_body_413_closes_connection(self, stub_scorer):
        async def run():
            config = ServerConfig(port=0, max_body_bytes=256)
            async with serve_stack(stub_scorer, config=config) as (
                _,
                _,
                host,
                port,
            ):
                async with ServeClient(host, port) as client:
                    reply = await client.request(
                        "POST", "/v1/recommend", body=b"x" * 1024
                    )
                    return reply.status, reply.headers["connection"]

        status, connection = asyncio.run(run())
        assert status == 413
        assert connection == "close"

    def test_raw_garbage_request_line_400(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"garbage\r\n\r\n")
                await writer.drain()
                raw = await reader.read(4096)
                writer.close()
                return raw

        raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 400")


class TestBatchingBehaviour:
    def test_concurrent_requests_coalesce(self, stub_scorer):
        async def run():
            kwargs = {"max_wait_s": 0.05}
            async with serve_stack(stub_scorer, app_kwargs=kwargs) as (
                _,
                app,
                host,
                port,
            ):

                async def one(i):
                    async with ServeClient(host, port) as client:
                        reply = await client.post_json(
                            "/v1/recommend", features_payload(i % 4)
                        )
                        return reply.json()

                out = await asyncio.gather(*(one(i) for i in range(16)))
                return out, app.batcher.n_batches

        out, n_batches = asyncio.run(run())
        assert len(out) == 16
        assert n_batches < 16  # coalescing happened
        assert max(o["batch_size"] for o in out) > 1

    def test_coalescing_is_deterministic(self, stub_scorer):
        """Recommendations are independent of how requests were grouped.

        The same 24 feature vectors are served twice — serially (every
        request its own batch) and as one concurrent burst (arbitrary
        coalescing) — and must produce identical executor counts and
        runtime estimates (the scorer batch contract carried through the
        HTTP layer).
        """

        scales = [float(i % 6) for i in range(24)]

        async def serve(concurrent):
            async with serve_stack(
                StubScorer(), app_kwargs={"max_wait_s": 0.05}
            ) as (_, _, host, port):

                async def one(scale):
                    async with ServeClient(host, port) as client:
                        reply = await client.post_json(
                            "/v1/recommend", features_payload(scale)
                        )
                        return reply.json()

                if concurrent:
                    return await asyncio.gather(*(one(s) for s in scales))
                return [await one(s) for s in scales]

        serial = asyncio.run(serve(False))
        burst = asyncio.run(serve(True))
        for a, b in zip(serial, burst):
            assert a["executors"] == b["executors"]
            assert a["estimated_runtime_s"] == b["estimated_runtime_s"]

    def test_parameter_model_scorer_serves_its_own_answers(self):
        """An in-process ParameterModel is a batch scorer too: the HTTP
        answers equal its single-row ``predict_ppm`` plus elbow."""
        rng = np.random.default_rng(5)
        X = rng.random((40, N_FEATURES))
        Y = np.column_stack(
            [-rng.random(40) - 0.1, rng.random(40) * 50 + 10, rng.random(40) * 2]
        )
        forest = RandomForestRegressor(n_estimators=6, random_state=0)
        model = ParameterModel("power_law", estimator=forest).fit(X, Y)
        matrix = rng.random((6, N_FEATURES))

        async def run():
            async with serve_stack(model, app_kwargs={"max_wait_s": 0.05}) as (
                _,
                _,
                host,
                port,
            ):

                async def one(row):
                    async with ServeClient(host, port) as client:
                        payload = {"features": [float(v) for v in row]}
                        reply = await client.post_json("/v1/recommend", payload)
                        return reply.json()

                return await asyncio.gather(*(one(row) for row in matrix))

        served = asyncio.run(run())
        assert max(body["batch_size"] for body in served) > 1
        for body, row in zip(served, matrix):
            curve = model.predict_ppm(row).predict_curve(DEFAULT_N_GRID)
            chosen = int(np.clip(elbow_point(DEFAULT_N_GRID, curve), 1, 48))
            runtime = float(curve[np.nonzero(DEFAULT_N_GRID == chosen)[0][0]])
            assert body["executors"] == chosen
            assert body["estimated_runtime_s"] == runtime


class TestOverloadAndDeadlines:
    def test_queue_full_429(self, stub_scorer):
        async def run():
            kwargs = {"queue_limit": 1, "max_wait_s": 5.0}
            async with serve_stack(stub_scorer, app_kwargs=kwargs) as (
                _,
                app,
                host,
                port,
            ):

                async def one():
                    async with ServeClient(host, port) as client:
                        reply = await client.post_json(
                            "/v1/recommend", features_payload(1.0)
                        )
                        return reply.status, dict(reply.headers)

                results = await asyncio.gather(*(one() for _ in range(6)))
                await app.batcher.close()
                return results

        results = asyncio.run(run())
        statuses = sorted(status for status, _ in results)
        assert 429 in statuses
        for status, headers in results:
            if status == 429:
                assert headers["retry-after"] == "1"

    def test_deadline_expiry_504(self):
        """A request whose batching wait outlives the deadline gets 504.

        The batch window (2 s) is far longer than the request deadline
        (50 ms), so the lone request expires while waiting for company —
        the realistic expiry mode, since inference itself is a blocking
        call the loop cannot preempt.
        """

        async def run():
            config = ServerConfig(port=0, request_timeout_s=0.05)
            kwargs = {"max_wait_s": 2.0}
            async with serve_stack(
                StubScorer(), config=config, app_kwargs=kwargs
            ) as (
                _,
                app,
                host,
                port,
            ):
                async with ServeClient(host, port) as client:
                    reply = await client.post_json(
                        "/v1/recommend", features_payload(1.0)
                    )
                    status = reply.status
                metrics = app.metrics_snapshot()
                return status, metrics

        status, metrics = asyncio.run(run())
        assert status == 504
        assert metrics["timeouts"] == 1
        assert metrics["status"]["504"] == 1

    def test_handler_bug_500_keeps_connection(self, stub_scorer, monkeypatch):
        async def run():
            async with serve_stack(stub_scorer) as (_, app, host, port):

                async def explode(request):
                    raise ValueError("handler bug")

                monkeypatch.setattr(app, "handle", explode)
                async with ServeClient(host, port) as client:
                    first = (await client.get("/healthz")).status
                    monkeypatch.undo()
                    second = (await client.get("/healthz")).status
                    return first, second

        first, second = asyncio.run(run())
        assert first == 500
        assert second == 200  # same connection survived the failure


class TestShutdown:
    def test_drain_answers_queued_requests(self, stub_scorer):
        async def run():
            kwargs = {"max_wait_s": 5.0}
            async with serve_stack(stub_scorer, app_kwargs=kwargs) as (
                server,
                _,
                host,
                port,
            ):

                async def one():
                    async with ServeClient(host, port) as client:
                        reply = await client.post_json(
                            "/v1/recommend", features_payload(1.0)
                        )
                        return reply.status

                tasks = [asyncio.ensure_future(one()) for _ in range(4)]
                await asyncio.sleep(0.05)  # let them queue into the window
                await server.shutdown()
                return await asyncio.gather(*tasks)

        # Queued requests get real answers, not connection resets.
        assert asyncio.run(run()) == [200] * 4

    def test_post_shutdown_connections_refused_or_closed(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (server, _, host, port):
                await server.shutdown()
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port), 0.5
                    )
                except (ConnectionError, asyncio.TimeoutError):
                    return True
                writer.close()
                return False

        assert asyncio.run(run()) is True

    def test_draining_connections_get_503(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (server, _, host, port):
                client = ServeClient(host, port)
                await client.connect()
                assert (await client.get("/healthz")).status == 200
                # Flip the drain flag directly: the established
                # connection's next request must be refused politely.
                server._draining = True
                reply = await client.get("/healthz")
                await client.close()
                server._draining = False
                return reply.status, reply.headers["connection"]

        status, connection = asyncio.run(run())
        assert status == 503
        assert connection == "close"


class TestMetricsAndTracing:
    def test_metrics_document_shape(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    for scale in (1.0, 1.0, 2.0):
                        await client.post_json(
                            "/v1/recommend", features_payload(scale)
                        )
                    return (await client.get("/metrics")).json()

        metrics = asyncio.run(run())
        assert metrics["model"] == "test"
        assert metrics["requests"]["/v1/recommend"] == 3
        assert metrics["status"]["200"] == 3
        latency = metrics["latency_ms"]["/v1/recommend"]
        assert latency["count"] == 3
        for field in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert latency[field] >= 0
        assert metrics["batch"]["items"] == 2  # the hit skipped the batcher
        assert metrics["prediction"]["hits"] == 1
        assert metrics["prediction"]["misses"] == 2
        assert metrics["prediction"]["hit_rate"] == pytest.approx(1 / 3)
        assert metrics["shed"] == 0
        assert metrics["timeouts"] == 0

    def test_trace_events_emitted_and_in_taxonomy(self, stub_scorer):
        async def run():
            tracer = RingBufferTracer(capacity=256)
            async with serve_stack(stub_scorer, tracer=tracer) as (
                _,
                _,
                host,
                port,
            ):
                async with ServeClient(host, port) as client:
                    await client.post_json(
                        "/v1/recommend", features_payload(1.0)
                    )
                    await client.get("/metrics")
                return list(tracer.events)

        events = asyncio.run(run())
        kinds = {event.kind for event in events}
        assert "serve_request" in kinds
        assert "serve_batch" in kinds
        assert kinds <= EVENT_KINDS.keys()  # runtime kinds stay in the taxonomy
        request_events = [e for e in events if e.kind == "serve_request"]
        assert {e.data["route"] for e in request_events} == {
            "/v1/recommend",
            "/metrics",
        }


class TestCacheHitFastPath:
    """A memo hit is answered at parse time and never enters the batcher;
    only misses wait in the batching window."""

    def test_hit_skips_the_batcher(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, app, host, port):
                async with ServeClient(host, port) as client:
                    payload = features_payload(1.0)
                    miss = (await client.post_json("/v1/recommend", payload)).json()
                    items = app.batcher.n_items
                    hit = (await client.post_json("/v1/recommend", payload)).json()
                    return miss, hit, items, app.batcher.n_items

        miss, hit, items_before, items_after = asyncio.run(run())
        assert miss["cached"] is False
        assert miss["batch_size"] == 1
        assert hit["cached"] is True
        assert hit["batch_size"] == 0  # shared no inference
        assert items_after == items_before
        assert hit["executors"] == miss["executors"]
        assert hit["estimated_runtime_s"] == miss["estimated_runtime_s"]

    def test_hits_plus_misses_count_the_200s(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, app, host, port):
                async with ServeClient(host, port) as client:
                    statuses = []
                    for scale in (1.0, 2.0, 1.0, 1.0, 3.0, 2.0):
                        reply = await client.post_json(
                            "/v1/recommend", features_payload(scale)
                        )
                        statuses.append(reply.status)
                    reply = await client.post_json("/v1/recommend", {})
                    statuses.append(reply.status)
                    return statuses, app.service

        statuses, service = asyncio.run(run())
        assert statuses.count(400) == 1
        assert service.hits + service.misses == statuses.count(200)
        assert (service.hits, service.misses) == (3, 3)

    def test_swap_scorer_turns_a_cached_vector_into_a_miss(self, stub_scorer):
        class DoubledScorer(StubScorer):
            def predict_ppm_batch(self, matrix):
                matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
                self.batch_calls += 1
                return [_ppm_for(2.0 * row[0]) for row in matrix]

        async def run():
            async with serve_stack(stub_scorer) as (_, app, host, port):
                async with ServeClient(host, port) as client:
                    payload = features_payload(3.0)
                    await client.post_json("/v1/recommend", payload)
                    cached = (await client.post_json("/v1/recommend", payload)).json()
                    new_scorer = DoubledScorer()
                    app.service.swap_scorer(new_scorer)
                    after = (await client.post_json("/v1/recommend", payload)).json()
                    return cached, after, new_scorer.batch_calls

        cached, after, new_batch_calls = asyncio.run(run())
        assert cached["cached"] is True
        assert after["cached"] is False
        assert after["batch_size"] == 1
        assert new_batch_calls == 1
        fresh = PredictionService(StubScorer()).predict_batch(
            [QueryFeatures(np.full(N_FEATURES, 6.0))]
        )[0]
        assert after["estimated_runtime_s"] == fresh.estimated_runtime_seconds
        assert after["estimated_runtime_s"] != cached["estimated_runtime_s"]

    def test_hit_after_close_gets_503(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, app, host, port):
                async with ServeClient(host, port) as client:
                    payload = features_payload(1.0)
                    await client.post_json("/v1/recommend", payload)
                    await app.close()
                    reply = await client.post_json("/v1/recommend", payload)
                    return reply.status, reply.json(), app.service.hits

        status, body, hits = asyncio.run(run())
        assert status == 503
        assert body == {"error": "server is draining"}
        assert hits == 0  # a refused request is not a served decision

    def test_concurrent_burst_of_misses_still_coalesces(self, stub_scorer):
        async def run():
            kwargs = {"max_wait_s": 0.05}
            async with serve_stack(stub_scorer, app_kwargs=kwargs) as (
                _,
                app,
                host,
                port,
            ):

                async def one(i):
                    async with ServeClient(host, port) as client:
                        reply = await client.post_json(
                            "/v1/recommend", features_payload(i % 4)
                        )
                        return reply.status

                statuses = await asyncio.gather(*(one(i) for i in range(16)))
                return statuses, app.batcher.n_batches, app.service

        statuses, n_batches, service = asyncio.run(run())
        assert statuses == [200] * 16
        assert n_batches < 16
        assert stub_scorer.batch_calls == n_batches
        assert service.misses == 4  # each distinct vector inferred once
        assert service.hits == 12


class TestRealModelParity:
    def test_recommendations_match_direct_batch_calls(self, registry):
        """The acceptance bar: HTTP answers are byte-identical to direct
        ``predict_ppm_batch`` + elbow selection over the same model."""

        rng = np.random.default_rng(11)
        matrix = rng.random((12, len(FEATURE_NAMES)))

        async def run():
            tracer = None
            app = RecommendApp.from_registry(
                registry, "ae_pl", tracer=tracer, max_wait_s=0.05
            )
            server = RecommendationServer(app, ServerConfig(port=0))
            await server.start()
            host, port = server.address
            try:

                async def one(row):
                    async with ServeClient(host, port) as client:
                        reply = await client.post_json(
                            "/v1/recommend",
                            {"features": [float(v) for v in row]},
                        )
                        assert reply.status == 200
                        return reply.json()

                return await asyncio.gather(*(one(row) for row in matrix))
            finally:
                await server.shutdown()

        served = asyncio.run(run())

        # The reference computation: one direct batch call, elbow
        # selection over the same grid, the same clamp.
        scorer = PortablePPMScorer(PortableModelRuntime(registry), "ae_pl")
        ppms = scorer.predict_ppm_batch(matrix)
        for row_served, ppm in zip(served, ppms):
            curve = ppm.predict_curve(DEFAULT_N_GRID)
            chosen = int(
                np.clip(elbow_point(DEFAULT_N_GRID, curve), 1, 48)
            )
            runtime = float(curve[np.nonzero(DEFAULT_N_GRID == chosen)[0][0]])
            assert row_served["executors"] == chosen
            # JSON float round-trip is exact (repr round-trips), so the
            # HTTP answer equals the in-process float bit-for-bit.
            assert row_served["estimated_runtime_s"] == runtime

    def test_served_equals_direct_prediction_service(self, registry):
        """Serving adds transport, not decisions: a PredictionService fed
        the same features in-process agrees with the HTTP responses."""

        rng = np.random.default_rng(13)
        matrix = rng.random((8, len(FEATURE_NAMES)))
        features = [QueryFeatures(values=row) for row in matrix]

        async def run():
            app = RecommendApp.from_registry(registry, "ae_pl")
            server = RecommendationServer(app, ServerConfig(port=0))
            await server.start()
            host, port = server.address
            try:
                out = []
                async with ServeClient(host, port) as client:
                    for row in matrix:
                        reply = await client.post_json(
                            "/v1/recommend",
                            {"features": [float(v) for v in row]},
                        )
                        out.append(reply.json())
                return out
            finally:
                await server.shutdown()

        served = asyncio.run(run())
        reference = PredictionService(
            PortablePPMScorer(PortableModelRuntime(registry), "ae_pl")
        )
        direct = reference.predict_batch(features)
        for row_served, prediction in zip(served, direct):
            assert row_served["executors"] == prediction.executors
            assert (
                row_served["estimated_runtime_s"]
                == prediction.estimated_runtime_seconds
            )


class TestJsonDeterminism:
    def test_identical_requests_identical_bytes(self, stub_scorer):
        async def run():
            async with serve_stack(stub_scorer) as (_, _, host, port):
                async with ServeClient(host, port) as client:
                    payload = features_payload(1.0, "q")
                    await client.post_json("/v1/recommend", payload)  # warm
                    first = await client.post_json("/v1/recommend", payload)
                    second = await client.post_json("/v1/recommend", payload)
                    return first.body, second.body

        first, second = asyncio.run(run())
        assert first == second  # sorted keys + cached decision: stable bytes
        assert json.loads(first)["cached"] is True
