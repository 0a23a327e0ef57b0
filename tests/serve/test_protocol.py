"""Unit tests for the hand-rolled HTTP/1.1 framing layer."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_HEADER_BYTES,
    REASON_PHRASES,
    HttpRequest,
    HttpResponse,
    ProtocolError,
    json_response,
    read_request,
    render_response,
)


def parse(raw: bytes, max_body_bytes: int = 64 * 1024):
    """Feed raw bytes through read_request on a throwaway stream."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes=max_body_bytes)

    return asyncio.run(run())


def parse_error(raw: bytes, **kwargs) -> ProtocolError:
    with pytest.raises(ProtocolError) as excinfo:
        parse(raw, **kwargs)
    return excinfo.value


class TestRequestParsing:
    def test_simple_get(self):
        request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request is not None
        assert request.method == "GET"
        assert request.target == "/healthz"
        assert request.headers["host"] == "x"
        assert request.body == b""

    def test_post_with_body(self):
        body = b'{"features": []}'
        raw = (
            b"POST /v1/recommend HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        request = parse(raw)
        assert request is not None
        assert request.method == "POST"
        assert request.body == body

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_header_names_lowercased_last_wins(self):
        request = parse(
            b"GET / HTTP/1.1\r\nX-Thing: one\r\nx-thing: two\r\n\r\n"
        )
        assert request is not None
        assert request.headers["x-thing"] == "two"

    def test_http_10_accepted(self):
        request = parse(b"GET / HTTP/1.0\r\n\r\n")
        assert request is not None

    def test_bare_lf_line_endings_accepted(self):
        request = parse(b"GET / HTTP/1.1\nHost: x\n\n")
        assert request is not None
        assert request.headers["host"] == "x"


class TestMalformedRequests:
    def test_garbage_request_line(self):
        assert parse_error(b"NOT A REQUEST\r\n\r\n").status == 400

    def test_unsupported_version(self):
        assert parse_error(b"GET / HTTP/2\r\n\r\n").status == 400

    def test_target_without_slash(self):
        assert parse_error(b"GET nope HTTP/1.1\r\n\r\n").status == 400

    def test_malformed_header_line(self):
        assert parse_error(b"GET / HTTP/1.1\r\nbroken\r\n\r\n").status == 400

    def test_post_without_length_411(self):
        assert parse_error(b"POST /x HTTP/1.1\r\n\r\n").status == 411

    def test_non_numeric_content_length(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        assert parse_error(raw).status == 400

    def test_negative_content_length(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        assert parse_error(raw).status == 400

    def test_oversized_body_413_before_read(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n"
        assert parse_error(raw, max_body_bytes=100).status == 413

    def test_truncated_body_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        assert parse_error(raw).status == 400

    def test_truncated_head_400(self):
        assert parse_error(b"GET / HTTP/1.1\r\nHost:").status == 400

    def test_oversized_head_431(self):
        filler = b"X-Pad: " + b"a" * 100 + b"\r\n"
        raw = b"GET / HTTP/1.1\r\n" + filler * (
            MAX_HEADER_BYTES // len(filler) + 2
        )
        assert parse_error(raw + b"\r\n").status == 431

    def test_transfer_encoding_501(self):
        raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        assert parse_error(raw).status == 501


#: Pieces of real requests; spliced between arbitrary bytes they steer
#: the fuzzer past the request line into headers and bodies, which
#: uniformly random bytes almost never reach.
_HTTP_FRAGMENTS = (
    b"GET",
    b"POST",
    b" ",
    b"/",
    b"/v1/recommend",
    b"HTTP/1.1",
    b"HTTP/1.0",
    b"\r\n",
    b"\n",
    b":",
    b"Content-Length: ",
    b"Transfer-Encoding: chunked",
    b"Connection: close",
    b"0",
    b"17",
    b"-1",
    b"9" * 40,
)

_raw_requests = st.one_of(
    st.binary(max_size=2048),
    st.lists(
        st.one_of(st.sampled_from(_HTTP_FRAGMENTS), st.binary(max_size=16)),
        max_size=48,
    ).map(b"".join),
)


class TestFuzzedRequests:
    @given(raw=_raw_requests, max_body_bytes=st.integers(0, 64))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes_parse_or_raise_protocol_error(
        self, raw, max_body_bytes
    ):
        """Whatever a peer sends before hanging up, ``read_request``
        returns a request, returns None, or raises ProtocolError —
        never anything the server would answer with a 500."""
        try:
            request = parse(raw, max_body_bytes=max_body_bytes)
        except ProtocolError as exc:
            assert exc.status in REASON_PHRASES
            return
        assert request is None or isinstance(request, HttpRequest)
        if request is not None:
            assert len(request.body) <= max_body_bytes


class TestBodyJson:
    def test_valid_json(self):
        request = HttpRequest("POST", "/", body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_invalid_json_is_400(self):
        request = HttpRequest("POST", "/", body=b"{nope")
        with pytest.raises(ProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_invalid_utf8_is_400(self):
        request = HttpRequest("POST", "/", body=b"\xff\xfe")
        with pytest.raises(ProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestResponses:
    def test_json_response_deterministic_encoding(self):
        a = json_response(200, {"b": 1, "a": 2})
        b = json_response(200, {"a": 2, "b": 1})
        assert a.body == b.body  # sorted keys: dict order is irrelevant

    def test_render_includes_length_and_connection(self):
        raw = render_response(json_response(200, {}), keep_alive=True)
        head = raw.split(b"\r\n\r\n")[0].decode()
        assert "HTTP/1.1 200 OK" in head
        assert "Content-Length: 2" in head
        assert "Connection: keep-alive" in head

    def test_render_close(self):
        raw = render_response(json_response(503, {}), keep_alive=False)
        assert b"Connection: close" in raw

    def test_extra_headers_rendered(self):
        response = HttpResponse(429, b"{}", headers={"Retry-After": "1"})
        assert b"Retry-After: 1" in render_response(
            response, keep_alive=True
        )

    def test_round_trip_body(self):
        payload = {"executors": 8, "cached": False}
        raw = render_response(json_response(200, payload), keep_alive=True)
        body = raw.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body) == payload
