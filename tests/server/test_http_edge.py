"""Live-socket regression suite for the HTTP edge.

Every test runs over a real TCP connection with hand-written HTTP/1.1, so the
four historic front-door bugs are exercised exactly the way a client saw them:

1. an unexpected exception inside a handler **dropped the connection** with no
   response — now a sanitized JSON 500 (proven by fault injection into
   ``JsonApi.dispatch``),
2. a malformed ``Content-Length`` header killed the socket — now a 400 (and a
   hostile length over the body limit is a 413, rejected before any read),
3. the original handler spoke HTTP/1.0 — the edge now keeps connections
   alive and serves multiple requests per socket,
4. numpy scalars/arrays in a payload crashed serialisation — the edge now
   uses the shared numpy-aware encoder.

Plus the malformed-HTTP suite: non-dict JSON bodies, invalid JSON, unknown
paths/endpoints, repeated query parameters, unsupported methods.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.server.asyncapi import AsyncMapRatHttpServer


@pytest.fixture(scope="module")
def server(tiny_system):
    with AsyncMapRatHttpServer(tiny_system, host="127.0.0.1", port=0) as running:
        yield running


class RawClient:
    """A raw keep-alive HTTP/1.1 client (no urllib retry/close magic)."""

    def __init__(self, server):
        self.sock = socket.create_connection((server.host, server.port), timeout=30)
        self.file = self.sock.makefile("rb")

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def request(self, method: str, target: str, headers=None, body: bytes = b""):
        lines = [f"{method} {target} HTTP/1.1", "Host: test"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body or method == "POST":
            lines.append(f"Content-Length: {len(body)}")
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        self.send(raw)
        return self.read_response()

    def read_response(self):
        """Parse one response: (status, headers dict, body bytes)."""
        status_line = self.file.readline()
        if not status_line:
            raise ConnectionError("server closed the connection without a response")
        parts = status_line.decode("latin-1").split(None, 2)
        assert parts[0].startswith("HTTP/1."), status_line
        status = int(parts[1])
        headers = {}
        while True:
            line = self.file.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = self.file.read(length) if length else b""
        return status, headers, body


def _json(body: bytes):
    return json.loads(body.decode("utf-8"))


class TestBugCatchAll500:
    """Bug 1: unexpected exceptions used to drop the connection silently."""

    def test_fault_injected_dispatch_yields_json_500_not_a_drop(
        self, server, monkeypatch
    ):
        def boom(endpoint, params):
            raise RuntimeError("kaboom: secret stack detail")

        monkeypatch.setattr(server.router.api, "dispatch", boom)
        with RawClient(server) as client:
            status, headers, body = client.request("GET", "/api/summary")
            assert status == 500
            assert headers["content-type"].startswith("application/json")
            payload = _json(body)
            assert payload == {"error": "internal server error"}
            assert "kaboom" not in body.decode("utf-8")  # sanitized
            # The connection survived: the next request on the SAME socket
            # works once the fault is lifted.
            monkeypatch.undo()
            status, _, body = client.request("GET", "/api/summary")
            assert status == 200
            assert _json(body)["ratings"] > 0

    def test_every_request_of_a_faulty_burst_gets_a_response(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(
            server.router.api,
            "dispatch",
            lambda e, p: (_ for _ in ()).throw(TypeError("np.int64 strikes")),
        )
        with RawClient(server) as client:
            for _ in range(5):
                status, _, body = client.request("GET", "/api/store_stats")
                assert status == 500
                assert _json(body) == {"error": "internal server error"}


class TestBugMalformedContentLength:
    """Bug 2: a bad Content-Length used to raise an uncaught ValueError."""

    @pytest.mark.parametrize("value", ["banana", "12abc", "1.5"])
    def test_malformed_content_length_is_a_400(self, server, value):
        with RawClient(server) as client:
            client.send(
                (
                    "POST /api/store_stats HTTP/1.1\r\n"
                    "Host: test\r\n"
                    f"Content-Length: {value}\r\n\r\n"
                ).encode("latin-1")
            )
            status, _, body = client.read_response()
            assert status == 400
            assert "Content-Length" in _json(body)["error"]

    def test_negative_content_length_is_a_400(self, server):
        with RawClient(server) as client:
            client.send(
                b"POST /api/store_stats HTTP/1.1\r\n"
                b"Host: test\r\nContent-Length: -5\r\n\r\n"
            )
            status, _, body = client.read_response()
            assert status == 400

    def test_oversized_body_is_a_413_before_any_read(self, server):
        hostile = server.router.max_body_bytes + 1
        with RawClient(server) as client:
            # Only the head is sent — the server must answer from the header
            # alone instead of waiting to buffer a body that never comes.
            client.send(
                (
                    "POST /api/ingest HTTP/1.1\r\n"
                    "Host: test\r\n"
                    f"Content-Length: {hostile}\r\n\r\n"
                ).encode("latin-1")
            )
            status, _, body = client.read_response()
            assert status == 413
            assert "exceeds" in _json(body)["error"]


class TestBugKeepAlive:
    """Bug 3: the original handler spoke HTTP/1.0 — one TCP connection per request."""

    def test_connection_reuse_across_sequential_requests(self, server):
        with RawClient(server) as client:
            for _ in range(3):
                status, headers, body = client.request("GET", "/api/summary")
                assert status == 200
                assert headers.get("connection", "keep-alive") != "close"
                assert _json(body)["ratings"] > 0

    def test_mixed_get_and_post_on_one_socket(self, server):
        with RawClient(server) as client:
            status, _, _ = client.request("GET", "/health")
            assert status == 200
            status, _, body = client.request(
                "POST",
                "/api/store_stats",
                headers={"Content-Type": "application/json"},
                body=b"{}",
            )
            assert status == 200
            assert "epoch" in _json(body)

    def test_connection_close_is_honoured(self, server):
        with RawClient(server) as client:
            status, headers, _ = client.request(
                "GET", "/api/summary", headers={"Connection": "close"}
            )
            assert status == 200
            # The server must actually close: the next read hits EOF.
            assert client.file.readline() == b""


class TestBugNumpyPayloads:
    """Bug 4: numpy scalars anywhere in a payload crashed _send_json."""

    def test_numpy_payload_serialises_over_the_wire(self, server, monkeypatch):
        monkeypatch.setattr(
            server.router.api,
            "dispatch",
            lambda endpoint, params: {
                "count": np.int64(42),
                "mean": np.float64(3.5),
                "flag": np.bool_(True),
                "hist": np.array([1, 2, 3], dtype=np.int32),
                "nan": np.float64("nan"),
            },
        )
        with RawClient(server) as client:
            status, _, body = client.request("GET", "/api/summary")
            assert status == 200
            assert _json(body) == {
                "count": 42,
                "mean": 3.5,
                "flag": True,
                "hist": [1, 2, 3],
                "nan": None,
            }


class TestMalformedRequests:
    def test_non_dict_json_body_is_a_400(self, server):
        with RawClient(server) as client:
            status, _, body = client.request(
                "POST", "/api/store_stats", body=b"[1, 2, 3]"
            )
            assert status == 400
            assert "JSON object" in _json(body)["error"]

    def test_invalid_json_body_is_a_400(self, server):
        with RawClient(server) as client:
            status, _, body = client.request(
                "POST", "/api/store_stats", body=b"{not json"
            )
            assert status == 400

    def test_unknown_path_is_a_404(self, server):
        with RawClient(server) as client:
            status, _, body = client.request("GET", "/definitely/not/here")
            assert status == 404
            assert "error" in _json(body)

    def test_unknown_endpoint_is_a_404(self, server):
        with RawClient(server) as client:
            status, _, body = client.request("GET", "/api/nonsense")
            assert status == 404

    def test_repeated_query_params_keep_the_first(self, server):
        with RawClient(server) as client:
            status, _, body = client.request(
                "GET", "/api/suggest?prefix=Toy&prefix=Jur"
            )
            assert status == 200
            titles = _json(body)["titles"]
            assert any(title.startswith("Toy") for title in titles)
            assert not any(title.startswith("Jur") for title in titles)

    def test_unsupported_method_is_rejected_with_a_response(self, server):
        with RawClient(server) as client:
            client.send(b"DELETE /api/summary HTTP/1.1\r\nHost: test\r\n\r\n")
            status, _, _ = client.read_response()
            assert status == 501

    def test_empty_post_body_falls_back_to_query_params(self, server):
        with RawClient(server) as client:
            status, _, body = client.request("POST", "/api/suggest?prefix=Toy")
            assert status == 200
            assert "Toy Story" in _json(body)["titles"]


class TestOpsEndpointsOverSockets:
    def test_health_version_metrics(self, server):
        with RawClient(server) as client:
            status, _, body = client.request("GET", "/health")
            assert status == 200
            assert _json(body)["status"] == "ok"
            status, _, body = client.request("GET", "/version")
            assert status == 200
            assert _json(body)["http_backend"] == "async"
            status, headers, body = client.request("GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            assert b"maprat_http_requests_total" in body

    def test_metrics_count_the_requests_that_hit_this_edge(self, server):
        with RawClient(server) as client:
            client.request("GET", "/api/summary")
            _, _, body = client.request("GET", "/metrics")
        page = body.decode("utf-8")
        assert 'route="summary"' in page
