"""Behaviour tests of the asyncio HTTP edge.

The front-door contract (routing, error mapping, the four bug fixes) is
covered by ``test_http_edge.py``.  This module covers the HTML pages and
JSON routes end to end, HTTP/1.1 pipelining, framing limits enforced on the
event loop, load shedding before the executor hop, API-key auth and rate
limiting over real sockets, the server lifecycle (``run_server`` included),
and keep-alive clients staying healthy while a compaction swaps the epoch
under them.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import PipelineConfig, ServerConfig
from repro.server.api import MapRat
from repro.server.asyncapi import AsyncMapRatHttpServer, run_server

from test_http_edge import RawClient


@pytest.fixture(scope="module")
def server(tiny_system):
    with AsyncMapRatHttpServer(tiny_system, host="127.0.0.1", port=0) as running:
        yield running


@pytest.fixture(scope="module")
def secured_server(tiny_dataset, mining_config):
    """An async server with API keys, tight rate limits and a tiny gate."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            api_keys=("sekrit",),
            rate_limits={"store_stats": 0.001},
            max_inflight=2,
        ),
    )
    system = MapRat.for_dataset(tiny_dataset, config)
    server = AsyncMapRatHttpServer(system, host="127.0.0.1", port=0, owns_system=True)
    with server as running:
        yield running


def _json(body: bytes):
    return json.loads(body.decode("utf-8"))


def _get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=30) as response:
        return response.status, response.read().decode("utf-8")


class TestHtmlPages:
    def test_landing_page_shows_the_dataset_summary(self, server):
        status, body = _get(server, "/")
        assert status == 200
        assert "MapRat" in body
        assert "Explain Ratings" in body

    def test_explain_page_renders_the_report(self, server):
        status, body = _get(server, "/explain?q=title%3A%22Toy%20Story%22")
        assert status == 200
        assert "Similarity Mining" in body
        assert "<svg" in body

    def test_explore_page_renders_the_group_view(self, server):
        status, body = _get(
            server, "/explore?q=title%3A%22Toy%20Story%22&task=similarity&group=0"
        )
        assert status == 200
        assert "Rating distribution" in body

    def test_missing_query_parameter_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/explain")
        assert excinfo.value.code == 400

    def test_unknown_path_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/definitely/not/here")
        assert excinfo.value.code == 404


class TestJsonEndpoints:
    def test_summary(self, server):
        status, body = _get(server, "/api/summary")
        assert status == 200
        assert json.loads(body)["ratings"] > 0

    def test_explain(self, server):
        status, body = _get(server, "/api/explain?q=Toy%20Story")
        payload = json.loads(body)
        assert status == 200
        assert payload["similarity"]["groups"]

    def test_suggest(self, server):
        status, body = _get(server, "/api/suggest?prefix=Toy")
        assert "Toy Story" in json.loads(body)["titles"]

    def test_error_payload_is_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/api/explain")
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read().decode("utf-8"))

    def test_unknown_endpoint(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/api/nothing")
        assert excinfo.value.code == 404


class TestPipelining:
    def test_two_pipelined_requests_get_two_ordered_responses(self, server):
        with RawClient(server) as client:
            client.send(
                b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /version HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            status, _, body = client.read_response()
            assert status == 200
            assert _json(body)["status"] == "ok"
            status, _, body = client.read_response()
            assert status == 200
            assert _json(body)["http_backend"] == "async"

    def test_http_10_client_gets_close_per_request(self, server):
        with RawClient(server) as client:
            client.send(b"GET /health HTTP/1.0\r\nHost: t\r\n\r\n")
            status, headers, _ = client.read_response()
            assert status == 200
            assert headers["connection"] == "close"
            assert client.file.readline() == b""

    def test_http_10_keep_alive_opt_in_is_honoured(self, server):
        with RawClient(server) as client:
            client.send(
                b"GET /health HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"
            )
            status, headers, _ = client.read_response()
            assert status == 200
            assert headers["connection"] == "keep-alive"
            client.send(b"GET /health HTTP/1.0\r\nHost: t\r\n\r\n")
            status, _, _ = client.read_response()
            assert status == 200


class TestFraming:
    def test_malformed_request_line_is_a_400(self, server):
        with RawClient(server) as client:
            client.send(b"COMPLETE NONSENSE\r\n\r\n")
            status, _, body = client.read_response()
            assert status == 400
            assert "request line" in _json(body)["error"]

    def test_oversized_request_line_is_a_431(self, server):
        with RawClient(server) as client:
            client.send(b"GET /" + b"a" * (32 * 1024) + b" HTTP/1.1\r\n\r\n")
            status, _, _ = client.read_response()
            assert status == 431

    def test_too_many_headers_is_a_431(self, server):
        head = b"GET /health HTTP/1.1\r\nHost: t\r\n"
        head += b"".join(b"X-H%d: v\r\n" % i for i in range(150))
        with RawClient(server) as client:
            client.send(head + b"\r\n")
            status, _, _ = client.read_response()
            assert status == 431

    def test_eof_between_requests_is_a_clean_close(self, server):
        client = RawClient(server)
        status, _, _ = client.request("GET", "/health")
        assert status == 200
        client.close()  # no error on the server side; nothing to assert but
        # the next test's requests must still be served.


class TestLoadShedding:
    def test_gate_full_sheds_with_503_and_retry_after(self, secured_server):
        gate = secured_server.router.admission
        assert gate.try_acquire() and gate.try_acquire()  # fill both slots
        try:
            with RawClient(secured_server) as client:
                status, headers, body = client.request("GET", "/api/summary")
                assert status == 503
                assert headers["retry-after"] == "1"
                assert "overloaded" in _json(body)["error"]
                # Ops endpoints bypass the gate and stay observable.
                status, _, _ = client.request("GET", "/health")
                assert status == 200
                status, _, body = client.request("GET", "/metrics")
                assert b"maprat_http_load_shed_total 1" in body
        finally:
            gate.release()
            gate.release()

    def test_requests_resume_after_the_gate_drains(self, secured_server):
        with RawClient(secured_server) as client:
            status, _, _ = client.request("GET", "/api/summary")
            assert status == 200

    def test_admission_is_released_after_each_request(self, secured_server):
        gate = secured_server.router.admission
        with RawClient(secured_server) as client:
            for _ in range(3):
                status, _, _ = client.request("GET", "/api/summary")
                assert status == 200
        assert gate.inflight == 0


class TestAuthOverSockets:
    def test_write_without_key_is_a_401(self, secured_server):
        with RawClient(secured_server) as client:
            status, _, body = client.request("POST", "/api/compact", body=b"{}")
            assert status == 401
            assert "API key" in _json(body)["error"]

    def test_write_with_key_succeeds(self, secured_server):
        with RawClient(secured_server) as client:
            status, _, _ = client.request(
                "POST", "/api/compact", headers={"X-API-Key": "sekrit"}, body=b"{}"
            )
            assert status == 200

    def test_bearer_token_is_accepted(self, secured_server):
        with RawClient(secured_server) as client:
            status, _, _ = client.request(
                "POST",
                "/api/compact",
                headers={"Authorization": "Bearer sekrit"},
                body=b"{}",
            )
            assert status == 200

    def test_reads_stay_open_without_a_key(self, secured_server):
        with RawClient(secured_server) as client:
            status, _, _ = client.request("GET", "/api/summary")
            assert status == 200


class TestRateLimitOverSockets:
    def test_second_request_within_the_window_is_a_429(self, secured_server):
        with RawClient(secured_server) as client:
            first, _, _ = client.request("GET", "/api/store_stats")
            status, headers, body = client.request("GET", "/api/store_stats")
        # Bucket rate 0.001/s, capacity 1: exactly one admission per ~17 min.
        assert first == 200
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert "rate limit" in _json(body)["error"]


class TestLifecycle:
    def test_run_server_binds_an_ephemeral_port_and_stops(
        self, tiny_dataset, mining_config
    ):
        server = run_server(
            tiny_dataset, PipelineConfig(mining=mining_config), port=0, warm_up=0
        )
        try:
            status, _ = _get(server, "/api/summary")
            assert status == 200
            assert server.port != 0
        finally:
            server.stop()

    def test_stop_is_idempotent_and_restartable_state_is_clean(
        self, tiny_dataset, mining_config
    ):
        system = MapRat.for_dataset(
            tiny_dataset, PipelineConfig(mining=mining_config)
        )
        try:
            server = AsyncMapRatHttpServer(system, host="127.0.0.1", port=0)
            server.start()
            host, port = server.host, server.port
            assert port != 0
            server.stop()
            server.stop()  # idempotent
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=1).close()
        finally:
            system.close()

    def test_bind_failure_surfaces_from_start(self, tiny_system):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            server = AsyncMapRatHttpServer(tiny_system, host="127.0.0.1", port=port)
            with pytest.raises(OSError):
                server.start()
        finally:
            blocker.close()

    def test_url_reflects_the_bound_ephemeral_port(self, server):
        assert server.url == f"http://{server.host}:{server.port}"
        assert server.port != 0


class TestKeepAliveDuringCompaction:
    def test_concurrent_clients_survive_an_epoch_swap(
        self, tiny_dataset, mining_config
    ):
        """Keep-alive readers must not observe errors while ingest triggers
        a compaction (the serve-while-ingest isolation the tier exists for)."""
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(auto_compact_threshold=3, ingest_batch_size=16),
        )
        system = MapRat.for_dataset(tiny_dataset, config)
        server = AsyncMapRatHttpServer(
            system, host="127.0.0.1", port=0, owns_system=True
        )
        with server:
            errors = []
            done = threading.Event()

            def reader():
                try:
                    with RawClient(server) as client:
                        while not done.is_set():
                            status, _, body = client.request("GET", "/api/store_stats")
                            assert status == 200, body
                            _json(body)
                except Exception as exc:  # pragma: no cover - failure capture
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                with RawClient(server) as writer:
                    for t in range(6):  # crosses the auto-compact threshold twice
                        payload = json.dumps(
                            {
                                "item_id": 1,
                                "reviewer_id": 1 + t,
                                "score": 4,
                                "timestamp": 1000 + t,
                            }
                        ).encode("utf-8")
                        status, _, body = writer.request(
                            "POST", "/api/ingest", body=payload
                        )
                        assert status == 200, body
            finally:
                done.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not errors
            assert system.serving.epoch >= 1  # a compaction really happened
