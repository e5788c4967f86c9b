"""Golden-corpus replay over real sockets: the HTTP edge changes nothing.

Replays the exact corpora of ``test_golden_api.py`` through a **running HTTP
server** — request line, headers, JSON bodies, keep-alive sockets — and
compares against the *same* golden files with the same normalisation.  The
edge reuses ``JsonApi.dispatch`` unchanged, so every payload must come back
byte-identical whether it was computed in-process or across a TCP connection.
``MAPRAT_MINING_BACKEND`` selects the mining backend as it does for the
in-process replay.

The read-only corpus replays as GET requests with query strings; the
ingestion corpus replays as POST requests with JSON bodies (the realistic
write path); the durability corpus posts to the write endpoints of a
WAL-backed system.  Error responses are reconstructed into the
``{"error", "status"}`` shape the in-process replay produces, so the error
golden files are shared too.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlencode

import pytest

from repro.config import PipelineConfig, ServerConfig
from repro.server.api import MapRat
from repro.server.asyncapi import AsyncMapRatHttpServer
from repro.server.http_common import WRITE_ENDPOINTS

from test_golden_api import (
    BACKEND,
    CORPUS,
    DURABLE_CORPUS,
    INGEST_CORPUS,
    assert_matches_golden,
    normalize,
)


def _serve(system):
    server = AsyncMapRatHttpServer(system, host="127.0.0.1", port=0, owns_system=True)
    server.start()
    return server


@pytest.fixture(scope="module")
def frozen_server(tiny_dataset, mining_config):
    """HTTP server over the same system config as the in-process ``api``."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(mining_backend=BACKEND),
    )
    server = _serve(MapRat.for_dataset(tiny_dataset, config))
    yield server
    server.stop()


@pytest.fixture(scope="module")
def ingest_server(tiny_dataset, mining_config):
    """HTTP server mirroring the in-process ``ingest_api`` fixture exactly."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            auto_compact_threshold=4,
            ingest_batch_size=8,
            mining_backend=BACKEND,
        ),
    )
    server = _serve(MapRat.for_dataset(tiny_dataset, config))
    yield server
    server.stop()


@pytest.fixture(scope="module")
def durable_server(tiny_dataset, mining_config, tmp_path_factory):
    """HTTP server over a WAL-backed system for the durability corpus."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            mining_backend=BACKEND,
            data_dir=str(tmp_path_factory.mktemp("golden-http-durable")),
        ),
    )
    server = _serve(MapRat.for_dataset(tiny_dataset, config))
    yield server
    server.stop()


@pytest.fixture(scope="module")
def frozen_conn(frozen_server):
    """One keep-alive connection replaying the whole read-only corpus."""
    conn = http.client.HTTPConnection(
        frozen_server.host, frozen_server.port, timeout=60
    )
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def ingest_conn(ingest_server):
    conn = http.client.HTTPConnection(
        ingest_server.host, ingest_server.port, timeout=60
    )
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def durable_conn(durable_server):
    conn = http.client.HTTPConnection(
        durable_server.host, durable_server.port, timeout=60
    )
    yield conn
    conn.close()


def replay_get(conn, endpoint, params):
    """One GET request; error responses become {"error", "status"} payloads."""
    target = f"/api/{endpoint}"
    if params:
        target += "?" + urlencode(params)
    conn.request("GET", target)
    return _payload(conn.getresponse())


def replay_post(conn, endpoint, params):
    """One POST request with a JSON body (the realistic write path)."""
    conn.request(
        "POST",
        f"/api/{endpoint}",
        body=json.dumps(params).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    return _payload(conn.getresponse())


def _payload(response):
    body = json.loads(response.read().decode("utf-8"))
    if response.status != 200:
        return {"error": body["error"], "status": response.status}
    return body


class TestGoldenOverHttp:
    """The read-only corpus over GET + query strings, one keep-alive socket."""

    @pytest.mark.parametrize(
        "name,endpoint,params", CORPUS, ids=[name for name, _, _ in CORPUS]
    )
    def test_response_matches_golden(
        self, frozen_conn, request, name, endpoint, params
    ):
        payload = replay_get(frozen_conn, endpoint, params)
        assert_matches_golden(request, name, normalize(payload))


class TestGoldenIngestOverHttp:
    """The ingestion corpus over POST + JSON bodies, in corpus order."""

    @pytest.mark.parametrize(
        "name,endpoint,params",
        INGEST_CORPUS,
        ids=[name for name, _, _ in INGEST_CORPUS],
    )
    def test_response_matches_golden(
        self, ingest_conn, request, name, endpoint, params
    ):
        payload = replay_post(ingest_conn, endpoint, params)
        assert_matches_golden(request, name, normalize(payload))


class TestGoldenDurableOverHttp:
    """The durability corpus: writes POSTed, reads GETed, in corpus order."""

    @pytest.mark.parametrize(
        "name,endpoint,params",
        DURABLE_CORPUS,
        ids=[name for name, _, _ in DURABLE_CORPUS],
    )
    def test_response_matches_golden(
        self, durable_conn, request, name, endpoint, params
    ):
        if endpoint in WRITE_ENDPOINTS:
            payload = replay_post(durable_conn, endpoint, params)
        else:
            payload = replay_get(durable_conn, endpoint, params)
        assert_matches_golden(request, name, normalize(payload))
