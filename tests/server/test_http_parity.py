"""Differential battery: the asyncio HTTP edge ≡ the in-process router.

The edge's job is transport only — parse request lines, headers and bodies
off a socket, keep connections alive, and write back exactly what
:class:`~repro.server.http_common.RequestRouter` produced.  For 50 seeded
request streams this battery sends a random mix of requests over one real
keep-alive connection and checks every response (status, content type and
body **bytes**) against the router answering the same request in-process.

Streams mix the JSON API, the HTML pages, the raw SVG choropleth and the ops
endpoints; GET query strings and POST JSON bodies (including non-object and
undecodable bodies); valid selections and every kind of 4xx (unknown
regions, groups out of range, non-integer and below-minimum counts, unknown
endpoints and paths).  Each stream is delivered one of three ways:

* **sequential** — one request, one response, repeat;
* **pipelined** — every request written in one burst before any response
  is read, so the parser must frame requests back to back;
* **fragmented** — every request split at random byte offsets and written
  piecewise (``TCP_NODELAY``), so heads and bodies arrive torn across reads.

Every fourth stream ends with ``Connection: close``, after which the edge
must answer and then close the socket.  Routes whose payloads change from
call to call (``summary``, the landing page, ``timeline``'s timings) and
the write path are left out: the router's answer is computed after the
socket's, so both must be served from the same cached results.
"""

from __future__ import annotations

import json
import socket
from urllib.parse import quote, urlencode

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.server.api import MapRat
from repro.server.asyncapi import AsyncMapRatHttpServer
from repro.server.http_common import HttpRequest

#: Seeded request streams the battery replays.
NUM_STREAMS = 50

DELIVERIES = ("sequential", "pipelined", "fragmented")

TITLES = ["Toy Story", "Forrest Gump", "Jurassic Park", "Jaws", "Minority Report"]
REGIONS = ["CA", "NY", "TX", "ca", "ZZ", "WY"]


@pytest.fixture(scope="module")
def server(tiny_dataset, mining_config):
    system = MapRat.for_dataset(tiny_dataset, PipelineConfig(mining=mining_config))
    with AsyncMapRatHttpServer(system, host="127.0.0.1", port=0) as running:
        yield running
    system.close()


def random_request(rng) -> tuple:
    """One (method, target, body) drawn from the read surface of the server."""
    title = TITLES[int(rng.integers(0, len(TITLES)))]
    if rng.random() < 0.2:
        title = title.lower()
    query = f'title:"{title}"'
    task = ["similarity", "diversity", "bogus"][int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
    group = str(int(rng.integers(-1, 6)))
    region = REGIONS[int(rng.integers(0, len(REGIONS)))]
    count = ["0", "1", "3", "-2", "abc"][int(rng.integers(0, 5))]
    kind = int(rng.integers(0, 16))
    if kind == 0:
        endpoint, params = "explain", {"q": query}
    elif kind == 1:
        endpoint = "statistics"
        params = {"q": query, "task": task, "group": group}
    elif kind == 2:
        endpoint = "drilldown"
        params = {"q": query, "task": task, "group": group}
    elif kind == 3:
        endpoint, params = "geo_summary", {"q": query, "min_size": count}
    elif kind == 4:
        by = ["city", "zipcode", "county"][int(rng.integers(0, 3))]
        endpoint, params = "geo_drilldown", {"region": region, "by": by}
    elif kind == 5:
        endpoint, params = "geo_explain", {"q": query, "region": region}
    elif kind == 6:
        endpoint, params = "choropleth", {"q": query, "task": task}
    elif kind == 7:
        endpoint = "suggest"
        params = {"prefix": title[: int(rng.integers(0, 5))], "limit": count}
    elif kind == 8:
        return "GET", "/explain?" + urlencode({"q": query}), b""
    elif kind == 9:
        target = "/explore?" + urlencode({"q": query, "task": task, "group": group})
        return "GET", target, b""
    elif kind == 10:
        return "GET", "/choropleth?" + urlencode({"q": query}), b""
    elif kind == 11:
        return "GET", ["/health", "/version"][int(rng.integers(0, 2))], b""
    elif kind == 12:
        target = ["/api/no_such_endpoint", "/nowhere"][int(rng.integers(0, 2))]
        return "GET", target, b""
    elif kind == 13:
        body = [b"[1, 2]", b"{not json", b"\xff\xfe"][int(rng.integers(0, 3))]
        return "POST", "/api/explain", body
    else:
        endpoint, params = "explain", {"q": query}
    if rng.random() < 0.3:
        return "POST", f"/api/{endpoint}", json.dumps(params).encode("utf-8")
    if rng.random() < 0.5:
        target = f"/api/{endpoint}?" + urlencode(params, quote_via=quote)
    else:
        target = f"/api/{endpoint}?" + urlencode(params)
    return "GET", target, b""


def encode(method: str, target: str, body: bytes, close: bool) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: parity"]
    if method == "POST":
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def read_response(stream) -> tuple:
    """(status, headers, body) of one response read off ``stream``."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, body


def router_answer(server, method: str, target: str, body: bytes) -> tuple:
    """What the router produces for the request, without any socket."""
    headers = {"host": "parity"}
    if method == "POST":
        headers["content-type"] = "application/json"
        headers["content-length"] = str(len(body))
    request = HttpRequest(method=method, target=target, headers=headers, body=body)
    response = server.router.ops_response(request) or server.router.handle(request)
    return response.status, response.content_type, response.body


class TestEdgeMatchesRouter:
    @pytest.mark.parametrize("seed", range(NUM_STREAMS))
    def test_stream_is_answered_as_the_router_answers(self, server, seed):
        rng = np.random.default_rng(seed)
        requests = [random_request(rng) for _ in range(int(rng.integers(4, 10)))]
        delivery = DELIVERIES[seed % len(DELIVERIES)]
        close_last = seed % 4 == 3
        raws = [
            encode(method, target, body, close_last and index == len(requests) - 1)
            for index, (method, target, body) in enumerate(requests)
        ]
        sock = socket.create_connection((server.host, server.port), timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = sock.makefile("rb")
        try:
            if delivery == "pipelined":
                sock.sendall(b"".join(raws))
                responses = [read_response(stream) for _ in raws]
            else:
                responses = []
                for raw in raws:
                    if delivery == "fragmented":
                        cuts = sorted(
                            int(c) for c in rng.integers(1, len(raw), size=3)
                        )
                        for start, end in zip([0] + cuts, cuts + [len(raw)]):
                            sock.sendall(raw[start:end])
                    else:
                        sock.sendall(raw)
                    responses.append(read_response(stream))
            if close_last:
                assert stream.read(1) == b"", "edge kept a closed connection open"
        finally:
            stream.close()
            sock.close()
        for (method, target, body), (status, headers, payload) in zip(
            requests, responses
        ):
            expected = router_answer(server, method, target, body)
            assert (status, headers["content-type"], payload) == expected, (
                f"{method} {target} {body!r} via {delivery}"
            )
        connections = ["keep-alive"] * len(requests)
        if close_last:
            connections[-1] = "close"
        assert [headers["connection"] for _, headers, _ in responses] == connections
