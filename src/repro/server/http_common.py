"""Transport-agnostic request routing behind the HTTP edge.

The front door — the asyncio server in :mod:`repro.server.asyncapi` — owns
sockets and HTTP/1.1 framing; everything else lives here.  The original
``BaseHTTPRequestHandler`` had four long-standing bugs: unexpected
exceptions dropped the connection without a response, a malformed
``Content-Length`` header killed the socket instead of answering 400, numpy
scalars anywhere in a payload crashed JSON serialisation, and the handler
spoke HTTP/1.0 so every request paid a fresh TCP connection.  This module
fixes them in one place:

* :class:`HttpRequest` / :class:`HttpResponse` — the plain-data contract
  between a transport (which owns sockets and header parsing) and the
  router (which owns everything else),
* :func:`parse_content_length` — malformed lengths → 400, hostile lengths →
  413, before a single body byte is buffered,
* :class:`MapRatJsonEncoder` — numpy scalars/arrays (and bytes, and
  non-finite floats) serialise instead of raising ``TypeError``,
* :class:`RequestRouter` — routing, API-key auth (401), per-endpoint token
  buckets (429 + ``Retry-After``), bounded admission (503), the JSON error
  mapping, and a **catch-all** that turns any unexpected exception into a
  sanitized JSON 500 with the traceback logged server-side.  No request can
  ever terminate without an HTTP response.

The router calls :meth:`~repro.server.api.JsonApi.dispatch` unchanged, so
the golden corpus replays byte-identically over the wire.
"""

from __future__ import annotations

import hmac
import json
import logging
import math
import platform
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse
from xml.sax.saxutils import escape

import numpy as np

from ..errors import MapRatError, ServerError
from ..version import PAPER, __version__
from .metrics import AdmissionGate, HttpMetrics, TokenBucket, render_metrics

logger = logging.getLogger("repro.server.http")

#: Endpoints that mutate or persist state, or mine on demand (``warmup``);
#: API-key auth (when configured) applies to exactly these.
WRITE_ENDPOINTS = frozenset(
    {"ingest", "ingest_batch", "compact", "snapshot", "warmup"}
)

#: Label of the serving edge, reported as ``http_backend`` by ``/version``
#: and as the ``edge`` label of ``/metrics``.
EDGE = "async"

#: Routes answered without touching the admission gate or the executor —
#: the system must stay observable under the very overload the gate sheds.
OPS_PATHS = frozenset({"/health", "/version", "/metrics"})

_LANDING_TEMPLATE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"/><title>MapRat</title>
<style>body{{font-family:Helvetica,Arial,sans-serif;margin:32px;max-width:720px}}
input,select{{font-size:14px;padding:4px}}</style></head>
<body>
<h1>MapRat</h1>
<p>Meaningful explanation, interactive exploration and geo-visualization of
collaborative ratings.</p>
<form action="/explain" method="get">
  <input name="q" size="48" placeholder='title:&quot;Toy Story&quot; or genre:Thriller AND director:&quot;Steven Spielberg&quot;"/>
  <button type="submit">Explain Ratings</button>
</form>
<h2>Dataset</h2>
<pre>{summary}</pre>
<h2>Endpoints</h2>
<ul>
<li><code>/explain?q=…</code> — explanation report (Figure 2)</li>
<li><code>/explore?q=…&amp;task=similarity&amp;group=0</code> — exploration report (Figure 3)</li>
<li><code>/choropleth?q=…&amp;task=similarity</code> — the Figure-2 map as SVG</li>
<li><code>/api/explain?q=…</code>, <code>/api/drilldown?…</code>, <code>/api/timeline?…</code> — JSON API</li>
<li><code>/api/geo_summary</code>, <code>/api/geo_drilldown?region=CA</code>,
    <code>/api/geo_explain?q=…&amp;region=CA</code> — geo-visualization API</li>
<li><code>POST /api/ingest</code>, <code>POST /api/ingest_batch</code>,
    <code>/api/store_stats</code>, <code>/api/compact</code> — live ingestion API</li>
<li><code>/health</code>, <code>/version</code>, <code>/metrics</code> — ops endpoints</li>
</ul>
</body></html>
"""


class MapRatJsonEncoder(json.JSONEncoder):
    """JSON encoder that serialises the numpy types the kernels emit.

    The mining kernels operate on int32 code columns, float64 accumulators
    and packed uint8 bitsets; a handler that forgets one ``int(...)`` used to
    crash ``json.dumps`` with ``TypeError`` — which the old edge turned into
    a dropped connection.  Conversions (the lcc-server frontend-encoder
    idiom): ``np.integer`` → ``int``, ``np.floating`` → ``float`` (non-finite
    → ``null``, which bare ``json.dumps`` would emit as invalid JSON),
    ``np.bool_`` → ``bool``, ``np.ndarray`` → nested lists, ``bytes`` →
    UTF-8 text.
    """

    def default(self, obj):
        """Convert one non-JSON-native object; defers to the base otherwise."""
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            value = float(obj)
            return value if math.isfinite(value) else None
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, bytes):
            return obj.decode("utf-8", "replace")
        return super().default(obj)


def _sanitize(payload):
    """Null out non-finite floats anywhere in a payload tree.

    ``np.float64`` (and plain ``float``) NaN/Inf never reach the encoder's
    ``default`` hook — ``json.dumps`` serialises float subclasses natively as
    the *invalid* JSON tokens ``NaN``/``Infinity``.  Arrays are expanded here
    for the same reason: ``tolist()`` output would re-introduce raw floats.
    """
    if isinstance(payload, dict):
        return {key: _sanitize(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_sanitize(value) for value in payload]
    if isinstance(payload, np.ndarray):
        return _sanitize(payload.tolist())
    if isinstance(payload, float) and not math.isfinite(payload):
        return None
    return payload


def json_dumps(payload) -> str:
    """Serialise a response payload: numpy-aware, strictly valid JSON."""
    return json.dumps(_sanitize(payload), cls=MapRatJsonEncoder)


def parse_content_length(raw: Optional[str], limit: int) -> int:
    """Validate a ``Content-Length`` header before any body byte is read.

    Returns the number of body bytes to read (0 when the header is absent or
    empty).  A non-integer or negative value raises a 400
    :class:`~repro.errors.ServerError` — the old edge let the ``ValueError``
    escape and dropped the connection.  A value over ``limit`` raises 413 so
    a hostile length can never make the server buffer unbounded bytes
    (``limit=0`` disables the cap).
    """
    if raw is None or not str(raw).strip():
        return 0
    try:
        length = int(str(raw).strip())
    except ValueError as exc:
        raise ServerError(
            f"malformed Content-Length header: {str(raw).strip()!r}", status=400
        ) from exc
    if length < 0:
        raise ServerError(
            f"malformed Content-Length header: {length}", status=400
        )
    if limit and length > limit:
        raise ServerError(
            f"request body of {length} bytes exceeds the "
            f"{limit}-byte limit",
            status=413,
        )
    return length


@dataclass
class HttpRequest:
    """One parsed request as handed from a transport to the router.

    ``target`` is the raw request target (path + optional query string);
    ``headers`` maps **lower-cased** header names to values; ``body`` holds
    the already-read (and already length-validated) request body.
    """

    method: str
    target: str
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass
class HttpResponse:
    """One response as handed from the router back to a transport.

    ``headers`` carries extra headers (``Retry-After``, ``WWW-Authenticate``);
    the transport adds ``Content-Type``/``Content-Length`` itself.  ``close``
    asks the transport to drop the connection after writing — set when the
    request body was not (fully) consumed, so the socket cannot be reused.
    """

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()
    close: bool = False


def _json_response(status: int, payload, **kwargs) -> HttpResponse:
    return HttpResponse(
        status=status,
        body=json_dumps(payload).encode("utf-8"),
        content_type="application/json; charset=utf-8",
        **kwargs,
    )


class RequestRouter:
    """The one request-routing / error-mapping core behind the HTTP edge.

    The transport parses the request line, headers and body off its socket,
    builds an :class:`HttpRequest` and runs the :meth:`ops_response` →
    admission → :meth:`handle` split (it must shed load *before* queueing
    work onto its executor).  The router owns everything else: HTML and
    JSON routing, the ops endpoints, auth, rate limiting, admission
    accounting, metrics, JSON encoding and the error mapping — including
    the catch-all that guarantees every request gets *some* HTTP response.

    Args:
        system: the :class:`~repro.server.api.MapRat` façade to serve.
        api: the :class:`~repro.server.api.JsonApi` whose ``dispatch`` is
            reused unchanged (golden-corpus byte-identity depends on it).
        config: the :class:`~repro.config.ServerConfig` supplying
            ``max_body_bytes``, ``max_inflight``, ``rate_limits`` and
            ``api_keys``.
    """

    def __init__(self, system, api, config) -> None:
        self.system = system
        self.api = api
        self.config = config
        self.metrics = HttpMetrics()
        self.admission = AdmissionGate(config.max_inflight)
        self.max_body_bytes = config.max_body_bytes
        self._api_keys = tuple(config.api_keys)
        limits = dict(config.rate_limits)
        self._default_rate = limits.pop("*", None)
        self._buckets: Dict[str, TokenBucket] = {
            endpoint: TokenBucket(rate) for endpoint, rate in limits.items()
        }
        self._bucket_lock = threading.Lock()

    # -- transport-facing entry points ------------------------------------------------

    def ops_response(self, request: HttpRequest) -> Optional[HttpResponse]:
        """Answer ``/health``/``/version``/``/metrics`` or return ``None``.

        Ops routes bypass the admission gate and the executor: they must
        answer even when the gate is shedding load.
        """
        path = urlparse(request.target).path
        if path not in OPS_PATHS:
            return None
        started = time.perf_counter()
        if path == "/health":
            serving = self.system.serving
            response = _json_response(
                200,
                {
                    "status": "ok",
                    "epoch": serving.epoch,
                    "rows": len(serving.store),
                    "inflight": self.admission.inflight,
                },
            )
        elif path == "/version":
            response = _json_response(
                200,
                {
                    "version": __version__,
                    "paper": PAPER,
                    "python": platform.python_version(),
                    "http_backend": EDGE,
                    "mining_backend": self.config.mining_backend,
                },
            )
        else:  # /metrics
            response = HttpResponse(
                status=200,
                body=render_metrics(self.system, self.metrics, EDGE).encode(
                    "utf-8"
                ),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        self.metrics.observe(
            request.method, path, response.status, time.perf_counter() - started
        )
        return response

    def overloaded_response(self, request: HttpRequest) -> HttpResponse:
        """The 503 issued when the admission gate refuses a request."""
        self.metrics.record_load_shed()
        response = _json_response(
            503,
            {
                "error": "server overloaded: "
                f"{self.admission.limit} requests already in flight"
            },
            headers=(("Retry-After", "1"),),
        )
        self.metrics.observe(
            request.method, self._route_label(request.target), 503, 0.0
        )
        return response

    def reject(self, target: str, exc: ServerError, close: bool = False) -> HttpResponse:
        """Error response for a transport-level rejection (bad/oversized
        ``Content-Length``), recorded in the metrics like any response."""
        response = _json_response(exc.status, {"error": str(exc)}, close=close)
        self.metrics.observe("POST", self._route_label(target), exc.status, 0.0)
        return response

    # -- the guarded request pipeline --------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one admitted request; **always** returns a response.

        The error mapping, in order: ``ServerError``
        keeps its status, any other :class:`~repro.errors.MapRatError` is a
        400, and *anything else* — the bug class that used to print a
        traceback into the server log and drop the TCP connection — becomes
        a sanitized JSON 500 with the traceback logged server-side.
        Serialisation runs inside the guard, so a payload the encoder cannot
        handle still produces a clean 500, never a dead socket.
        """
        started = time.perf_counter()
        route = self._route_label(request.target)
        try:
            response = self._route(request)
        except ServerError as exc:
            response = _json_response(exc.status, {"error": str(exc)})
        except MapRatError as exc:
            response = _json_response(400, {"error": str(exc)})
        except Exception:
            logger.exception(
                "unhandled error serving %s %s", request.method, request.target
            )
            response = _json_response(500, {"error": "internal server error"})
        self.metrics.observe(
            request.method, route, response.status, time.perf_counter() - started
        )
        return response

    # -- routing -----------------------------------------------------------------------

    def _route_label(self, target: str) -> str:
        """Low-cardinality metrics label for one request target."""
        path = urlparse(target).path
        if path.startswith("/api/"):
            endpoint = path[len("/api/"):]
            return endpoint if endpoint in self.api.routes() else "<unmatched>"
        if path in ("/", "/index.html", "/explain", "/explore", "/choropleth"):
            return path
        if path in OPS_PATHS:
            return path
        return "<unmatched>"

    @staticmethod
    def _query_params(parsed) -> dict:
        """First value of each query parameter (repeats keep the first)."""
        return {key: values[0] for key, values in parse_qs(parsed.query).items()}

    def _route(self, request: HttpRequest) -> HttpResponse:
        parsed = urlparse(request.target)
        params = self._query_params(parsed)
        if request.method == "POST":
            return self._route_post(parsed, params, request)
        return self._route_get(parsed, params, request)

    def _route_get(self, parsed, params: dict, request: HttpRequest) -> HttpResponse:
        path = parsed.path
        if path in ("/", "/index.html"):
            return self._html(self._landing_page())
        if path == "/explain":
            query = params.get("q", "")
            if not query:
                raise ServerError("missing required parameter 'q'", status=400)
            return self._html(self.system.explanation_html(query))
        if path == "/explore":
            query = params.get("q", "")
            if not query:
                raise ServerError("missing required parameter 'q'", status=400)
            task = params.get("task", "similarity")
            try:
                group = int(params.get("group", "0"))
            except ValueError:
                raise ServerError("parameter 'group' must be an integer", status=400)
            return self._html(
                self.system.exploration_html(query, task=task, group_index=group)
            )
        if path == "/choropleth":
            query = params.get("q", "")
            if not query:
                raise ServerError("missing required parameter 'q'", status=400)
            payload = self.api.dispatch("choropleth", params)
            return HttpResponse(
                status=200,
                body=payload["svg"].encode("utf-8"),
                content_type="image/svg+xml; charset=utf-8",
            )
        if path.startswith("/api/"):
            return self._dispatch_api(parsed, params, request)
        raise ServerError(f"unknown path {path!r}", status=404)

    def _route_post(self, parsed, params: dict, request: HttpRequest) -> HttpResponse:
        if not parsed.path.startswith("/api/"):
            raise ServerError(f"unknown path {parsed.path!r}", status=404)
        if request.body:
            try:
                body = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServerError(
                    f"request body must be a JSON object: {exc}", status=400
                ) from exc
            if not isinstance(body, dict):
                raise ServerError("request body must be a JSON object", status=400)
            params.update(body)
        return self._dispatch_api(parsed, params, request)

    def _dispatch_api(self, parsed, params: dict, request: HttpRequest) -> HttpResponse:
        """One ``/api/<endpoint>`` request: auth → rate limit → dispatch."""
        endpoint = parsed.path[len("/api/"):]
        self._check_api_key(endpoint, request)
        retry_after = self._check_rate_limit(endpoint)
        if retry_after is not None:
            self.metrics.record_rate_limited(endpoint)
            return _json_response(
                429,
                {"error": f"rate limit exceeded for endpoint {endpoint!r}"},
                headers=(("Retry-After", str(max(1, math.ceil(retry_after)))),),
            )
        return _json_response(200, self.api.dispatch(endpoint, params))

    # -- production trimmings -----------------------------------------------------------

    def _check_api_key(self, endpoint: str, request: HttpRequest) -> None:
        """401 unless a configured key authorises this write-path request.

        Auth applies only when ``ServerConfig.api_keys`` is non-empty and
        only to :data:`WRITE_ENDPOINTS`; the read path stays open.  The key
        arrives as ``X-API-Key: <key>`` or ``Authorization: Bearer <key>``
        and is compared with :func:`hmac.compare_digest`.
        """
        if not self._api_keys or endpoint not in WRITE_ENDPOINTS:
            return
        provided = request.headers.get("x-api-key", "")
        if not provided:
            authorization = request.headers.get("authorization", "")
            if authorization.lower().startswith("bearer "):
                provided = authorization[len("bearer "):].strip()
        if provided and any(
            hmac.compare_digest(provided, key) for key in self._api_keys
        ):
            return
        raise ServerError(
            f"endpoint {endpoint!r} requires a valid API key "
            "(X-API-Key or Authorization: Bearer)",
            status=401,
        )

    def _check_rate_limit(self, endpoint: str) -> Optional[float]:
        """Seconds to wait when the endpoint's bucket is empty, else None."""
        bucket = self._buckets.get(endpoint)
        if bucket is None:
            if self._default_rate is None or endpoint not in self.api.routes():
                return None
            with self._bucket_lock:
                bucket = self._buckets.setdefault(
                    endpoint, TokenBucket(self._default_rate)
                )
        wait = bucket.try_acquire()
        return wait if wait > 0 else None

    # -- rendering helpers --------------------------------------------------------------

    def _landing_page(self) -> str:
        summary = json_dumps(self.system.summary())
        pretty = json.dumps(json.loads(summary), indent=2)
        return _LANDING_TEMPLATE.format(summary=escape(pretty))

    @staticmethod
    def _html(body: str, status: int = 200) -> HttpResponse:
        return HttpResponse(
            status=status,
            body=body.encode("utf-8"),
            content_type="text/html; charset=utf-8",
        )
