"""The asyncio HTTP edge: keep-alive HTTP/1.1 over the shared router.

The demo exposes "a web based front-end that allows a user to enter one or
more items" (§3.1).  This module serves those interactions from one event
loop, dependency-free on stdlib ``asyncio``:

* one :func:`asyncio.start_server` acceptor; each connection is a coroutine
  that parses HTTP/1.1 request framing (request line, headers,
  ``Content-Length``-delimited bodies) straight off the stream,
* **keep-alive and pipelining** — the per-connection loop serves requests
  back-to-back on one socket until the client closes or sends
  ``Connection: close`` (HTTP/1.0 clients get close-per-request unless they
  ask for keep-alive),
* **executor offload** — every admitted request runs
  :meth:`~repro.server.http_common.RequestRouter.handle` on a thread pool
  via ``loop.run_in_executor``, so mining (which releases the GIL into the
  worker pools and may block on the single-flight cache) never stalls the
  event loop; ``JsonApi.dispatch`` is reused unchanged and the golden corpus
  replays byte-identically over real sockets,
* **admission before queueing** — the shared
  :class:`~repro.server.metrics.AdmissionGate` is consulted on the event
  loop *before* the executor hop, so overload is shed with an immediate 503
  instead of an ever-growing executor queue; ops endpoints
  (``/health``/``/version``/``/metrics``) bypass both and stay responsive,
* per-request deadlines ride the existing ``ServerConfig.mining_timeout_s``
  path: the pools raise :class:`~repro.errors.MiningTimeoutError`, the
  dispatcher maps it to 503, the router serialises it — nothing async-side
  to add.

Routes (all owned by :class:`~repro.server.http_common.RequestRouter`):

* ``GET /``                       — landing page with the dataset summary,
* ``GET /explain?q=...``          — the Figure-2 HTML report,
* ``GET /explore?q=...&task=...&group=N`` — the Figure-3 HTML report,
* ``GET /choropleth?q=...&task=...`` — the Figure-2 map as a raw SVG image,
* ``GET /api/<endpoint>?...`` (+ ``POST`` with a JSON body) — the JSON API,
* ``GET /health`` / ``/version`` / ``/metrics`` — ops endpoints.

:class:`AsyncMapRatHttpServer` runs its event loop on a background thread
(``start``/``stop``/``url``/``serve_forever``/context manager), so tests,
examples and the CLI drive it without blocking; :func:`run_server` builds a
system over a dataset and starts serving it.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Optional, Set, Tuple

from ..config import PipelineConfig
from ..data.model import RatingDataset
from ..errors import ServerError
from .api import JsonApi, MapRat
from .http_common import (
    HttpRequest,
    HttpResponse,
    RequestRouter,
    json_dumps,
    parse_content_length,
)

#: Hard framing limits of the HTTP/1.1 parser (defense in depth; the body
#: size is separately bounded by ``ServerConfig.max_body_bytes``).
MAX_REQUEST_LINE_BYTES = 16 * 1024
MAX_HEADER_COUNT = 100


def _keep_alive(version: str, headers) -> bool:
    """HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in."""
    connection = headers.get("connection", "").lower()
    if "close" in connection:
        return False
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return True


class AsyncMapRatHttpServer:
    """Background-thread asyncio HTTP server around one MapRat system.

    Serves keep-alive HTTP/1.1 from an event loop with executor offload,
    bounded admission and the ops endpoints; every route goes through one
    :class:`~repro.server.http_common.RequestRouter`.
    """

    def __init__(
        self,
        system: MapRat,
        host: Optional[str] = None,
        port: Optional[int] = None,
        owns_system: bool = False,
    ) -> None:
        self.system = system
        self.host = host if host is not None else system.config.server.host
        self.port = port if port is not None else system.config.server.port
        self.owns_system = owns_system
        self.router = RequestRouter(system, JsonApi(system), system.config.server)
        # Executor sizing: the admission gate bounds useful concurrency, so
        # match it (capped); an unlimited gate gets a sensible fixed pool —
        # excess admitted requests queue here, bounded by the gate above.
        limit = system.config.server.max_inflight
        self._executor_workers = min(32, limit) if limit else 16
        self._executor: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._connections: Set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Start the event loop thread; returns the bound (host, port)."""
        if self._thread is not None:
            return (self.host, self.port)
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers, thread_name_prefix="maprat-http"
        )
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="maprat-async-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5)
            self._thread = None
            self._executor.shutdown(wait=False)
            self._executor = None
            raise error
        return (self.host, self.port)

    def stop(self) -> None:
        """Stop accepting, drain connections, join the loop thread.

        Closes the MapRat system's worker pools when this server owns the
        system (``run_server`` builds one per server); externally supplied
        systems are left running for their owner.  Idempotent.
        """
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._loop = None
        self._stop_event = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        if self.owns_system:
            self.system.close()  # idempotent

    def __enter__(self) -> "AsyncMapRatHttpServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def url(self) -> str:
        """Base URL of the bound server (``http://host:port``)."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Blocking serve loop for the CLI (Ctrl-C to stop)."""
        if self._thread is None:
            self.start()
        assert self._thread is not None
        try:
            self._thread.join()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            self.stop()

    # -- event loop body ------------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # startup failures propagate via start()
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection,
                self.host,
                self.port,
                limit=MAX_REQUEST_LINE_BYTES,
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self.router.metrics.record_connection()
        try:
            await self._serve_connection(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection.  End the task
            # *cleanly* rather than re-raising: the streams-module done
            # callback calls task.exception(), which re-raises out of a
            # cancelled task straight into the loop's exception handler
            # (spurious tracebacks on every stop with idle connections).
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The keep-alive loop: parse → admit → handle → respond, repeat."""
        assert self._loop is not None
        while True:
            request_head = await self._read_head(reader, writer)
            if request_head is None:
                return
            method, target, version, headers = request_head
            try:
                length = parse_content_length(
                    headers.get("content-length"), self.router.max_body_bytes
                )
            except ServerError as exc:
                # The body was never read: the framing is lost, so answer
                # and close — but *always* answer (400 or 413, never a drop).
                await self._write_response(
                    writer, self.router.reject(target, exc, close=True), False
                )
                return
            body = await reader.readexactly(length) if length else b""
            if method not in ("GET", "POST"):
                await self._write_simple(
                    writer, 501, f"method {method!r} not implemented", close=True
                )
                return
            request = HttpRequest(
                method=method, target=target, headers=headers, body=body
            )
            response = self.router.ops_response(request)
            if response is None:
                if not self.router.admission.try_acquire():
                    response = self.router.overloaded_response(request)
                else:
                    try:
                        response = await self._loop.run_in_executor(
                            self._executor, self.router.handle, request
                        )
                    finally:
                        self.router.admission.release()
            keep = _keep_alive(version, headers) and not response.close
            await self._write_response(writer, response, keep)
            if not keep:
                return

    async def _read_head(self, reader, writer):
        """Parse one request line + header block; None ends the connection."""
        try:
            raw_line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF between keep-alive requests
        except asyncio.LimitOverrunError:
            await self._write_simple(
                writer, 431, "request line too long", close=True
            )
            return None
        line = raw_line.decode("latin-1").strip()
        if not line:
            return None
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._write_simple(
                writer, 400, f"malformed request line: {line!r}", close=True
            )
            return None
        method, target, version = parts
        headers = {}
        while True:
            try:
                raw_header = await reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                await self._write_simple(
                    writer, 400, "truncated header block", close=True
                )
                return None
            header_line = raw_header.decode("latin-1").strip()
            if not header_line:
                break
            if len(headers) >= MAX_HEADER_COUNT:
                await self._write_simple(writer, 431, "too many headers", close=True)
                return None
            name, _, value = header_line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    async def _write_simple(
        self, writer, status: int, message: str, close: bool = False
    ) -> None:
        """A minimal JSON error written straight from the event loop."""
        body = json_dumps({"error": message}).encode("utf-8")
        await self._write_response(
            writer,
            HttpResponse(
                status=status,
                body=body,
                content_type="application/json; charset=utf-8",
                close=close,
            ),
            not close,
        )

    async def _write_response(
        self, writer, response: HttpResponse, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(response.status, "")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            "Server: MapRat-async/1.0",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(response.body)
        await writer.drain()


def run_server(
    dataset: RatingDataset,
    config: Optional[PipelineConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    warm_up: int = 0,
) -> AsyncMapRatHttpServer:
    """Build a MapRat system over ``dataset`` and start serving it.

    Args:
        dataset: the collaborative rating dataset to serve.
        config: pipeline configuration (defaults apply when omitted).
        host: bind address.
        port: bind port; 0 picks a free ephemeral port.
        warm_up: when positive, pre-compute explanations for that many popular
            items.  With ``server.warm_in_background`` (the default) the
            warm-up runs on a background thread and the server starts serving
            immediately — early requests for an item the warmer is currently
            mining coalesce with it through the single-flight cache.  Set the
            config flag to False to block until the cache is warm.
    """
    system = MapRat.for_dataset(dataset, config)
    server = AsyncMapRatHttpServer(system, host=host, port=port, owns_system=True)
    try:
        if warm_up:
            if system.config.server.warm_in_background:
                system.start_warmer(limit=warm_up)
            else:
                system.warm_up(limit=warm_up)
        server.start()
    except BaseException:
        system.close()  # don't leak the pools when startup fails
        raise
    return server
