"""Operational metrics of the HTTP edge, in Prometheus text format.

The serving core has carried deterministic counters since PR 2 — cache
hits/misses/coalesced stampedes (:class:`~repro.server.cache.CacheStats`),
pool task counts, live-store ingest/compaction totals — but none of them were
scrapable.  This module adds the missing edge-side instrumentation and one
renderer that folds *all* of it into the Prometheus text exposition format
served by ``GET /metrics`` on the HTTP edge:

* :class:`HttpMetrics` — thread-safe per-route request/status/latency
  counters plus rate-limit and load-shed totals,
* :class:`TokenBucket` — the per-endpoint rate limiter behind 429 responses,
* :class:`AdmissionGate` — the bounded in-flight counter behind 503 load
  shedding,
* :func:`render_metrics` — one scrape: edge counters + cache + pool +
  live-store counters of a running :class:`~repro.server.api.MapRat` system.

Everything is stdlib-only and lock-cheap: one mutex per object, taken for a
few dict updates per request — negligible next to even a cache-hit dispatch.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, bounded burst capacity.

    ``try_acquire`` never blocks — it either takes a token (returns ``0.0``)
    or returns the seconds until the next token accrues, which the HTTP edge
    surfaces as a ``Retry-After`` header on the 429 response.

    Args:
        rate: sustained tokens per second; must be positive.
        burst: bucket capacity (max tokens banked while idle); defaults to
            ``max(1, rate)`` so a limit of 0.5 rps still admits one request.
    """

    def __init__(self, rate: float, burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.capacity = float(burst) if burst is not None else max(1.0, self.rate)
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, now: Optional[float] = None) -> float:
        """Take one token if available; return seconds to wait otherwise.

        ``0.0`` means the request is admitted.  A positive return is the
        ``Retry-After`` hint: how long until one full token has accrued.
        ``now`` is injectable for deterministic tests.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            elapsed = max(0.0, now - self._updated)
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class AdmissionGate:
    """Bounded in-flight request counter (the 503 load-shedding gate).

    ``limit=0`` disables the gate entirely (every acquire succeeds), which is
    the correct default for in-process and test use; production deployments
    size it via ``ServerConfig.max_inflight``.  The gate is shared by every
    route that performs real work — the ops endpoints (``/health``,
    ``/version``, ``/metrics``) bypass it so the system stays observable
    under the very overload the gate exists to survive.
    """

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("admission limit must be non-negative")
        self.limit = int(limit)
        self._inflight = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Admit one request unless the in-flight limit is reached."""
        with self._lock:
            if self.limit and self._inflight >= self.limit:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Mark one admitted request as finished."""
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Requests currently admitted and not yet released."""
        with self._lock:
            return self._inflight


class HttpMetrics:
    """Thread-safe request counters of one HTTP edge instance.

    Counts land per ``(method, route, status)`` where ``route`` is the API
    endpoint name for ``/api/<endpoint>`` requests and the raw path for the
    HTML/ops routes, so a scrape distinguishes ``explain`` 200s from
    ``ingest`` 401s without unbounded label cardinality (unknown paths all
    collapse into ``"<unmatched>"``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: Dict[Tuple[str, str, int], int] = defaultdict(int)
        self._latency_sum: Dict[str, float] = defaultdict(float)
        self._latency_count: Dict[str, int] = defaultdict(int)
        self._rate_limited: Dict[str, int] = defaultdict(int)
        self._watermarks: Dict[str, int] = {}
        self.load_shed_total = 0
        self.connections_total = 0

    def monotonic_total(self, name: str, value: int) -> int:
        """High-watermark of a counter sourced from rebuildable core state.

        Prometheus counters must never regress between scrapes, but the core
        objects :func:`render_metrics` reads them from (cache stats, pool
        stats, live-store stats) can be replaced by ``MapRat.compact`` or a
        backend swap, resetting their tallies.  The edge's ``HttpMetrics``
        outlives those rebuilds, so it keeps the per-series high watermark:
        a scrape reports ``max(watermark, value)`` and a post-compaction
        reset shows as a flat line instead of a counter regression (which
        Prometheus ``rate()`` would misread as a giant spike).
        """
        with self._lock:
            watermark = max(self._watermarks.get(name, 0), int(value))
            self._watermarks[name] = watermark
            return watermark

    def observe(self, method: str, route: str, status: int, seconds: float) -> None:
        """Record one completed request (any status, any route)."""
        with self._lock:
            self._requests[(method, route, int(status))] += 1
            self._latency_sum[route] += float(seconds)
            self._latency_count[route] += 1

    def record_rate_limited(self, route: str) -> None:
        """Count one 429 issued for ``route`` (also observed separately)."""
        with self._lock:
            self._rate_limited[route] += 1

    def record_load_shed(self) -> None:
        """Count one 503 issued by the admission gate."""
        with self._lock:
            self.load_shed_total += 1

    def record_connection(self) -> None:
        """Count one accepted TCP connection (keep-alive amortisation metric)."""
        with self._lock:
            self.connections_total += 1

    def snapshot(self) -> dict:
        """Plain-dict copy of every counter (tests and the summary payload)."""
        with self._lock:
            return {
                "requests": {
                    f"{method} {route} {status}": count
                    for (method, route, status), count in sorted(self._requests.items())
                },
                "latency_sum": dict(self._latency_sum),
                "latency_count": dict(self._latency_count),
                "rate_limited": dict(self._rate_limited),
                "load_shed_total": self.load_shed_total,
                "connections_total": self.connections_total,
            }

    def rows(self) -> Iterable[Tuple[str, str, int, int]]:
        """Sorted ``(method, route, status, count)`` request rows."""
        with self._lock:
            items = sorted(self._requests.items())
        return [(m, r, s, c) for (m, r, s), c in items]


def _escape_label(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _metric(lines: list, name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def render_metrics(system, http_metrics: HttpMetrics, edge: str) -> str:
    """One Prometheus text-format scrape of a running MapRat system.

    Folds three counter families into one page:

    * the HTTP edge (``http_metrics``): requests by method/route/status,
      per-route latency sums/counts, rate-limit and load-shed totals,
      in-flight gauge (taken from the live store of truth, the gate),
    * the serving core of ``system``: cache hits/misses/evictions/
      expirations/coalesced + entry count, worker-pool task counts,
    * the live store: epoch, rows, buffered appends, ingest/compaction
      totals.

    ``edge`` labels the serving edge that produced the page.
    """
    cache = system.cache.stats
    pool = system.pool.to_dict()
    store = system.live.stats()
    edge_label = _escape_label(edge)
    lines: list = []

    def counter(name: str, value: int) -> int:
        # Counter-typed series sourced from the (compaction-rebuildable)
        # serving core go through the edge-held watermark so no scrape ever
        # reports a regressing total.
        return http_metrics.monotonic_total(name, value)

    _metric(lines, "maprat_http_requests_total", "counter",
            "HTTP requests served, by method, route and status.")
    for method, route, status, count in http_metrics.rows():
        lines.append(
            'maprat_http_requests_total{method="%s",route="%s",status="%d",edge="%s"} %d'
            % (_escape_label(method), _escape_label(route), status, edge_label, count)
        )

    _metric(lines, "maprat_http_request_seconds", "summary",
            "Wall-clock seconds spent handling requests, by route.")
    snapshot = http_metrics.snapshot()
    for route, total in sorted(snapshot["latency_sum"].items()):
        label = _escape_label(route)
        lines.append(
            'maprat_http_request_seconds_sum{route="%s"} %.6f' % (label, total)
        )
        lines.append(
            'maprat_http_request_seconds_count{route="%s"} %d'
            % (label, snapshot["latency_count"].get(route, 0))
        )

    _metric(lines, "maprat_http_rate_limited_total", "counter",
            "Requests rejected with 429 by the per-endpoint token buckets.")
    for route, count in sorted(snapshot["rate_limited"].items()):
        lines.append(
            'maprat_http_rate_limited_total{route="%s"} %d'
            % (_escape_label(route), count)
        )

    _metric(lines, "maprat_http_load_shed_total", "counter",
            "Requests rejected with 503 by the admission gate.")
    lines.append("maprat_http_load_shed_total %d" % snapshot["load_shed_total"])

    _metric(lines, "maprat_http_connections_total", "counter",
            "TCP connections accepted by the edge.")
    lines.append("maprat_http_connections_total %d" % snapshot["connections_total"])

    _metric(lines, "maprat_cache_hits_total", "counter",
            "Result-cache lookups served from cache.")
    lines.append("maprat_cache_hits_total %d" % counter("cache_hits", cache.hits))
    _metric(lines, "maprat_cache_misses_total", "counter",
            "Result-cache lookups that computed (equals mining runs while "
            "computations succeed).")
    lines.append("maprat_cache_misses_total %d" % counter("cache_misses", cache.misses))
    _metric(lines, "maprat_cache_coalesced_total", "counter",
            "Duplicate concurrent computations avoided by single flight.")
    lines.append(
        "maprat_cache_coalesced_total %d" % counter("cache_coalesced", cache.coalesced)
    )
    _metric(lines, "maprat_cache_evictions_total", "counter",
            "LRU evictions beyond the cache capacity.")
    lines.append(
        "maprat_cache_evictions_total %d" % counter("cache_evictions", cache.evictions)
    )
    _metric(lines, "maprat_cache_expirations_total", "counter",
            "TTL expirations dropped on lookup.")
    lines.append(
        "maprat_cache_expirations_total %d"
        % counter("cache_expirations", cache.expirations)
    )
    _metric(lines, "maprat_cache_entries", "gauge", "Live result-cache entries.")
    lines.append("maprat_cache_entries %d" % len(system.cache))

    _metric(lines, "maprat_pool_tasks_submitted_total", "counter",
            "Mining tasks submitted to the request worker pool.")
    pool_backend = str(pool.get("backend", "thread"))
    lines.append(
        'maprat_pool_tasks_submitted_total{backend="%s"} %d'
        % (_escape_label(pool_backend),
           counter("pool_tasks_submitted:%s" % pool_backend,
                   pool.get("tasks_submitted", 0)))
    )
    _metric(lines, "maprat_pool_workers", "gauge",
            "Configured worker count of the request mining pool.")
    lines.append("maprat_pool_workers %d" % pool.get("workers", 0))

    _metric(lines, "maprat_store_epoch", "gauge",
            "Current serving epoch (bumped by compactions).")
    lines.append("maprat_store_epoch %d" % store.get("epoch", 0))
    _metric(lines, "maprat_store_rows", "gauge",
            "Rating rows in the compacted serving snapshot.")
    lines.append("maprat_store_rows %d" % store.get("rows", 0))
    _metric(lines, "maprat_store_buffered", "gauge",
            "Accepted ratings buffered and not yet compacted.")
    lines.append("maprat_store_buffered %d" % store.get("buffered", 0))
    _metric(lines, "maprat_ingest_accepted_total", "counter",
            "Ratings accepted by the live store since start.")
    lines.append(
        "maprat_ingest_accepted_total %d"
        % counter("ingest_accepted", store.get("accepted_total", 0))
    )
    _metric(lines, "maprat_ingest_duplicates_total", "counter",
            "Duplicate ratings absorbed by the live store since start.")
    lines.append(
        "maprat_ingest_duplicates_total %d"
        % counter("ingest_duplicates", store.get("duplicates_total", 0))
    )
    _metric(lines, "maprat_compactions_total", "counter",
            "Epoch turnovers performed by the live store since start.")
    lines.append(
        "maprat_compactions_total %d" % counter("compactions", store.get("compactions", 0))
    )

    _metric(lines, "maprat_edge_info", "gauge",
            "Static info about the serving edge (value is always 1).")
    lines.append('maprat_edge_info{edge="%s"} 1' % edge_label)
    return "\n".join(lines) + "\n"
