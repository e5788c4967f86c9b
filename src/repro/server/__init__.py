"""Latency layer and service façade.

§2.3: "Using a combination of aggressive data pre-processing, result
pre-computation and caching techniques, the latency of MapRat is minimized."

* :mod:`repro.server.cache` — single-flight LRU cache of
  mining results under canonical (item ids, interval, config) keys,
* :mod:`repro.server.pool` — the thread mining backend (the default): runs
  each request's SM + DM as one task under the mining deadline, with
  deterministic, submission-ordered results,
* :mod:`repro.server.procpool` — the process mining backend: persistent
  worker processes mining over shared-memory store snapshots (multi-core,
  epoch-aware, bit-identical to the thread and serial paths),
* :mod:`repro.server.precompute` — warm-up of the cache for the most popular
  items (optionally on a background thread) and cheap per-item aggregates,
* :mod:`repro.server.api` — the :class:`MapRat` façade (query → mining →
  exploration → visualization, cache-aware) and the JSON endpoint handlers,
* :mod:`repro.server.http_common` — the transport-agnostic request router
  behind the HTTP edge: routing, error mapping (catch-all JSON 500),
  the numpy-aware encoder, body limits, API-key auth and rate limiting,
* :mod:`repro.server.metrics` — edge instrumentation (token buckets, the
  admission gate, per-route counters) and the Prometheus ``/metrics`` page,
* :mod:`repro.server.asyncapi` — the asyncio HTTP edge (keep-alive,
  pipelined clients, mining offloaded via ``run_in_executor``) and
  :func:`run_server`.
"""

from .cache import CacheStats, ResultCache, canonical_explain_key
from .pool import MiningWorkerPool, split_seed, split_seeds
from .procpool import ProcessMiningPool
from .precompute import CacheWarmer, ItemAggregate, Precomputer
from .api import JsonApi, MapRat
from .http_common import (
    HttpRequest,
    HttpResponse,
    MapRatJsonEncoder,
    RequestRouter,
    json_dumps,
    parse_content_length,
)
from .metrics import AdmissionGate, HttpMetrics, TokenBucket, render_metrics
from .asyncapi import AsyncMapRatHttpServer, run_server

__all__ = [
    "CacheStats",
    "ResultCache",
    "canonical_explain_key",
    "MiningWorkerPool",
    "ProcessMiningPool",
    "split_seed",
    "split_seeds",
    "CacheWarmer",
    "ItemAggregate",
    "Precomputer",
    "JsonApi",
    "MapRat",
    "HttpRequest",
    "HttpResponse",
    "MapRatJsonEncoder",
    "RequestRouter",
    "json_dumps",
    "parse_content_length",
    "AdmissionGate",
    "HttpMetrics",
    "TokenBucket",
    "render_metrics",
    "AsyncMapRatHttpServer",
    "run_server",
]
