"""Unit tests of the shared HTTP plumbing (no sockets involved).

Covers the pieces the HTTP edge builds on: the numpy-aware JSON encoder, the
Content-Length validator, the token bucket, the admission gate, the HTTP
metrics counters and the Prometheus renderer, plus the router-level
behaviours (catch-all 500, API-key auth, rate limiting) driven directly
through :class:`~repro.server.http_common.RequestRouter` with in-memory
:class:`~repro.server.http_common.HttpRequest` objects.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.errors import ConstraintError, ServerError
from repro.server.api import JsonApi
from repro.server.http_common import (
    HttpRequest,
    MapRatJsonEncoder,
    RequestRouter,
    json_dumps,
    parse_content_length,
)
from repro.server.metrics import (
    AdmissionGate,
    HttpMetrics,
    TokenBucket,
    render_metrics,
)


class TestMapRatJsonEncoder:
    """The numpy types the kernels emit must serialise, not TypeError."""

    @pytest.mark.parametrize(
        "scalar",
        [
            np.int8(-3),
            np.int16(-300),
            np.int32(7),
            np.int64(1 << 40),
            np.uint8(255),
            np.uint16(65535),
            np.uint32(7),
            np.uint64(7),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_integer_dtypes_become_int(self, scalar):
        decoded = json.loads(json_dumps({"v": scalar}))
        assert decoded["v"] == int(scalar)
        assert isinstance(decoded["v"], int)

    @pytest.mark.parametrize(
        "scalar",
        [np.float16(0.5), np.float32(1.25), np.float64(-2.75)],
        ids=lambda s: type(s).__name__,
    )
    def test_float_dtypes_become_float(self, scalar):
        decoded = json.loads(json_dumps({"v": scalar}))
        assert decoded["v"] == pytest.approx(float(scalar))

    @pytest.mark.parametrize(
        "value", [np.float64("nan"), np.float64("inf"), np.float64("-inf")]
    )
    def test_non_finite_floats_become_null(self, value):
        # bare json.dumps would emit NaN/Infinity — invalid JSON that
        # crashes strict clients; the encoder nulls them instead.
        assert json.loads(json_dumps({"v": value}))["v"] is None

    def test_bool_dtype_becomes_bool(self):
        decoded = json.loads(json_dumps({"t": np.bool_(True), "f": np.bool_(False)}))
        assert decoded == {"t": True, "f": False}

    def test_arrays_become_nested_lists(self):
        payload = {
            "codes": np.arange(4, dtype=np.int32),
            "grid": np.ones((2, 2), dtype=np.float64),
            "bits": np.array([1, 0, 1], dtype=np.uint8),
        }
        decoded = json.loads(json_dumps(payload))
        assert decoded["codes"] == [0, 1, 2, 3]
        assert decoded["grid"] == [[1.0, 1.0], [1.0, 1.0]]
        assert decoded["bits"] == [1, 0, 1]

    def test_bytes_decode_to_text(self):
        assert json.loads(json_dumps({"b": b"hello"}))["b"] == "hello"

    def test_deeply_nested_numpy_values_serialise(self):
        payload = {"groups": [{"size": np.int64(12), "mean": np.float32(3.5)}]}
        decoded = json.loads(json_dumps(payload))
        assert decoded["groups"][0] == {"size": 12, "mean": 3.5}

    def test_unencodable_objects_still_raise(self):
        with pytest.raises(TypeError):
            json_dumps({"v": object()})

    def test_encoder_usable_directly_with_json_dumps(self):
        text = json.dumps({"v": np.int64(3)}, cls=MapRatJsonEncoder)
        assert json.loads(text) == {"v": 3}


class TestParseContentLength:
    def test_absent_and_blank_headers_mean_no_body(self):
        assert parse_content_length(None, 100) == 0
        assert parse_content_length("", 100) == 0
        assert parse_content_length("   ", 100) == 0

    def test_valid_lengths_pass_through(self):
        assert parse_content_length("42", 100) == 42
        assert parse_content_length(" 7 ", 100) == 7
        assert parse_content_length("100", 100) == 100  # exactly at the limit

    @pytest.mark.parametrize("raw", ["banana", "1.5", "1e3", "0x10", "--1"])
    def test_malformed_values_are_a_400(self, raw):
        with pytest.raises(ServerError) as excinfo:
            parse_content_length(raw, 100)
        assert excinfo.value.status == 400

    def test_negative_length_is_a_400(self):
        with pytest.raises(ServerError) as excinfo:
            parse_content_length("-1", 100)
        assert excinfo.value.status == 400

    def test_oversized_length_is_a_413(self):
        with pytest.raises(ServerError) as excinfo:
            parse_content_length("101", 100)
        assert excinfo.value.status == 413

    def test_zero_limit_disables_the_cap(self):
        assert parse_content_length(str(1 << 40), 0) == 1 << 40


class TestTokenBucket:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
        with pytest.raises(ValueError):
            TokenBucket(-1)

    def test_burst_defaults_to_at_least_one_token(self):
        assert TokenBucket(0.5).capacity == 1.0
        assert TokenBucket(10).capacity == 10.0
        assert TokenBucket(2, burst=5).capacity == 5.0

    def test_tokens_drain_and_refill_deterministically(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(now=100.0) == 0.0
        assert bucket.try_acquire(now=100.0) == 0.0
        wait = bucket.try_acquire(now=100.0)  # bucket empty
        assert wait == pytest.approx(0.5)  # one token at 2/s
        # After the advertised wait the next request is admitted again.
        assert bucket.try_acquire(now=100.0 + wait) == 0.0

    def test_idle_time_banks_tokens_up_to_capacity(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_acquire(now=0.0) == 0.0
        assert bucket.try_acquire(now=0.0) == 0.0
        assert bucket.try_acquire(now=0.0) > 0
        # A long idle period refills to capacity (2), not beyond.
        assert bucket.try_acquire(now=1000.0) == 0.0
        assert bucket.try_acquire(now=1000.0) == 0.0
        assert bucket.try_acquire(now=1000.0) > 0


class TestAdmissionGate:
    def test_limit_bounds_concurrent_admissions(self):
        gate = AdmissionGate(limit=2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        assert gate.inflight == 2
        gate.release()
        assert gate.try_acquire()

    def test_zero_limit_disables_the_gate(self):
        gate = AdmissionGate(limit=0)
        for _ in range(1000):
            assert gate.try_acquire()

    def test_negative_limit_is_rejected(self):
        with pytest.raises(ValueError):
            AdmissionGate(limit=-1)

    def test_release_never_goes_negative(self):
        gate = AdmissionGate(limit=1)
        gate.release()
        assert gate.inflight == 0


class TestHttpMetrics:
    def test_observe_accumulates_per_route_and_status(self):
        metrics = HttpMetrics()
        metrics.observe("GET", "explain", 200, 0.5)
        metrics.observe("GET", "explain", 200, 0.25)
        metrics.observe("POST", "ingest", 401, 0.0)
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["GET explain 200"] == 2
        assert snapshot["requests"]["POST ingest 401"] == 1
        assert snapshot["latency_sum"]["explain"] == pytest.approx(0.75)
        assert snapshot["latency_count"]["explain"] == 2

    def test_special_counters(self):
        metrics = HttpMetrics()
        metrics.record_rate_limited("suggest")
        metrics.record_load_shed()
        metrics.record_connection()
        snapshot = metrics.snapshot()
        assert snapshot["rate_limited"] == {"suggest": 1}
        assert snapshot["load_shed_total"] == 1
        assert snapshot["connections_total"] == 1


class TestRenderMetrics:
    def test_scrape_exposes_edge_cache_pool_and_store_counters(self, tiny_system):
        metrics = HttpMetrics()
        metrics.observe("GET", "summary", 200, 0.001)
        page = render_metrics(tiny_system, metrics, edge="async")
        assert 'maprat_http_requests_total{method="GET",route="summary",status="200",edge="async"} 1' in page
        assert "maprat_cache_hits_total" in page
        assert "maprat_pool_workers" in page
        assert "maprat_store_epoch 0" in page
        assert 'maprat_edge_info{edge="async"} 1' in page

    def test_every_sample_line_is_well_formed(self, tiny_system):
        page = render_metrics(tiny_system, HttpMetrics(), edge="async")
        for line in page.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name, _, value = line.rpartition(" ")
            assert name, line
            assert math.isfinite(float(value)), line


def _counter_samples(page):
    """Every ``*_total`` sample of a scrape as ``{series: float}``."""
    samples = {}
    for line in page.strip().splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "_total" in name:
            samples[name] = float(value)
    return samples


class _StubCache:
    def __init__(self, stats):
        self.stats = stats

    def __len__(self):
        return 0


class _StubPool:
    def __init__(self, submitted):
        self.submitted = submitted

    def to_dict(self):
        return {"backend": "thread", "workers": 2, "tasks_submitted": self.submitted}


class _StubLive:
    def __init__(self, accepted):
        self.accepted = accepted

    def stats(self):
        return {
            "epoch": 1,
            "rows": 10,
            "buffered": 0,
            "accepted_total": self.accepted,
            "duplicates_total": 0,
            "compactions": 1,
        }


class _StubSystem:
    """Minimal render_metrics target whose counters can be forced backwards."""

    def __init__(self):
        from repro.server.cache import CacheStats

        self.cache = _StubCache(CacheStats(hits=5, misses=3, coalesced=1))
        self.pool = _StubPool(submitted=7)
        self.live = _StubLive(accepted=20)


class TestMonotonicCounterCarry:
    """Prometheus counters must never regress across core-state rebuilds.

    ``MapRat.compact`` (and a mining-backend swap) can replace the stats
    objects ``render_metrics`` reads; the edge-held watermark in
    :class:`HttpMetrics` must absorb any reset (ISSUE 9).
    """

    def test_monotonic_total_is_a_high_watermark(self):
        metrics = HttpMetrics()
        assert metrics.monotonic_total("cache_hits", 5) == 5
        assert metrics.monotonic_total("cache_hits", 3) == 5   # regression absorbed
        assert metrics.monotonic_total("cache_hits", 9) == 9
        assert metrics.monotonic_total("other", 1) == 1        # independent series

    def test_two_scrapes_straddling_a_live_compaction_never_regress(self, fresh_system):
        metrics = HttpMetrics()
        fresh_system.explain('title:"Toy Story"')
        fresh_system.explain('title:"Toy Story"')  # one miss + one hit on the cache
        before = _counter_samples(render_metrics(fresh_system, metrics, edge="async"))
        reviewer = next(fresh_system.dataset.reviewers())
        fresh_system.ingest(1, reviewer.reviewer_id, 5.0, timestamp=99_999_999)
        fresh_system.compact(rewarm=False)
        after = _counter_samples(render_metrics(fresh_system, metrics, edge="async"))
        assert before and set(before) <= set(after)
        for series, value in before.items():
            assert after[series] >= value, series

    def test_watermark_absorbs_a_forced_counter_reset(self):
        from repro.server.cache import CacheStats

        system = _StubSystem()
        metrics = HttpMetrics()
        before = _counter_samples(render_metrics(system, metrics, edge="async"))
        # Simulate a compaction rebuilding every stats object from zero.
        system.cache = _StubCache(CacheStats())
        system.pool = _StubPool(submitted=0)
        system.live = _StubLive(accepted=0)
        after = _counter_samples(render_metrics(system, metrics, edge="async"))
        for series in (
            "maprat_cache_hits_total",
            "maprat_cache_misses_total",
            "maprat_cache_coalesced_total",
            'maprat_pool_tasks_submitted_total{backend="thread"}',
            "maprat_ingest_accepted_total",
        ):
            assert after[series] == before[series] > 0, series


class TestServerConfigHttpFields:
    def test_defaults(self):
        config = ServerConfig()
        assert config.max_inflight == 64
        assert config.rate_limits == ()
        assert config.api_keys == ()
        assert config.max_body_bytes == 1 << 20

    def test_rate_limits_accept_mappings_and_pairs(self):
        from_mapping = ServerConfig(rate_limits={"explain": 2, "*": 10})
        from_pairs = ServerConfig(rate_limits=[("*", 10.0), ("explain", 2.0)])
        assert from_mapping.rate_limits == (("*", 10.0), ("explain", 2.0))
        assert from_mapping.rate_limits == from_pairs.rate_limits

    def test_invalid_values_are_rejected(self):
        with pytest.raises(ConstraintError):
            ServerConfig(max_inflight=-1)
        with pytest.raises(ConstraintError):
            ServerConfig(max_body_bytes=-1)
        with pytest.raises(ConstraintError):
            ServerConfig(rate_limits={"explain": 0})
        with pytest.raises(ConstraintError):
            ServerConfig(rate_limits=["oops"])

    def test_api_keys_normalise_to_a_tuple(self):
        assert ServerConfig(api_keys=["a", "b"]).api_keys == ("a", "b")


def _router(system, **server_kwargs):
    config = ServerConfig(**server_kwargs)
    return RequestRouter(system, JsonApi(system), config)


def _body(response):
    return json.loads(response.body.decode("utf-8"))


class TestRequestRouterGuard:
    """The catch-all: no request may ever end without a response."""

    def test_unexpected_exception_becomes_sanitized_json_500(
        self, tiny_system, monkeypatch, caplog
    ):
        router = _router(tiny_system)

        def boom(endpoint, params):
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(router.api, "dispatch", boom)
        with caplog.at_level(logging.ERROR, logger="repro.server.http"):
            response = router.handle(HttpRequest("GET", "/api/summary"))
        assert response.status == 500
        assert _body(response) == {"error": "internal server error"}
        # The traceback lands in the server log, never in the payload.
        assert "secret internal detail" in caplog.text

    def test_numpy_payload_serialises_instead_of_crashing(
        self, tiny_system, monkeypatch
    ):
        router = _router(tiny_system)
        monkeypatch.setattr(
            router.api,
            "dispatch",
            lambda endpoint, params: {
                "count": np.int64(3),
                "mean": np.float32(2.5),
                "histogram": np.array([1, 2], dtype=np.int32),
            },
        )
        response = router.handle(HttpRequest("GET", "/api/summary"))
        assert response.status == 200
        assert _body(response) == {"count": 3, "mean": 2.5, "histogram": [1, 2]}

    def test_server_error_keeps_its_status(self, tiny_system):
        router = _router(tiny_system)
        response = router.handle(HttpRequest("GET", "/api/nonsense"))
        assert response.status == 404
        assert "error" in _body(response)

    def test_handle_records_metrics_for_failures_too(self, tiny_system, monkeypatch):
        router = _router(tiny_system)
        monkeypatch.setattr(
            router.api, "dispatch", lambda *a: (_ for _ in ()).throw(ValueError("x"))
        )
        router.handle(HttpRequest("GET", "/api/summary"))
        assert router.metrics.snapshot()["requests"]["GET summary 500"] == 1


class TestRequestRouterAuth:
    @pytest.mark.parametrize(
        "method,target",
        [
            ("POST", "/api/compact"),
            ("GET", "/api/compact"),
            ("GET", "/api/warmup?limit=0"),
            ("POST", "/api/warmup?limit=0"),
        ],
    )
    def test_write_endpoints_demand_a_key_when_configured(
        self, tiny_system, method, target
    ):
        router = _router(tiny_system, api_keys=("sekrit",))
        denied = router.handle(HttpRequest(method, target))
        assert denied.status == 401
        with_key = router.handle(
            HttpRequest(method, target, headers={"x-api-key": "sekrit"})
        )
        assert with_key.status == 200
        bearer = router.handle(
            HttpRequest(method, target, headers={"authorization": "Bearer sekrit"})
        )
        assert bearer.status == 200

    def test_wrong_key_is_rejected(self, tiny_system):
        router = _router(tiny_system, api_keys=("sekrit",))
        response = router.handle(
            HttpRequest("POST", "/api/compact", headers={"x-api-key": "guess"})
        )
        assert response.status == 401

    def test_read_endpoints_stay_open(self, tiny_system):
        router = _router(tiny_system, api_keys=("sekrit",))
        assert router.handle(HttpRequest("GET", "/api/summary")).status == 200

    def test_no_keys_configured_means_open_write_path(self, tiny_system):
        router = _router(tiny_system)
        assert router.handle(HttpRequest("POST", "/api/compact")).status == 200


class TestRequestRouterRateLimit:
    def test_breached_bucket_answers_429_with_retry_after(self, tiny_system):
        router = _router(tiny_system, rate_limits={"store_stats": 0.01})
        first = router.handle(HttpRequest("GET", "/api/store_stats"))
        assert first.status == 200
        second = router.handle(HttpRequest("GET", "/api/store_stats"))
        assert second.status == 429
        headers = dict(second.headers)
        assert int(headers["Retry-After"]) >= 1
        assert router.metrics.snapshot()["rate_limited"] == {"store_stats": 1}

    def test_wildcard_rate_applies_to_unlisted_endpoints(self, tiny_system):
        router = _router(tiny_system, rate_limits={"*": 0.01})
        assert router.handle(HttpRequest("GET", "/api/store_stats")).status == 200
        assert router.handle(HttpRequest("GET", "/api/store_stats")).status == 429
        # Unknown endpoints never allocate a bucket (label-cardinality guard).
        assert router.handle(HttpRequest("GET", "/api/nonsense")).status == 404

    def test_unlimited_endpoints_are_never_throttled(self, tiny_system):
        router = _router(tiny_system, rate_limits={"explain": 0.01})
        for _ in range(5):
            assert router.handle(HttpRequest("GET", "/api/store_stats")).status == 200


class TestRequestRouterBadParameters:
    """Parameters the engine cannot honour are the client's fault: 400, not 500."""

    @pytest.mark.parametrize("year", ["0", "99999"])
    @pytest.mark.parametrize(
        "target",
        [
            '/api/explain?q=title:"Toy Story"',
            '/api/geo_summary?q=title:"Toy Story"',
            "/api/geo_drilldown?region=CA&by=city",
            '/api/geo_explain?q=title:"Toy Story"&region=CA',
            '/choropleth?q=title:"Toy Story"',
        ],
    )
    def test_out_of_range_year_is_a_400(self, tiny_system, target, year):
        router = _router(tiny_system)
        response = router.handle(HttpRequest("GET", f"{target}&start_year={year}"))
        assert response.status == 400
        assert "outside the supported range" in _body(response)["error"]

    @pytest.mark.parametrize(
        "target",
        [
            '/api/timeline?q=title:"Toy Story"&min_ratings=-1',
            '/api/geo_summary?q=title:"Toy Story"&min_size=-1',
            "/api/geo_drilldown?region=CA&by=city&min_size=-1",
        ],
    )
    def test_negative_minimum_is_a_400(self, tiny_system, target):
        response = _router(tiny_system).handle(HttpRequest("GET", target))
        assert response.status == 400
        assert "must be at least 0" in _body(response)["error"]


class TestRequestRouterAdmission:
    def test_overloaded_response_is_a_503_with_retry_after(self, tiny_system):
        router = _router(tiny_system, max_inflight=1)
        assert router.admission.try_acquire()  # occupy the only slot
        try:
            assert not router.admission.try_acquire()
            response = router.overloaded_response(HttpRequest("GET", "/api/summary"))
            assert response.status == 503
            assert dict(response.headers)["Retry-After"] == "1"
            assert router.metrics.snapshot()["load_shed_total"] == 1
        finally:
            router.admission.release()

    def test_ops_endpoints_bypass_the_gate(self, tiny_system):
        router = _router(tiny_system, max_inflight=1)
        assert router.admission.try_acquire()
        try:
            for path in ("/health", "/version", "/metrics"):
                assert router.ops_response(HttpRequest("GET", path)).status == 200
            assert router.ops_response(HttpRequest("GET", "/api/summary")) is None
        finally:
            router.admission.release()


class TestOpsResponses:
    def test_health_reports_epoch_rows_and_inflight(self, tiny_system):
        router = _router(tiny_system)
        payload = _body(router.ops_response(HttpRequest("GET", "/health")))
        assert payload["status"] == "ok"
        assert payload["epoch"] == 0
        assert payload["rows"] > 0
        assert payload["inflight"] == 0

    def test_version_names_both_backends(self, tiny_system):
        router = _router(tiny_system)
        payload = _body(router.ops_response(HttpRequest("GET", "/version")))
        assert payload["http_backend"] == "async"
        assert payload["mining_backend"] == "thread"
        assert payload["version"]
