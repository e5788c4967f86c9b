"""Configuration objects shared across the MapRat pipeline.

The paper's user interface (Figure 1) exposes a handful of search settings —
the query, the query type, a time interval, the maximum number of groups and
the required rating coverage.  :class:`MiningConfig` captures those settings
plus the solver knobs of the Randomized Hill Exploration algorithm, and
:class:`VizConfig` captures the rendering options of the choropleth layer
(Figure 2).  Both are plain frozen dataclasses so they can be hashed and used
as part of cache keys by :mod:`repro.server.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ConstraintError

#: Rating scale used by MovieLens and assumed throughout the paper (§2.1).
MIN_RATING = 1
MAX_RATING = 5

#: Default reviewer attributes used to describe groups (§1, §2.1).
DEFAULT_GROUPING_ATTRIBUTES = ("gender", "age_group", "occupation", "state")

#: The attribute that anchors every group on the map (§2.3, §3.1).
GEO_ATTRIBUTE = "state"


@dataclass(frozen=True)
class MiningConfig:
    """Settings for one Similarity/Diversity mining run.

    Parameters mirror the "additional search settings" of Figure 1.

    Attributes:
        max_groups: maximum number of groups returned per mining task
            ("limit the number of such chosen groups to be small enough, not
            to overwhelm a user", §2.2).
        min_coverage: minimum fraction of the input rating tuples that the
            selected groups must collectively cover.
        max_description_length: maximum number of attribute/value pairs in a
            group description, keeping groups "easily understandable".
        min_group_support: smallest number of rating tuples a candidate group
            must contain to be considered at all.
        require_geo_anchor: when True every returned group must include the
            geo attribute so it can be rendered on the map (§3.1).
        geo_anchor_attribute: which attribute anchors groups geographically.
            ``"state"`` (the default) renders on the US map; the geo explorer
            overrides it with ``"city"`` for within-region mining, so groups
            stay map-anchored one hierarchy level down.
        grouping_attributes: reviewer attributes over which the data cube of
            candidate groups is built.
        diversity_penalty: λ weight of the within-group error term subtracted
            from the Diversity Mining objective.
        rhe_restarts: number of random restarts of the RHE solver.
        rhe_max_iterations: maximum hill-climbing swaps per restart.
        seed: seed for all randomised components of the solver.
    """

    max_groups: int = 3
    min_coverage: float = 0.3
    max_description_length: int = 3
    min_group_support: int = 5
    require_geo_anchor: bool = True
    geo_anchor_attribute: str = GEO_ATTRIBUTE
    grouping_attributes: Sequence[str] = DEFAULT_GROUPING_ATTRIBUTES
    diversity_penalty: float = 0.25
    rhe_restarts: int = 8
    rhe_max_iterations: int = 200
    seed: int = 2012

    def __post_init__(self) -> None:
        if self.max_groups < 1:
            raise ConstraintError("max_groups must be at least 1")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ConstraintError("min_coverage must lie in [0, 1]")
        if self.max_description_length < 1:
            raise ConstraintError("max_description_length must be at least 1")
        if self.min_group_support < 1:
            raise ConstraintError("min_group_support must be at least 1")
        if self.diversity_penalty < 0:
            raise ConstraintError("diversity_penalty must be non-negative")
        if self.rhe_restarts < 1:
            raise ConstraintError("rhe_restarts must be at least 1")
        if self.rhe_max_iterations < 1:
            raise ConstraintError("rhe_max_iterations must be at least 1")
        # Normalise to a hashable tuple so configs can be used as cache keys.
        object.__setattr__(
            self, "grouping_attributes", tuple(self.grouping_attributes)
        )
        if (
            self.require_geo_anchor
            and self.geo_anchor_attribute not in self.grouping_attributes
        ):
            raise ConstraintError(
                "require_geo_anchor needs %r among grouping_attributes"
                % self.geo_anchor_attribute
            )

    def with_overrides(self, **changes: object) -> "MiningConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def cache_key(self) -> tuple:
        """Hashable tuple identifying this configuration for result caching."""
        return (
            self.max_groups,
            round(self.min_coverage, 6),
            self.max_description_length,
            self.min_group_support,
            self.require_geo_anchor,
            self.geo_anchor_attribute,
            tuple(self.grouping_attributes),
            round(self.diversity_penalty, 6),
            self.rhe_restarts,
            self.rhe_max_iterations,
            self.seed,
        )


@dataclass(frozen=True)
class VizConfig:
    """Rendering options for the choropleth / report layer (Figure 2).

    Attributes:
        low_color: hex colour of the lowest rating (dark red in the paper).
        high_color: hex colour of the highest rating (dark green).
        missing_color: fill for states not named by any returned group.
        tile_size: side length in pixels of one state tile of the grid map.
        show_icons: annotate groups with attribute icons.
        title: optional title rendered above the map.
    """

    low_color: str = "#8b0000"
    high_color: str = "#006400"
    missing_color: str = "#d9d9d9"
    tile_size: int = 44
    show_icons: bool = True
    title: str = ""


@dataclass(frozen=True)
class ServerConfig:
    """Settings for the latency layer and the JSON API (§2.3 "caching").

    Attributes:
        cache_capacity: maximum number of cached mining results.
        cache_ttl_seconds: optional result expiry age (None: keep forever).
        single_flight: coalesce concurrent cache misses on one key into one
            computation (the anti-stampede guarantee of the serving layer).
        mining_backend: ``"thread"`` (default) runs each request's SM + DM
            pair as one task on a ``ThreadPoolExecutor``; ``"process"``
            shards mining tasks across persistent worker **processes** that
            attach the store's shared memory export zero-copy (true
            multi-core parallelism — threads are GIL-bound on this
            workload).  Both execution shapes (and serial) are
            bit-identical for a fixed seed.
        mining_workers: worker count of the mining pool (threads or
            processes, per ``mining_backend``); 0 or 1 runs everything
            inline.  A thread pool runs each request's SM + DM pair as one
            task.  The warm-up pool has ``mining_workers`` threads on the
            process backend and is inline on the thread backend.  Parallel
            results are bit-identical to serial ones (fixed per-task seeds,
            submission-ordered gathering).
        precompute_top_items: how many popular items the warm-up mines.
        precompute_top_regions: how many top regions (states by rating
            volume) the warm-up anchors: for each, the geo explanation of the
            most popular item within that region is pre-mined.
        warm_in_background: run the startup warm-up on a background thread so
            the server serves immediately while the cache fills.
        ingest_batch_size: maximum entries accepted by one ``ingest_batch``
            request (oversized batches are rejected with a 400, keeping one
            request from stalling the write path).
        auto_compact_threshold: when positive, an ingest that brings the
            append buffer to this many pending ratings triggers a compaction
            into the next epoch automatically; 0 leaves compaction to
            explicit ``compact`` calls.
        use_incremental_compaction: maintain snapshots via delta updates
            (code-column remap, index appends, delta bincounts); False
            rebuilds each snapshot from scratch — the reference path the
            differential test battery compares against.
        data_dir: directory for the durability subsystem (write-ahead log,
            snapshots, warm-restart anchors).  ``None`` (default) keeps the
            system purely in-memory; a path enables WAL-backed ingest, crash
            recovery at startup and the ``snapshot``/``recovery_info``
            endpoints.
        wal_fsync: write-ahead-log fsync policy — ``"always"`` (fsync per
            record, strongest), ``"batch"`` (fsync once per ingest call, the
            default) or ``"never"`` (leave flushing to the OS; survives
            process crashes but not power loss).
        snapshot_on_compact: write an mmap-able snapshot file (and prune
            older logs/snapshots) at every compaction; ``False`` keeps the
            full log chain and replays it on restart.
        mining_timeout_s: per-request mining deadline in seconds: how long
            a request waits for its SM + DM (one task on the thread backend,
            one gather per task on the process backend); ``None`` (default)
            waits forever.  Timed-out requests surface as 503s; the
            underlying task is not cancelled.  Only pools with
            ``mining_workers > 1`` can time out — inline pools execute the
            task on the calling thread before the deadline is ever
            consulted.
        host: bind address of the HTTP front-end.
        port: bind port of the HTTP front-end.
        max_inflight: bound on concurrently admitted requests; the
            admission gate sheds excess load with 503 + ``Retry-After``
            instead of queueing without limit.  0 disables the gate.  The
            ops endpoints (``/health``/``/version``/``/metrics``) bypass it.
        rate_limits: per-endpoint token-bucket rates in requests/second,
            as a mapping or ``(endpoint, rps)`` pairs; the pseudo-endpoint
            ``"*"`` sets a default for every API endpoint not named
            explicitly.  Breached limits answer 429 + ``Retry-After``.
            Empty (default) disables rate limiting.
        api_keys: accepted API keys for the write path (``ingest``,
            ``ingest_batch``, ``compact``, ``snapshot``) and for ``warmup``,
            which mines on demand.  Empty (default) leaves the write path
            open; non-empty demands a matching ``X-API-Key`` (or
            ``Authorization: Bearer``) header → 401 otherwise.  Read
            endpoints are never gated.
        max_body_bytes: largest accepted request body; bigger declared
            bodies are rejected with 413 before a byte is read, so a
            hostile Content-Length cannot buffer unbounded data.  0
            disables the cap.
    """

    cache_capacity: int = 256
    cache_ttl_seconds: float | None = None
    single_flight: bool = True
    mining_backend: str = "thread"
    mining_workers: int = 4
    precompute_top_items: int = 50
    precompute_top_regions: int = 0
    warm_in_background: bool = True
    ingest_batch_size: int = 1000
    auto_compact_threshold: int = 0
    use_incremental_compaction: bool = True
    data_dir: str | None = None
    wal_fsync: str = "batch"
    snapshot_on_compact: bool = True
    mining_timeout_s: float | None = None
    host: str = "127.0.0.1"
    port: int = 8912
    max_inflight: int = 64
    rate_limits: Sequence[tuple] = ()
    api_keys: Sequence[str] = ()
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ConstraintError("cache_capacity must be at least 1")
        if self.mining_backend not in ("thread", "process"):
            raise ConstraintError(
                "mining_backend must be 'thread' or 'process', "
                f"got {self.mining_backend!r}"
            )
        if self.mining_workers < 0:
            raise ConstraintError("mining_workers must be non-negative")
        if self.precompute_top_items < 0:
            raise ConstraintError("precompute_top_items must be non-negative")
        if self.precompute_top_regions < 0:
            raise ConstraintError("precompute_top_regions must be non-negative")
        if self.ingest_batch_size < 1:
            raise ConstraintError("ingest_batch_size must be at least 1")
        if self.auto_compact_threshold < 0:
            raise ConstraintError("auto_compact_threshold must be non-negative")
        if self.wal_fsync not in ("always", "batch", "never"):
            raise ConstraintError(
                "wal_fsync must be 'always', 'batch' or 'never', "
                f"got {self.wal_fsync!r}"
            )
        if self.mining_timeout_s is not None and self.mining_timeout_s <= 0:
            raise ConstraintError("mining_timeout_s must be positive (or None)")
        if self.max_inflight < 0:
            raise ConstraintError("max_inflight must be non-negative")
        if self.max_body_bytes < 0:
            raise ConstraintError("max_body_bytes must be non-negative")
        # Normalise rate_limits (mapping or pair iterable) into a sorted,
        # hashable tuple of (endpoint, rps) pairs so the config stays frozen
        # and usable as part of cache keys.
        raw = self.rate_limits
        pairs = raw.items() if hasattr(raw, "items") else raw
        limits = []
        for pair in pairs:
            try:
                endpoint, rate = pair
            except (TypeError, ValueError):
                raise ConstraintError(
                    "rate_limits entries must be (endpoint, rps) pairs, "
                    f"got {pair!r}"
                ) from None
            rate = float(rate)
            if rate <= 0:
                raise ConstraintError(
                    f"rate limit for {endpoint!r} must be positive, got {rate}"
                )
            limits.append((str(endpoint), rate))
        object.__setattr__(self, "rate_limits", tuple(sorted(limits)))
        object.__setattr__(self, "api_keys", tuple(self.api_keys))


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of the per-layer configurations used by high-level façades."""

    mining: MiningConfig = field(default_factory=MiningConfig)
    viz: VizConfig = field(default_factory=VizConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
