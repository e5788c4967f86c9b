"""The MapRat façade and the JSON endpoint handlers.

:class:`MapRat` is the one object a downstream user needs: it owns the
dataset, the indexed store, the query engine, the miner, the exploration
helpers, the visualization renderers and the result cache, and exposes the
demo's interactions as methods.  :class:`JsonApi` adapts the façade to plain
``dict`` in / ``dict`` out handlers used by the HTTP server and by tests.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import MiningConfig, PipelineConfig, VizConfig
from ..core.explanation import Explanation, GroupExplanation, MiningResult
from ..core.miner import RatingMiner
from ..data.ingest import (
    LiveStore,
    checked_rating,
    checked_reviewer,
    rating_from_dict,
    reviewer_from_dict,
)
from ..data.model import Item, Rating, RatingDataset, Reviewer
from ..data.storage import RatingStore
from ..errors import (
    EmptyRatingSetError,
    ExplorationError,
    GeoError,
    IngestError,
    MapRatError,
    MiningError,
    MiningTimeoutError,
    PoolError,
    QueryError,
    ServerError,
    StaleEpochError,
    VisualizationError,
)
from ..explore.drilldown import CityAggregate, DrillDown
from ..geo.explorer import DRILL_ATTRIBUTES, GeoExplorer, GeoMiningResult, is_country
from ..explore.session import ExplorationSession
from ..explore.statistics import GroupStatistics, compare_groups, group_statistics
from ..explore.timeline import GroupTrendPoint, TimelineExplorer, TimelineSlice
from ..query.engine import QueryEngine, TimeInterval
from ..viz.choropleth import render_explanation_map
from ..viz.report import ExplanationReport, ExplorationReport
from ..viz.text import render_result_text
from .cache import ResultCache, canonical_explain_key, canonical_geo_key
from .pool import MiningWorkerPool
from .precompute import CacheWarmer, ItemAggregate, Precomputer
from .procpool import ProcessMiningPool
from .recovery import DurabilityController, RecoveryReport


def _as_requested(result, description: str):
    """A cached ``result`` labelled as a fresh mining of this request labels it.

    Cache keys ignore the description, so an entry answers every request
    with its key — a query, a warm-up anchor, a timeline year, a re-warm
    that passed none.  The label is the request's ``description``, or the
    miner's default for an empty one: ``"N item(s)"`` for a
    :class:`MiningResult`, ``"<region> view"`` for a
    :class:`~repro.geo.explorer.GeoMiningResult`.
    """
    if isinstance(result, GeoMiningResult):
        label = description or f"{result.region} view"
        if result.description == label:
            return result
        return replace(result, description=label)
    label = description or f"{len(result.query.item_ids)} item(s)"
    if result.query.description == label:
        return result
    return replace(result, query=replace(result.query, description=label))


@dataclass(frozen=True)
class ServingState:
    """Immutable bundle of everything a request reads from one store epoch.

    A request grabs the bundle **once** and uses it throughout, so a
    compaction swapping ``MapRat._serving`` mid-request can never hand the
    request a store from one epoch and a miner from another (no torn
    snapshots).  The bundle is cheap: the store is shared, the wrappers
    around it are thin.
    """

    epoch: int
    store: RatingStore
    miner: RatingMiner
    geo: GeoExplorer
    timeline_explorer: TimelineExplorer
    precomputer: Precomputer


class MapRat:
    """End-to-end MapRat system over one collaborative rating dataset."""

    def __init__(
        self,
        dataset: RatingDataset,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        server = self.config.server
        # Durability: with a data_dir the live store is reconciled from the
        # newest snapshot + write-ahead-log replay (crash recovery) and every
        # accepted ingest is journaled before it mutates the buffer.  Without
        # one the system is purely in-memory, exactly as before.
        self.durability: Optional[DurabilityController] = None
        self._recovery_report: Optional[RecoveryReport] = None
        if server.data_dir is not None:
            self.durability = DurabilityController(
                server.data_dir,
                fsync=server.wal_fsync,
                snapshot_on_compact=server.snapshot_on_compact,
            )
            self.live, self._recovery_report = self.durability.recover(
                dataset,
                lambda ds: RatingMiner.build_store(ds, self.config.mining),
                auto_compact_threshold=server.auto_compact_threshold,
                use_incremental=server.use_incremental_compaction,
            )
            miner = RatingMiner(self.live.snapshot, self.config.mining)
        else:
            miner = RatingMiner.for_dataset(dataset, self.config.mining)
            self.live = LiveStore(
                miner.store,
                auto_compact_threshold=server.auto_compact_threshold,
                use_incremental=server.use_incremental_compaction,
            )
        self.engine = QueryEngine(dataset)
        self.cache = ResultCache(
            capacity=server.cache_capacity,
            ttl_seconds=server.cache_ttl_seconds,
            single_flight=server.single_flight,
        )
        # Mining backend: the thread pool shares the store in-process (cheap,
        # GIL-bound) and runs each request's SM + DM as one task; the process
        # pool exports each epoch's numpy parts into shared memory once and
        # mines on worker processes (multi-core).  Only the request pool gets
        # the per-request deadline — timing out warm-up anchors would just
        # leave the cache cold for no latency win.
        if server.mining_backend == "process":
            self.pool = ProcessMiningPool(
                server.mining_workers, timeout_s=server.mining_timeout_s
            )
            self.pool.publish(miner.store)
        else:
            self.pool = MiningWorkerPool(
                server.mining_workers, timeout_s=server.mining_timeout_s
            )
        # The warm-up shards across its own pool: warm anchors may block as
        # single-flight waiters on a live request's in-flight mining, and if
        # they occupied the request pool they could starve the very SM/DM
        # tasks that the live leader needs to finish (deadlock).  Request
        # tasks never wait on cache flights, so the split breaks the cycle.
        # On the thread backend every anchor mines in-process under one GIL,
        # so more warm threads only contend: the warm pool is inline.  The
        # process backend mines each anchor in worker processes and keeps
        # ``mining_workers`` anchors in flight.
        self.warm_pool = MiningWorkerPool(
            1 if server.mining_backend == "thread" else server.mining_workers,
            thread_name_prefix="maprat-warm",
        )
        geo = GeoExplorer(miner)
        self._serving = ServingState(
            epoch=miner.store.epoch,
            store=miner.store,
            miner=miner,
            geo=geo,
            timeline_explorer=TimelineExplorer(miner, self.config.mining),
            precomputer=Precomputer(miner.store, miner, explorer=geo),
        )
        self._ingest_lock = threading.Lock()
        self.warmer: Optional[CacheWarmer] = None
        self._warmer_lock = threading.Lock()
        self._closed = False
        self._explanation_report = ExplanationReport(self.config.viz)
        self._exploration_report = ExplorationReport(self.config.viz)
        if self.durability is not None:
            self._replay_warm_anchors()

    # -- epoch-consistent views -------------------------------------------------------

    @property
    def serving(self) -> ServingState:
        """The current epoch's serving bundle (grab once per request)."""
        return self._serving

    @property
    def epoch(self) -> int:
        """The current serving epoch (monotone, bumped by compactions)."""
        return self._serving.epoch

    @property
    def dataset(self) -> RatingDataset:
        """The current epoch's dataset."""
        return self._serving.store.dataset

    @property
    def store(self) -> RatingStore:
        """The current epoch's indexed rating store."""
        return self._serving.store

    @property
    def miner(self) -> RatingMiner:
        """The current epoch's rating miner."""
        return self._serving.miner

    @property
    def geo(self) -> GeoExplorer:
        """The current epoch's geo explorer."""
        return self._serving.geo

    @property
    def timeline_explorer(self) -> TimelineExplorer:
        """The current epoch's timeline explorer."""
        return self._serving.timeline_explorer

    @property
    def precomputer(self) -> Precomputer:
        """The current epoch's precomputer (aggregates + warm anchors)."""
        return self._serving.precomputer

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def for_dataset(
        cls, dataset: RatingDataset, config: Optional[PipelineConfig] = None
    ) -> "MapRat":
        """Build a MapRat system over an in-memory dataset."""
        return cls(dataset, config)

    # -- mining dispatch (backend-aware, stale-epoch safe) ----------------------------

    @property
    def _process_backend(self) -> bool:
        """True for the epoch-publishing process pool."""
        return self.config.server.mining_backend == "process"

    @staticmethod
    def _retry_stale_epoch(attempt):
        """Run one mining attempt, retrying once on a retired epoch.

        A request holding a pre-compaction :class:`ServingState` can race the
        retirement of its epoch's shared-memory export; the process pool then
        raises :class:`~repro.errors.StaleEpochError`.  ``attempt`` re-reads
        ``self._serving`` on every call, so the retry both mines on the
        current snapshot **and** keys the cache under the current epoch — a
        result is never stored under a key whose epoch it was not computed
        on.  The compaction protocol (publish → swap → retire) guarantees
        the retired epoch's successor is already serving, so one retry
        suffices; a second failure (another compaction landed mid-retry)
        propagates.
        """
        try:
            return attempt()
        except StaleEpochError:
            return attempt()

    def _mine_items(
        self,
        serving: ServingState,
        item_ids: Sequence[int],
        description: str,
        time_interval: Optional[Tuple[int, int]],
        config: MiningConfig,
        parallel: bool,
    ) -> MiningResult:
        """Mine one item selection through the configured backend."""
        return serving.miner.explain_items(
            list(item_ids),
            description=description,
            time_interval=time_interval,
            config=config,
            pool=self.pool if parallel else None,
        )

    def _mine_region(
        self,
        serving: ServingState,
        item_ids: Optional[Sequence[int]],
        region: str,
        description: str,
        time_interval: Optional[Tuple[int, int]],
        config: MiningConfig,
        parallel: bool,
    ) -> GeoMiningResult:
        """Region-anchored mining through the configured backend."""
        return serving.geo.explain_region(
            item_ids,
            region,
            description=description,
            time_interval=time_interval,
            config=config,
            pool=self.pool if parallel else None,
        )

    # -- query + mining ---------------------------------------------------------------

    def search(self, query: str) -> List[Item]:
        """Evaluate the search-box query against the catalogue (Figure 1)."""
        return self.engine.matching_items(query)

    def explain(
        self,
        query: str,
        time_interval: Optional[TimeInterval] = None,
        config: Optional[MiningConfig] = None,
        use_cache: bool = True,
    ) -> MiningResult:
        """Search, mine SM + DM and return the full result (Figure 2).

        Results are cached under the canonical (item ids, time interval,
        mining configuration) key, so any query resolving to the same
        selection — case variants of a title, an explicit item list, a
        warm-up pre-computation — answers from one entry.  Concurrent misses
        on the same key coalesce into one mining run (single flight).
        """
        mining_config = config or self.config.mining
        compiled = self.engine.compile(query, time_interval)
        item_ids = self.engine.matching_item_ids(compiled)
        if not item_ids:
            raise QueryError(f"query {compiled.describe()!r} matches no items")
        interval = (
            compiled.time_interval.as_tuple() if compiled.time_interval else None
        )
        return self._retry_stale_epoch(
            lambda: self._explain_selection(
                self._serving,
                item_ids,
                compiled.describe(),
                interval,
                mining_config,
                use_cache=use_cache,
            )
        )

    def explain_items(
        self,
        item_ids: Sequence[int],
        description: str = "",
        time_interval: Optional[Tuple[int, int]] = None,
        config: Optional[MiningConfig] = None,
        use_cache: bool = True,
        parallel: bool = True,
    ) -> MiningResult:
        """Explain an explicit item-id selection (used by pre-computation).

        Shares the canonical cache key with :meth:`explain`, so pre-computed
        selections serve equivalent query traffic.  Item ids are canonicalised
        (sorted, de-duplicated) before mining as well as keying, so a request
        with repeated ids cannot poison the entry of the clean selection.
        ``parallel=False`` mines the SM + DM pair inline, off the request
        pool — required when this call itself runs on a pool worker (e.g.
        the warm-up).
        """
        mining_config = config or self.config.mining
        canonical_ids = sorted({int(item_id) for item_id in item_ids})
        return self._retry_stale_epoch(
            lambda: self._explain_selection(
                self._serving,
                canonical_ids,
                description,
                time_interval,
                mining_config,
                parallel=parallel,
                use_cache=use_cache,
            )
        )

    def _explain_selection(
        self,
        serving: ServingState,
        item_ids: Sequence[int],
        description: str,
        time_interval: Optional[Tuple[int, int]],
        config: MiningConfig,
        parallel: bool = True,
        use_cache: bool = True,
        deadline: Optional[float] = None,
    ) -> MiningResult:
        """One explain read of sorted, unique ``item_ids`` on ``serving``'s epoch.

        Keyed by :func:`canonical_explain_key`, answered from the cache or
        by one single-flight mining (:meth:`_mine_items`), and labelled with
        this request's own ``description`` (:func:`_as_requested`).  A miss
        after ``deadline`` (a :func:`time.perf_counter` instant) raises
        :class:`~repro.errors.MiningTimeoutError` instead of starting to
        mine.
        """

        def compute() -> MiningResult:
            if deadline is not None and time.perf_counter() > deadline:
                raise MiningTimeoutError(
                    f"the {self.config.server.mining_timeout_s:g}s deadline "
                    f"passed before mining {description!r} could start"
                )
            return self._mine_items(
                serving, item_ids, description, time_interval, config, parallel
            )

        if not use_cache:
            return compute()
        key = canonical_explain_key(
            item_ids, time_interval, config, epoch=serving.epoch
        )
        return _as_requested(self.cache.get_or_compute(key, compute), description)

    # -- exploration -------------------------------------------------------------------

    def session(self) -> ExplorationSession:
        """A fresh interactive exploration session sharing this system's miner."""
        serving = self._serving
        return ExplorationSession(
            serving.store.dataset, self.config.mining, miner=serving.miner
        )

    def group_statistics(
        self,
        query: str,
        task: str,
        group_index: int,
        time_interval: Optional[TimeInterval] = None,
    ) -> GroupStatistics:
        """Figure-3 statistics of one group of a query's interpretation."""
        serving = self._serving
        result = self.explain(query, time_interval)
        group = self._group_at(result, task, group_index)
        rating_slice = self._slice_for_result(serving, result, time_interval)
        return group_statistics(rating_slice, group.pairs, label=group.label)

    def drill_down(
        self,
        query: str,
        task: str,
        group_index: int,
        time_interval: Optional[TimeInterval] = None,
        min_size: int = 1,
    ) -> List[CityAggregate]:
        """City-level drill-down of one group of a query's interpretation."""
        serving = self._serving
        result = self.explain(query, time_interval)
        group = self._group_at(result, task, group_index)
        rating_slice = self._slice_for_result(serving, result, time_interval)
        return DrillDown(rating_slice, min_size=min_size).drill(group.pairs)

    def timeline(
        self,
        query: str,
        years: Optional[Sequence[int]] = None,
        min_ratings: int = 20,
    ) -> List[TimelineSlice]:
        """Time-slider view: interpretations per year for a query.

        Each year is one explain read (:meth:`_explain_selection`) on the one
        serving state the timeline took, keyed like
        ``explain(query, TimeInterval.for_year(year))``, so the two share a
        cache entry and a repeated timeline mines nothing.  Under
        ``mining_timeout_s`` the years share one budget: a year whose mining
        would start after it has passed raises
        :class:`~repro.errors.MiningTimeoutError`, and a started year is
        bounded by the pool's own deadline, so a timeline answers within
        twice the deadline.  A retired epoch retries the whole timeline once.
        """
        item_ids = self.engine.matching_item_ids(query)
        if not item_ids:
            raise QueryError(f"query {query!r} matches no items")
        timeout = self.config.server.mining_timeout_s
        deadline = None if timeout is None else time.perf_counter() + timeout
        mining_config = self.config.mining

        def attempt() -> List[TimelineSlice]:
            serving = self._serving
            return serving.timeline_explorer.interpretations_by_year(
                item_ids,
                years=years,
                min_ratings=min_ratings,
                mine=lambda ids, interval, description: self._explain_selection(
                    serving, ids, description, interval, mining_config, deadline=deadline
                ),
            )

        return self._retry_stale_epoch(attempt)

    def group_trend(
        self,
        query: str,
        pairs: Mapping[str, str],
        years: Optional[Sequence[int]] = None,
    ) -> List[GroupTrendPoint]:
        """Average rating of a fixed group per year for a query."""
        item_ids = self.engine.matching_item_ids(query)
        if not item_ids:
            raise QueryError(f"query {query!r} matches no items")
        return self._serving.timeline_explorer.group_trend(item_ids, pairs, years=years)

    # -- geo serving (the geo-visualization pillar, §2.3/§3.1) ---------------------------

    def _resolve_selection(
        self, query: Optional[str], time_interval: Optional[TimeInterval]
    ) -> Tuple[Optional[List[int]], Optional[Tuple[int, int]], str]:
        """Resolve an optional query string into (item ids, interval, label).

        ``query=None`` means the whole store — the country-level landing view
        of the geo surface; it resolves to ``item_ids=None`` which the geo
        explorer treats as "every rating tuple".
        """
        interval = time_interval.as_tuple() if time_interval else None
        if query is None or not query.strip():
            return None, interval, "all items"
        compiled = self.engine.compile(query, time_interval)
        item_ids = self.engine.matching_item_ids(compiled)
        if not item_ids:
            raise QueryError(f"query {compiled.describe()!r} matches no items")
        item_ids = sorted({int(item_id) for item_id in item_ids})
        interval = (
            compiled.time_interval.as_tuple() if compiled.time_interval else None
        )
        return item_ids, interval, compiled.describe()

    def geo_summary(
        self,
        query: Optional[str] = None,
        time_interval: Optional[TimeInterval] = None,
        min_size: int = 1,
        use_cache: bool = True,
    ) -> dict:
        """State-level rating aggregates of a selection (the country map view)."""
        serving = self._serving
        item_ids, interval, description = self._resolve_selection(query, time_interval)

        def compute() -> dict:
            if item_ids is None and interval is None and len(serving.store):
                # Whole-store landing view: served from the maintained
                # per-state index — no full-store gather, and compactions
                # keep it current via delta bincounts.
                regions = serving.geo.summary(None, None, min_size)
                return {
                    "level": "state",
                    "description": description,
                    "num_ratings": len(serving.store),
                    "average": round(serving.store.global_average(), 4),
                    "regions": [agg.to_dict() for agg in regions],
                }
            rating_slice = serving.geo.slice_for(item_ids, interval)
            regions = serving.geo.aggregate_by(rating_slice, "state", "state", min_size)
            return {
                "level": "state",
                "description": description,
                "num_ratings": len(rating_slice),
                "average": round(rating_slice.average(), 4),
                "regions": [agg.to_dict() for agg in regions],
            }

        if not use_cache:
            return compute()
        key = canonical_geo_key(
            "summary", item_ids, interval, min_size=min_size, epoch=serving.epoch
        )
        return self.cache.get_or_compute(key, compute)

    def geo_drilldown(
        self,
        region: Optional[str] = None,
        by: str = "city",
        query: Optional[str] = None,
        time_interval: Optional[TimeInterval] = None,
        min_size: int = 1,
        use_cache: bool = True,
    ) -> dict:
        """Child-region aggregates one level below ``region`` (§2.3 drill-down)."""
        if by not in DRILL_ATTRIBUTES:
            # Validate before the cache is consulted: a populated country
            # entry must not turn an invalid ``by`` into a 200.
            raise GeoError(
                f"unsupported drill attribute {by!r}; expected one of {DRILL_ATTRIBUTES}"
            )
        serving = self._serving
        item_ids, interval, description = self._resolve_selection(query, time_interval)
        # The explorer's own country predicate, so the payload's region/by
        # labels (and the cache key) always agree with the aggregates
        # actually returned for region="USA".
        drilling_country = is_country(region)

        def compute() -> dict:
            aggregates = serving.geo.drilldown(
                region=region,
                by=by,
                item_ids=item_ids,
                time_interval=interval,
                min_size=min_size,
            )
            return {
                "region": "USA" if drilling_country else str(region).strip().upper(),
                "by": "state" if drilling_country else by,
                "description": description,
                "regions": [agg.to_dict() for agg in aggregates],
            }

        if not use_cache:
            return compute()
        key = canonical_geo_key(
            "drilldown",
            item_ids,
            interval,
            region="" if drilling_country else region,
            by="state" if drilling_country else by,
            min_size=min_size,
            epoch=serving.epoch,
        )
        return self.cache.get_or_compute(key, compute)

    def geo_explain(
        self,
        query: str,
        region: str,
        time_interval: Optional[TimeInterval] = None,
        config: Optional[MiningConfig] = None,
        use_cache: bool = True,
    ) -> GeoMiningResult:
        """Mine why ``region`` rates the queried items the way it does.

        The within-region SM/DM runs through the worker pool and the result
        is cached under the canonical geo key (single flight), so concurrent
        requests for the same (selection, region) coalesce into one mining.
        """
        item_ids, interval, description = self._resolve_selection(query, time_interval)
        return self.geo_explain_items(
            item_ids, region, description, interval, config, use_cache=use_cache
        )

    def geo_explain_items(
        self,
        item_ids: Optional[Sequence[int]],
        region: str,
        description: str = "",
        time_interval: Optional[Tuple[int, int]] = None,
        config: Optional[MiningConfig] = None,
        use_cache: bool = True,
        parallel: bool = True,
    ) -> GeoMiningResult:
        """Geo-anchored mining of an explicit item selection (warm-up path).

        Shares the canonical geo cache key with :meth:`geo_explain`, so the
        top-region warm-up serves live geo traffic.  ``parallel=False`` keeps
        the inner SM/DM off the request pool — required when this call itself
        runs on a pool worker.
        """
        mining_config = config or self.config.mining
        canonical_ids = (
            None
            if item_ids is None
            else sorted({int(item_id) for item_id in item_ids})
        )

        def attempt() -> GeoMiningResult:
            serving = self._serving
            compute = lambda: self._mine_region(  # noqa: E731 - keyed thunk
                serving, canonical_ids, region, description, time_interval,
                mining_config, parallel,
            )
            if not use_cache:
                return compute()
            key = canonical_geo_key(
                "geo_explain",
                canonical_ids,
                time_interval,
                region=region,
                config=mining_config,
                epoch=serving.epoch,
            )
            return _as_requested(self.cache.get_or_compute(key, compute), description)

        return self._retry_stale_epoch(attempt)

    def choropleth(
        self,
        query: str,
        task: str = "similarity",
        time_interval: Optional[TimeInterval] = None,
        use_cache: bool = True,
    ) -> dict:
        """The Figure-2 choropleth of one mining task as a JSON payload.

        The underlying explanation comes from the shared explain cache (so a
        choropleth request after an explain request mines nothing); the
        rendered SVG is itself cached under a canonical geo key.
        """
        if task not in ("similarity", "diversity"):
            raise ServerError(f"unknown mining task {task!r}", status=400)
        serving = self._serving
        item_ids, interval, description = self._resolve_selection(query, time_interval)
        if item_ids is None:
            raise QueryError("choropleth requires a query selecting items")

        def compute() -> dict:
            result = self.explain(query, time_interval=time_interval)
            explanation = result.explanation_for(task)
            svg = render_explanation_map(
                explanation,
                self.config.viz,
                title=f"{task.title()} Mining — {description}",
            )
            return {
                "description": description,
                "task": task,
                "groups": len(explanation.groups),
                "svg": svg,
            }

        if not use_cache:
            return compute()
        key = canonical_geo_key(
            "choropleth",
            item_ids,
            interval,
            task=task,
            config=self.config.mining,
            epoch=serving.epoch,
        )
        return self.cache.get_or_compute(key, compute)

    # -- rendering ----------------------------------------------------------------------

    def explanation_html(self, query: str, time_interval: Optional[TimeInterval] = None) -> str:
        """The Figure-2 HTML page for a query."""
        result = self.explain(query, time_interval)
        return self._explanation_report.render(result, title=f"MapRat — {query}")

    def explanation_text(self, query: str, time_interval: Optional[TimeInterval] = None) -> str:
        """Terminal rendering of a query's explanation."""
        return render_result_text(self.explain(query, time_interval))

    def exploration_html(
        self,
        query: str,
        task: str = "similarity",
        group_index: int = 0,
        time_interval: Optional[TimeInterval] = None,
    ) -> str:
        """The Figure-3 HTML page for one group of a query's interpretation."""
        serving = self._serving
        result = self.explain(query, time_interval)
        group = self._group_at(result, task, group_index)
        rating_slice = self._slice_for_result(serving, result, time_interval)
        statistics = group_statistics(rating_slice, group.pairs, label=group.label)
        explanation = result.explanation_for(task)
        comparisons = compare_groups(
            rating_slice,
            [g.pairs for g in explanation.groups],
            labels=[g.label for g in explanation.groups],
        )
        drilldown = DrillDown(rating_slice, min_size=1).drill(group.pairs)
        trend = serving.timeline_explorer.group_trend(
            list(result.query.item_ids), group.pairs
        )
        return self._exploration_report.render(
            group=group,
            statistics=statistics,
            comparisons=comparisons,
            drilldown=drilldown,
            trend=trend,
        )

    # -- warm-up / service info -------------------------------------------------------------

    def warm_up(self, limit: Optional[int] = None, regions: Optional[int] = None) -> dict:
        """Pre-compute explanations for the most popular items and regions (§2.3).

        Anchors run on the dedicated warm pool (one task per item or region,
        never the request pool — see ``__init__``; inline on the thread
        backend); each anchor mines its SM + DM in-process on that worker, or
        on the process backend's workers, so a saturated pool can never
        deadlock on nested submissions.  ``regions`` additionally pre-mines
        the geo explanation of the most-rated item of each of the top-N
        states, pre-filling the ``geo_explain`` surface.
        """
        with self._warmer_lock:
            if self._closed:
                raise PoolError("cannot warm up a closed system")
        limit = limit if limit is not None else self.config.server.precompute_top_items
        regions = (
            regions
            if regions is not None
            else self.config.server.precompute_top_regions
        )
        report = self.precomputer.warm_popular_items(
            self._warm_explain, limit=limit, pool=self.warm_pool
        )
        if regions:
            report = report.merged(
                self.precomputer.warm_top_regions(
                    self._warm_geo_explain, limit=regions, pool=self.warm_pool
                )
            )
        return report.to_dict()

    def _warm_explain(self, item_ids: List[int], description: str) -> MiningResult:
        """One warm-up anchor: cache-aware explain, inner SM/DM off the warm pool.

        With the thread backend the SM + DM pair mines inline on the warm
        worker (submitting it back to a pool the anchor already occupies
        could deadlock); with the process backend it scatters to the worker
        *processes* — a different pool — so warm anchors mine on every core.
        """
        return self.explain_items(item_ids, description, parallel=self._process_backend)

    def _warm_geo_explain(
        self, item_ids: List[int], region: str, description: str
    ) -> GeoMiningResult:
        """One geo warm-up anchor (same nesting rule as :meth:`_warm_explain`)."""
        return self.geo_explain_items(
            item_ids, region, description, parallel=self._process_backend
        )

    def start_warmer(self, limit: Optional[int] = None) -> CacheWarmer:
        """Start the background warm-up of the top-k popular items.

        Returns the running :class:`~repro.server.precompute.CacheWarmer`;
        the server keeps serving while it fills the cache, and the summary
        endpoint reports its progress.  Idempotent while a warm-up is still
        running — the live warmer is returned instead of racing a second one.
        """
        with self._warmer_lock:
            if self._closed:
                raise PoolError("cannot start a warmer on a closed system")
            if self.warmer is not None and not self.warmer.done:
                return self.warmer
            limit = (
                limit if limit is not None else self.config.server.precompute_top_items
            )
            self.warmer = CacheWarmer(
                self.precomputer,
                self._warm_explain,
                limit=limit,
                pool=self.warm_pool,
                explain_region=self._warm_geo_explain,
                region_limit=self.config.server.precompute_top_regions,
            ).start()
            return self.warmer

    def close(self) -> None:
        """Shut down the worker pools and the durability layer (idempotent).

        Queued warm-up anchors are cancelled so shutdown is bounded by the
        tasks already in flight, not by the full warm list.  With durability
        configured, the first close also persists the hot anchor set (for the
        next start's warm restart) and seals the write-ahead log.  Call when
        discarding a system (the HTTP layer closes systems it owns on
        ``stop()``); a shared, long-lived system can simply be dropped —
        idle executor threads are reclaimed at interpreter exit, and the WAL
        is crash-safe by construction.
        """
        with self._warmer_lock:
            already = self._closed
            self._closed = True  # start_warmer refuses from here on
            warmer = self.warmer
        if warmer is not None:
            warmer.cancel()  # stops the serial path of an inline pool
        self.warm_pool.shutdown(cancel_pending=True)
        if warmer is not None:
            try:
                warmer.wait(timeout=None)
            except (Exception, CancelledError):
                pass  # a cancelled/failed warm-up must not block shutdown
        self.pool.shutdown(cancel_pending=True)
        if not already:
            self._save_warm_anchors()
        if self.durability is not None:
            self.durability.close()

    # -- warm restart (durable hot-anchor set) ------------------------------------------

    def _save_warm_anchors(self) -> None:
        """Persist the default-config mining anchors of the current epoch.

        Best-effort (an unwritable data directory must never fail shutdown):
        the anchor set is only a latency optimisation — losing it costs a
        cold cache on the next start, never correctness.  Written atomically
        (tmp + rename) so a crash mid-save leaves the previous set intact.
        """
        if self.durability is None:
            return
        epoch = self._serving.epoch
        default_config = self.config.mining.cache_key()
        anchors: List[dict] = []
        for key in self.cache.keys():
            if not (isinstance(key, tuple) and key and key[-1] == epoch):
                continue
            if key[0] == "explain":
                ids, interval, config_key = key[1], key[2], key[3]
                if not ids or config_key != default_config:
                    continue
                anchors.append(
                    {
                        "kind": "explain",
                        "item_ids": list(ids),
                        "interval": None if interval is None else list(interval),
                    }
                )
            elif key[0] == "geo" and key[1] == "geo_explain":
                ids, interval, config_key = key[2], key[3], key[8]
                if config_key != default_config:
                    continue
                anchors.append(
                    {
                        "kind": "geo_explain",
                        "item_ids": None if ids is None else list(ids),
                        "region": key[4],
                        "interval": None if interval is None else list(interval),
                    }
                )
        path = self.durability.layout.warm_anchor_path
        try:
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(anchors, sort_keys=True))
            tmp.replace(path)
        except OSError:
            pass

    def _replay_warm_anchors(self) -> None:
        """Re-mine the anchor set saved by the previous run's shutdown.

        The warm-restart half of the durability contract: after recovery the
        store is byte-identical to the pre-crash run, so replaying the saved
        default-config anchors refills exactly the entries the hot set had.
        Runs on a background thread under ``warm_in_background`` (the server
        serves immediately while the cache fills), inline otherwise.
        Anchors that no longer mine (e.g. a selection emptied by re-ingested
        data) are skipped — the set is advisory, never load-bearing.
        """
        path = self.durability.layout.warm_anchor_path
        try:
            anchors = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(anchors, list) or not anchors:
            return

        def replay() -> None:
            replayed = 0
            for anchor in anchors:
                try:
                    kind = anchor.get("kind")
                    ids = [int(i) for i in anchor.get("item_ids") or []]
                    interval = anchor.get("interval")
                    if interval is not None:
                        interval = (int(interval[0]), int(interval[1]))
                    if kind == "explain" and ids:
                        self.explain_items(ids, time_interval=interval)
                    elif kind == "geo_explain" and anchor.get("region"):
                        self.geo_explain_items(
                            ids or None, anchor["region"], time_interval=interval
                        )
                    else:
                        continue
                    replayed += 1
                except (MapRatError, TypeError, ValueError):
                    continue
            if self._recovery_report is not None:
                self._recovery_report.warm_anchors_replayed = replayed

        if self.config.server.warm_in_background:
            threading.Thread(
                target=replay, name="maprat-warm-restart", daemon=True
            ).start()
        else:
            replay()

    def __enter__(self) -> "MapRat":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def suggest_titles(self, prefix: str, limit: int = 10) -> List[str]:
        """Title autocompletion for the search box (case-insensitive prefix)."""
        return self.engine.suggest_titles(prefix, limit=limit)

    def summary(self) -> dict:
        """Dataset and cache summary for the landing page / status endpoint."""
        serving = self._serving
        info = serving.store.dataset.describe()
        info["cache"] = self.cache.stats.to_dict()
        info["cache_entries"] = len(self.cache)
        info["serving"] = {
            "single_flight": self.cache.single_flight,
            "pool": self.pool.to_dict(),
            "warm_pool": self.warm_pool.to_dict(),
            "warmer": self.warmer.to_dict() if self.warmer is not None else None,
            "epoch": serving.epoch,
            "ingest": self.live.stats(),
        }
        return info

    # -- live ingestion (epoch-versioned write path) --------------------------------------

    def ingest(
        self,
        item_id: int,
        reviewer_id: int,
        score: float,
        timestamp: int = 0,
        reviewer: Optional[Union[Reviewer, Mapping]] = None,
    ) -> dict:
        """Accept one new rating into the append buffer (non-blocking for readers).

        ``reviewer`` registers a new community member (a :class:`Reviewer`
        or its dict form) and is required exactly when ``reviewer_id`` is
        unknown.  When the buffer reaches
        ``ServerConfig.auto_compact_threshold`` the ingest triggers a
        compaction into the next epoch; readers keep serving the previous
        snapshot throughout.  An out-of-range reviewer id or timestamp, or a
        new reviewer with no age band, raises
        :class:`~repro.errors.IngestError` (see
        :func:`~repro.data.ingest.checked_rating` and
        :func:`~repro.data.ingest.checked_reviewer`).
        """
        rating = checked_rating(
            Rating(
                item_id=int(item_id),
                reviewer_id=int(reviewer_id),
                score=float(score),
                timestamp=int(timestamp),
            )
        )
        if isinstance(reviewer, Mapping):
            record = reviewer_from_dict(reviewer, rating.reviewer_id)
        else:
            record = None if reviewer is None else checked_reviewer(reviewer)
        status = self.live.ingest(rating, record)
        payload = {
            "status": status,
            "epoch": self.live.epoch,
            "buffered": self.live.pending,
            "auto_compacted": False,
        }
        return self._maybe_auto_compact(payload)

    def ingest_batch(self, entries: Sequence[Mapping]) -> dict:
        """Accept a batch of rating entries (each optionally embedding a reviewer).

        Every entry is a dict with ``item_id``/``reviewer_id``/``score``
        (+ optional ``timestamp`` and ``reviewer``).  Batches above
        ``ServerConfig.ingest_batch_size`` are rejected outright.
        """
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise IngestError("ingest batch must be a list of rating entries")
        limit = self.config.server.ingest_batch_size
        if len(entries) > limit:
            raise IngestError(
                f"batch of {len(entries)} entries exceeds ingest_batch_size={limit}"
            )
        pairs = []
        for index, entry in enumerate(entries):
            try:
                rating = rating_from_dict(entry)
                record = (
                    reviewer_from_dict(entry["reviewer"], rating.reviewer_id)
                    if isinstance(entry, Mapping) and "reviewer" in entry
                    else None
                )
            except IngestError as exc:
                raise IngestError(f"batch entry {index}: {exc}") from exc
            pairs.append((rating, record))
        counts = self.live.ingest_batch(pairs)
        payload = {
            "accepted": counts["accepted"],
            "duplicates": counts["duplicate"],
            "epoch": self.live.epoch,
            "buffered": self.live.pending,
            "auto_compacted": False,
        }
        return self._maybe_auto_compact(payload)

    def _maybe_auto_compact(self, payload: dict) -> dict:
        if self.live.should_auto_compact():
            compaction = self.compact()
            payload["auto_compacted"] = compaction["compacted"]
            payload["compaction"] = compaction
            payload["epoch"] = compaction["epoch"]
            payload["buffered"] = self.live.pending
        return payload

    def store_stats(self) -> dict:
        """Deterministic counters of the live store (the ``store_stats`` endpoint)."""
        stats = self.live.stats()
        stats["cache_entries"] = len(self.cache)
        return stats

    # -- durability -----------------------------------------------------------------------

    def snapshot_now(self) -> dict:
        """Write an on-demand durability snapshot of the current compacted state.

        Only the compacted snapshot is captured — buffered rows stay covered
        by the active write-ahead log, which is exactly what recovery
        replays.  Raises a 400 :class:`~repro.errors.ServerError` when the
        system runs without a data directory.
        """
        if self.durability is None:
            raise ServerError(
                "durability is not configured (start with ServerConfig.data_dir)",
                status=400,
            )
        with self._ingest_lock:
            return self.durability.write_snapshot(self.live.snapshot)

    def recovery_info(self) -> dict:
        """Durability-layer status plus the startup recovery report.

        ``{"configured": False}`` when the system runs purely in-memory;
        otherwise the controller's :meth:`~repro.server.recovery.
        DurabilityController.info` payload with the recovery report merged
        in (the ``recovery_info`` endpoint).
        """
        if self.durability is None:
            return {"configured": False}
        info = self.durability.info()
        info["configured"] = True
        report = self._recovery_report
        info["recovery"] = report.to_dict() if report is not None else None
        return info

    def compact(self, rewarm: bool = True) -> dict:
        """Merge the append buffer into a new snapshot epoch and swap serving.

        Readers never block: they keep using the previous
        :class:`ServingState` until the single atomic reference swap, and
        every cache key carries the epoch, so entries of the superseded
        snapshot become unreachable instantly.  Afterwards the cache is
        migrated: entries whose item selections the delta did not touch are
        **carried forward** to the new epoch (their slices — hence results —
        are unchanged by construction), touched entries are dropped, and the
        dropped mining anchors (default-config explains and geo explains)
        are re-warmed against the new snapshot.
        """
        with self._ingest_lock:
            previous = self._serving
            result = self.live.compact()
            if not result.compacted:
                return {
                    "compacted": False,
                    "epoch": result.epoch,
                    "mode": result.mode,
                    "rows": len(result.store),
                    "carried_entries": 0,
                    "invalidated_entries": 0,
                    "rewarmed": 0,
                }
            serving = self._build_serving(result.store, previous, result.delta)
            publish_error: Optional[BaseException] = None
            if self._process_backend:
                # Publish the new epoch's shared-memory export *before* the
                # swap: a request grabbing the new serving state right after
                # must be able to submit immediately.  The old epoch is NOT
                # retired yet — until the swap below, ``self._serving`` still
                # points at it, and a stale-epoch rejection now would make
                # the retry (which re-reads ``self._serving``) spin on the
                # same retired epoch.  A failed export (e.g. /dev/shm full)
                # must NOT abort the turnover — the LiveStore already
                # advanced, so the swap below still happens to keep every
                # surface on one epoch; mining degrades to StaleEpochError
                # until a later publish succeeds, and the original error is
                # re-raised to the compact caller.
                try:
                    self.pool.publish(serving.store, retire_previous=False)
                except Exception as exc:
                    publish_error = exc
            self._serving = serving  # atomic swap: requests see old xor new
            if self._process_backend and publish_error is None:
                # Only now can "epoch < current" be refused: any retry
                # observes the new serving state.  Segments stay linked
                # until their in-flight tasks drain (per-epoch refcounts),
                # so readers holding the old state never see a torn store.
                self.pool.retire_older(serving.epoch)
            migration, rewarm_plan = self._migrate_cache(
                previous.epoch, serving.epoch, result.delta, rewarm
            )
        if publish_error is not None:
            raise publish_error
        # Re-mining the invalidated anchors happens *outside* the ingest
        # lock: it is by far the slowest part of an epoch turnover and must
        # not stall other writers (readers were never blocked to begin
        # with).  The anchors mine against the already-swapped serving state.
        migration["rewarmed"] = self._rewarm_anchors(rewarm_plan)
        payload = result.to_dict()
        payload["compacted"] = True
        payload.update(migration)
        return payload

    def _build_serving(
        self, store: RatingStore, previous: ServingState, delta
    ) -> ServingState:
        miner = RatingMiner(store, self.config.mining)
        geo = GeoExplorer(miner, hierarchy=previous.geo.hierarchy)
        return ServingState(
            epoch=store.epoch,
            store=store,
            miner=miner,
            geo=geo,
            timeline_explorer=TimelineExplorer(miner, self.config.mining),
            precomputer=Precomputer.rebased(
                previous.precomputer, store, miner, geo, delta.touched_items
            ),
        )

    def _migrate_cache(
        self, old_epoch: int, new_epoch: int, delta, rewarm: bool
    ) -> dict:
        """Carry forward untouched entries; drop + re-warm invalidated anchors.

        An entry whose item selection shares no item with the compaction
        delta saw its rating slice unchanged, so its value is re-keyed under
        the new epoch without recomputation.  Whole-store entries
        (``item_ids=None``) and touched selections are dropped; among those,
        default-config mining anchors (``explain``/``geo_explain``) are
        re-mined against the new snapshot so the hot set stays warm — the
        "re-warm only invalidated anchors" contract.
        """
        touched = delta.touched_items
        default_config = self.config.mining.cache_key()
        carried = invalidated = 0
        rewarm_explains: List[Tuple[tuple, Optional[Tuple[int, int]]]] = []
        rewarm_regions: List[Tuple[Optional[tuple], str, Optional[Tuple[int, int]]]] = []
        for key in self.cache.keys():
            if not (isinstance(key, tuple) and key and key[-1] == old_epoch):
                continue
            if key[0] == "explain":
                ids, interval, config_key = key[1], key[2], key[3]
                untouched = bool(ids) and not touched.intersection(ids)
            elif key[0] == "geo":
                ids, interval, config_key = key[2], key[3], key[8]
                untouched = ids is not None and not touched.intersection(ids)
            else:
                continue
            if untouched:
                value = self.cache.get(key, record_stats=False)
                if value is not None:
                    self.cache.put(key[:-1] + (new_epoch,), value)
                    carried += 1
                self.cache.invalidate(key)
                continue
            self.cache.invalidate(key)
            invalidated += 1
            if not rewarm or config_key != default_config:
                continue
            if key[0] == "explain" and ids:
                rewarm_explains.append((ids, interval))
            elif key[0] == "geo" and key[1] == "geo_explain":
                rewarm_regions.append((ids, key[4], interval))
        counts = {"carried_entries": carried, "invalidated_entries": invalidated}
        return counts, (rewarm_explains, rewarm_regions)

    def _rewarm_anchors(self, plan) -> int:
        """Re-mine the invalidated anchors against the current serving state."""
        rewarm_explains, rewarm_regions = plan
        rewarmed = 0
        for ids, interval in rewarm_explains:
            try:
                self.explain_items(list(ids), time_interval=interval)
                rewarmed += 1
            except MapRatError:
                pass  # a shrunken selection may no longer mine; drop it
        for ids, region, interval in rewarm_regions:
            try:
                self.geo_explain_items(
                    None if ids is None else list(ids), region, time_interval=interval
                )
                rewarmed += 1
            except MapRatError:
                pass
        return rewarmed

    # -- internals ----------------------------------------------------------------------

    def _group_at(self, result: MiningResult, task: str, index: int) -> GroupExplanation:
        try:
            explanation = result.explanation_for(task)
        except KeyError as exc:
            raise ServerError(str(exc), status=400) from exc
        if not 0 <= index < len(explanation.groups):
            raise ExplorationError(
                f"group index {index} out of range 0..{len(explanation.groups) - 1}"
            )
        return explanation.groups[index]

    def _slice_for_result(
        self,
        serving: ServingState,
        result: MiningResult,
        time_interval: Optional[TimeInterval],
    ):
        interval = time_interval.as_tuple() if time_interval else None
        return serving.miner.slice_for_items(
            result.query.item_ids, time_interval=interval
        )


class JsonApi:
    """dict-in / dict-out handlers for every endpoint of the HTTP server."""

    def __init__(self, system: MapRat) -> None:
        self.system = system

    # -- endpoint handlers -----------------------------------------------------------

    def handle_summary(self, params: Mapping[str, str]) -> dict:
        """``summary``: dataset, cache and serving status."""
        return self.system.summary()

    def handle_suggest(self, params: Mapping[str, str]) -> dict:
        """``suggest``: title autocomplete (``prefix``, ``limit``)."""
        prefix = params.get("prefix", "")
        limit = self._int_param(params, "limit", 10, minimum=1)
        return {"titles": self.system.suggest_titles(prefix, limit=limit)}

    def handle_explain(self, params: Mapping[str, str]) -> dict:
        """``explain``: SM + DM interpretations of a query (``q``)."""
        query = self._require(params, "q")
        interval = self._interval_from(params)
        result = self.system.explain(query, time_interval=interval)
        return result.to_dict()

    def handle_statistics(self, params: Mapping[str, str]) -> dict:
        """``statistics``: Figure-3 statistics of one mined group."""
        query = self._require(params, "q")
        task = params.get("task", "similarity")
        index = self._int_param(params, "group", 0)
        stats = self.system.group_statistics(query, task, index)
        return stats.to_dict()

    def handle_drilldown(self, params: Mapping[str, str]) -> dict:
        """``drilldown``: city-level statistics of one mined group."""
        query = self._require(params, "q")
        task = params.get("task", "similarity")
        index = self._int_param(params, "group", 0)
        aggregates = self.system.drill_down(query, task, index)
        return {"aggregates": [agg.to_dict() for agg in aggregates]}

    def handle_timeline(self, params: Mapping[str, str]) -> dict:
        """``timeline``: per-year interpretations of a query."""
        query = self._require(params, "q")
        min_ratings = self._int_param(params, "min_ratings", 20, minimum=0)
        slices = self.system.timeline(query, min_ratings=min_ratings)
        return {"slices": [s.to_dict() for s in slices]}

    def handle_warmup(self, params: Mapping[str, str]) -> dict:
        """``warmup``: pre-mine popular items (``limit``) and top regions (``regions``)."""
        limit = self._int_param(params, "limit", 10, minimum=0)
        regions = self._int_param(params, "regions", 0, minimum=0)
        return self.system.warm_up(limit=limit, regions=regions)

    # -- geo endpoint handlers ----------------------------------------------------------

    def handle_geo_summary(self, params: Mapping[str, str]) -> dict:
        """``geo_summary``: per-state rating aggregates of a selection."""
        query = params.get("q") or None
        interval = self._interval_from(params)
        min_size = self._int_param(params, "min_size", 1, minimum=0)
        return self.system.geo_summary(
            query, time_interval=interval, min_size=min_size
        )

    def handle_geo_drilldown(self, params: Mapping[str, str]) -> dict:
        """``geo_drilldown``: children of ``region`` — states, cities or zip codes."""
        query = params.get("q") or None
        region = params.get("region") or None
        by = params.get("by", "city")
        interval = self._interval_from(params)
        min_size = self._int_param(params, "min_size", 1, minimum=0)
        return self.system.geo_drilldown(
            region=region,
            by=by,
            query=query,
            time_interval=interval,
            min_size=min_size,
        )

    def handle_geo_explain(self, params: Mapping[str, str]) -> dict:
        """``geo_explain``: within-region SM + DM of a query (``q``, ``region``)."""
        query = self._require(params, "q")
        region = self._require(params, "region")
        interval = self._interval_from(params)
        result = self.system.geo_explain(query, region, time_interval=interval)
        return result.to_dict()

    def handle_choropleth(self, params: Mapping[str, str]) -> dict:
        """``choropleth``: the Figure-2 map of one mining task as an SVG payload."""
        query = self._require(params, "q")
        task = params.get("task", "similarity")
        interval = self._interval_from(params)
        return self.system.choropleth(query, task=task, time_interval=interval)

    # -- ingestion endpoint handlers -----------------------------------------------------

    #: Reviewer-registration parameters of the ``ingest`` endpoint.
    _REVIEWER_PARAMS = ("gender", "age", "occupation", "zipcode", "state", "city")

    def handle_ingest(self, params: Mapping[str, str]) -> dict:
        """Accept one rating; reviewer params register a new reviewer inline."""
        item_id = self._int_param(params, "item_id", None)
        reviewer_id = self._int_param(params, "reviewer_id", None)
        if item_id is None or reviewer_id is None:
            raise ServerError(
                "ingest requires integer parameters 'item_id' and 'reviewer_id'",
                status=400,
            )
        score = self._float_param(params, "score", None)
        if score is None:
            raise ServerError(
                "ingest requires a numeric parameter 'score'", status=400
            )
        timestamp = self._int_param(params, "timestamp", 0)
        # A reviewer record may arrive nested (the POST-body / batch shape)
        # or as flat query parameters; nested wins when both are present.
        reviewer = params.get("reviewer")
        if isinstance(reviewer, str) and reviewer.strip():
            try:
                reviewer = json.loads(reviewer)
            except json.JSONDecodeError as exc:
                raise ServerError(
                    f"parameter 'reviewer' must be a JSON object: {exc.msg}",
                    status=400,
                ) from exc
        if not reviewer:
            provided = {
                name: params[name]
                for name in self._REVIEWER_PARAMS
                if str(params.get(name, "")).strip()
            }
            reviewer = provided or None
        if isinstance(reviewer, dict):
            reviewer.setdefault("reviewer_id", reviewer_id)
        return self.system.ingest(
            item_id, reviewer_id, score, timestamp=timestamp, reviewer=reviewer
        )

    def handle_ingest_batch(self, params: Mapping[str, str]) -> dict:
        """Accept a JSON array of rating entries (query param or POST body)."""
        raw = params.get("ratings")
        if raw is None or (isinstance(raw, str) and not raw.strip()):
            raise ServerError("missing required parameter 'ratings'", status=400)
        if isinstance(raw, str):
            try:
                entries = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServerError(
                    f"parameter 'ratings' must be a JSON array: {exc.msg}", status=400
                ) from exc
        else:
            entries = raw
        if not isinstance(entries, list):
            raise ServerError(
                "parameter 'ratings' must be a JSON array of rating entries",
                status=400,
            )
        return self.system.ingest_batch(entries)

    def handle_store_stats(self, params: Mapping[str, str]) -> dict:
        """``store_stats``: live-store counters (epoch, rows, buffer, compactions)."""
        return self.system.store_stats()

    def handle_compact(self, params: Mapping[str, str]) -> dict:
        """``compact``: fold the append buffer into the next epoch."""
        return self.system.compact()

    def handle_snapshot(self, params: Mapping[str, str]) -> dict:
        """``snapshot``: write an on-demand durability snapshot."""
        return self.system.snapshot_now()

    def handle_recovery_info(self, params: Mapping[str, str]) -> dict:
        """``recovery_info``: durability status and the startup recovery report."""
        return self.system.recovery_info()

    #: Route table used by the HTTP layer.
    def routes(self) -> Dict[str, callable]:
        """The endpoint → handler table used by the HTTP layer."""
        return {
            "summary": self.handle_summary,
            "suggest": self.handle_suggest,
            "explain": self.handle_explain,
            "statistics": self.handle_statistics,
            "drilldown": self.handle_drilldown,
            "timeline": self.handle_timeline,
            "warmup": self.handle_warmup,
            "geo_summary": self.handle_geo_summary,
            "geo_drilldown": self.handle_geo_drilldown,
            "geo_explain": self.handle_geo_explain,
            "choropleth": self.handle_choropleth,
            "ingest": self.handle_ingest,
            "ingest_batch": self.handle_ingest_batch,
            "store_stats": self.handle_store_stats,
            "compact": self.handle_compact,
            "snapshot": self.handle_snapshot,
            "recovery_info": self.handle_recovery_info,
        }

    def dispatch(self, endpoint: str, params: Mapping[str, str]) -> dict:
        """Route one request; wraps library errors into :class:`ServerError`."""
        handler = self.routes().get(endpoint)
        if handler is None:
            raise ServerError(f"unknown endpoint {endpoint!r}", status=404)
        try:
            return handler(params)
        except ServerError:
            raise
        except MiningTimeoutError as exc:
            # Deadline overruns are a service condition, not a client error:
            # 503 tells the caller to retry (the result may even be cached by
            # the still-running task by then).
            raise ServerError(str(exc), status=503) from exc
        except (
            QueryError,
            ExplorationError,
            EmptyRatingSetError,
            MiningError,
            GeoError,
            IngestError,
            VisualizationError,
        ) as exc:
            raise ServerError(str(exc), status=400) from exc
        except MapRatError as exc:  # pragma: no cover - defensive catch-all
            raise ServerError(str(exc), status=500) from exc

    # -- internals ----------------------------------------------------------------------

    @staticmethod
    def _require(params: Mapping[str, str], name: str) -> str:
        value = params.get(name, "").strip()
        if not value:
            raise ServerError(f"missing required parameter {name!r}", status=400)
        return value

    @staticmethod
    def _int_param(
        params: Mapping[str, str],
        name: str,
        default: Optional[int],
        minimum: Optional[int] = None,
    ) -> Optional[int]:
        """Integer query parameter with a clean 400 on malformed input.

        ``minimum`` rejects smaller values with a 400, so a negative count
        never reaches a ``[:limit]`` slice and counts from the end.
        """
        raw = params.get(name)
        if raw is None or not str(raw).strip():
            return default
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServerError(
                f"parameter {name!r} must be an integer", status=400
            ) from exc
        if minimum is not None and value < minimum:
            raise ServerError(
                f"parameter {name!r} must be at least {minimum}", status=400
            )
        return value

    @staticmethod
    def _float_param(
        params: Mapping[str, str], name: str, default: Optional[float]
    ) -> Optional[float]:
        """Float query parameter with a clean 400 on malformed input."""
        raw = params.get(name)
        if raw is None or not str(raw).strip():
            return default
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServerError(
                f"parameter {name!r} must be a number", status=400
            ) from exc

    @staticmethod
    def _interval_from(params: Mapping[str, str]) -> Optional[TimeInterval]:
        start_year = params.get("start_year")
        end_year = params.get("end_year")
        if not start_year and not end_year:
            return None
        try:
            start = int(start_year or end_year)
            end = int(end_year or start_year)
        except ValueError as exc:
            raise ServerError("start_year/end_year must be integers", status=400) from exc
        return TimeInterval.for_years(start, end)
