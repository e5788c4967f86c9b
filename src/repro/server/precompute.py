"""Pre-processing and result pre-computation (§2.3 latency techniques).

Two of the three latency levers the paper names live here (the third, caching,
is :mod:`repro.server.cache`):

* **aggressive data pre-processing** — the indexed
  :class:`~repro.data.storage.RatingStore` is built once per dataset; this
  module additionally materialises per-item aggregates (count, average,
  histogram) so query summaries never re-scan ratings,
* **result pre-computation** — the explanations of the most-rated items are
  mined ahead of time and pushed into the result cache, so the popular demo
  queries ("Toy Story", blockbusters) answer from memory.

Both per-anchor loops (one task per item) shard across a
:class:`~repro.server.pool.MiningWorkerPool` when one is supplied; results
are gathered in submission order and every anchor mines with the fixed seed
of its mining configuration, so sharded runs are bit-identical to serial
ones.  :class:`CacheWarmer` runs the popular-item warm-up on a background
thread so a freshly started server answers its first requests immediately —
the single-flight cache coalesces any live request with the warm-up mining
of the same item.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.explanation import MiningResult
from ..core.miner import RatingMiner
from ..data.model import Item
from ..data.storage import RatingStore
from ..errors import MiningError
from ..geo.explorer import GeoExplorer


def _shards_closures(pool) -> bool:
    """True when ``pool`` can shard the per-anchor closures of this module.

    Only the thread pool can — closures cannot cross a process boundary, so a
    :class:`~repro.server.procpool.ProcessMiningPool` handed in here falls
    back to the serial anchor loop (its multi-core parallelism then comes
    from the *inner* SM/DM specs the anchors submit).
    """
    return (
        pool is not None
        and getattr(pool, "parallel", False)
        and getattr(pool, "kind", "thread") == "thread"
    )


@dataclass(frozen=True)
class ItemAggregate:
    """Cheap per-item statistics materialised ahead of queries.

    Attributes:
        item_id: the item.
        title: item title (for display without a catalogue lookup).
        count: number of ratings.
        average: average rating.
        histogram: count of ratings per integer score.
    """

    item_id: int
    title: str
    count: int
    average: float
    histogram: Dict[int, int]

    def to_dict(self) -> dict:
        """The aggregate as a JSON-ready dict."""
        return {
            "item_id": self.item_id,
            "title": self.title,
            "count": self.count,
            "average": self.average,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


@dataclass
class PrecomputeReport:
    """What a warm-up run did (reported by the latency benchmark)."""

    items_aggregated: int = 0
    results_precomputed: int = 0
    regions_precomputed: int = 0
    failures: int = 0
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict."""
        return {
            "items_aggregated": self.items_aggregated,
            "results_precomputed": self.results_precomputed,
            "regions_precomputed": self.regions_precomputed,
            "failures": self.failures,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }

    def merged(self, other: "PrecomputeReport") -> "PrecomputeReport":
        """Combine two warm-up phases into one report (items + regions)."""
        return PrecomputeReport(
            items_aggregated=max(self.items_aggregated, other.items_aggregated),
            results_precomputed=self.results_precomputed + other.results_precomputed,
            regions_precomputed=self.regions_precomputed + other.regions_precomputed,
            failures=self.failures + other.failures,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
        )


class Precomputer:
    """Builds per-item aggregates and warms the result cache for popular items."""

    def __init__(
        self,
        store: RatingStore,
        miner: RatingMiner,
        explorer: Optional[GeoExplorer] = None,
    ) -> None:
        self.store = store
        self.miner = miner
        # Reuse the owning façade's explorer when given (one hierarchy, one
        # explorer per store); build lazily otherwise.
        self._explorer = explorer
        self._aggregates: Dict[int, ItemAggregate] = {}
        self._aggregates_built = False
        self._aggregates_lock = threading.Lock()
        self._build_lock = threading.Lock()

    # -- data pre-processing --------------------------------------------------------

    def build_item_aggregates(self, pool=None) -> Dict[int, ItemAggregate]:
        """Materialise (count, average, histogram) for every item in the store.

        The per-item loop shards across ``pool`` when given; the store is
        read-only, each item is independent, and results are keyed by item id,
        so the sharded dict equals the serial one.
        """
        items = list(self.store.dataset.items())
        if _shards_closures(pool):
            per_item = pool.map(self._aggregate_one, items)
        else:
            per_item = [self._aggregate_one(item) for item in items]
        aggregates = {agg.item_id: agg for agg in per_item if agg is not None}
        with self._aggregates_lock:
            self._aggregates = aggregates
            self._aggregates_built = True
        return aggregates

    def _aggregate_one(self, item: Item) -> Optional[ItemAggregate]:
        rating_slice = self.store.slice_for_items([item.item_id], allow_empty=True)
        if rating_slice.is_empty():
            return None
        histogram = {
            int(score): count
            for score, count in rating_slice.score_histogram().items()
            if count
        }
        return ItemAggregate(
            item_id=item.item_id,
            title=item.title,
            count=len(rating_slice),
            average=round(rating_slice.average(), 4),
            histogram=histogram,
        )

    @classmethod
    def rebased(
        cls,
        previous: "Precomputer",
        store: RatingStore,
        miner: RatingMiner,
        explorer: Optional[GeoExplorer],
        touched_items,
    ) -> "Precomputer":
        """A precomputer for the next epoch, maintained incrementally.

        Carries the previous epoch's per-item aggregates forward and
        recomputes **only the items touched by the compaction delta** (each a
        single inverted-index lookup on the new store) — untouched items'
        slices are unchanged by construction, so their aggregates are reused
        as-is.  A previous instance that never built its aggregates stays
        lazy: nothing is built just to be rebased.
        """
        fresh = cls(store, miner, explorer=explorer)
        with previous._aggregates_lock:
            built = previous._aggregates_built
            aggregates = dict(previous._aggregates)
        if not built:
            return fresh
        for item_id in sorted(touched_items):
            if not store.dataset.has_item(item_id):
                continue
            aggregate = fresh._aggregate_one(store.dataset.item(item_id))
            if aggregate is not None:
                aggregates[item_id] = aggregate
        with fresh._aggregates_lock:
            fresh._aggregates = aggregates
            fresh._aggregates_built = True
        return fresh

    def _ensure_aggregates(self, pool=None) -> None:
        """Build the aggregates once; concurrent cold callers share one build.

        The dedicated built flag (not dict truthiness) keeps a legitimately
        empty result — a store with no rated items — from re-scanning the
        catalogue on every lookup.
        """
        if self._aggregates_built:
            return
        with self._build_lock:
            if not self._aggregates_built:
                self.build_item_aggregates(pool=pool)

    def aggregate_for(self, item_id: int) -> Optional[ItemAggregate]:
        """Return the pre-computed aggregate of one item (None when unrated)."""
        self._ensure_aggregates()
        return self._aggregates.get(item_id)

    def top_items(self, limit: int = 10) -> List[ItemAggregate]:
        """The most-rated items, the natural warm-up set for the demo."""
        self._ensure_aggregates()
        ordered = sorted(
            self._aggregates.values(), key=lambda agg: (-agg.count, agg.item_id)
        )
        return ordered[:limit]

    # -- result pre-computation -------------------------------------------------------

    def warm_popular_items(
        self,
        explain: Callable[[List[int], str], MiningResult],
        limit: int = 20,
        pool=None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> PrecomputeReport:
        """Mine the explanations of the ``limit`` most-rated items ahead of time.

        Args:
            explain: callback that mines and caches one item selection; the
                MapRat façade passes its own cache-aware ``explain_items``.
                When sharding across a pool, the callback must not submit
                nested work to the same pool (it would deadlock a saturated
                pool); the façade runs the inner SM/DM tasks serially.
            limit: how many popular items to pre-compute.
            pool: optional worker pool; anchors shard across it, one task per
                item.  ``MiningError`` counting and the report match the
                serial loop; a *fatal* (non-mining) error still propagates,
                but only after the whole sharded batch has been gathered —
                the serial path fails fast at the offending anchor.
            should_stop: optional cancellation probe checked at the start of
                every anchor (serial and pooled alike); anchors that observe
                it are skipped and counted in neither bucket of the report.
        """
        report = PrecomputeReport()
        started_at = time.perf_counter()
        self._ensure_aggregates(pool=pool)  # the aggregate build shards too
        anchors = self.top_items(limit)

        def warm_one(aggregate: ItemAggregate) -> bool:
            if should_stop is not None and should_stop():
                return False
            explain([aggregate.item_id], f'title:"{aggregate.title}"')
            return True

        if _shards_closures(pool):
            outcomes = pool.map_outcomes(warm_one, anchors)
        else:
            outcomes = []
            for aggregate in anchors:
                if should_stop is not None and should_stop():
                    break
                try:
                    outcomes.append((warm_one(aggregate), None))
                except MiningError as exc:
                    outcomes.append((None, exc))
        for mined, error in outcomes:
            if error is None:
                if mined:
                    report.results_precomputed += 1
            elif isinstance(error, MiningError):
                report.failures += 1
            elif isinstance(error, CancelledError):
                pass  # pool shut down mid-batch: a skip, not a failure
            else:
                raise error
        report.items_aggregated = len(self._aggregates)
        report.elapsed_seconds = time.perf_counter() - started_at
        return report

    # -- geo pre-computation ----------------------------------------------------------

    def top_region_anchors(self, limit: int = 5) -> List[Tuple[str, int, str]]:
        """The warm-up anchors of the geo serving surface.

        For each of the ``limit`` most-rated states, the most-rated item
        *within* that state: ``(state_code, item_id, title)`` triples.  These
        are the (region, item) pairs the geo endpoints are most likely to be
        asked about, exactly as :meth:`top_items` anchors the explain surface.
        """
        if limit <= 0:
            return []
        slice_all = self.store.slice_all()
        if slice_all.is_empty():
            return []
        if self._explorer is None:
            self._explorer = GeoExplorer(self.miner)
        explorer = self._explorer
        regions = [
            agg.region
            for agg in explorer.aggregate_by(slice_all, "state", "state")[:limit]
        ]
        anchors: List[Tuple[str, int, str]] = []
        for region in regions:
            mask = slice_all.mask_for("state", region)
            item_ids = slice_all.item_ids[mask]
            if item_ids.shape[0] == 0:
                continue
            values, counts = np.unique(item_ids, return_counts=True)
            order = np.lexsort((values, -counts))
            top_item = int(values[order[0]])
            title = (
                self.store.dataset.item(top_item).title
                if self.store.dataset.has_item(top_item)
                else str(top_item)
            )
            anchors.append((region, top_item, title))
        return anchors

    def warm_top_regions(
        self,
        explain_region: Callable[[List[int], str, str], object],
        limit: int = 5,
        pool=None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> PrecomputeReport:
        """Pre-mine the geo explanations of the top-region anchors.

        Args:
            explain_region: callback mining and caching one (item selection,
                region) pair — the MapRat façade passes its cache-aware
                ``geo_explain`` path.  When sharding across a pool the
                callback must not submit nested work to the same pool.
            limit: how many top regions to anchor.
            pool: optional worker pool; one task per region, gathered in
                submission order.
            should_stop: optional cancellation probe checked per anchor.
        """
        report = PrecomputeReport()
        started_at = time.perf_counter()
        anchors = self.top_region_anchors(limit)

        def warm_one(anchor: Tuple[str, int, str]) -> bool:
            region, item_id, title = anchor
            if should_stop is not None and should_stop():
                return False
            explain_region([item_id], region, f'title:"{title}"')
            return True

        if _shards_closures(pool):
            outcomes = pool.map_outcomes(warm_one, anchors)
        else:
            outcomes = []
            for anchor in anchors:
                if should_stop is not None and should_stop():
                    break
                try:
                    outcomes.append((warm_one(anchor), None))
                except MiningError as exc:
                    outcomes.append((None, exc))
        for mined, error in outcomes:
            if error is None:
                if mined:
                    report.regions_precomputed += 1
            elif isinstance(error, MiningError):
                report.failures += 1
            elif isinstance(error, CancelledError):
                pass  # pool shut down mid-batch: a skip, not a failure
            else:
                raise error
        report.elapsed_seconds = time.perf_counter() - started_at
        return report


class CacheWarmer:
    """Background warm-up of the popular-item explanations at server startup.

    Wraps one :meth:`Precomputer.warm_popular_items` run on a daemon thread:
    the server starts serving immediately while the warmer fills the cache
    behind it, and the single-flight cache coalesces any early request for an
    item the warmer is currently mining.
    """

    def __init__(
        self,
        precomputer: Precomputer,
        explain: Callable[[List[int], str], MiningResult],
        limit: int = 20,
        pool=None,
        explain_region: Optional[Callable[[List[int], str, str], object]] = None,
        region_limit: int = 0,
    ) -> None:
        self.precomputer: Optional[Precomputer] = precomputer
        self.explain = explain
        self.limit = limit
        self.pool = pool
        self.explain_region = explain_region
        self.region_limit = region_limit
        self.report: Optional[PrecomputeReport] = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()
        self._cancelled = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "CacheWarmer":
        """Kick off the warm-up thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="maprat-warmer", daemon=True
            )
            self._thread.start()
        return self

    def cancel(self) -> None:
        """Ask the warm-up to stop after the anchors currently mining.

        Works on both the serial and the pooled path (each anchor probes the
        flag before mining); ``MapRat.close`` additionally shuts the warm
        pool down with ``cancel_pending=True``.
        """
        self._cancelled.set()

    def _run(self) -> None:
        try:
            report = self.precomputer.warm_popular_items(
                self.explain,
                limit=self.limit,
                pool=self.pool,
                should_stop=self._cancelled.is_set,
            )
            if (
                self.explain_region is not None
                and self.region_limit > 0
                and not self._cancelled.is_set()
            ):
                report = report.merged(
                    self.precomputer.warm_top_regions(
                        self.explain_region,
                        limit=self.region_limit,
                        pool=self.pool,
                        should_stop=self._cancelled.is_set,
                    )
                )
            self.report = report
        except BaseException as exc:  # surfaced through .error / .wait()
            self.error = exc
        finally:
            # The server keeps its last warmer for the summary endpoint; the
            # precomputer would pin the warmed epoch's store and dataset.
            self.precomputer = None
            self._done.set()

    @property
    def done(self) -> bool:
        """True once the warm-up thread has finished (or failed)."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[PrecomputeReport]:
        """Block until the warm-up finishes; returns its report (or raises).

        Returns ``None`` on timeout.  A warm-up that died with a non-mining
        error re-raises it here, so callers that block on the warmer see the
        failure instead of an empty cache.
        """
        if not self._done.wait(timeout):
            return None
        if self.error is not None:
            raise self.error
        return self.report

    def to_dict(self) -> dict:
        """Warmer status for the ``summary`` endpoint."""
        return {
            "done": self.done,
            "failed": self.error is not None,
            "report": self.report.to_dict() if self.report is not None else None,
        }
