"""GeoExplorer: geo-anchored exploration and mining of rating slices (§2.3).

The third pillar of the paper — geo-visualization — needs more than rendering:
the serving layer must answer *where* questions about any item selection:

* which regions rate this selection, and how (per-region aggregates),
* what lies one level down (country ▸ state ▸ city/zipcode drill-down), and
* *why* a region rates a selection the way it does (geo-anchored mining).

:class:`GeoExplorer` answers all three over the integer-coded columns of a
:class:`~repro.data.storage.RatingSlice`: region membership is already a
factorized cube attribute (``state``/``city``/``zipcode`` codes + vocabulary),
so per-region aggregation is a handful of ``np.bincount`` calls — no Python
loop over rating tuples — and within-region mining reuses the existing
integer-coded kernel with the geo anchor re-pointed one hierarchy level down
(``geo_anchor_attribute="city"``), keeping every returned group map-renderable
inside the region.

Per-region mining fan-out (:meth:`GeoExplorer.explain_top_regions`) shards one
task per region across a :class:`~repro.server.pool.MiningWorkerPool`; results
are gathered in submission order and every region mines with the fixed seed of
its mining configuration, so sharded runs are bit-identical to serial ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import GEO_ATTRIBUTE, MiningConfig
from ..core.explanation import Explanation
from ..core.miner import RatingMiner
from ..data.storage import RatingSlice
from ..errors import EmptyRatingSetError, GeoError
from .hierarchy import LocationHierarchy
from .states import state_by_code

#: Child groupings supported when drilling into one state.
DRILL_ATTRIBUTES = ("city", "zipcode")


@dataclass(frozen=True)
class RegionAggregate:
    """Aggregate rating statistics of one region over one item selection.

    Attributes:
        region: region value (a USPS state code, a city name, or a zip code).
        level: hierarchy level of the region (``state``/``city``/``zipcode``).
        size: number of rating tuples from the region.
        average: the region's average rating (drives choropleth shading).
        share_positive: fraction of ratings ≥ 4.
        share_negative: fraction of ratings ≤ 2.
        lift: region average minus the whole selection's average.
        histogram: count of ratings per integer score.
    """

    region: str
    level: str
    size: int
    average: float
    share_positive: float
    share_negative: float
    lift: float
    histogram: Mapping[int, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The aggregate as a JSON-ready dict."""
        return {
            "region": self.region,
            "level": self.level,
            "size": self.size,
            "average": self.average,
            "share_positive": self.share_positive,
            "share_negative": self.share_negative,
            "lift": self.lift,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


@dataclass(frozen=True)
class GeoMiningResult:
    """The answer to "why does region X rate this selection the way it does".

    Wraps the within-region SM + DM interpretations together with the region's
    aggregate and the whole-selection baseline it deviates from.

    Attributes:
        region: the anchoring region (a USPS state code).
        level: hierarchy level of the region (currently always ``state``).
        description: human-readable description of the item selection.
        region_stats: aggregate statistics of the region's ratings.
        baseline_average: average rating of the *whole* selection (all
            regions), the number the region's ``lift`` is measured against.
        similarity: within-region Similarity Mining interpretation.
        diversity: within-region Diversity Mining interpretation.
        config: the (region-adapted) mining configuration used.
        elapsed_seconds: wall-clock mining time.
    """

    region: str
    level: str
    description: str
    region_stats: RegionAggregate
    baseline_average: float
    similarity: Explanation
    diversity: Explanation
    config: MiningConfig
    elapsed_seconds: float = 0.0

    def explanation_for(self, task: str) -> Explanation:
        """The ``similarity`` or ``diversity`` explanation by task name."""
        if task == "similarity":
            return self.similarity
        if task == "diversity":
            return self.diversity
        raise KeyError(f"unknown mining task {task!r}")

    def to_dict(self) -> Dict[str, object]:
        """The result as a JSON-ready dict (the ``geo_explain`` payload)."""
        return {
            "region": self.region,
            "level": self.level,
            "description": self.description,
            "region_stats": self.region_stats.to_dict(),
            "baseline_average": self.baseline_average,
            "similarity": self.similarity.to_dict(),
            "diversity": self.diversity.to_dict(),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "config": {
                "max_groups": self.config.max_groups,
                "min_coverage": self.config.min_coverage,
                "geo_anchor_attribute": self.config.geo_anchor_attribute,
                "grouping_attributes": list(self.config.grouping_attributes),
            },
        }


def region_mining_config(config: MiningConfig) -> MiningConfig:
    """Adapt a mining configuration for within-region (single state) mining.

    The ``state`` attribute is constant inside a region, so it is replaced by
    ``city`` among the grouping attributes and the geo anchor is re-pointed at
    the city level; groups mined within a state therefore stay geographically
    anchored one hierarchy level down, as §2.3's drill-down prescribes.
    """
    attributes = tuple(
        dict.fromkeys(
            ("city" if name == GEO_ATTRIBUTE else name)
            for name in config.grouping_attributes
        )
    )
    if "city" not in attributes:
        attributes = attributes + ("city",)
    return config.with_overrides(
        grouping_attributes=attributes, geo_anchor_attribute="city"
    )


def _aggregates_from_arrays(
    vocabulary: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    joint: np.ndarray,
    overall: float,
    level: str,
    min_size: int,
) -> List[RegionAggregate]:
    """Materialise :class:`RegionAggregate` rows from per-value bincount arrays.

    The one implementation shared by the per-request slice path and the
    maintained :class:`~repro.data.storage.AttributeIndex` fast path, so the
    two can never drift: regions ordered by size (largest first, ties
    alphabetical), empty-string regions (unresolvable locations) skipped.
    """
    aggregates: List[RegionAggregate] = []
    for code in np.flatnonzero(counts >= max(min_size, 1)).tolist():
        region = str(vocabulary[code])
        if not region:
            continue  # unresolvable location
        size = int(counts[code])
        mean = float(sums[code]) / size
        histogram = {
            score + 1: int(joint[code * 5 + score])
            for score in range(5)
            if joint[code * 5 + score]
        }
        aggregates.append(
            RegionAggregate(
                region=region,
                level=level,
                size=size,
                average=round(mean, 4),
                share_positive=round(float(positives[code]) / size, 4),
                share_negative=round(float(negatives[code]) / size, 4),
                lift=round(mean - overall, 4),
                histogram=histogram,
            )
        )
    aggregates.sort(key=lambda agg: (-agg.size, agg.region))
    return aggregates


def is_country(region: Optional[str]) -> bool:
    """True when ``region`` names the whole country (``None``/empty/``USA``).

    The single country-detection predicate shared by
    :meth:`GeoExplorer.drilldown` and the serving layer's payload labelling
    and cache keys, so the two can never drift.
    """
    return region is None or str(region).strip().upper() in (
        "",
        LocationHierarchy.COUNTRY_NAME,
    )


def canonical_region(region: str) -> str:
    """Validate and canonicalise a state-code region (raises :class:`GeoError`)."""
    code = str(region).strip().upper()
    if not code:
        raise GeoError("region must be a two-letter USPS state code")
    state_by_code(code)  # raises GeoError for unknown codes
    return code


class GeoExplorer:
    """Geo-anchored aggregation, drill-down and mining over a rating store."""

    def __init__(
        self,
        miner: RatingMiner,
        hierarchy: Optional[LocationHierarchy] = None,
    ) -> None:
        self.miner = miner
        self.store = miner.store
        self.hierarchy = hierarchy or LocationHierarchy()

    # -- slicing -----------------------------------------------------------------

    def slice_for(
        self,
        item_ids: Optional[Sequence[int]] = None,
        time_interval: Optional[Tuple[int, int]] = None,
    ) -> RatingSlice:
        """The rating slice of an item selection (``None``: the whole store)."""
        if item_ids is None:
            rating_slice = self.store.slice_all()
            if time_interval is not None:
                rating_slice = rating_slice.restrict_to_interval(*time_interval)
            if rating_slice.is_empty():
                raise EmptyRatingSetError("the store holds no rating tuples")
            return rating_slice
        return self.store.slice_for_items(item_ids, time_interval=time_interval)

    # -- aggregation -------------------------------------------------------------

    def aggregate_by(
        self,
        rating_slice: RatingSlice,
        attribute: str,
        level: str,
        min_size: int = 1,
    ) -> List[RegionAggregate]:
        """Per-region aggregates of a slice, grouped by one factorized column.

        One ``np.bincount`` per statistic over the attribute's integer codes —
        every region's count, sum, positive/negative shares and score
        histogram fall out of five vectorised passes, never a Python loop
        over rating tuples.  Regions are ordered by size (largest first),
        ties broken alphabetically; empty-string regions (reviewers without a
        resolvable location) are skipped.
        """
        if rating_slice.is_empty():
            return []
        codes = rating_slice.codes_for(attribute)
        vocabulary = rating_slice.vocabulary(attribute)
        scores = rating_slice.scores
        n_values = int(vocabulary.shape[0])
        counts = np.bincount(codes, minlength=n_values)
        sums = np.bincount(codes, weights=scores, minlength=n_values)
        positives = np.bincount(codes, weights=(scores >= 4), minlength=n_values)
        negatives = np.bincount(codes, weights=(scores <= 2), minlength=n_values)
        # Joint (region, score) histogram in one pass: code * 5 + (score - 1).
        bins = np.clip(np.rint(scores).astype(np.int64), 1, 5) - 1
        joint = np.bincount(codes * 5 + bins, minlength=n_values * 5)
        overall = float(scores.mean())
        return _aggregates_from_arrays(
            vocabulary, counts, sums, positives, negatives, joint,
            overall, level, min_size,
        )

    def summary(
        self,
        item_ids: Optional[Sequence[int]] = None,
        time_interval: Optional[Tuple[int, int]] = None,
        min_size: int = 1,
    ) -> List[RegionAggregate]:
        """State-level aggregates of an item selection (the country view).

        The whole-store view (``item_ids=None``, no interval) answers from
        the store's maintained :class:`~repro.data.storage.AttributeIndex` —
        no row is gathered or rescanned, and compactions keep the index
        current via delta bincounts.  Both paths build rows through
        :func:`_aggregates_from_arrays`, so their outputs are identical.
        """
        if item_ids is None and time_interval is None and len(self.store):
            index = self.store.attribute_index(GEO_ATTRIBUTE)
            return _aggregates_from_arrays(
                self.store.vocabulary_for(GEO_ATTRIBUTE),
                index.counts,
                index.sums,
                index.positives,
                index.negatives,
                index.joint,
                self.store.global_average(),
                "state",
                min_size,
            )
        rating_slice = self.slice_for(item_ids, time_interval)
        return self.aggregate_by(rating_slice, GEO_ATTRIBUTE, "state", min_size)

    def drilldown(
        self,
        region: Optional[str] = None,
        by: str = "city",
        item_ids: Optional[Sequence[int]] = None,
        time_interval: Optional[Tuple[int, int]] = None,
        min_size: int = 1,
    ) -> List[RegionAggregate]:
        """Child-region aggregates one hierarchy level below ``region``.

        ``region=None`` (or ``"USA"``) drills the country into states;
        a state code drills into its cities (``by="city"``, the default) or
        zip codes (``by="zipcode"``).  Unknown state codes raise
        :class:`~repro.errors.GeoError`; a known region with no ratings in
        the selection returns an empty list.
        """
        if by not in DRILL_ATTRIBUTES:
            raise GeoError(
                f"unsupported drill attribute {by!r}; expected one of {DRILL_ATTRIBUTES}"
            )
        if is_country(region):
            return self.summary(item_ids, time_interval, min_size)
        code = canonical_region(region)
        region_slice = self._region_slice(code, item_ids, time_interval)
        if region_slice is None:
            return []
        return self.aggregate_by(region_slice, by, by, min_size)

    def _region_slice(
        self,
        code: str,
        item_ids: Optional[Sequence[int]],
        time_interval: Optional[Tuple[int, int]],
    ) -> Optional[RatingSlice]:
        """The slice of one state's tuples within a selection (None: no rows).

        For the whole-store view the region's row positions come straight
        from the maintained attribute index's packed bitset — only the
        region's rows are ever gathered.  Explicit selections restrict their
        slice by the state mask, exactly as before; both produce the same
        rows in the same (ascending-position) order.
        """
        if item_ids is None and time_interval is None and len(self.store):
            index = self.store.attribute_index(GEO_ATTRIBUTE)
            vocabulary = self.store.vocabulary_for(GEO_ATTRIBUTE)
            slot = int(np.searchsorted(vocabulary, code))
            if slot >= vocabulary.shape[0] or vocabulary[slot] != code:
                return None
            positions = index.positions_for(slot)
            if positions.shape[0] == 0:
                return None
            return self.store.slice_rows(positions)
        rating_slice = self.slice_for(item_ids, time_interval)
        mask = rating_slice.mask_for(GEO_ATTRIBUTE, code)
        if not mask.any():
            return None
        return rating_slice.restrict(mask)

    def top_regions(
        self,
        item_ids: Optional[Sequence[int]] = None,
        limit: int = 5,
        time_interval: Optional[Tuple[int, int]] = None,
    ) -> List[str]:
        """The ``limit`` most-rated state codes of a selection, largest first."""
        return [agg.region for agg in self.summary(item_ids, time_interval)[:limit]]

    # -- geo-anchored mining -------------------------------------------------------

    def explain_region(
        self,
        item_ids: Optional[Sequence[int]],
        region: str,
        description: str = "",
        time_interval: Optional[Tuple[int, int]] = None,
        config: Optional[MiningConfig] = None,
        pool=None,
    ) -> GeoMiningResult:
        """Mine *why* one region rates an item selection the way it does.

        Restricts the selection's rating slice to the region's tuples, then
        runs SM + DM through the integer-coded kernel with the geo anchor
        re-pointed at the city level (see :func:`region_mining_config`), so
        the interpretations describe the region's internal structure and stay
        renderable one hierarchy level down.  SM and DM share one candidate
        enumeration (:meth:`~repro.core.miner.RatingMiner.mine_pair`); a
        thread ``pool`` runs the pair as one task under its deadline.  Each
        solve seeds its own generator from the config seed, so results are
        bit-identical to the inline path.
        """
        started_at = time.perf_counter()
        code = canonical_region(region)
        base_config = config or self.miner.config
        if item_ids is None and time_interval is None and len(self.store):
            # Whole-store view: region rows come from the maintained bitset
            # index and the baseline from the store's running average — no
            # full-store gather on this path.
            region_slice = self._region_slice(code, None, None)
            baseline = self.store.global_average()
        else:
            rating_slice = self.slice_for(item_ids, time_interval)
            mask = rating_slice.mask_for(GEO_ATTRIBUTE, code)
            region_slice = rating_slice.restrict(mask) if mask.any() else None
            baseline = float(rating_slice.scores.mean())
        if region_slice is None:
            raise EmptyRatingSetError(
                f"region {code!r} has no ratings for this selection"
            )
        region_config = region_mining_config(base_config)
        if pool is not None and getattr(pool, "kind", "thread") == "process":
            # Process backend: the two region minings are shipped as spec
            # tuples; each worker rebuilds the identical region slice from
            # the epoch's shared-memory snapshot (same whole-store bitset
            # fast path, same mask path) and mines with the already-adapted
            # region configuration — same results, bit for bit.
            similarity, diversity = pool.mine_pair(
                self.store.epoch,
                item_ids,
                time_interval,
                region_config,
                region=code,
            )
        elif pool is not None:
            similarity, diversity = pool.gather(
                pool.submit(self.miner.mine_pair, region_slice, region_config)
            )
        else:
            similarity, diversity = self.miner.mine_pair(region_slice, region_config)
        stats = self._region_stats(code, region_slice, baseline)
        return GeoMiningResult(
            region=code,
            level="state",
            description=description or f"{code} view",
            region_stats=stats,
            baseline_average=round(baseline, 4),
            similarity=similarity,
            diversity=diversity,
            config=region_config,
            elapsed_seconds=time.perf_counter() - started_at,
        )

    def explain_top_regions(
        self,
        item_ids: Optional[Sequence[int]] = None,
        limit: int = 3,
        description: str = "",
        time_interval: Optional[Tuple[int, int]] = None,
        config: Optional[MiningConfig] = None,
        pool=None,
    ) -> List[GeoMiningResult]:
        """Per-region mining fan-out over the most-rated regions.

        One task per region shards across ``pool`` (submission-ordered
        gathering, fixed per-config seeds), so ``workers=1`` and
        ``workers=N`` produce bit-identical result lists.  Each region task
        runs its inner SM/DM serially — nested submission to the same thread
        pool could exhaust it and deadlock.  A process pool receives one
        full ``explain_region`` spec per region; its workers compute the
        whole :class:`GeoMiningResult` (stats, baseline, SM + DM) from the
        epoch's shared snapshot, so the fan-out runs on every core.
        """
        regions = self.top_regions(item_ids, limit=limit, time_interval=time_interval)
        base_config = config or self.miner.config
        if pool is not None and getattr(pool, "kind", "thread") == "process":
            return pool.explain_regions(
                self.store.epoch,
                item_ids,
                [canonical_region(region) for region in regions],
                description,
                time_interval,
                base_config,
            )

        def explain_one(region: str) -> GeoMiningResult:
            return self.explain_region(
                item_ids,
                region,
                description=description,
                time_interval=time_interval,
                config=config,
                pool=None,
            )

        if pool is not None and getattr(pool, "parallel", False):
            return pool.map(explain_one, regions)
        return [explain_one(region) for region in regions]

    # -- internals ------------------------------------------------------------------

    def _region_stats(
        self, region: str, region_slice: RatingSlice, baseline: float
    ) -> RegionAggregate:
        scores = region_slice.scores
        size = int(scores.shape[0])
        mean = float(scores.mean())
        histogram: Dict[int, int] = {}
        for value, count in zip(
            *np.unique(np.clip(np.rint(scores).astype(np.int64), 1, 5), return_counts=True)
        ):
            histogram[int(value)] = int(count)
        return RegionAggregate(
            region=region,
            level="state",
            size=size,
            average=round(mean, 4),
            share_positive=round(float((scores >= 4).mean()), 4),
            share_negative=round(float((scores <= 2).mean()), 4),
            lift=round(mean - baseline, 4),
            histogram=histogram,
        )
