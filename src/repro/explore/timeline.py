"""Temporal exploration: the time slider of Figure 1 and §3.1.

"Moving the time slider over the range of values allows the user to observe
reviewer groups that provide best interpretations for the movie and how they
change over time" and "navigation over time dimension allows a user to
understand the evolution of the reviewer rating pattern over a period of
time" (§2.3).

:class:`TimelineExplorer` supports both readings:

* :meth:`TimelineExplorer.interpretations_by_year` re-runs the mining for each
  time slice, so the user can watch the *returned groups* change, and
* :meth:`TimelineExplorer.group_trend` tracks the average rating of one fixed
  group across the slices, so the user can watch a *group's opinion* drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import MiningConfig
from ..core.explanation import MiningResult
from ..core.miner import RatingMiner
from ..errors import EmptyRatingSetError, ExplorationError, MiningError
from ..query.engine import TimeInterval
from .statistics import GroupStatistics, group_statistics

#: Mines one slider position: ``(item_ids, (start, end), description)``.
YearMining = Callable[[Sequence[int], Tuple[int, int], str], MiningResult]


@dataclass(frozen=True)
class TimelineSlice:
    """The mining result of one time slice (one position of the slider)."""

    year: int
    interval: TimeInterval
    num_ratings: int
    result: Optional[MiningResult]

    def labels(self, task: str = "similarity") -> List[str]:
        if self.result is None:
            return []
        return self.result.explanation_for(task).labels()

    def to_dict(self) -> Dict[str, object]:
        return {
            "year": self.year,
            "interval": list(self.interval.as_tuple()),
            "num_ratings": self.num_ratings,
            "result": self.result.to_dict() if self.result else None,
        }


@dataclass(frozen=True)
class GroupTrendPoint:
    """Average rating of one fixed group in one time slice."""

    year: int
    statistics: GroupStatistics

    @property
    def mean(self) -> float:
        return self.statistics.mean

    @property
    def size(self) -> int:
        return self.statistics.size

    def to_dict(self) -> Dict[str, object]:
        return {"year": self.year, "statistics": self.statistics.to_dict()}


class TimelineExplorer:
    """Time-sliced mining and per-group trends over one item selection."""

    def __init__(self, miner: RatingMiner, config: Optional[MiningConfig] = None) -> None:
        self.miner = miner
        self.config = config or miner.config

    # -- helpers ------------------------------------------------------------------

    def available_years(self, item_ids: Sequence[int]) -> List[int]:
        """Calendar years that actually contain ratings for the item selection."""
        rating_slice = self.miner.store.slice_for_items(item_ids, allow_empty=True)
        return rating_slice.years()

    # -- interpretations per slice -----------------------------------------------

    def interpretations_by_year(
        self,
        item_ids: Sequence[int],
        years: Optional[Sequence[int]] = None,
        min_ratings: int = 20,
        mine: Optional[YearMining] = None,
    ) -> List[TimelineSlice]:
        """Re-run SM + DM for each year of the slider.

        Slices with fewer than ``min_ratings`` ratings, or where no candidate
        group satisfies the constraints, yield a :class:`TimelineSlice` with
        ``result=None`` instead of failing the whole timeline.

        ``mine(item_ids, interval, description)`` mines one year; the default
        mines inline on this explorer's miner.  The serving layer passes one
        that answers each year through its result cache and request pool.
        """
        years = list(years) if years is not None else self.available_years(item_ids)
        if not years:
            raise ExplorationError("the item selection has no rated years")
        mine = mine or self._mine_inline
        slices: List[TimelineSlice] = []
        for year in years:
            interval = TimeInterval.for_year(year)
            rating_slice = self.miner.store.slice_for_items(
                item_ids, time_interval=interval.as_tuple(), allow_empty=True
            )
            result: Optional[MiningResult] = None
            if len(rating_slice) >= min_ratings:
                try:
                    result = mine(item_ids, interval.as_tuple(), f"year {year}")
                except (MiningError, EmptyRatingSetError):
                    result = None
            slices.append(
                TimelineSlice(
                    year=year,
                    interval=interval,
                    num_ratings=len(rating_slice),
                    result=result,
                )
            )
        return slices

    def _mine_inline(
        self, item_ids: Sequence[int], interval: Tuple[int, int], description: str
    ) -> MiningResult:
        return self.miner.explain_items(
            list(item_ids),
            description=description,
            time_interval=interval,
            config=self.config,
        )

    # -- per-group trend -------------------------------------------------------------

    def group_trend(
        self,
        item_ids: Sequence[int],
        pairs: Mapping[str, str],
        years: Optional[Sequence[int]] = None,
    ) -> List[GroupTrendPoint]:
        """Average rating of one fixed group for each year of the slider."""
        years = list(years) if years is not None else self.available_years(item_ids)
        if not years:
            raise ExplorationError("the item selection has no rated years")
        points: List[GroupTrendPoint] = []
        for year in years:
            interval = TimeInterval.for_year(year)
            rating_slice = self.miner.store.slice_for_items(
                item_ids, time_interval=interval.as_tuple(), allow_empty=True
            )
            if rating_slice.is_empty():
                continue
            points.append(
                GroupTrendPoint(
                    year=year, statistics=group_statistics(rating_slice, pairs)
                )
            )
        return points

    def overall_trend(
        self, item_ids: Sequence[int], years: Optional[Sequence[int]] = None
    ) -> List[GroupTrendPoint]:
        """Trend of the overall average rating (the all-reviewers group)."""
        return self.group_trend(item_ids, {}, years=years)

    @staticmethod
    def drift(points: Sequence[GroupTrendPoint]) -> float:
        """Difference between the last and first slice means (rating drift)."""
        if len(points) < 2:
            return 0.0
        return round(points[-1].mean - points[0].mean, 4)
