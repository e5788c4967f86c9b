"""Query engine: evaluate an item query against the catalogue.

The engine turns a query string (or predicate tree) plus the optional time
interval of Figure 1 into the item-id set that the Rating Mining module then
collects rating tuples for (§2.3).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import MAXYEAR, MINYEAR, datetime, timezone
from typing import List, Optional, Sequence, Tuple, Union

from ..data.model import Item, RatingDataset
from ..errors import QueryError
from .parser import parse_query
from .predicates import ItemPredicate


@dataclass(frozen=True)
class TimeInterval:
    """Closed timestamp interval restricting the mining (Figure 1 time slider).

    Attributes:
        start: inclusive start timestamp (seconds since the epoch).
        end: inclusive end timestamp.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise QueryError("time interval end precedes start")

    @classmethod
    def for_years(cls, start_year: int, end_year: int) -> "TimeInterval":
        """Interval spanning whole calendar years (UTC).

        Raises :class:`QueryError` for a year ``datetime`` cannot represent
        (outside ``[MINYEAR, MAXYEAR]``), so the API answers 400, not 500.
        """
        for year in (start_year, end_year):
            if not MINYEAR <= year <= MAXYEAR:
                raise QueryError(
                    f"year {year} is outside the supported range [{MINYEAR}, {MAXYEAR}]"
                )
        start = int(datetime(start_year, 1, 1, tzinfo=timezone.utc).timestamp())
        end = int(
            datetime(end_year, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()
        )
        return cls(start, end)

    @classmethod
    def for_year(cls, year: int) -> "TimeInterval":
        return cls.for_years(year, year)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.start, self.end)

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp <= self.end


@dataclass(frozen=True)
class ItemQuery:
    """A fully specified front-end query: predicate + optional time interval."""

    predicate: ItemPredicate
    time_interval: Optional[TimeInterval] = None
    raw: str = ""

    def describe(self) -> str:
        """Canonical description used for reports and cache keys."""
        text = self.raw or self.predicate.describe()
        if self.time_interval is not None:
            text += f" @[{self.time_interval.start},{self.time_interval.end}]"
        return text


class QueryEngine:
    """Evaluates item queries against one dataset's item catalogue.

    The engine keeps the catalogue, not the dataset: items are fixed across
    ingest epochs, while each compaction replaces the dataset's rating
    columns, so holding the dataset would pin the starting epoch's columns.
    """

    def __init__(self, dataset: RatingDataset) -> None:
        self.items: Tuple[Item, ...] = tuple(dataset.items())
        self._title_index: Optional[Tuple[List[str], List[str]]] = None

    # -- parsing ------------------------------------------------------------------

    def compile(
        self,
        query: Union[str, ItemPredicate, ItemQuery],
        time_interval: Optional[TimeInterval] = None,
    ) -> ItemQuery:
        """Normalise any accepted query form into an :class:`ItemQuery`."""
        if isinstance(query, ItemQuery):
            if time_interval is not None and query.time_interval is None:
                return ItemQuery(query.predicate, time_interval, query.raw)
            return query
        if isinstance(query, ItemPredicate):
            return ItemQuery(query, time_interval, query.describe())
        if isinstance(query, str):
            predicate = parse_query(query)
            return ItemQuery(predicate, time_interval, query)
        raise QueryError(f"unsupported query object: {type(query).__name__}")

    # -- evaluation ---------------------------------------------------------------

    def matching_items(self, query: Union[str, ItemPredicate, ItemQuery]) -> List[Item]:
        """All catalogue items matching the query predicate."""
        compiled = self.compile(query)
        return [item for item in self.items if compiled.predicate.matches(item)]

    def matching_item_ids(
        self, query: Union[str, ItemPredicate, ItemQuery]
    ) -> List[int]:
        """Ids of matching items, sorted for deterministic downstream behaviour."""
        return sorted(item.item_id for item in self.matching_items(query))

    def _titles_by_lowercase(self) -> Tuple[List[str], List[str]]:
        """Distinct titles with their lowered forms, sorted by the latter.

        Built once per engine (the catalogue is immutable), so every
        keystroke's completion is a binary search over the lowered index
        instead of a scan of the whole catalogue.
        """
        if self._title_index is None:
            pairs = sorted({(item.title.lower(), item.title) for item in self.items})
            lowered = [low for low, _ in pairs]
            originals = [title for _, title in pairs]
            self._title_index = (lowered, originals)
        return self._title_index

    def suggest_titles(self, prefix: str, limit: int = 10) -> List[str]:
        """Title auto-completion for the search box (prefix, case-insensitive)."""
        wanted = prefix.strip().lower()
        if not wanted:
            return []
        lowered, originals = self._titles_by_lowercase()
        index = bisect_left(lowered, wanted)
        matches = set()
        while index < len(lowered) and lowered[index].startswith(wanted):
            matches.add(originals[index])
            index += 1
        return sorted(matches)[:limit]

    def distinct_attribute_values(self, attribute: str, limit: int = 0) -> List[str]:
        """Distinct values of an item attribute (UI pick lists)."""
        values: set = set()
        for item in self.items:
            values.update(item.attribute_values(attribute))
        ordered = sorted(values)
        return ordered[:limit] if limit else ordered
