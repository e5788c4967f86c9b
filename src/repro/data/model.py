"""Core entities of a collaborative rating site: the triple ⟨I, U, R⟩ (§2.1).

``Reviewer`` and ``Item`` are lightweight immutable records; ``Rating`` is the
triple ⟨item, reviewer, score⟩ extended with a timestamp so that the time
dimension of MapRat (time slider, §3.1) can be exercised.  ``RatingDataset``
owns the catalogue of reviewers and items plus the ratings, held as numpy
columns rather than ``Rating`` objects; it validates referential integrity and
offers simple lookup helpers.  Heavier indexing (inverted indexes per
attribute value) lives in :mod:`repro.data.storage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataError
from .schema import DatasetSchema, age_group_for, default_schema


@dataclass(frozen=True)
class Reviewer:
    """A member of the reviewing community (``u ∈ U``).

    Attributes:
        reviewer_id: unique integer identifier.
        gender: ``"M"`` or ``"F"`` (MovieLens coding).
        age: MovieLens age code (lower bound of the band) or exact age.
        occupation: human-readable occupation label.
        zipcode: raw 5-digit zip code string.
        state: USPS state code resolved from the zip code (geo substrate).
        city: city resolved from the zip code (geo substrate).
    """

    reviewer_id: int
    gender: str
    age: int
    occupation: str
    zipcode: str
    state: str = ""
    city: str = ""

    @property
    def age_group(self) -> str:
        """The age band label used for group descriptions."""
        return age_group_for(self.age)

    def attribute(self, name: str) -> str:
        """Return the value of a reviewer attribute by name.

        Supported names: ``gender``, ``age_group``, ``occupation``, ``state``,
        ``city``, ``zipcode``.
        """
        if name == "gender":
            return self.gender
        if name == "age_group":
            return self.age_group
        if name == "occupation":
            return self.occupation
        if name == "state":
            return self.state
        if name == "city":
            return self.city
        if name == "zipcode":
            return self.zipcode
        raise DataError(f"reviewer has no attribute {name!r}")

    def attributes(self, names: Iterable[str]) -> Dict[str, str]:
        """Return a dict of the requested attribute values."""
        return {name: self.attribute(name) for name in names}


@dataclass(frozen=True)
class Item:
    """A rated item (``i ∈ I``), a movie in the demo dataset.

    Attributes:
        item_id: unique integer identifier.
        title: movie title (without the release year suffix).
        year: release year, 0 when unknown.
        genres: movie genres.
        actors: lead actors (IMDB enrichment, §3).
        directors: directors (IMDB enrichment, §3).
    """

    item_id: int
    title: str
    year: int = 0
    genres: Tuple[str, ...] = ()
    actors: Tuple[str, ...] = ()
    directors: Tuple[str, ...] = ()

    def attribute_values(self, name: str) -> Tuple[str, ...]:
        """Return all values of a (possibly multi-valued) item attribute."""
        if name == "title":
            return (self.title,)
        if name == "genre":
            return self.genres
        if name == "actor":
            return self.actors
        if name == "director":
            return self.directors
        if name == "year":
            return (str(self.year),) if self.year else ()
        raise DataError(f"item has no attribute {name!r}")


@dataclass(frozen=True)
class Rating:
    """A rating triple ⟨i, u, s⟩ with a timestamp (``r ∈ R``).

    Attributes:
        item_id: the rated item.
        reviewer_id: the rating reviewer.
        score: integer rating on the site's scale (1-5 for MovieLens).
        timestamp: seconds since the Unix epoch.
    """

    item_id: int
    reviewer_id: int
    score: float
    timestamp: int = 0

    @property
    def when(self) -> datetime:
        """Timestamp as an aware UTC datetime."""
        return datetime.fromtimestamp(self.timestamp, tz=timezone.utc)

    @property
    def year(self) -> int:
        """Calendar year of the rating, used by the time slider."""
        return self.when.year


class RatingDataset:
    """A collaborative rating site ``D = ⟨I, U, R⟩``.

    The dataset owns the catalogue (reviewers and items, keyed by id) and the
    rating tuples as four row-aligned numpy columns: ``item_ids``,
    ``reviewer_ids`` and ``timestamps`` (``int64``) and ``scores``
    (``float64``).  These columns are the only copy of the ratings: a
    :class:`~repro.data.storage.RatingStore` built over the dataset adopts
    them without copying, and no per-rating Python object outlives
    construction — :meth:`ratings` builds :class:`Rating` records on demand.

    ``RatingDataset(reviewers, items, ratings)`` accepts any iterable of
    :class:`Rating` and converts it once; :meth:`from_columns` wraps columns
    that already exist (a parsed file, a compacted store, a mapped snapshot).
    The columns are read-only.
    """

    def __init__(
        self,
        reviewers: Iterable[Reviewer],
        items: Iterable[Item],
        ratings: Iterable[Rating],
        schema: Optional[DatasetSchema] = None,
        name: str = "dataset",
        validate: bool = True,
    ) -> None:
        rows = ratings if isinstance(ratings, (list, tuple)) else list(ratings)
        self._adopt(
            reviewers,
            items,
            np.array([r.item_id for r in rows], dtype=np.int64),
            np.array([r.reviewer_id for r in rows], dtype=np.int64),
            np.array([r.score for r in rows], dtype=np.float64),
            np.array([r.timestamp for r in rows], dtype=np.int64),
            schema,
            name,
            validate,
        )

    @classmethod
    def from_columns(
        cls,
        reviewers: Iterable[Reviewer],
        items: Iterable[Item],
        item_ids: np.ndarray,
        reviewer_ids: np.ndarray,
        scores: np.ndarray,
        timestamps: np.ndarray,
        schema: Optional[DatasetSchema] = None,
        name: str = "dataset",
        validate: bool = True,
    ) -> "RatingDataset":
        """A dataset over existing row-aligned rating columns (not copied).

        Columns already of the right dtype are adopted as they are, so the
        caller's arrays become the dataset's (and marked read-only).
        """
        dataset = cls.__new__(cls)
        dataset._adopt(
            reviewers, items, item_ids, reviewer_ids, scores, timestamps,
            schema, name, validate,
        )
        return dataset

    def _adopt(
        self,
        reviewers: Iterable[Reviewer],
        items: Iterable[Item],
        item_ids: np.ndarray,
        reviewer_ids: np.ndarray,
        scores: np.ndarray,
        timestamps: np.ndarray,
        schema: Optional[DatasetSchema],
        name: str,
        validate: bool,
    ) -> None:
        self.name = name
        self.schema = schema if schema is not None else default_schema()
        self._reviewers: Dict[int, Reviewer] = {r.reviewer_id: r for r in reviewers}
        self._items: Dict[int, Item] = {i.item_id: i for i in items}
        self.item_ids = _frozen(item_ids, np.int64)
        self.reviewer_ids = _frozen(reviewer_ids, np.int64)
        self.scores = _frozen(scores, np.float64)
        self.timestamps = _frozen(timestamps, np.int64)
        lengths = {
            column.shape[0]
            for column in (self.item_ids, self.reviewer_ids, self.scores, self.timestamps)
        }
        if len(lengths) != 1:
            raise DataError(f"rating columns differ in length: {sorted(lengths)}")
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Raise on the first row (in row order) that breaks integrity or scale.

        Vectorised; the offending row is then re-checked item, reviewer,
        score — the order a row-by-row walk checks them — so the message
        names the same problem.
        """
        known_items = np.fromiter(self._items, dtype=np.int64, count=len(self._items))
        known_reviewers = np.fromiter(
            self._reviewers, dtype=np.int64, count=len(self._reviewers)
        )
        bad = ~np.isin(self.item_ids, known_items)
        bad |= ~np.isin(self.reviewer_ids, known_reviewers)
        bad |= ~(
            (self.scores >= self.schema.rating_min)
            & (self.scores <= self.schema.rating_max)
        )
        if not bad.any():
            return
        row = int(np.argmax(bad))
        item_id = int(self.item_ids[row])
        reviewer_id = int(self.reviewer_ids[row])
        if item_id not in self._items:
            raise DataError(f"rating references unknown item {item_id}")
        if reviewer_id not in self._reviewers:
            raise DataError(f"rating references unknown reviewer {reviewer_id}")
        self.schema.validate_rating(float(self.scores[row]))

    # -- sizes -----------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def num_reviewers(self) -> int:
        """Number of reviewers ``|U|``."""
        return len(self._reviewers)

    @property
    def num_items(self) -> int:
        """Number of items ``|I|``."""
        return len(self._items)

    @property
    def num_ratings(self) -> int:
        """Number of rating tuples ``|R|``."""
        return len(self)

    # -- access ----------------------------------------------------------------

    def reviewers(self) -> Iterator[Reviewer]:
        """Iterate over the reviewers."""
        return iter(self._reviewers.values())

    def items(self) -> Iterator[Item]:
        """Iterate over the items."""
        return iter(self._items.values())

    def ratings(self) -> Iterator[Rating]:
        """Iterate over the rating tuples in row order, built on demand."""
        return self._rows(slice(None))

    def _rows(self, selection) -> Iterator[Rating]:
        """:class:`Rating` records (Python scalars) of the selected rows.

        Converted a chunk at a time, so iterating never holds more than
        ``_ROW_CHUNK`` records' worth of Python scalars.
        """
        columns = (
            self.item_ids[selection],
            self.reviewer_ids[selection],
            self.scores[selection],
            self.timestamps[selection],
        )
        for start in range(0, int(columns[0].shape[0]), _ROW_CHUNK):
            stop = start + _ROW_CHUNK
            yield from map(Rating, *(column[start:stop].tolist() for column in columns))

    def reviewer(self, reviewer_id: int) -> Reviewer:
        """Look up one reviewer by id (raises :class:`DataError` when unknown)."""
        try:
            return self._reviewers[reviewer_id]
        except KeyError as exc:
            raise DataError(f"unknown reviewer {reviewer_id}") from exc

    def item(self, item_id: int) -> Item:
        """Look up one item by id (raises :class:`DataError` when unknown)."""
        try:
            return self._items[item_id]
        except KeyError as exc:
            raise DataError(f"unknown item {item_id}") from exc

    def has_item(self, item_id: int) -> bool:
        """True when the catalogue contains ``item_id``."""
        return item_id in self._items

    def has_reviewer(self, reviewer_id: int) -> bool:
        """True when the community contains ``reviewer_id``."""
        return reviewer_id in self._reviewers

    def items_by_title(self, title: str) -> List[Item]:
        """Return items whose title matches ``title`` case-insensitively."""
        wanted = title.strip().lower()
        return [item for item in self._items.values() if item.title.lower() == wanted]

    def _item_mask(self, item_ids: Iterable[int]) -> np.ndarray:
        wanted = set(item_ids)
        return np.isin(
            self.item_ids, np.fromiter(wanted, dtype=np.int64, count=len(wanted))
        )

    def ratings_for_items(self, item_ids: Iterable[int]) -> List[Rating]:
        """Return all rating tuples of the given items (``R_I`` in §2.2)."""
        return list(self._rows(self._item_mask(item_ids)))

    def ratings_for_reviewer(self, reviewer_id: int) -> List[Rating]:
        """All rating tuples authored by one reviewer."""
        return list(self._rows(self.reviewer_ids == reviewer_id))

    # -- statistics --------------------------------------------------------------

    def global_average(self) -> float:
        """Average of all ratings — the single aggregate the paper criticises."""
        if len(self) == 0:
            return 0.0
        # Python's sum in row order, not numpy's pairwise sum: the value is
        # part of the summary payload and must not change with the storage.
        return sum(self.scores.tolist()) / len(self)

    def item_average(self, item_id: int) -> float:
        """Average score of one item (0.0 when unrated)."""
        scores = self.scores[self.item_ids == item_id].tolist()
        if not scores:
            return 0.0
        return sum(scores) / len(scores)

    def rating_counts_by_item(self) -> Dict[int, int]:
        """Number of ratings per item id, in order of each item's first row."""
        values, first_rows, counts = np.unique(
            self.item_ids, return_index=True, return_counts=True
        )
        order = np.argsort(first_rows, kind="stable")
        return dict(zip(values[order].tolist(), counts[order].tolist()))

    def time_range(self) -> Tuple[int, int]:
        """Return the (min, max) rating timestamps, (0, 0) when empty."""
        if len(self) == 0:
            return (0, 0)
        return (int(self.timestamps.min()), int(self.timestamps.max()))

    # -- derivation ---------------------------------------------------------------

    def _restricted(self, mask: np.ndarray, items: Iterable[Item], name: str) -> "RatingDataset":
        reviewer_ids = self.reviewer_ids[mask]
        return RatingDataset.from_columns(
            reviewers=[self._reviewers[rid] for rid in set(reviewer_ids.tolist())],
            items=items,
            item_ids=self.item_ids[mask],
            reviewer_ids=reviewer_ids,
            scores=self.scores[mask],
            timestamps=self.timestamps[mask],
            schema=self.schema,
            name=name,
            validate=False,
        )

    def restricted_to_items(self, item_ids: Iterable[int], name: str = "") -> "RatingDataset":
        """Return a new dataset containing only ratings of the given items."""
        wanted = set(item_ids)
        return self._restricted(
            self._item_mask(wanted),
            [self._items[iid] for iid in wanted if iid in self._items],
            name or f"{self.name}[items={len(wanted)}]",
        )

    def restricted_to_interval(
        self, start_timestamp: int, end_timestamp: int, name: str = ""
    ) -> "RatingDataset":
        """Return a new dataset with ratings inside ``[start, end]`` only."""
        if end_timestamp < start_timestamp:
            raise DataError("time interval end precedes start")
        mask = (self.timestamps >= start_timestamp) & (self.timestamps <= end_timestamp)
        return self._restricted(
            mask,
            [self._items[iid] for iid in set(self.item_ids[mask].tolist())],
            name or f"{self.name}[interval]",
        )

    def describe(self) -> Dict[str, object]:
        """Small summary dict used by reports and the JSON API."""
        lo, hi = self.time_range()
        return {
            "name": self.name,
            "reviewers": self.num_reviewers,
            "items": self.num_items,
            "ratings": self.num_ratings,
            "global_average": round(self.global_average(), 4),
            "time_range": [lo, hi],
        }


#: Rows converted to Python scalars at a time by :meth:`RatingDataset.ratings`.
_ROW_CHUNK = 4096


def _frozen(column, dtype) -> np.ndarray:
    """``column`` as a read-only 1-D array of ``dtype`` (no copy when it already is)."""
    array = np.asarray(column, dtype=dtype)
    if array.ndim != 1:
        raise DataError(f"rating columns must be 1-D, got shape {array.shape}")
    array.flags.writeable = False
    return array
