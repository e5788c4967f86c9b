"""In-memory rating store with the indexes the mining layer needs.

The Rating Mining module of the paper "accepts a set of items I from the
front-end and collects all the corresponding rating tuples R_I" (§2.3), then
builds reviewer groups over those tuples.  :class:`RatingStore` is the storage
substrate that makes this fast:

* an inverted index item → rating positions,
* per-reviewer attribute columns factorised once into ``int32`` *code* arrays
  plus sorted vocabularies ("aggressive data pre-processing"), and
* :class:`RatingSlice`, a columnar view over the rating tuples of one query
  (numpy arrays for scores/timestamps, integer code columns per attribute)
  that the data-cube enumerator and the objective functions operate on
  directly.

The string-valued column API (``attribute_values`` / ``attribute_columns``) is
kept as a thin compat shim that decodes ``vocabulary[codes]`` lazily; all hot
paths (masking, distinct values, cube enumeration) run on the integer codes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataError, EmptyRatingSetError
from .model import RatingDataset, Reviewer


def _factorize(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factorise a string column into (sorted vocabulary, int32 codes)."""
    if column.shape[0] == 0:
        return np.array([], dtype=object), np.array([], dtype=np.int32)
    vocabulary, codes = np.unique(column, return_inverse=True)
    return vocabulary, codes.astype(np.int32, copy=False)


def _pack_positions(positions: np.ndarray, total: int) -> np.ndarray:
    """Pack sorted row positions into a uint8 bitset of ``total`` bits."""
    member = np.zeros(int(total), dtype=bool)
    if positions.shape[0]:
        member[positions] = True
    return np.packbits(member)


class AttributeIndex:
    """Per-value aggregates + packed membership bitsets of one code column.

    For every value of a factorized attribute (e.g. every state), the index
    holds the statistics the geo surface serves — count, score sum,
    positive/negative shares, the joint (value × score) histogram — and a
    packed bitset of the value's row positions.  All of it falls out of a
    handful of ``np.bincount`` passes at build time, and — the point of this
    class — it is **maintained incrementally across compactions**: appended
    rows contribute *delta bincounts* that are added onto the existing
    arrays, and vocabulary growth scatters the old rows onto their remapped
    code positions.  No full-store rescan happens on ingest.

    Exactness note: counts, histograms and bitsets are integers, so the
    delta-updated index is always bit-identical to one rebuilt from scratch.
    The float ``sums``/``positives``/``negatives`` accumulators are exact as
    long as scores are exactly representable in binary (integers or halves —
    every real rating-site scale), which the differential test battery pins.
    """

    __slots__ = (
        "attribute", "num_rows", "counts", "sums",
        "positives", "negatives", "joint", "bits",
    )

    def __init__(
        self,
        attribute: str,
        num_rows: int,
        counts: np.ndarray,
        sums: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        joint: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        self.attribute = attribute
        self.num_rows = int(num_rows)
        self.counts = counts
        self.sums = sums
        self.positives = positives
        self.negatives = negatives
        self.joint = joint
        self.bits = bits

    @classmethod
    def build(
        cls, attribute: str, codes: np.ndarray, scores: np.ndarray, num_values: int
    ) -> "AttributeIndex":
        """Build the index from scratch over one code column."""
        num_rows = int(codes.shape[0])
        counts = np.bincount(codes, minlength=num_values)
        sums = np.bincount(codes, weights=scores, minlength=num_values)
        positives = np.bincount(codes, weights=(scores >= 4), minlength=num_values)
        negatives = np.bincount(codes, weights=(scores <= 2), minlength=num_values)
        if num_rows:
            bins = np.clip(np.rint(scores).astype(np.int64), 1, 5) - 1
            joint = np.bincount(
                codes.astype(np.int64) * 5 + bins, minlength=num_values * 5
            )
        else:
            joint = np.zeros(num_values * 5, dtype=np.int64)
        words = (num_rows + 7) // 8
        bits = np.zeros((num_values, words), dtype=np.uint8)
        if num_rows:
            order = np.argsort(codes, kind="stable")
            boundaries = np.flatnonzero(np.diff(codes[order])) + 1
            for segment in np.split(order, boundaries):
                bits[int(codes[segment[0]])] = _pack_positions(segment, num_rows)
        return cls(attribute, num_rows, counts, sums, positives, negatives, joint, bits)

    @property
    def num_values(self) -> int:
        """Number of vocabulary values the index covers."""
        return int(self.counts.shape[0])

    def positions_for(self, code: int) -> np.ndarray:
        """Ascending row positions of one value, unpacked from its bitset."""
        if not 0 <= code < self.num_values:
            return np.array([], dtype=np.int64)
        member = np.unpackbits(self.bits[code], count=self.num_rows).astype(bool)
        return np.flatnonzero(member).astype(np.int64)

    def updated(
        self,
        remap: np.ndarray,
        num_values: int,
        delta_codes: np.ndarray,
        delta_scores: np.ndarray,
    ) -> "AttributeIndex":
        """A new index for the compacted store: scatter + delta bincounts.

        ``remap[old_code] -> new_code`` re-homes the existing per-value rows
        after vocabulary growth; the appended rows (``delta_codes`` already in
        the new code space) contribute plain delta bincounts on top.  The
        bitsets are extended in place of the appended rows only — existing
        bytes are copied, never recomputed.
        """
        new_rows = self.num_rows + int(delta_codes.shape[0])

        def scatter(old: np.ndarray) -> np.ndarray:
            fresh = np.zeros(num_values, dtype=old.dtype)
            if old.shape[0]:
                fresh[remap] = old
            return fresh

        counts = scatter(self.counts)
        counts += np.bincount(delta_codes, minlength=num_values)
        sums = scatter(self.sums)
        sums += np.bincount(delta_codes, weights=delta_scores, minlength=num_values)
        positives = scatter(self.positives)
        positives += np.bincount(
            delta_codes, weights=(delta_scores >= 4), minlength=num_values
        )
        negatives = scatter(self.negatives)
        negatives += np.bincount(
            delta_codes, weights=(delta_scores <= 2), minlength=num_values
        )
        joint = np.zeros(num_values * 5, dtype=self.joint.dtype)
        if self.joint.shape[0]:
            joint.reshape(num_values, 5)[remap] = self.joint.reshape(-1, 5)
        if delta_codes.shape[0]:
            bins = np.clip(np.rint(delta_scores).astype(np.int64), 1, 5) - 1
            joint += np.bincount(
                delta_codes.astype(np.int64) * 5 + bins, minlength=num_values * 5
            )
        words = (new_rows + 7) // 8
        bits = np.zeros((num_values, words), dtype=np.uint8)
        if self.bits.shape[1]:
            bits[remap, : self.bits.shape[1]] = self.bits
        if delta_codes.shape[0]:
            # Appended rows start at self.num_rows; pack them from the last
            # byte boundary so the straddling byte is OR-merged, not rebuilt.
            base_byte = self.num_rows // 8
            base_bit = base_byte * 8
            tail_bits = new_rows - base_bit
            for code in np.unique(delta_codes).tolist():
                member = np.zeros(tail_bits, dtype=bool)
                member[
                    (self.num_rows - base_bit)
                    + np.flatnonzero(delta_codes == code)
                ] = True
                packed = np.packbits(member)
                np.bitwise_or(
                    bits[code, base_byte : base_byte + packed.shape[0]],
                    packed,
                    out=bits[code, base_byte : base_byte + packed.shape[0]],
                )
        return AttributeIndex(
            self.attribute, new_rows, counts, sums, positives, negatives, joint, bits
        )


class _LazyColumns(Mapping):
    """Mapping view that decodes string columns from codes on first access.

    Keeps the historical ``slice.attribute_columns[name] -> np.ndarray[str]``
    contract alive without paying the object-array gather per slice unless a
    caller actually asks for strings.
    """

    def __init__(
        self,
        code_columns: Dict[str, np.ndarray],
        vocabularies: Dict[str, np.ndarray],
    ) -> None:
        self._code_columns = code_columns
        self._vocabularies = vocabularies
        self._decoded: Dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._decoded:
            codes = self._code_columns[name]
            vocabulary = self._vocabularies[name]
            if codes.shape[0] == 0:
                self._decoded[name] = np.array([], dtype=object)
            else:
                self._decoded[name] = vocabulary[codes]
        return self._decoded[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._code_columns)

    def __len__(self) -> int:
        return len(self._code_columns)


@dataclass
class RatingSlice:
    """Columnar view of the rating tuples selected by one item query (``R_I``).

    Attributes:
        item_ids: array of item ids, one per rating tuple.
        reviewer_ids: array of reviewer ids, one per rating tuple.
        scores: float array of rating scores.
        timestamps: int array of rating timestamps.
        attribute_columns: mapping attribute name → array of string values,
            aligned with the arrays above (reviewer attributes of the rater).
        code_columns: mapping attribute name → ``int32`` codes into the
            attribute's vocabulary (the mining kernel's working columns).
        vocabularies: mapping attribute name → sorted array of distinct
            string values; ``vocabulary[code]`` recovers the string.
    """

    item_ids: np.ndarray
    reviewer_ids: np.ndarray
    scores: np.ndarray
    timestamps: np.ndarray
    attribute_columns: Mapping[str, np.ndarray] = field(default_factory=dict)
    code_columns: Dict[str, np.ndarray] = field(default_factory=dict)
    vocabularies: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code_columns and not self.attribute_columns:
            self.attribute_columns = _LazyColumns(self.code_columns, self.vocabularies)

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def size(self) -> int:
        """Number of rating tuples in the slice."""
        return len(self)

    def is_empty(self) -> bool:
        """True when the slice holds no rating tuples."""
        return len(self) == 0

    def average(self) -> float:
        """Overall average rating of the slice (the aggregate sites show today)."""
        if self.is_empty():
            return 0.0
        return float(self.scores.mean())

    # -- integer-coded columns ----------------------------------------------------

    def codes_for(self, attribute: str) -> np.ndarray:
        """``int32`` code column of an attribute (factorised on demand)."""
        if attribute not in self.code_columns:
            self._factorize_attribute(attribute)
        return self.code_columns[attribute]

    def vocabulary(self, attribute: str) -> np.ndarray:
        """Sorted distinct string values of an attribute; ``vocab[code]`` decodes."""
        if attribute not in self.vocabularies:
            self._factorize_attribute(attribute)
        return self.vocabularies[attribute]

    def _factorize_attribute(self, attribute: str) -> None:
        """Build codes + vocabulary for a slice constructed from string columns."""
        try:
            column = self.attribute_columns[attribute]
        except KeyError as exc:
            raise DataError(f"slice has no attribute column {attribute!r}") from exc
        vocabulary, codes = _factorize(np.asarray(column, dtype=object))
        self.vocabularies[attribute] = vocabulary
        self.code_columns[attribute] = codes

    # -- string compat API --------------------------------------------------------

    def attribute_values(self, attribute: str) -> np.ndarray:
        """Column of reviewer attribute values aligned with the rating tuples."""
        try:
            return self.attribute_columns[attribute]
        except KeyError as exc:
            raise DataError(f"slice has no attribute column {attribute!r}") from exc

    def distinct_values(self, attribute: str) -> List[str]:
        """Sorted distinct non-empty values of an attribute column."""
        vocabulary = self.vocabulary(attribute)
        codes = self.codes_for(attribute)
        if codes.shape[0] == 0:
            return []
        present = np.bincount(codes, minlength=vocabulary.shape[0]) > 0
        return [value for value in vocabulary[present].tolist() if value]

    def mask_for(self, attribute: str, value: str) -> np.ndarray:
        """Boolean mask of tuples whose reviewer has ``attribute == value``."""
        vocabulary = self.vocabulary(attribute)
        codes = self.codes_for(attribute)
        index = int(np.searchsorted(vocabulary, value))
        if index >= vocabulary.shape[0] or vocabulary[index] != value:
            return np.zeros(len(self), dtype=bool)
        return codes == np.int32(index)

    # -- restriction --------------------------------------------------------------

    def restrict(self, mask: np.ndarray, copy_columns: bool = True) -> "RatingSlice":
        """Return a sub-slice containing only the tuples selected by ``mask``."""
        if self.code_columns:
            # A slice built from string columns may be only partially
            # factorized (mask_for/distinct_values factorize lazily, one
            # attribute at a time); factorize the rest so the code-column
            # sub-slice carries every attribute.
            for name in self.attribute_columns:
                if name not in self.code_columns:
                    self._factorize_attribute(name)
            codes = {
                name: col[mask] if copy_columns else col
                for name, col in self.code_columns.items()
            }
            return RatingSlice(
                item_ids=self.item_ids[mask],
                reviewer_ids=self.reviewer_ids[mask],
                scores=self.scores[mask],
                timestamps=self.timestamps[mask],
                code_columns=codes,
                vocabularies=dict(self.vocabularies),
            )
        columns = {
            name: col[mask] if copy_columns else col
            for name, col in self.attribute_columns.items()
        }
        return RatingSlice(
            item_ids=self.item_ids[mask],
            reviewer_ids=self.reviewer_ids[mask],
            scores=self.scores[mask],
            timestamps=self.timestamps[mask],
            attribute_columns=columns,
        )

    def restrict_to_interval(self, start: int, end: int) -> "RatingSlice":
        """Return the sub-slice of ratings with timestamps in ``[start, end]``."""
        if end < start:
            raise DataError("time interval end precedes start")
        mask = (self.timestamps >= start) & (self.timestamps <= end)
        return self.restrict(mask)

    def score_histogram(self, bins: Sequence[float] = (1, 2, 3, 4, 5)) -> Dict[float, int]:
        """Count of ratings per score value (Figure 3 statistics)."""
        histogram: Dict[float, int] = {float(b): 0 for b in bins}
        if self.is_empty():
            return histogram
        rounded = np.rint(self.scores).astype(np.int64)
        values, counts = np.unique(rounded, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            key = float(value)
            histogram[key] = histogram.get(key, 0) + count
        return histogram

    def years(self) -> List[int]:
        """Sorted distinct calendar years present in the slice."""
        if self.is_empty():
            return []
        years = np.unique(self.timestamps.astype("datetime64[s]").astype("datetime64[Y]"))
        return sorted(int(str(y)) for y in years)


class RatingStore:
    """Indexed, column-oriented store built once over a :class:`RatingDataset`.

    Construction cost is paid once per dataset ("aggressive data
    pre-processing", §2.3); after that, slicing the ratings of any item set is
    an index lookup plus a few numpy gathers.  Attribute columns are stored as
    ``int32`` codes into per-attribute vocabularies, so slices carry compact
    integer columns and the mining kernel never touches Python strings.
    """

    def __init__(
        self,
        dataset: RatingDataset,
        grouping_attributes: Sequence[str] = (
            "gender", "age_group", "occupation", "state", "city", "zipcode"
        ),
        epoch: int = 0,
    ) -> None:
        self._adopt_dataset(dataset)
        self.grouping_attributes = tuple(grouping_attributes)
        self.epoch = int(epoch)
        self._positions_by_item: Dict[int, np.ndarray] = self._build_item_index()
        self._attribute_codes: Dict[str, np.ndarray] = {}
        self._vocabularies: Dict[str, np.ndarray] = {}
        self._indexes: Dict[str, AttributeIndex] = {}
        self._index_lock = threading.Lock()
        self._build_attribute_columns()

    def _adopt_dataset(self, dataset: RatingDataset) -> None:
        """Take the dataset's rating columns as the store's base columns.

        The store never copies them: the dataset's columns are the one copy
        of the ratings, shared by both.
        """
        self.dataset = dataset
        self._item_ids = dataset.item_ids
        self._reviewer_ids = dataset.reviewer_ids
        self._scores = dataset.scores
        self._timestamps = dataset.timestamps

    @classmethod
    def _from_parts(
        cls,
        dataset: RatingDataset,
        grouping_attributes: Tuple[str, ...],
        positions_by_item: Dict[int, np.ndarray],
        attribute_codes: Dict[str, np.ndarray],
        vocabularies: Dict[str, np.ndarray],
        epoch: int,
        indexes: Optional[Dict[str, "AttributeIndex"]] = None,
    ) -> "RatingStore":
        """Assemble a snapshot from pre-built parts (the compaction path).

        Bypasses ``__init__``'s full pre-processing: the incremental
        compactor already produced every column, the item index and any
        delta-updated attribute indexes, so nothing is recomputed here.  The
        base columns are the dataset's.
        """
        store = object.__new__(cls)
        store._adopt_dataset(dataset)
        store.grouping_attributes = tuple(grouping_attributes)
        store.epoch = int(epoch)
        store._positions_by_item = positions_by_item
        store._attribute_codes = attribute_codes
        store._vocabularies = vocabularies
        store._indexes = dict(indexes or {})
        store._index_lock = threading.Lock()
        return store

    # -- construction ------------------------------------------------------------

    def _build_item_index(self) -> Dict[int, np.ndarray]:
        if self._item_ids.shape[0] == 0:
            return {}
        order = np.argsort(self._item_ids, kind="stable")
        sorted_items = self._item_ids[order]
        unique_items, starts = np.unique(sorted_items, return_index=True)
        segments = np.split(order, starts[1:])
        return {
            int(item_id): segment
            for item_id, segment in zip(unique_items.tolist(), segments)
        }

    def _build_attribute_columns(self) -> None:
        """Factorise each reviewer attribute once and gather codes per rating.

        One Python pass over the *reviewers* (unavoidable: attribute access is
        a Python call), then a vectorised ``searchsorted`` join maps every
        rating to its reviewer row and a gather yields the per-rating codes.
        """
        reviewers = list(self.dataset.reviewers())
        reviewer_ids = np.array(
            [r.reviewer_id for r in reviewers], dtype=np.int64
        )
        order = np.argsort(reviewer_ids, kind="stable")
        sorted_ids = reviewer_ids[order]
        if self._reviewer_ids.shape[0]:
            if sorted_ids.shape[0] == 0:
                raise DataError("ratings reference reviewers but the dataset has none")
            rows = np.searchsorted(sorted_ids, self._reviewer_ids)
            rows = np.minimum(rows, sorted_ids.shape[0] - 1)
            bad = sorted_ids[rows] != self._reviewer_ids
            if bad.any():
                missing = sorted(set(self._reviewer_ids[bad].tolist()))[:5]
                raise DataError(f"ratings reference unknown reviewer ids {missing!r}")
        else:
            rows = np.array([], dtype=np.int64)
        for name in self.grouping_attributes:
            values = np.array(
                [reviewer.attribute(name) for reviewer in reviewers], dtype=object
            )[order]
            vocabulary, reviewer_codes = _factorize(values)
            self._vocabularies[name] = vocabulary
            self._attribute_codes[name] = (
                reviewer_codes[rows] if rows.shape[0] else np.array([], dtype=np.int32)
            )

    # -- sizes --------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._scores.shape[0])

    @property
    def num_ratings(self) -> int:
        """Number of rating tuples in the store."""
        return len(self)

    def item_rating_count(self, item_id: int) -> int:
        """Number of ratings of one item (0 when unrated)."""
        positions = self._positions_by_item.get(item_id)
        return 0 if positions is None else int(positions.shape[0])

    def most_rated_items(self, limit: int = 10) -> List[Tuple[int, int]]:
        """Return ``(item_id, rating_count)`` pairs sorted by popularity."""
        counts = [
            (item_id, int(pos.shape[0]))
            for item_id, pos in self._positions_by_item.items()
        ]
        counts.sort(key=lambda pair: (-pair[1], pair[0]))
        return counts[:limit]

    # -- slicing ------------------------------------------------------------------

    def _slice_at(self, positions: np.ndarray) -> RatingSlice:
        return RatingSlice(
            item_ids=self._item_ids[positions],
            reviewer_ids=self._reviewer_ids[positions],
            scores=self._scores[positions],
            timestamps=self._timestamps[positions],
            code_columns={
                name: codes[positions]
                for name, codes in self._attribute_codes.items()
            },
            vocabularies=dict(self._vocabularies),
        )

    def slice_for_items(
        self,
        item_ids: Iterable[int],
        time_interval: Optional[Tuple[int, int]] = None,
        allow_empty: bool = False,
    ) -> RatingSlice:
        """Collect the rating tuples ``R_I`` of an item set as a columnar slice.

        Args:
            item_ids: items selected by the front-end query.
            time_interval: optional ``(start, end)`` timestamp restriction
                (the time-interval search setting of Figure 1).
            allow_empty: return an empty slice instead of raising when the
                selection matches no ratings.
        """
        wanted = [iid for iid in item_ids if iid in self._positions_by_item]
        if wanted:
            positions = np.concatenate([self._positions_by_item[iid] for iid in wanted])
            positions.sort()
        else:
            positions = np.array([], dtype=np.int64)
        rating_slice = self._slice_at(positions)
        if time_interval is not None:
            rating_slice = rating_slice.restrict_to_interval(*time_interval)
        if rating_slice.is_empty() and not allow_empty:
            raise EmptyRatingSetError(
                "the item selection matches no rating tuples"
            )
        return rating_slice

    def slice_all(self) -> RatingSlice:
        """Slice over every rating of the dataset."""
        return self._slice_at(np.arange(len(self), dtype=np.int64))

    def slice_rows(self, positions: np.ndarray) -> RatingSlice:
        """Slice over an explicit array of row positions (ascending)."""
        return self._slice_at(np.asarray(positions, dtype=np.int64))

    # -- maintained attribute indexes ---------------------------------------------

    def attribute_index(self, attribute: str) -> AttributeIndex:
        """The per-value aggregate/bitset index of one attribute (lazy, cached).

        Built once per snapshot on first use; compaction carries built
        indexes forward with delta updates instead of rebuilding them (see
        :mod:`repro.data.ingest`).  Concurrent cold callers share one build.
        """
        if attribute not in self._attribute_codes:
            raise DataError(f"store has no attribute column {attribute!r}")
        index = self._indexes.get(attribute)
        if index is not None:
            return index
        with self._index_lock:
            index = self._indexes.get(attribute)
            if index is None:
                index = AttributeIndex.build(
                    attribute,
                    self._attribute_codes[attribute],
                    self._scores,
                    int(self._vocabularies[attribute].shape[0]),
                )
                self._indexes[attribute] = index
        return index

    def built_indexes(self) -> Dict[str, AttributeIndex]:
        """Snapshot of the attribute indexes built so far (for compaction)."""
        with self._index_lock:
            return dict(self._indexes)

    def vocabulary_for(self, attribute: str) -> np.ndarray:
        """Sorted vocabulary of one grouping attribute."""
        try:
            return self._vocabularies[attribute]
        except KeyError as exc:
            raise DataError(f"store has no attribute column {attribute!r}") from exc

    def codes_for(self, attribute: str) -> np.ndarray:
        """Full-store ``int32`` code column of one grouping attribute."""
        try:
            return self._attribute_codes[attribute]
        except KeyError as exc:
            raise DataError(f"store has no attribute column {attribute!r}") from exc

    # -- aggregate helpers ----------------------------------------------------------

    def item_average(self, item_id: int) -> float:
        """Average score of one item (0.0 when unrated)."""
        positions = self._positions_by_item.get(item_id)
        if positions is None or positions.shape[0] == 0:
            return 0.0
        return float(self._scores[positions].mean())

    def global_average(self) -> float:
        """Average of every rating in the store (0.0 when empty)."""
        if len(self) == 0:
            return 0.0
        return float(self._scores.mean())
