"""Live ingestion: epoch-versioned appendable stores with incremental compaction.

Every layer above this module was built for a *frozen*
:class:`~repro.data.storage.RatingStore`; real collaborative rating sites
never stop receiving ratings.  This module supplies the HTAP-style split
between the write path and the read-optimized mining path:

* :class:`AppendBuffer` — the write side.  Accepts new ratings (single and
  batch) and new reviewers, validates them against the current snapshot
  (referential integrity, rating scale, duplicate suppression) and holds them
  in memory.  Unseen attribute values — a new zip code, a reviewer in a state
  the snapshot never saw — are perfectly legal: the vocabulary grows at
  compaction time.
* :func:`compact_snapshot` — the merge step.  Folds the buffered rows into a
  **new immutable snapshot** tagged with ``epoch + 1``.  The incremental path
  never re-runs the full pre-processing: base arrays are extended by
  concatenation, grown vocabularies are merged with a vectorised remap of the
  existing code columns (``remap[old_codes]`` — no string comparison touches
  an old row), the per-item inverted index receives per-item position
  appends, and every built :class:`~repro.data.storage.AttributeIndex`
  (per-region aggregates + packed bitsets) is carried forward via delta
  bincounts.  A from-scratch rebuild (``use_incremental=False``) is kept as
  the reference path; the differential test battery proves the two produce
  bit-identical stores and downstream mining/geo results.
* :class:`LiveStore` — the epoch manager.  Owns the current snapshot (an
  atomically swapped reference) plus the buffer; readers grab the snapshot
  once per request and are never blocked by writers, writers append without
  touching the snapshot, and :meth:`LiveStore.compact` serialises compactions
  while ingestion continues into a fresh buffer.

The serving layer (:class:`~repro.server.api.MapRat`) wires the epoch into
every canonical cache key, so entries of superseded snapshots can never serve
a post-ingest read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from datetime import MAXYEAR, MINYEAR, datetime, timezone
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import IngestError, MapRatError, SchemaError
from ..geo.zipcodes import ZipResolver
from .model import Rating, RatingDataset, Reviewer
from .schema import age_group_for
from .storage import AttributeIndex, RatingStore

__all__ = [
    "AppendBuffer",
    "CompactionDelta",
    "CompactionResult",
    "LiveStore",
    "checked_rating",
    "compact_snapshot",
    "rating_from_dict",
    "reviewer_from_dict",
]

#: Outcomes of one append.
ACCEPTED = "accepted"
DUPLICATE = "duplicate"

#: Timestamps an ingested rating may carry: UTC years ``MINYEAR``–``MAXYEAR``,
#: the span ``TimeInterval.for_years`` (and so the timeline) can represent.
TIMESTAMP_RANGE = (
    int(datetime(MINYEAR, 1, 1, tzinfo=timezone.utc).timestamp()),
    int(datetime(MAXYEAR, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()),
)

_INT64 = np.iinfo(np.int64)


def _rating_key(rating: Rating) -> Tuple[int, int, float, int]:
    return (rating.item_id, rating.reviewer_id, float(rating.score), rating.timestamp)


def checked_rating(rating: Rating) -> Rating:
    """Return ``rating`` if its reviewer id and timestamp fit the store.

    The ingest request boundary's range check, shared by
    :meth:`~repro.server.api.MapRat.ingest` and :func:`rating_from_dict`.  A
    reviewer id outside int64 (a new reviewer's is never looked up) or a
    timestamp outside :data:`TIMESTAMP_RANGE` would otherwise be journaled
    and buffered, then fail the next compaction — and every recovery after
    it — or every later timeline of its item.  WAL replay does not call it.
    Raises :class:`IngestError`.
    """
    if not _INT64.min <= rating.reviewer_id <= _INT64.max:
        raise IngestError(f"reviewer_id {rating.reviewer_id} does not fit in 64 bits")
    low, high = TIMESTAMP_RANGE
    if not low <= rating.timestamp <= high:
        raise IngestError(
            f"rating timestamp {rating.timestamp} is outside [{low}, {high}] "
            f"(UTC years {MINYEAR}-{MAXYEAR})"
        )
    return rating


def rating_from_dict(payload: Mapping) -> Rating:
    """Parse one ingest payload entry into a :class:`Rating`.

    Required keys: ``item_id``, ``reviewer_id``, ``score``; optional
    ``timestamp`` (default 0).  Raises :class:`IngestError` on missing,
    malformed or out-of-range fields (see :func:`checked_rating`) — the JSON
    layer maps that to a 400.
    """
    if not isinstance(payload, Mapping):
        raise IngestError(f"rating entry must be an object, got {type(payload).__name__}")
    try:
        item_id = int(payload["item_id"])
        reviewer_id = int(payload["reviewer_id"])
        score = float(payload["score"])
    except KeyError as exc:
        raise IngestError(f"rating entry is missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise IngestError(f"malformed rating entry: {exc}") from exc
    try:
        timestamp = int(payload.get("timestamp", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise IngestError("rating timestamp must be an integer") from exc
    return checked_rating(
        Rating(item_id=item_id, reviewer_id=reviewer_id, score=score, timestamp=timestamp)
    )


def checked_reviewer(reviewer: Reviewer) -> Reviewer:
    """Return ``reviewer`` if its age falls in an age band.

    The request boundary's check of a new reviewer, shared by
    :func:`reviewer_from_dict` and :meth:`~repro.server.api.MapRat.ingest`
    (which also takes :class:`Reviewer` objects).  An age with no age band
    (below 1, or not a number) would be journaled and buffered, then fail
    the next compaction and every recovery after it.  WAL replay does not
    call it.  Raises :class:`IngestError`.
    """
    try:
        age_group_for(reviewer.age)
    except SchemaError as exc:
        raise IngestError(str(exc)) from exc
    except TypeError as exc:
        raise IngestError(f"reviewer age must be a number, got {reviewer.age!r}") from exc
    return reviewer


def reviewer_from_dict(payload: Mapping, reviewer_id: Optional[int] = None) -> Reviewer:
    """Parse a new-reviewer payload into a :class:`Reviewer`.

    Required keys: ``gender``, ``age``, ``occupation``, ``zipcode`` (plus
    ``reviewer_id`` unless supplied by the caller).  ``state``/``city`` are
    optional; blank values are resolved from the zip code at registration.
    The age must fall in an age band (:func:`checked_reviewer`).
    """
    if not isinstance(payload, Mapping):
        raise IngestError(f"reviewer entry must be an object, got {type(payload).__name__}")
    try:
        rid = int(payload.get("reviewer_id", reviewer_id))
        gender = str(payload["gender"])
        age = int(payload["age"])
        occupation = str(payload["occupation"])
        zipcode = str(payload["zipcode"])
    except KeyError as exc:
        raise IngestError(
            f"reviewer entry is missing required field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise IngestError(f"malformed reviewer entry: {exc}") from exc
    return checked_reviewer(
        Reviewer(
            reviewer_id=rid,
            gender=gender,
            age=age,
            occupation=occupation,
            zipcode=zipcode,
            state=str(payload.get("state", "")),
            city=str(payload.get("city", "")),
        )
    )


class AppendBuffer:
    """Validated, deduplicated in-memory buffer of ratings awaiting compaction.

    The buffer is the write side of the live store: every append is validated
    against the owning snapshot (known item, known or newly registered
    reviewer, score on the site's scale) and against everything already seen
    (exact ⟨item, reviewer, score, timestamp⟩ duplicates are absorbed, never
    stored twice).  All operations are thread-safe; ``drain()`` hands the
    pending rows to the compactor while later appends keep accumulating for
    the next epoch.

    Vocabulary growth is deliberately *not* validated away: a reviewer with a
    zip code, city or occupation the snapshot has never seen is accepted and
    the attribute vocabularies grow at compaction time.
    """

    def __init__(self, snapshot: RatingStore, journal=None) -> None:
        self._dataset = snapshot.dataset
        self._schema = snapshot.dataset.schema
        self._resolver = ZipResolver()
        self._journal = journal
        self._lock = threading.RLock()
        self._pending: List[Rating] = []
        self._pending_reviewers: Dict[int, Reviewer] = {}
        self._known_reviewer_ids: Set[int] = {
            reviewer.reviewer_id for reviewer in self._dataset.reviewers()
        }
        # Duplicate suppression is O(ratings-per-item) per append, with no
        # standing memory: snapshot rows are probed through the per-item
        # inverted index, and only the keys of rows not yet in a snapshot
        # (pending, or drained into an in-flight compaction) are held.
        self._pending_keys: Set[Tuple[int, int, float, int]] = set()
        self._draining_keys: Set[Tuple[int, int, float, int]] = set()
        self._snapshot = snapshot

    # -- internals -----------------------------------------------------------------

    def _is_duplicate(self, key: Tuple[int, int, float, int]) -> bool:
        """True when the exact rating already exists anywhere on the path.

        Checks the two small in-memory sets first, then the snapshot via its
        per-item index — a vectorised comparison over just that item's rows,
        never a full-store scan or a materialised key set.
        """
        if key in self._pending_keys or key in self._draining_keys:
            return True
        store = self._snapshot
        positions = store._positions_by_item.get(key[0])
        if positions is None or positions.shape[0] == 0:
            return False
        return bool(
            (
                (store._reviewer_ids[positions] == key[1])
                & (store._scores[positions] == key[2])
                & (store._timestamps[positions] == key[3])
            ).any()
        )

    def _resolve_reviewer(self, reviewer: Reviewer) -> Reviewer:
        """Validate a new-reviewer record and fill its location (no mutation)."""
        if reviewer.reviewer_id in self._known_reviewer_ids:
            raise IngestError(
                f"reviewer {reviewer.reviewer_id} already exists; "
                "omit the reviewer record when rating as an existing reviewer"
            )
        if not reviewer.state or not reviewer.city:
            state, city = self._resolver.resolve(reviewer.zipcode)
            reviewer = Reviewer(
                reviewer_id=reviewer.reviewer_id,
                gender=reviewer.gender,
                age=reviewer.age,
                occupation=reviewer.occupation,
                zipcode=reviewer.zipcode,
                state=reviewer.state or state,
                city=reviewer.city or city,
            )
        return reviewer

    def _admit_reviewer(self, reviewer: Reviewer) -> None:
        """Register an already-resolved new reviewer (mutation half)."""
        self._pending_reviewers[reviewer.reviewer_id] = reviewer
        self._known_reviewer_ids.add(reviewer.reviewer_id)

    def set_journal(self, journal) -> None:
        """Attach the write-ahead journal callback after construction.

        The recovery path builds the buffer first (replaying logged ops must
        not re-log them) and attaches the journal once the on-disk state is
        reconciled.  ``journal`` is called as ``journal(rating, reviewer)``
        under the buffer lock, after validation and before any state mutates,
        for every accepted append.
        """
        with self._lock:
            self._journal = journal

    # -- writes --------------------------------------------------------------------

    def append(self, rating: Rating, reviewer: Optional[Reviewer] = None) -> str:
        """Validate and buffer one rating; returns ``"accepted"``/``"duplicate"``.

        Args:
            rating: the new rating triple (plus timestamp).
            reviewer: a reviewer record for a rater the snapshot does not
                know yet.  Required exactly when ``rating.reviewer_id`` is
                unknown; supplying a record for an existing id is an error.

        Appends are atomic: every validation (and the journal write, when a
        journal is attached) happens before any buffer state mutates, so a
        rejected append leaves no trace — no half-registered reviewer, no
        logged-but-unbuffered row.
        """
        with self._lock:
            if not self._dataset.has_item(rating.item_id):
                raise IngestError(
                    f"rating references unknown item {rating.item_id}; "
                    "the item catalogue is fixed — ingest accepts ratings, not items"
                )
            if reviewer is not None:
                if reviewer.reviewer_id != rating.reviewer_id:
                    raise IngestError(
                        f"reviewer record id {reviewer.reviewer_id} does not match "
                        f"rating reviewer {rating.reviewer_id}"
                    )
                reviewer = self._resolve_reviewer(reviewer)
            elif rating.reviewer_id not in self._known_reviewer_ids:
                raise IngestError(
                    f"rating references unknown reviewer {rating.reviewer_id}; "
                    "supply a reviewer record (gender/age/occupation/zipcode) to register one"
                )
            try:
                self._schema.validate_rating(rating.score)
            except MapRatError as exc:
                raise IngestError(str(exc)) from exc
            key = _rating_key(rating)
            if self._is_duplicate(key):
                return DUPLICATE
            if self._journal is not None:
                # Write-ahead: the op reaches the log before the buffer; a
                # failed log write rejects the append with no state change.
                self._journal(rating, reviewer)
            if reviewer is not None:
                self._admit_reviewer(reviewer)
            self._pending_keys.add(key)
            self._pending.append(rating)
            return ACCEPTED

    def extend(
        self,
        pairs: Iterable[Tuple[Rating, Optional[Reviewer]]],
    ) -> Dict[str, int]:
        """Append a batch of (rating, optional reviewer) pairs.

        Entries are applied in order; the first invalid entry raises
        :class:`IngestError` naming its index, with every earlier entry
        already buffered (best-effort semantics, surfaced to the caller).
        The raised error carries the partial outcome as ``error.counts`` so
        callers tracking totals never lose the buffered prefix.
        """
        counts = {ACCEPTED: 0, DUPLICATE: 0}
        with self._lock:
            for index, (rating, reviewer) in enumerate(pairs):
                try:
                    counts[self.append(rating, reviewer)] += 1
                except IngestError as exc:
                    error = IngestError(f"batch entry {index}: {exc}")
                    error.counts = dict(counts)
                    raise error from exc
        return counts

    # -- handoff -------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def pending_reviewers(self) -> int:
        """Number of buffered new-reviewer registrations."""
        with self._lock:
            return len(self._pending_reviewers)

    def drain(self, on_drain=None) -> Tuple[List[Rating], List[Reviewer]]:
        """Take the pending rows for compaction; the buffer keeps accepting.

        The drained rows' keys move to the draining set (they are about to
        become snapshot rows but are not probeable through the snapshot yet)
        and their reviewers remain known, so duplicates of in-flight rows
        are still absorbed.

        ``on_drain`` (when given) runs under the buffer lock, only when the
        drain took something.  The durability layer rotates the write-ahead
        log there: rotation must be atomic with the drain so an append racing
        the compaction lands in the *new* log — its row belongs to the next
        epoch's delta, never to the one being sealed.
        """
        with self._lock:
            ratings, self._pending = self._pending, []
            reviewers = list(self._pending_reviewers.values())
            self._pending_reviewers = {}
            self._draining_keys |= self._pending_keys
            self._pending_keys = set()
            if on_drain is not None and (ratings or reviewers):
                on_drain()
            return ratings, reviewers

    def rebase(self, snapshot: RatingStore) -> None:
        """Point validation at the new snapshot after a compaction.

        The drained keys are now snapshot rows reachable through the
        per-item index, so the draining set is released.
        """
        with self._lock:
            self._snapshot = snapshot
            self._dataset = snapshot.dataset
            self._schema = snapshot.dataset.schema
            self._draining_keys = set()


@dataclass(frozen=True)
class CompactionDelta:
    """What one compaction appended — the invalidation currency of the serving
    layer (which anchors to re-warm, which cache entries to carry forward).

    Attributes:
        num_rows: appended rating tuples.
        num_reviewers: newly registered reviewers.
        touched_items: item ids that received new ratings.
        touched_regions: state codes whose aggregates changed.
        vocabulary_growth: per-attribute count of values unseen at the
            previous epoch (the frozen-vocabulary assumption this subsystem
            removes).
    """

    num_rows: int
    num_reviewers: int
    touched_items: frozenset
    touched_regions: frozenset
    vocabulary_growth: Mapping[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The delta as a JSON-ready dict (sorted ids, non-zero growth only)."""
        return {
            "num_rows": self.num_rows,
            "num_reviewers": self.num_reviewers,
            "touched_items": sorted(self.touched_items),
            "touched_regions": sorted(self.touched_regions),
            "vocabulary_growth": {
                name: count for name, count in sorted(self.vocabulary_growth.items()) if count
            },
        }


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one :meth:`LiveStore.compact` call."""

    store: RatingStore
    delta: Optional[CompactionDelta]
    previous_epoch: int
    epoch: int
    mode: str  # "incremental" | "rebuild" | "noop"
    elapsed_seconds: float = 0.0

    @property
    def compacted(self) -> bool:
        """True when a new snapshot was produced (the buffer was non-empty)."""
        return self.delta is not None

    def to_dict(self) -> dict:
        """The outcome as a JSON-ready dict (the ``compact`` endpoint payload)."""
        return {
            "previous_epoch": self.previous_epoch,
            "epoch": self.epoch,
            "mode": self.mode,
            "rows": len(self.store),
            "delta": self.delta.to_dict() if self.delta is not None else None,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


def _merged_dataset(
    dataset: RatingDataset,
    reviewers: Sequence[Reviewer],
    columns: Sequence[np.ndarray],
) -> RatingDataset:
    """The previous catalogue plus the new reviewers, over the merged columns.

    ``columns`` are the compacted store's own ``(item_ids, reviewer_ids,
    scores, timestamps)``: base rows then appended rows.  The dataset wraps
    them, so store and dataset keep sharing one copy of the ratings.
    """
    return RatingDataset.from_columns(
        list(dataset.reviewers()) + list(reviewers),
        list(dataset.items()),
        *columns,
        schema=dataset.schema,
        name=dataset.name,
        validate=False,  # the buffer already validated every appended row
    )


def _merge_vocabulary(
    old_vocabulary: np.ndarray, candidate_values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merge unseen values into a sorted vocabulary.

    Returns ``(merged_vocabulary, remap, unseen_count)`` where
    ``remap[old_code] -> new_code``.  ``merged_vocabulary`` equals what a
    from-scratch ``np.unique`` over the full column would produce, and the
    remap is computed without comparing a single existing row: each old code
    shifts by the number of unseen values sorting before it.
    """
    candidates = np.unique(candidate_values) if candidate_values.shape[0] else candidate_values
    if old_vocabulary.shape[0] == 0:
        merged = candidates
        return merged, np.arange(0, dtype=np.int64), int(candidates.shape[0])
    if candidates.shape[0]:
        slots = np.searchsorted(old_vocabulary, candidates)
        clipped = np.minimum(slots, old_vocabulary.shape[0] - 1)
        unseen = candidates[
            (slots >= old_vocabulary.shape[0]) | (old_vocabulary[clipped] != candidates)
        ]
    else:
        unseen = candidates
    if unseen.shape[0] == 0:
        return old_vocabulary, np.arange(old_vocabulary.shape[0], dtype=np.int64), 0
    merged = np.unique(np.concatenate([old_vocabulary, unseen]))
    remap = (
        np.arange(old_vocabulary.shape[0], dtype=np.int64)
        + np.searchsorted(unseen, old_vocabulary)
    )
    return merged, remap, int(unseen.shape[0])


def compact_snapshot(
    snapshot: RatingStore,
    ratings: Sequence[Rating],
    reviewers: Sequence[Reviewer] = (),
    use_incremental: bool = True,
) -> Tuple[RatingStore, CompactionDelta]:
    """Fold buffered rows into a new immutable snapshot at ``epoch + 1``.

    The incremental path (default) performs pure delta maintenance:

    * base arrays (item ids, reviewer ids, scores, timestamps) are extended
      by concatenation — existing rows are never copied element-wise — and
      the new dataset wraps the extended arrays rather than a row list,
    * per-attribute vocabularies are merged via :func:`_merge_vocabulary` and
      existing code columns re-homed with one vectorised gather,
    * the per-item inverted index receives appends only for touched items,
    * every :class:`~repro.data.storage.AttributeIndex` already built on the
      old snapshot is delta-updated (scatter + delta bincounts + bitset
      extension) instead of rebuilt.

    ``use_incremental=False`` rebuilds the store from the merged dataset —
    the reference the differential battery compares against.
    """
    base_rows = len(snapshot)
    delta_item_ids = np.array([r.item_id for r in ratings], dtype=np.int64)
    delta_reviewer_ids = np.array([r.reviewer_id for r in ratings], dtype=np.int64)
    delta_scores = np.array([r.score for r in ratings], dtype=np.float64)
    delta_timestamps = np.array([r.timestamp for r in ratings], dtype=np.int64)
    dataset = _merged_dataset(
        snapshot.dataset,
        reviewers,
        (
            np.concatenate([snapshot._item_ids, delta_item_ids]),
            np.concatenate([snapshot._reviewer_ids, delta_reviewer_ids]),
            np.concatenate([snapshot._scores, delta_scores]),
            np.concatenate([snapshot._timestamps, delta_timestamps]),
        ),
    )
    reviewer_lookup = {reviewer.reviewer_id: reviewer for reviewer in reviewers}

    def reviewer_of(reviewer_id: int) -> Reviewer:
        record = reviewer_lookup.get(reviewer_id)
        return record if record is not None else snapshot.dataset.reviewer(reviewer_id)

    touched_items = frozenset(rating.item_id for rating in ratings)
    touched_regions = frozenset(
        region
        for region in (reviewer_of(r.reviewer_id).attribute("state") for r in ratings)
        if region
    )

    if not use_incremental:
        store = RatingStore(
            dataset,
            grouping_attributes=snapshot.grouping_attributes,
            epoch=snapshot.epoch + 1,
        )
        growth = {
            name: int(store.vocabulary_for(name).shape[0])
            - int(snapshot.vocabulary_for(name).shape[0])
            for name in snapshot.grouping_attributes
        }
        delta = CompactionDelta(
            num_rows=len(ratings),
            num_reviewers=len(reviewers),
            touched_items=touched_items,
            touched_regions=touched_regions,
            vocabulary_growth=growth,
        )
        return store, delta

    # Vocabulary merge + code-column extension, one attribute at a time.  The
    # candidate values feeding the merge are the delta rows *plus* every new
    # reviewer's value: a from-scratch build factorises over reviewers, so a
    # registered reviewer contributes vocabulary even before rating anything.
    attribute_codes: Dict[str, np.ndarray] = {}
    vocabularies: Dict[str, np.ndarray] = {}
    remaps: Dict[str, np.ndarray] = {}
    growth: Dict[str, int] = {}
    delta_code_columns: Dict[str, np.ndarray] = {}
    delta_raters = [reviewer_of(r.reviewer_id) for r in ratings]
    for name in snapshot.grouping_attributes:
        row_values = np.array(
            [rater.attribute(name) for rater in delta_raters], dtype=object
        )
        reviewer_values = np.array(
            [reviewer.attribute(name) for reviewer in reviewers], dtype=object
        )
        candidates = (
            np.concatenate([row_values, reviewer_values])
            if reviewer_values.shape[0]
            else row_values
        )
        old_vocabulary = snapshot.vocabulary_for(name)
        merged, remap, unseen = _merge_vocabulary(old_vocabulary, candidates)
        delta_codes = (
            np.searchsorted(merged, row_values).astype(np.int32)
            if row_values.shape[0]
            else np.array([], dtype=np.int32)
        )
        old_codes = snapshot.codes_for(name)
        if unseen and old_codes.shape[0]:
            rehomed = remap.astype(np.int32)[old_codes]
        else:
            rehomed = old_codes
        attribute_codes[name] = np.concatenate([rehomed, delta_codes])
        vocabularies[name] = merged
        remaps[name] = remap
        growth[name] = unseen
        delta_code_columns[name] = delta_codes

    # Per-item inverted index: append positions for touched items only.
    positions_by_item = dict(snapshot._positions_by_item)
    if delta_item_ids.shape[0]:
        order = np.argsort(delta_item_ids, kind="stable")
        sorted_items = delta_item_ids[order]
        unique_items, starts = np.unique(sorted_items, return_index=True)
        for item_id, segment in zip(
            unique_items.tolist(), np.split(order, starts[1:])
        ):
            appended = (segment + base_rows).astype(np.int64)
            existing = positions_by_item.get(int(item_id))
            positions_by_item[int(item_id)] = (
                appended if existing is None else np.concatenate([existing, appended])
            )

    # Delta-update every attribute index the old snapshot had built.
    indexes: Dict[str, AttributeIndex] = {}
    for name, index in snapshot.built_indexes().items():
        indexes[name] = index.updated(
            remaps[name],
            int(vocabularies[name].shape[0]),
            delta_code_columns[name].astype(np.int64),
            delta_scores,
        )

    store = RatingStore._from_parts(
        dataset=dataset,
        grouping_attributes=snapshot.grouping_attributes,
        positions_by_item=positions_by_item,
        attribute_codes=attribute_codes,
        vocabularies=vocabularies,
        epoch=snapshot.epoch + 1,
        indexes=indexes,
    )
    delta = CompactionDelta(
        num_rows=len(ratings),
        num_reviewers=len(reviewers),
        touched_items=touched_items,
        touched_regions=touched_regions,
        vocabulary_growth=growth,
    )
    return store, delta


class LiveStore:
    """Epoch manager over one appendable rating store.

    Readers call :attr:`snapshot` once per request and operate on an
    immutable store; the reference swap at the end of a compaction is a
    single atomic assignment, so no reader ever observes a half-built store
    and no request blocks on a write.  Writers append through the buffer
    without touching the snapshot.  Compactions are serialised by a lock but
    run outside the buffer lock, so ingestion continues (into the next
    epoch's buffer) while one is in flight.
    """

    def __init__(
        self,
        snapshot: RatingStore,
        auto_compact_threshold: int = 0,
        use_incremental: bool = True,
        journal=None,
    ) -> None:
        if auto_compact_threshold < 0:
            raise IngestError("auto_compact_threshold must be non-negative")
        self._snapshot = snapshot
        self.journal = journal
        self.buffer = AppendBuffer(
            snapshot, journal=journal.log_append if journal is not None else None
        )
        self.auto_compact_threshold = int(auto_compact_threshold)
        self.use_incremental = use_incremental
        self._compact_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.accepted_total = 0
        self.duplicates_total = 0
        self.compactions = 0
        self.last_compaction: Optional[dict] = None

    # -- read side -----------------------------------------------------------------

    @property
    def snapshot(self) -> RatingStore:
        """The current immutable snapshot (grab once per request)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """Epoch of the current snapshot."""
        return self._snapshot.epoch

    @property
    def pending(self) -> int:
        """Buffered rows plus reviewer registrations awaiting compaction."""
        return len(self.buffer) + self.buffer.pending_reviewers

    # -- write side ----------------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Wire a durability journal into the store and its buffer.

        Used by recovery, which replays logged ops through a journal-less
        store (replay must not re-log) and attaches the journal afterwards.
        """
        self.journal = journal
        self.buffer.set_journal(journal.log_append if journal is not None else None)

    def ingest(self, rating: Rating, reviewer: Optional[Reviewer] = None) -> str:
        """Buffer one rating; returns ``"accepted"`` or ``"duplicate"``."""
        try:
            outcome = self.buffer.append(rating, reviewer)
        finally:
            if self.journal is not None:
                self.journal.commit()
        with self._stats_lock:
            if outcome == ACCEPTED:
                self.accepted_total += 1
            else:
                self.duplicates_total += 1
        return outcome

    def ingest_batch(
        self, pairs: Sequence[Tuple[Rating, Optional[Reviewer]]]
    ) -> Dict[str, int]:
        """Buffer a batch; returns ``{"accepted": n, "duplicate": m}``.

        A failing entry aborts the batch (the error names its index) but the
        entries buffered before it are still counted — the ``store_stats``
        totals must never drift from the rows that actually reach snapshots.
        With a journal attached the batch is committed (one fsync under the
        ``"batch"`` policy) in every outcome, including the partial-failure
        path — the buffered prefix must be as durable as a full batch.
        """
        try:
            counts = self.buffer.extend(pairs)
        except IngestError as exc:
            partial = getattr(exc, "counts", None)
            if partial:
                with self._stats_lock:
                    self.accepted_total += partial.get(ACCEPTED, 0)
                    self.duplicates_total += partial.get(DUPLICATE, 0)
            raise
        finally:
            if self.journal is not None:
                self.journal.commit()
        with self._stats_lock:
            self.accepted_total += counts[ACCEPTED]
            self.duplicates_total += counts[DUPLICATE]
        return counts

    def should_auto_compact(self) -> bool:
        """True when the buffer has reached the auto-compaction threshold."""
        return 0 < self.auto_compact_threshold <= len(self.buffer)

    # -- compaction ----------------------------------------------------------------

    def compact(self) -> CompactionResult:
        """Merge the buffer into a new snapshot at the next epoch.

        An empty buffer is a no-op (same snapshot, same epoch) — readers of
        an unchanged store must keep their cache entries.  Otherwise the
        previous snapshot keeps serving until the very last step, when the
        reference is swapped atomically.
        """
        with self._compact_lock:
            previous = self._snapshot
            on_drain = (
                (lambda: self.journal.rotate(previous.epoch + 1))
                if self.journal is not None
                else None
            )
            ratings, reviewers = self.buffer.drain(on_drain)
            if not ratings and not reviewers:
                return CompactionResult(
                    store=previous,
                    delta=None,
                    previous_epoch=previous.epoch,
                    epoch=previous.epoch,
                    mode="noop",
                )
            started_at = time.perf_counter()
            store, delta = compact_snapshot(
                previous, ratings, reviewers, use_incremental=self.use_incremental
            )
            elapsed = time.perf_counter() - started_at
            self._snapshot = store  # atomic swap: readers see old xor new
            self.buffer.rebase(store)
            if self.journal is not None:
                # Snapshot-on-compact.  A failure here propagates (the caller
                # sees the compaction fail) but recovery stays correct: the
                # sealed log already covers every row of the new epoch.
                self.journal.on_compacted(store)
            result = CompactionResult(
                store=store,
                delta=delta,
                previous_epoch=previous.epoch,
                epoch=store.epoch,
                mode="incremental" if self.use_incremental else "rebuild",
                elapsed_seconds=elapsed,
            )
            with self._stats_lock:
                self.compactions += 1
                self.last_compaction = result.to_dict()
            return result

    # -- reporting -----------------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic counters for the ``store_stats`` endpoint."""
        snapshot = self._snapshot
        with self._stats_lock:
            return {
                "epoch": snapshot.epoch,
                "rows": len(snapshot),
                "reviewers": snapshot.dataset.num_reviewers,
                "items": snapshot.dataset.num_items,
                "buffered": len(self.buffer),
                "buffered_reviewers": self.buffer.pending_reviewers,
                "accepted_total": self.accepted_total,
                "duplicates_total": self.duplicates_total,
                "compactions": self.compactions,
                "auto_compact_threshold": self.auto_compact_threshold,
                "incremental": self.use_incremental,
                "last_compaction": self.last_compaction,
            }
