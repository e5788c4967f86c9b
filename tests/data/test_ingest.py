"""Unit tests of the append buffer, compaction and vocabulary growth.

The differential battery (tests/property/test_property_ingest.py) proves
incremental == rebuild globally; these tests pin the local contracts —
validation errors, duplicate absorption, the vocabulary-growth bug class
(attribute values unseen at snapshot build), and the maintained attribute
index — with explicit expectations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.ingest import (
    TIMESTAMP_RANGE,
    AppendBuffer,
    LiveStore,
    checked_rating,
    checked_reviewer,
    compact_snapshot,
    rating_from_dict,
    reviewer_from_dict,
)
from repro.data.model import Rating, Reviewer
from repro.data.storage import RatingStore
from repro.errors import IngestError


@pytest.fixture()
def store(tiny_dataset):
    return RatingStore(tiny_dataset)


def new_reviewer(reviewer_id=500_000, zipcode="94105") -> Reviewer:
    return Reviewer(
        reviewer_id=reviewer_id,
        gender="F",
        age=25,
        occupation="artist",
        zipcode=zipcode,
    )


class TestAppendBufferValidation:
    def test_unknown_item_is_rejected(self, store):
        buffer = AppendBuffer(store)
        with pytest.raises(IngestError, match="unknown item"):
            buffer.append(Rating(10**9, 1, 3.0, 0))

    def test_unknown_reviewer_without_record_is_rejected(self, store):
        buffer = AppendBuffer(store)
        with pytest.raises(IngestError, match="unknown reviewer"):
            buffer.append(Rating(1, 10**9, 3.0, 0))

    def test_reviewer_record_id_must_match_rating(self, store):
        buffer = AppendBuffer(store)
        with pytest.raises(IngestError, match="does not match"):
            buffer.append(Rating(1, 500_000, 3.0, 0), new_reviewer(500_001))

    def test_existing_reviewer_cannot_be_reregistered(self, store):
        buffer = AppendBuffer(store)
        with pytest.raises(IngestError, match="already exists"):
            buffer.append(Rating(1, 1, 3.0, 0), new_reviewer(1))

    def test_score_outside_scale_is_rejected(self, store):
        buffer = AppendBuffer(store)
        with pytest.raises(IngestError, match="scale"):
            buffer.append(Rating(1, 1, 9.0, 0))

    def test_new_reviewer_location_is_resolved_from_zipcode(self, store):
        buffer = AppendBuffer(store)
        buffer.append(Rating(1, 500_000, 3.0, 0), new_reviewer(zipcode="94105"))
        _, reviewers = buffer.drain()
        assert reviewers[0].state == "CA"
        assert reviewers[0].city != ""

    def test_batch_error_names_the_offending_index(self, store):
        buffer = AppendBuffer(store)
        pairs = [
            (Rating(1, 1, 3.0, 0), None),
            (Rating(10**9, 1, 3.0, 1), None),
        ]
        with pytest.raises(IngestError, match="batch entry 1"):
            buffer.extend(pairs)
        assert len(buffer) == 1  # best-effort: the valid prefix stays buffered

    def test_duplicates_are_absorbed_across_drains(self, store):
        buffer = AppendBuffer(store)
        rating = Rating(1, 1, 5.0, 123)
        assert buffer.append(rating) == "accepted"
        assert buffer.append(rating) == "duplicate"
        buffer.drain()
        assert buffer.append(rating) == "duplicate"  # drained rows stay seen


class TestPayloadParsing:
    def test_rating_from_dict_requires_core_fields(self):
        with pytest.raises(IngestError, match="'score'"):
            rating_from_dict({"item_id": 1, "reviewer_id": 2})
        with pytest.raises(IngestError, match="timestamp"):
            rating_from_dict(
                {"item_id": 1, "reviewer_id": 2, "score": 3, "timestamp": "later"}
            )
        rating = rating_from_dict({"item_id": "1", "reviewer_id": "2", "score": "4.5"})
        assert (rating.item_id, rating.reviewer_id, rating.score) == (1, 2, 4.5)

    def test_reviewer_from_dict_requires_demographics(self):
        with pytest.raises(IngestError, match="'zipcode'"):
            reviewer_from_dict(
                {"gender": "F", "age": 25, "occupation": "artist"}, reviewer_id=9
            )
        reviewer = reviewer_from_dict(
            {"gender": "F", "age": "25", "occupation": "artist", "zipcode": "94105"},
            reviewer_id=9,
        )
        assert reviewer.reviewer_id == 9

    def test_a_reviewer_state_is_a_trimmed_usps_code(self):
        payload = {"gender": "F", "age": 25, "occupation": "artist", "zipcode": "94105"}
        assert reviewer_from_dict({**payload, "state": " tx "}, reviewer_id=9).state == "TX"
        # Blank (or all-space) states are left for the zip code to resolve.
        assert reviewer_from_dict({**payload, "state": "  "}, reviewer_id=9).state == ""
        assert reviewer_from_dict(payload, reviewer_id=9).state == ""
        with pytest.raises(IngestError, match="USPS"):
            reviewer_from_dict({**payload, "state": "Texas"}, reviewer_id=9)
        valid = Reviewer(9, "F", 25, "artist", "94105", state="TX")
        assert checked_reviewer(valid) is valid


INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
FIRST_SECOND, LAST_SECOND = TIMESTAMP_RANGE


class TestRangeCheck:
    """``checked_rating`` at each edge of the int64 and calendar ranges."""

    @pytest.mark.parametrize("reviewer_id,timestamp", [
        (INT64_MIN, 0),
        (INT64_MAX, 0),
        (1, FIRST_SECOND),
        (1, LAST_SECOND),
    ])
    def test_values_on_the_edges_are_accepted(self, reviewer_id, timestamp):
        rating = Rating(1, reviewer_id, 4.0, timestamp)
        assert checked_rating(rating) is rating

    @pytest.mark.parametrize("reviewer_id,timestamp,field", [
        (INT64_MIN - 1, 0, "reviewer_id"),
        (INT64_MAX + 1, 0, "reviewer_id"),
        (1, FIRST_SECOND - 1, "timestamp"),
        (1, LAST_SECOND + 1, "timestamp"),
        (1, INT64_MIN - 1, "timestamp"),
        (1, 10**30, "timestamp"),
    ])
    def test_one_past_an_edge_is_an_ingest_error(self, reviewer_id, timestamp, field):
        with pytest.raises(IngestError, match=field):
            checked_rating(Rating(1, reviewer_id, 4.0, timestamp))

    @pytest.mark.parametrize("field,value", [
        ("reviewer_id", str(INT64_MAX + 1)),
        ("timestamp", str(LAST_SECOND + 1)),
    ])
    def test_rating_from_dict_applies_the_check(self, field, value):
        payload = {"item_id": 1, "reviewer_id": 2, "score": 4, field: value}
        with pytest.raises(IngestError, match=field):
            rating_from_dict(payload)

    def test_rating_from_dict_keeps_values_on_the_edges(self):
        rating = rating_from_dict(
            {"item_id": 1, "reviewer_id": INT64_MAX, "score": 4, "timestamp": FIRST_SECOND}
        )
        assert (rating.reviewer_id, rating.timestamp) == (INT64_MAX, FIRST_SECOND)


class TestVocabularyGrowth:
    """The latent bug class: values unseen at snapshot build must work end to end."""

    def test_new_zipcode_grows_vocabulary_and_remaps_codes(self, store):
        zipcode = "94105"
        assert zipcode not in set(store.vocabulary_for("zipcode").tolist())
        live = LiveStore(store)
        live.ingest(Rating(1, 500_000, 4.0, 7), new_reviewer(zipcode=zipcode))
        snapshot = live.compact().store
        vocabulary = snapshot.vocabulary_for("zipcode")
        assert zipcode in set(vocabulary.tolist())
        assert list(vocabulary.tolist()) == sorted(vocabulary.tolist())
        # The new value is maskable and the old rows still decode correctly.
        rating_slice = snapshot.slice_all()
        mask = rating_slice.mask_for("zipcode", zipcode)
        assert int(mask.sum()) == 1
        assert np.array_equal(
            snapshot.codes_for("gender")[: len(store)] >= 0,
            np.ones(len(store), dtype=bool),
        )
        # Untouched rows kept their decoded values despite the remap.
        old_decoded = store.slice_all().attribute_values("zipcode")[:50]
        new_decoded = rating_slice.attribute_values("zipcode")[:50]
        assert np.array_equal(old_decoded, new_decoded)

    def test_reviewer_without_stored_rating_still_grows_vocabulary(self, store):
        """A registered reviewer whose only rating was a duplicate must still
        contribute vocabulary — exactly as a from-scratch rebuild would."""
        ratings = list(store.dataset.ratings())
        duplicate = ratings[0]
        live_inc = LiveStore(store, use_incremental=True)
        live_ref = LiveStore(store, use_incremental=False)
        for live in (live_inc, live_ref):
            reviewer = new_reviewer(600_000, zipcode="99501")
            assert (
                live.ingest(Rating(duplicate.item_id, 600_000, 2.0, 11), reviewer)
                == "accepted"
            )
            assert live.ingest(duplicate) == "duplicate"
            live.compact()
        for name in store.grouping_attributes:
            assert np.array_equal(
                live_inc.snapshot.vocabulary_for(name),
                live_ref.snapshot.vocabulary_for(name),
            ), name

    def test_empty_buffer_compaction_returns_same_snapshot(self, store):
        live = LiveStore(store)
        result = live.compact()
        assert result.mode == "noop"
        assert result.store is store
        assert live.epoch == store.epoch == 0


class TestAttributeIndex:
    def test_positions_match_code_column(self, store):
        index = store.attribute_index("state")
        codes = store.codes_for("state")
        vocabulary = store.vocabulary_for("state")
        for code in range(min(5, vocabulary.shape[0])):
            assert np.array_equal(
                index.positions_for(code), np.flatnonzero(codes == code)
            )

    def test_aggregates_match_bincounts(self, store):
        index = store.attribute_index("state")
        codes = store.codes_for("state")
        scores = store.slice_all().scores
        n = store.vocabulary_for("state").shape[0]
        assert np.array_equal(index.counts, np.bincount(codes, minlength=n))
        assert np.array_equal(
            index.sums, np.bincount(codes, weights=scores, minlength=n)
        )

    def test_delta_update_spanning_byte_boundary(self, tiny_dataset):
        """Appends that straddle the packed-bitset byte boundary stay exact."""
        store = RatingStore(tiny_dataset)
        store.attribute_index("state")
        live = LiveStore(store)
        reviewer = next(tiny_dataset.reviewers())
        # Append 13 rows (not a multiple of 8) in two compactions.
        for step in range(13):
            live.ingest(Rating(1, reviewer.reviewer_id, 3.0, 10_000 + step))
            if step == 4:
                live.compact()
        snapshot = live.compact().store
        updated = snapshot.built_indexes()["state"]
        rebuilt = RatingStore(
            snapshot.dataset, grouping_attributes=snapshot.grouping_attributes
        ).attribute_index("state")
        for field in ("counts", "sums", "positives", "negatives", "joint", "bits"):
            assert np.array_equal(getattr(updated, field), getattr(rebuilt, field)), field

    def test_unknown_attribute_raises(self, store):
        from repro.errors import DataError

        with pytest.raises(DataError):
            store.attribute_index("shoe_size")
