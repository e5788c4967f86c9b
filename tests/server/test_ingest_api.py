"""Serving-layer behaviour of the live-ingestion subsystem.

Covers the epoch wiring the tentpole demands: cache keys die with their
snapshot, untouched entries are carried forward without recomputation,
invalidated anchors are re-warmed against the new snapshot, and the
auto-compaction threshold drives the write path end to end.
"""

from __future__ import annotations

import json
from datetime import MAXYEAR, MINYEAR
from urllib.parse import urlencode

import pytest
from test_recovery import assert_stores_identical

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.data.ingest import TIMESTAMP_RANGE
from repro.data.model import Reviewer
from repro.errors import IngestError, ServerError
from repro.query.engine import TimeInterval
from repro.server.api import JsonApi, MapRat
from repro.server.http_common import HttpRequest, RequestRouter


@pytest.fixture()
def system(tiny_dataset, mining_config):
    return MapRat.for_dataset(tiny_dataset, PipelineConfig(mining=mining_config))


def ingest_probe_rating(system, item_id, timestamp):
    """One valid new rating for ``item_id`` by an existing reviewer."""
    reviewer = next(system.dataset.reviewers())
    return system.ingest(item_id, reviewer.reviewer_id, 5.0, timestamp=timestamp)


class TestEpochWiring:
    def test_compaction_bumps_epoch_and_row_count(self, system):
        assert system.epoch == 0
        rows = len(system.store)
        ingest_probe_rating(system, 1, timestamp=1)
        assert len(system.store) == rows  # readers still on the old snapshot
        payload = system.compact()
        assert payload["compacted"] is True
        assert payload["epoch"] == 1 == system.epoch
        assert len(system.store) == rows + 1

    def test_post_ingest_explain_reflects_newest_snapshot(self, system):
        before = system.explain_items([1])
        ingest_probe_rating(system, 1, timestamp=2)
        system.compact(rewarm=False)
        after = system.explain_items([1])
        assert after.query.num_ratings == before.query.num_ratings + 1
        # And the cached entry serves the *new* epoch from now on.
        again = system.explain_items([1])
        assert again.query.num_ratings == after.query.num_ratings

    def test_untouched_entries_are_carried_forward(self, system):
        untouched = system.explain_items([2])
        misses_before = system.cache.stats.misses
        ingest_probe_rating(system, 1, timestamp=3)  # touches item 1 only
        payload = system.compact(rewarm=False)
        assert payload["carried_entries"] >= 1
        served = system.explain_items([2])
        # A carried entry is a hit at the new epoch: no recomputation ran.
        assert system.cache.stats.misses == misses_before
        assert served.to_dict() == untouched.to_dict()
        # The carried value matches a from-scratch compute on the new store.
        fresh = system.explain_items([2], use_cache=False)
        assert served.query.num_ratings == fresh.query.num_ratings

    def test_touched_anchor_is_rewarmed(self, system):
        system.explain_items([1])
        ingest_probe_rating(system, 1, timestamp=4)
        payload = system.compact(rewarm=True)
        assert payload["invalidated_entries"] >= 1
        assert payload["rewarmed"] >= 1
        hits_before = system.cache.stats.hits
        served = system.explain_items([1])
        assert system.cache.stats.hits == hits_before + 1  # pre-warmed entry
        assert served.query.num_ratings == len(system.miner.slice_for_items([1]))

    def test_whole_store_geo_summary_invalidates_on_compact(self, system):
        before = system.geo_summary()
        ingest_probe_rating(system, 1, timestamp=5)
        system.compact(rewarm=False)
        after = system.geo_summary()
        assert after["num_ratings"] == before["num_ratings"] + 1

    def test_noop_compact_keeps_epoch_and_cache(self, system):
        system.explain_items([1])
        entries = len(system.cache)
        payload = system.compact()
        assert payload["compacted"] is False
        assert system.epoch == 0
        assert len(system.cache) == entries


class TestAutoCompaction:
    def test_threshold_triggers_compaction_during_ingest(self, tiny_dataset, mining_config):
        config = PipelineConfig(
            mining=mining_config, server=ServerConfig(auto_compact_threshold=2)
        )
        system = MapRat.for_dataset(tiny_dataset, config)
        reviewer = next(system.dataset.reviewers())
        first = system.ingest(1, reviewer.reviewer_id, 4.0, timestamp=10)
        assert first["auto_compacted"] is False and first["epoch"] == 0
        second = system.ingest(2, reviewer.reviewer_id, 4.0, timestamp=11)
        assert second["auto_compacted"] is True
        assert second["epoch"] == 1 == system.epoch
        assert second["buffered"] == 0

    def test_new_reviewer_ingests_answer_buffered_like_store_stats(
        self, tiny_dataset, mining_config
    ):
        # A registration is not a pending row: the threshold and "buffered"
        # count rows, before and after the ingest that compacts.
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(auto_compact_threshold=2, mining_workers=0),
        )
        with MapRat.for_dataset(tiny_dataset, config) as system:
            first = system.ingest(1, 77201, 4.0, timestamp=10, reviewer=NEW_REVIEWER)
            stats = system.store_stats()
            assert first["auto_compacted"] is False
            assert first["buffered"] == stats["buffered"] == 1
            assert stats["buffered_reviewers"] == 1
            second = system.ingest(2, 77202, 4.0, timestamp=11, reviewer=NEW_REVIEWER)
            assert second["auto_compacted"] is True
            assert second["buffered"] == system.store_stats()["buffered"] == 0

    def test_batch_size_limit_is_enforced(self, tiny_dataset, mining_config):
        config = PipelineConfig(
            mining=mining_config, server=ServerConfig(ingest_batch_size=2)
        )
        system = MapRat.for_dataset(tiny_dataset, config)
        reviewer = next(system.dataset.reviewers())
        entries = [
            {"item_id": 1, "reviewer_id": reviewer.reviewer_id, "score": 3, "timestamp": t}
            for t in range(3)
        ]
        with pytest.raises(IngestError, match="ingest_batch_size"):
            system.ingest_batch(entries)
        assert system.ingest_batch(entries[:2])["accepted"] == 2


class TestIngestEndpoints:
    @pytest.fixture()
    def api(self, system):
        return JsonApi(system)

    def test_ingest_endpoint_roundtrip(self, api):
        payload = api.dispatch(
            "ingest",
            {"item_id": "1", "reviewer_id": "1", "score": "5", "timestamp": "77"},
        )
        assert payload["status"] == "accepted"
        stats = api.dispatch("store_stats", {})
        assert stats["buffered"] == 1
        compacted = api.dispatch("compact", {})
        assert compacted["epoch"] == 1
        assert api.dispatch("store_stats", {})["buffered"] == 0

    def test_failed_batch_still_counts_its_buffered_prefix(self, api):
        entries = [
            {"item_id": 1, "reviewer_id": 1, "score": 3, "timestamp": 900},
            {"item_id": 1, "reviewer_id": 1, "score": 3, "timestamp": 901},
            {"item_id": 999999, "reviewer_id": 1, "score": 3},  # fails here
        ]
        import json as json_module

        with pytest.raises(ServerError, match="batch entry 2"):
            api.dispatch("ingest_batch", {"ratings": json_module.dumps(entries)})
        stats = api.dispatch("store_stats", {})
        # The valid prefix was buffered AND counted: totals never drift from
        # the rows that will reach the next snapshot.
        assert stats["buffered"] == 2
        assert stats["accepted_total"] == 2

    def test_nested_reviewer_record_registers_via_ingest(self, api):
        """The POST-body shape: a nested reviewer object on the ingest endpoint."""
        payload = api.dispatch(
            "ingest",
            {
                "item_id": 1,
                "reviewer_id": 88001,
                "score": 4,
                "reviewer": {
                    "gender": "F",
                    "age": 25,
                    "occupation": "artist",
                    "zipcode": "90210",
                },
            },
        )
        assert payload["status"] == "accepted"
        api.dispatch("compact", {})
        assert api.system.dataset.reviewer(88001).state == "CA"

    def test_new_reviewer_registration_resolves_location(self, api):
        api.dispatch(
            "ingest",
            {
                "item_id": "1",
                "reviewer_id": "77001",
                "score": "4",
                "gender": "F",
                "age": "25",
                "occupation": "artist",
                "zipcode": "94105",
            },
        )
        api.dispatch("compact", {})
        reviewer = api.system.dataset.reviewer(77001)
        assert reviewer.state == "CA"
        assert reviewer.city

    def test_buffered_counts_rows_like_store_stats(self, api):
        ingest = {"item_id": 1, "reviewer_id": 77002, "score": 4, **NEW_REVIEWER}
        payload = api.dispatch("ingest", ingest)
        stats = api.dispatch("store_stats", {})
        assert payload["buffered"] == stats["buffered"] == 1
        assert stats["buffered_reviewers"] == 1
        entry = {"item_id": 2, "reviewer_id": 77003, "score": 3, "reviewer": NEW_REVIEWER}
        batch = api.dispatch("ingest_batch", {"ratings": json.dumps([entry])})
        assert batch["buffered"] == api.dispatch("store_stats", {})["buffered"] == 2

    def test_validation_errors_are_400s(self, api):
        for params in (
            {"item_id": "1", "reviewer_id": "1"},  # missing score
            {"item_id": "x", "reviewer_id": "1", "score": "3"},
            {"item_id": "999999", "reviewer_id": "1", "score": "3"},
            {"item_id": "1", "reviewer_id": "555555", "score": "3"},
            {"item_id": "1", "reviewer_id": "1", "score": "11"},
        ):
            with pytest.raises(ServerError) as excinfo:
                api.dispatch("ingest", params)
            assert excinfo.value.status == 400

    def test_summary_reports_epoch_and_ingest_counters(self, api):
        api.dispatch("ingest", {"item_id": "1", "reviewer_id": "1", "score": "5"})
        info = api.dispatch("summary", {})
        assert info["serving"]["epoch"] == 0
        assert info["serving"]["ingest"]["buffered"] == 1
        api.dispatch("compact", {})
        info = api.dispatch("summary", {})
        assert info["serving"]["epoch"] == 1
        assert info["ratings"] == len(api.system.store)


# -- values no store column or calendar year can hold -----------------------------

NEW_REVIEWER = {"gender": "F", "age": 25, "occupation": "artist", "zipcode": "94105"}

#: Each entry overrides a valid rating by an existing reviewer.  Without the
#: range checks each was buffered and journaled; the first two timestamps,
#: both reviewer ids and the age-0 reviewer then failed every compaction and
#: recovery (``int64`` overflow, no age band), and the year-10000/year-0
#: timestamps every later timeline.
OUT_OF_RANGE = [
    {"timestamp": 10**30},
    {"timestamp": -(2**63) - 1},
    {"timestamp": 253402300800},
    {"timestamp": -62135596801},
    {"reviewer_id": 2**63, **NEW_REVIEWER},
    {"reviewer_id": -(2**63) - 1, **NEW_REVIEWER},
    {"reviewer_id": 88003, **NEW_REVIEWER, "age": 0},
]


def _send(router, endpoint, params, how):
    """One ingest request as a GET query string or a POST JSON body."""
    if how == "get":
        return router.handle(HttpRequest("GET", f"/api/{endpoint}?{urlencode(params)}"))
    body = json.dumps(params).encode("utf-8")
    headers = {"content-type": "application/json", "content-length": str(len(body))}
    return router.handle(HttpRequest("POST", f"/api/{endpoint}", headers, body))


def _bad_requests(router):
    """Send every out-of-range value through ``ingest`` and ``ingest_batch``."""
    statuses = []
    for override in OUT_OF_RANGE:
        params = {"item_id": 1, "reviewer_id": 1, "score": 4, **override}
        for how in ("get", "post"):
            statuses.append(_send(router, "ingest", params, how).status)
        entry = {key: params[key] for key in ("item_id", "reviewer_id", "score")}
        entry["timestamp"] = params.get("timestamp", 0)
        if "gender" in params:
            entry["reviewer"] = {key: params[key] for key in NEW_REVIEWER}
        batch = {"ratings": [{"item_id": 1, "reviewer_id": 1, "score": 3}, entry]}
        statuses.append(_send(router, "ingest_batch", batch, "post").status)
    return statuses


def _config(mining_config, data_dir=None):
    return PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            mining_workers=0,
            precompute_top_items=0,
            data_dir=None if data_dir is None else str(data_dir),
        ),
    )


class TestOutOfRangeIngest:
    def test_timestamp_range_is_the_supported_calendar(self):
        assert TIMESTAMP_RANGE == TimeInterval.for_years(MINYEAR, MAXYEAR).as_tuple()
        assert TIMESTAMP_RANGE == (-62135596800, 253402300799)

    def test_each_value_is_a_400_and_buffers_nothing(self, tiny_dataset, mining_config):
        with MapRat.for_dataset(tiny_dataset, _config(mining_config)) as system:
            router = RequestRouter(system, JsonApi(system), system.config.server)
            assert set(_bad_requests(router)) == {400}
            # A batch is parsed whole before any entry is buffered.
            stats = system.store_stats()
            assert stats["buffered"] == 0 and stats["accepted_total"] == 0
            good = {"item_id": 1, "reviewer_id": 1, "score": 5}
            assert _send(router, "ingest", good, "get").status == 200
            assert router.handle(HttpRequest("GET", "/api/compact")).status == 200
            assert system.epoch == 1

    def test_a_reviewer_object_gets_the_age_band_check(self, tiny_dataset, mining_config):
        with MapRat.for_dataset(tiny_dataset, _config(mining_config)) as system:
            ageless = Reviewer(990002, "F", 0, "artist", "94105")
            with pytest.raises(IngestError, match="age code must be positive"):
                system.ingest(1, 990002, 4.0, reviewer=ageless)
            textual = Reviewer(990002, "F", "25", "artist", "94105")
            with pytest.raises(IngestError, match="age must be a number"):
                system.ingest(1, 990002, 4.0, reviewer=textual)
            stats = system.store_stats()
            assert stats["buffered"] == stats["buffered_reviewers"] == 0
            assert stats["accepted_total"] == 0
            adult = Reviewer(990002, "F", 25, "artist", "94105")
            assert system.ingest(1, 990002, 4.0, reviewer=adult)["status"] == "accepted"
            assert system.compact()["compacted"]
            assert system.store_stats()["compactions"] == 1

    def test_a_data_directory_recovers_after_the_rejected_requests(
        self, tmp_path, tiny_dataset, mining_config
    ):
        config = _config(mining_config, tmp_path)
        with MapRat.for_dataset(tiny_dataset, config) as system:
            router = RequestRouter(system, JsonApi(system), config.server)
            _bad_requests(router)
            _send(router, "ingest", {"item_id": 1, "reviewer_id": 1, "score": 5}, "get")
            assert router.handle(HttpRequest("GET", "/api/compact")).status == 200
            _bad_requests(router)
            _send(router, "ingest", {"item_id": 2, "reviewer_id": 1, "score": 5}, "get")
        with MapRat.for_dataset(tiny_dataset, _config(mining_config)) as reference:
            reference.ingest(1, 1, 5.0)
            reference.compact()
            reference.ingest(2, 1, 5.0)
            with MapRat.for_dataset(tiny_dataset, config) as recovered:
                report = recovered.recovery_info()["recovery"]
                assert report["mode"] == "snapshot" and report["pending_rows"] == 1
                assert_stores_identical(recovered.store, reference.store)
                recovered.compact()
                reference.compact()
                assert_stores_identical(recovered.store, reference.store)

    def test_a_state_must_be_a_usps_code(self, tiny_dataset, mining_config):
        with MapRat.for_dataset(tiny_dataset, _config(mining_config)) as system:
            api = JsonApi(system)

            def regions():
                summary = api.dispatch("geo_summary", {})["regions"]
                return {region["region"]: region["size"] for region in summary}

            before = regions()
            for reviewer_id, state in ((88101, "ZZ"), (88102, "Texas")):
                registration = {**NEW_REVIEWER, "state": state}
                entry = {"item_id": 1, "reviewer_id": reviewer_id, "score": 4}
                batch = json.dumps([{**entry, "reviewer": registration}])
                for endpoint, params in (
                    ("ingest", {**entry, **registration}),
                    ("ingest_batch", {"ratings": batch}),
                ):
                    with pytest.raises(ServerError) as excinfo:
                        api.dispatch(endpoint, params)
                    assert excinfo.value.status == 400
                    assert "USPS" in str(excinfo.value)
                record = Reviewer(reviewer_id, "F", 25, "artist", "94105", state=state)
                with pytest.raises(IngestError, match="not a USPS state code"):
                    system.ingest(1, reviewer_id, 4.0, reviewer=record)
            stats = system.store_stats()
            assert stats["buffered"] == stats["buffered_reviewers"] == 0
            assert stats["accepted_total"] == 0

            lower_case = {**NEW_REVIEWER, "state": "ca"}
            api.dispatch("ingest", {"item_id": 1, "reviewer_id": 88103, "score": 4, **lower_case})
            record = Reviewer(88104, "F", 25, "artist", "94105", state="ca")
            system.ingest(1, 88104, 4.0, reviewer=record)
            system.compact()
            assert system.dataset.reviewer(88103).state == "CA"
            assert system.dataset.reviewer(88104).state == "CA"
            after = regions()
            assert set(after) == set(before)
            assert after["CA"] == before["CA"] + 2

    @pytest.mark.parametrize("timestamp", TIMESTAMP_RANGE)
    def test_boundary_timestamps_compact_and_keep_the_timeline(
        self, tiny_dataset, mining_config, timestamp
    ):
        with MapRat.for_dataset(tiny_dataset, _config(mining_config)) as system:
            router = RequestRouter(system, JsonApi(system), system.config.server)
            params = {"item_id": 1, "reviewer_id": 1, "score": 4, "timestamp": timestamp}
            assert _send(router, "ingest", params, "get").status == 200
            assert router.handle(HttpRequest("GET", "/api/compact")).status == 200
            title = system.dataset.item(1).title
            query = urlencode({"q": f'title:"{title}"'})
            timeline = router.handle(HttpRequest("GET", f"/api/timeline?{query}"))
            assert timeline.status == 200

    def test_non_finite_and_huge_numbers_are_400s(self, tiny_dataset, mining_config):
        with MapRat.for_dataset(tiny_dataset, _config(mining_config)) as system:
            router = RequestRouter(system, JsonApi(system), system.config.server)
            for override in (
                {"item_id": float("inf")},
                {"score": 10**400},
                {"timestamp": float("inf")},
                {"reviewer_id": 88002, **NEW_REVIEWER, "age": float("inf")},
            ):
                params = {"item_id": 1, "reviewer_id": 1, "score": 4, **override}
                assert _send(router, "ingest", params, "post").status == 400, override
                batch = {"ratings": [params]}
                assert _send(router, "ingest_batch", batch, "post").status == 400
            assert system.store_stats()["buffered"] == 0
