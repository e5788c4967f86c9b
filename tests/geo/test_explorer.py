"""Tests for the geo-anchored exploration and mining layer (GeoExplorer)."""

import numpy as np
import pytest

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.explanation import stable_payload as stable
from repro.errors import EmptyRatingSetError, GeoError
from repro.geo.explorer import GeoExplorer, canonical_region, region_mining_config
from repro.geo.states import ALL_STATE_CODES
from repro.server.api import MapRat
from repro.server.pool import MiningWorkerPool


@pytest.fixture(scope="module")
def explorer(tiny_miner):
    return GeoExplorer(tiny_miner)


@pytest.fixture(scope="module")
def toy_story_ids(tiny_dataset):
    return [item.item_id for item in tiny_dataset.items_by_title("Toy Story")]


class TestRegionCanonicalisation:
    def test_lowercase_and_whitespace_are_normalised(self):
        assert canonical_region(" ca ") == "CA"

    def test_unknown_state_raises(self):
        with pytest.raises(GeoError):
            canonical_region("ZZ")

    def test_empty_region_raises(self):
        with pytest.raises(GeoError):
            canonical_region("  ")


class TestRegionMiningConfig:
    def test_state_is_replaced_by_city_and_anchor_repointed(self):
        config = MiningConfig()
        adapted = region_mining_config(config)
        assert "state" not in adapted.grouping_attributes
        assert "city" in adapted.grouping_attributes
        assert adapted.geo_anchor_attribute == "city"
        assert adapted.require_geo_anchor == config.require_geo_anchor

    def test_city_is_appended_when_no_geo_attribute_present(self):
        config = MiningConfig(
            require_geo_anchor=False,
            grouping_attributes=("gender", "age_group"),
        )
        adapted = region_mining_config(config)
        assert adapted.grouping_attributes == ("gender", "age_group", "city")


class TestSummary:
    def test_state_sizes_sum_to_the_whole_store(self, explorer, tiny_store):
        aggregates = explorer.summary()
        assert sum(agg.size for agg in aggregates) == len(tiny_store)

    def test_regions_are_valid_states_ordered_by_size(self, explorer):
        aggregates = explorer.summary()
        assert all(agg.region in ALL_STATE_CODES for agg in aggregates)
        sizes = [agg.size for agg in aggregates]
        assert sizes == sorted(sizes, reverse=True)

    def test_lifts_reconstruct_the_overall_average(self, explorer, tiny_store):
        aggregates = explorer.summary()
        overall = tiny_store.slice_all().average()
        weighted = sum(agg.size * agg.average for agg in aggregates)
        assert weighted / len(tiny_store) == pytest.approx(overall, abs=1e-3)

    def test_histograms_count_every_rating(self, explorer):
        for agg in explorer.summary():
            assert sum(agg.histogram.values()) == agg.size

    def test_min_size_filters_small_regions(self, explorer):
        unfiltered = explorer.summary()
        threshold = unfiltered[len(unfiltered) // 2].size + 1
        filtered = explorer.summary(min_size=threshold)
        assert filtered
        assert all(agg.size >= threshold for agg in filtered)
        assert len(filtered) < len(unfiltered)

    def test_item_selection_restricts_the_slice(self, explorer, toy_story_ids):
        aggregates = explorer.summary(item_ids=toy_story_ids)
        assert sum(agg.size for agg in aggregates) <= sum(
            agg.size for agg in explorer.summary()
        )


class TestDrilldown:
    def test_country_drill_equals_summary(self, explorer):
        assert explorer.drilldown() == explorer.summary()
        assert explorer.drilldown(region="USA") == explorer.summary()

    def test_city_sizes_roll_up_to_the_state(self, explorer):
        state = explorer.summary()[0]
        cities = explorer.drilldown(region=state.region)
        assert cities
        assert sum(agg.size for agg in cities) == state.size

    def test_zipcode_sizes_roll_up_to_the_state(self, explorer):
        state = explorer.summary()[0]
        zips = explorer.drilldown(region=state.region, by="zipcode")
        assert zips
        assert sum(agg.size for agg in zips) == state.size
        assert all(agg.region.isdigit() for agg in zips)

    def test_unknown_region_raises(self, explorer):
        with pytest.raises(GeoError):
            explorer.drilldown(region="ZZ")

    def test_unsupported_drill_attribute_raises(self, explorer):
        with pytest.raises(GeoError):
            explorer.drilldown(region="CA", by="county")

    def test_region_without_ratings_is_empty(self, explorer):
        rated = {agg.region for agg in explorer.summary()}
        unrated = next(code for code in ALL_STATE_CODES if code not in rated)
        assert explorer.drilldown(region=unrated) == []

    def test_lowercase_region_drills_the_same_state(self, explorer):
        state = explorer.summary()[0]
        assert explorer.drilldown(region=state.region.lower()) == explorer.drilldown(
            region=state.region
        )


def assert_region_slices_equal_the_state_mask(explorer, store):
    """Every state's bitset-gathered slice is the masked whole-store slice."""
    whole = store.slice_all()
    states = [code for code in store.vocabulary_for("state").tolist() if code]
    assert states
    for code in states:
        gathered = explorer._region_slice(code, None, None)
        expected = whole.restrict(whole.mask_for("state", code))
        assert gathered is not None and len(gathered) == len(expected) > 0, code
        for name in ("item_ids", "reviewer_ids", "scores", "timestamps"):
            np.testing.assert_array_equal(
                getattr(gathered, name), getattr(expected, name), err_msg=code
            )
        assert gathered.code_columns.keys() == expected.code_columns.keys()
        for name, codes in expected.code_columns.items():
            np.testing.assert_array_equal(gathered.code_columns[name], codes)
            np.testing.assert_array_equal(
                gathered.vocabulary(name), expected.vocabulary(name)
            )
    return states


class TestWholeStoreRegionSlice:
    """``_region_slice`` without a selection gathers rows from the state bitset."""

    def test_every_state_at_epoch_zero(self, explorer, tiny_store):
        assert_region_slices_equal_the_state_mask(explorer, tiny_store)

    def test_every_state_after_a_compaction_adds_a_state(
        self, tiny_dataset, mining_config
    ):
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(mining_workers=0, precompute_top_items=0),
        )
        with MapRat.for_dataset(tiny_dataset, config) as system:
            before = assert_region_slices_equal_the_state_mask(system.geo, system.store)
            assert "AK" not in before
            system.ingest(
                1, 950001, 4.0, timestamp=1000000000,
                reviewer={"gender": "F", "age": 25, "occupation": "artist",
                          "zipcode": "99501"},
            )
            system.compact()
            after = assert_region_slices_equal_the_state_mask(system.geo, system.store)
            assert set(after) == set(before) | {"AK"}
            assert len(system.geo._region_slice("AK", None, None)) == 1

    def test_unknown_state_is_none(self, explorer, tiny_store):
        absent = next(
            code for code in ALL_STATE_CODES
            if code not in tiny_store.vocabulary_for("state").tolist()
        )
        assert explorer._region_slice(absent, None, None) is None


class TestGeoMining:
    def test_groups_are_anchored_on_cities_within_the_region(
        self, explorer, toy_story_ids, mining_config
    ):
        result = explorer.explain_region(toy_story_ids, "CA", config=mining_config)
        assert result.region == "CA"
        for group in result.similarity.groups + result.diversity.groups:
            assert "city" in dict(group.pairs)
            assert "state" not in dict(group.pairs)

    def test_region_stats_measure_the_region_against_the_selection(
        self, explorer, toy_story_ids, mining_config
    ):
        result = explorer.explain_region(toy_story_ids, "CA", config=mining_config)
        assert result.region_stats.lift == pytest.approx(
            result.region_stats.average - result.baseline_average, abs=1e-3
        )

    def test_empty_region_raises(self, explorer, toy_story_ids, mining_config):
        rated = {agg.region for agg in explorer.summary(item_ids=toy_story_ids)}
        unrated = next(code for code in ALL_STATE_CODES if code not in rated)
        with pytest.raises(EmptyRatingSetError):
            explorer.explain_region(toy_story_ids, unrated, config=mining_config)

    def test_mining_is_deterministic(self, explorer, toy_story_ids, mining_config):
        first = explorer.explain_region(toy_story_ids, "CA", config=mining_config)
        second = explorer.explain_region(toy_story_ids, "CA", config=mining_config)
        assert stable(first.similarity.to_dict()) == stable(second.similarity.to_dict())
        assert stable(first.diversity.to_dict()) == stable(second.diversity.to_dict())


class TestParallelEquivalence:
    """Geo-anchored mining must be bit-identical between workers=1 and workers>1."""

    def test_explain_region_parallel_matches_serial(
        self, explorer, toy_story_ids, mining_config
    ):
        serial = explorer.explain_region(toy_story_ids, "CA", config=mining_config)
        with MiningWorkerPool(4) as pool:
            parallel = explorer.explain_region(
                toy_story_ids, "CA", config=mining_config, pool=pool
            )
        assert stable(parallel.similarity.to_dict()) == stable(serial.similarity.to_dict())
        assert stable(parallel.diversity.to_dict()) == stable(serial.diversity.to_dict())
        assert parallel.region_stats == serial.region_stats

    def test_top_region_fanout_parallel_matches_serial(
        self, explorer, mining_config
    ):
        serial = explorer.explain_top_regions(limit=3, config=mining_config)
        with MiningWorkerPool(4) as pool:
            parallel = explorer.explain_top_regions(
                limit=3, config=mining_config, pool=pool
            )
        assert [r.region for r in serial] == [r.region for r in parallel]
        for before, after in zip(serial, parallel):
            assert stable(before.similarity.to_dict()) == stable(after.similarity.to_dict())
            assert stable(before.diversity.to_dict()) == stable(after.diversity.to_dict())

    def test_maprat_geo_explain_identical_across_worker_counts(
        self, tiny_dataset, mining_config
    ):
        results = []
        for workers in (1, 4):
            config = PipelineConfig(
                mining=mining_config,
                server=ServerConfig(mining_workers=workers),
            )
            with MapRat.for_dataset(tiny_dataset, config) as system:
                result = system.geo_explain('title:"Toy Story"', "CA")
                results.append(
                    {
                        "similarity": stable(result.similarity.to_dict()),
                        "diversity": stable(result.diversity.to_dict()),
                        "region_stats": result.region_stats.to_dict(),
                    }
                )
        assert results[0] == results[1]


class TestServingIntegration:
    def test_geo_explain_is_cached_and_region_case_insensitive(
        self, tiny_dataset, mining_config
    ):
        config = PipelineConfig(mining=mining_config)
        with MapRat.for_dataset(tiny_dataset, config) as system:
            misses_before = system.cache.stats.misses
            first = system.geo_explain('title:"Toy Story"', "CA")
            second = system.geo_explain('title:"toy story"', "ca")
            assert system.cache.stats.misses == misses_before + 1
            # One mining, labelled for each request's own query spelling.
            assert second.similarity is first.similarity
            assert second.diversity is first.diversity
            assert second.description == 'title:"toy story"'

    def test_region_warmup_serves_geo_traffic_from_cache(
        self, tiny_dataset, mining_config
    ):
        config = PipelineConfig(mining=mining_config)
        with MapRat.for_dataset(tiny_dataset, config) as system:
            report = system.warm_up(limit=0, regions=2)
            assert report["regions_precomputed"] == 2
            anchors = system.precomputer.top_region_anchors(2)
            misses_before = system.cache.stats.misses
            for region, item_id, _title in anchors:
                system.geo_explain_items([item_id], region)
            assert system.cache.stats.misses == misses_before

    def test_geo_drilldown_usa_is_labelled_and_cached_as_the_country(
        self, tiny_dataset, mining_config
    ):
        config = PipelineConfig(mining=mining_config)
        with MapRat.for_dataset(tiny_dataset, config) as system:
            country = system.geo_drilldown()
            usa = system.geo_drilldown(region="USA", by="zipcode")
            # region="USA" is the country view whatever `by` says: the payload
            # must be labelled state-level and share the country cache entry.
            assert usa is country
            assert usa["region"] == "USA"
            assert usa["by"] == "state"
            assert all(row["level"] == "state" for row in usa["regions"])

    def test_invalid_drill_attribute_rejected_even_when_country_is_cached(
        self, tiny_dataset, mining_config
    ):
        config = PipelineConfig(mining=mining_config)
        with MapRat.for_dataset(tiny_dataset, config) as system:
            system.geo_drilldown()  # populate the country cache entry
            # Validation must run before the cache lookup: a warm country
            # entry must not turn an invalid ``by`` into a success.
            with pytest.raises(GeoError):
                system.geo_drilldown(by="county")

    def test_geo_summary_payload_is_cached(self, tiny_dataset, mining_config):
        config = PipelineConfig(mining=mining_config)
        with MapRat.for_dataset(tiny_dataset, config) as system:
            first = system.geo_summary()
            second = system.geo_summary()
            assert first is second
            assert first["num_ratings"] == sum(
                region["size"] for region in first["regions"]
            )
