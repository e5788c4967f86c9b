"""Tests for the MapRat façade and the JSON endpoint handlers."""

import pytest

from repro.config import MiningConfig, PipelineConfig
from repro.errors import ExplorationError, QueryError, ServerError
from repro.query.engine import TimeInterval
from repro.server.api import JsonApi, MapRat

TOY_STORY = 'title:"Toy Story"'
SAVING_PRIVATE_RYAN = 'title:"Saving Private Ryan"'


def _stable(payload):
    """``payload`` without its wall-clock fields, at any depth."""
    if isinstance(payload, dict):
        return {k: _stable(v) for k, v in payload.items() if k != "elapsed_seconds"}
    return payload


class TestExplain:
    def test_explain_returns_both_interpretations(self, tiny_system):
        result = tiny_system.explain('title:"Toy Story"')
        assert result.similarity.groups
        assert result.diversity.groups

    def test_results_are_cached_per_query(self, fresh_system):
        first = fresh_system.explain('title:"Toy Story"')
        second = fresh_system.explain('title:"Toy Story"')
        assert second is first
        assert fresh_system.cache.stats.hits == 1

    def test_cache_distinguishes_different_queries(self, fresh_system):
        toy = fresh_system.explain('title:"Toy Story"')
        gump = fresh_system.explain('title:"Forrest Gump"')
        assert toy is not gump
        assert len(fresh_system.cache) == 2

    def test_cache_distinguishes_mining_configs(self, fresh_system):
        default = fresh_system.explain('title:"Toy Story"')
        smaller = fresh_system.explain(
            'title:"Toy Story"',
            config=MiningConfig(max_groups=2, min_group_support=3, min_coverage=0.1),
        )
        assert default is not smaller
        assert len(smaller.similarity.groups) <= 2

    def test_cache_can_be_bypassed(self, fresh_system):
        first = fresh_system.explain('title:"Toy Story"', use_cache=False)
        second = fresh_system.explain('title:"Toy Story"', use_cache=False)
        assert first is not second

    def test_unmatched_query_raises(self, tiny_system):
        with pytest.raises(QueryError):
            tiny_system.explain('title:"No Such Movie"')

    def test_time_interval_changes_the_result(self, fresh_system):
        full = fresh_system.explain('title:"Toy Story"')
        restricted = fresh_system.explain(
            'title:"Toy Story"', time_interval=TimeInterval.for_year(2001)
        )
        assert restricted.query.num_ratings < full.query.num_ratings

    def test_query_case_variants_share_one_cache_entry(self, fresh_system):
        upper = fresh_system.explain('title:"Toy Story"')
        lower = fresh_system.explain('title:"toy story"')
        # One mining, labelled for each request (see TestCachedDescriptions).
        assert lower.similarity is upper.similarity
        assert lower.diversity is upper.diversity
        assert lower.query.description == 'title:"toy story"'
        assert len(fresh_system.cache) == 1
        assert fresh_system.cache.stats.hits == 1

    def test_explain_items_shares_the_cache_with_equivalent_queries(self, fresh_system):
        items = fresh_system.dataset.items_by_title("Toy Story")
        precomputed = fresh_system.explain_items(
            [item.item_id for item in items], 'title:"Toy Story"'
        )
        queried = fresh_system.explain('title:"Toy Story"')
        assert queried is precomputed
        assert len(fresh_system.cache) == 1

    def test_duplicate_item_ids_do_not_poison_the_cache(self, fresh_system):
        items = fresh_system.dataset.items_by_title("Toy Story")
        item_id = items[0].item_id
        doubled = fresh_system.explain_items([item_id, item_id], 'title:"Toy Story"')
        clean = fresh_system.explain_items([item_id], 'title:"Toy Story"')
        assert clean is doubled  # one canonical entry ...
        slice_size = len(fresh_system.miner.slice_for_items([item_id]))
        assert doubled.query.num_ratings == slice_size  # ... mined on clean ids

    def test_warmed_items_serve_query_traffic(self, fresh_system):
        fresh_system.warm_up(limit=3)
        top = fresh_system.precomputer.top_items(limit=1)[0]
        items = fresh_system.dataset.items_by_title(top.title)
        if len(items) != 1:  # pragma: no cover - synthetic titles are unique
            pytest.skip("top title is ambiguous in this dataset")
        hits_before = fresh_system.cache.stats.hits
        fresh_system.explain(f'title:"{top.title}"')
        assert fresh_system.cache.stats.hits == hits_before + 1


class TestCachedDescriptions:
    """A cache key ignores the description; every read carries its own."""

    def test_rewarmed_entries_answer_like_a_fresh_mining(
        self, tiny_dataset, mining_config
    ):
        with MapRat.for_dataset(tiny_dataset, PipelineConfig(mining=mining_config)) as system:
            api = JsonApi(system)
            explain = {"q": SAVING_PRIVATE_RYAN}
            geo_explain = {"q": SAVING_PRIVATE_RYAN, "region": "CA"}
            api.dispatch("explain", explain)
            api.dispatch("geo_explain", geo_explain)
            (item,) = system.dataset.items_by_title("Saving Private Ryan")
            system.ingest(item.item_id, 1, 4.0, timestamp=1_000_000_000)
            # The re-warm mines both touched anchors with no description.
            assert system.compact()["rewarmed"] == 2
            hits = system.cache.stats.hits
            served = [
                api.dispatch("explain", explain),
                api.dispatch("geo_explain", geo_explain),
            ]
            assert system.cache.stats.hits == hits + 2
            assert served[0]["query"]["description"] == SAVING_PRIVATE_RYAN
            assert served[1]["description"] == SAVING_PRIVATE_RYAN
            fresh = [
                system.explain(SAVING_PRIVATE_RYAN, use_cache=False).to_dict(),
                system.geo_explain(SAVING_PRIVATE_RYAN, "CA", use_cache=False).to_dict(),
            ]
            assert [_stable(p) for p in served] == [_stable(p) for p in fresh]

    def test_each_read_of_a_shared_entry_carries_its_own_description(
        self, fresh_system
    ):
        ids = [item.item_id for item in fresh_system.dataset.items_by_title("Toy Story")]
        queried = fresh_system.explain(TOY_STORY)
        listed = fresh_system.explain_items(ids)
        assert listed.similarity is queried.similarity
        assert listed.query.description == f"{len(ids)} item(s)"
        assert fresh_system.explain(TOY_STORY).query.description == TOY_STORY

        year = TimeInterval.for_year(2001).as_tuple()
        listed_year = fresh_system.explain_items(ids, time_interval=year)
        (timeline_year,) = fresh_system.timeline(TOY_STORY, years=[2001], min_ratings=1)
        assert timeline_year.result.similarity is listed_year.similarity
        assert timeline_year.result.query.description == "year 2001"

        region = fresh_system.geo_explain(TOY_STORY, "CA")
        listed_region = fresh_system.geo_explain_items(ids, "ca")
        assert listed_region.similarity is region.similarity
        assert listed_region.description == "CA view"
        assert len(fresh_system.cache) == 3


class TestExploration:
    def test_search_returns_catalogue_items(self, tiny_system):
        items = tiny_system.search('genre:Thriller AND director:"Steven Spielberg"')
        assert {item.title for item in items} >= {"Jurassic Park", "Jaws"}

    def test_group_statistics_of_a_mined_group(self, tiny_system):
        result = tiny_system.explain('title:"Toy Story"')
        stats = tiny_system.group_statistics('title:"Toy Story"', "similarity", 0)
        assert stats.label == result.similarity.groups[0].label
        assert stats.size == result.similarity.groups[0].size

    def test_drill_down_of_a_mined_group(self, tiny_system):
        aggregates = tiny_system.drill_down('title:"Toy Story"', "similarity", 0)
        assert aggregates
        assert all(agg.statistics.size > 0 for agg in aggregates)

    def test_out_of_range_group_index_raises(self, tiny_system):
        with pytest.raises(ExplorationError):
            tiny_system.group_statistics('title:"Toy Story"', "similarity", 99)

    def test_unknown_task_raises_server_error(self, tiny_system):
        with pytest.raises(ServerError):
            tiny_system.group_statistics('title:"Toy Story"', "serendipity", 0)

    def test_timeline_and_group_trend(self, tiny_system):
        slices = tiny_system.timeline('title:"Toy Story"', min_ratings=10)
        assert slices
        trend = tiny_system.group_trend('title:"Toy Story"', {"gender": "M"})
        assert trend

    def test_session_shares_the_miner(self, tiny_system):
        session = tiny_system.session()
        assert session.miner is tiny_system.miner

    def test_suggest_titles(self, tiny_system):
        assert "Toy Story" in tiny_system.suggest_titles("Toy")


class TestRenderingAndWarmup:
    def test_explanation_html_contains_the_query(self, tiny_system):
        html = tiny_system.explanation_html('title:"Toy Story"')
        assert "Toy Story" in html and "<svg" in html

    def test_explanation_text(self, tiny_system):
        text = tiny_system.explanation_text('title:"Toy Story"')
        assert "Similarity Mining" in text

    def test_exploration_html(self, tiny_system):
        html = tiny_system.exploration_html('title:"Toy Story"', "similarity", 0)
        assert "Rating distribution" in html

    def test_warm_up_populates_the_cache(self, fresh_system):
        report = fresh_system.warm_up(limit=3)
        assert report["results_precomputed"] + report["failures"] == 3
        assert len(fresh_system.cache) >= report["results_precomputed"]

    def test_live_requests_during_background_warm_up_do_not_deadlock(
        self, tiny_dataset, mining_config
    ):
        import threading

        from repro.config import PipelineConfig, ServerConfig
        from repro.server.api import MapRat

        # A small pool makes worker starvation easy to hit: the warmer's
        # anchors and the live explains overlap on the same popular items.
        system = MapRat.for_dataset(
            tiny_dataset,
            PipelineConfig(mining=mining_config, server=ServerConfig(mining_workers=2)),
        )
        titles = [agg.title for agg in system.precomputer.top_items(limit=4)]
        system.start_warmer(limit=4)
        threads = [
            threading.Thread(
                target=lambda t=t: system.explain(f'title:"{t}"'), daemon=True
            )
            for t in titles * 2
        ]
        for thread in threads:
            thread.start()
        deadline = 60.0
        for thread in threads:
            thread.join(deadline)
        assert not any(thread.is_alive() for thread in threads), "serving deadlocked"
        assert system.warmer.wait(timeout=60) is not None
        system.close()

    def test_close_shuts_down_the_pools_idempotently(self, tiny_dataset, mining_config):
        from repro.config import PipelineConfig
        from repro.server.api import MapRat

        with MapRat.for_dataset(
            tiny_dataset, PipelineConfig(mining=mining_config)
        ) as system:
            system.explain('title:"Toy Story"')
        system.close()  # idempotent

    def test_background_warmer_fills_the_cache_while_serving(self, fresh_system):
        warmer = fresh_system.start_warmer(limit=3)
        assert fresh_system.warmer is warmer
        report = warmer.wait(timeout=60)
        assert report is not None
        assert report.results_precomputed + report.failures == 3
        assert len(fresh_system.cache) >= report.results_precomputed
        assert fresh_system.summary()["serving"]["warmer"]["done"] is True

    def test_summary_reports_dataset_cache_and_serving(self, tiny_system):
        summary = tiny_system.summary()
        assert summary["ratings"] > 0
        assert "cache" in summary
        serving = summary["serving"]
        assert serving["pool"]["workers"] == tiny_system.config.server.mining_workers


class TestJsonApi:
    @pytest.fixture(scope="class")
    def api(self, tiny_system):
        return JsonApi(tiny_system)

    def test_summary_endpoint(self, api):
        payload = api.dispatch("summary", {})
        assert payload["ratings"] > 0

    def test_suggest_endpoint(self, api):
        payload = api.dispatch("suggest", {"prefix": "Toy"})
        assert "Toy Story" in payload["titles"]

    def test_explain_endpoint(self, api):
        payload = api.dispatch("explain", {"q": 'title:"Toy Story"'})
        assert payload["query"]["item_titles"] == ["Toy Story"]
        assert payload["similarity"]["groups"]

    def test_explain_endpoint_with_year_restriction(self, api):
        payload = api.dispatch(
            "explain", {"q": 'title:"Toy Story"', "start_year": "2001", "end_year": "2001"}
        )
        assert payload["query"]["time_interval"] is not None

    def test_statistics_and_drilldown_endpoints(self, api):
        stats = api.dispatch("statistics", {"q": 'title:"Toy Story"', "group": "0"})
        assert stats["size"] > 0
        drill = api.dispatch("drilldown", {"q": 'title:"Toy Story"', "group": "0"})
        assert drill["aggregates"]

    def test_timeline_endpoint(self, api):
        payload = api.dispatch("timeline", {"q": 'title:"Toy Story"', "min_ratings": "10"})
        assert payload["slices"]

    def test_missing_parameter_is_a_400(self, api):
        with pytest.raises(ServerError) as excinfo:
            api.dispatch("explain", {})
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_a_404(self, api):
        with pytest.raises(ServerError) as excinfo:
            api.dispatch("nonsense", {})
        assert excinfo.value.status == 404

    def test_bad_query_is_wrapped_into_a_400(self, api):
        with pytest.raises(ServerError) as excinfo:
            api.dispatch("explain", {"q": 'title:"No Such Movie"'})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "endpoint,params",
        [
            ("explain", {"q": "Toy", "start_year": "not-a-year"}),
            ("suggest", {"prefix": "T", "limit": "-1"}),
            ("suggest", {"prefix": "T", "limit": "0"}),
            ("warmup", {"limit": "-1"}),
            ("warmup", {"limit": "0", "regions": "-1"}),
        ],
    )
    def test_bad_integer_parameter_is_a_400(self, api, endpoint, params):
        with pytest.raises(ServerError) as excinfo:
            api.dispatch(endpoint, params)
        assert excinfo.value.status == 400

    def test_count_parameters_accept_their_minimum(self, api):
        assert len(api.dispatch("suggest", {"prefix": "T", "limit": "1"})["titles"]) == 1
        assert api.dispatch("warmup", {"limit": "0", "regions": "0"})["results_precomputed"] == 0
