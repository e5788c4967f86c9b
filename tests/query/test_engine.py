"""Tests for the query engine over the item catalogue."""

import pytest

from repro.errors import QueryError
from repro.query.engine import ItemQuery, QueryEngine, TimeInterval
from repro.query.predicates import AttributePredicate


@pytest.fixture(scope="module")
def engine(tiny_dataset):
    return QueryEngine(tiny_dataset)


class TestTimeInterval:
    def test_year_interval_covers_the_whole_year(self):
        interval = TimeInterval.for_year(2001)
        assert interval.contains(interval.start)
        assert interval.contains(interval.end)
        assert interval.end - interval.start > 360 * 24 * 3600

    def test_multi_year_interval(self):
        interval = TimeInterval.for_years(2000, 2002)
        assert interval.start < TimeInterval.for_year(2001).start
        assert interval.end > TimeInterval.for_year(2001).end

    def test_reversed_interval_rejected(self):
        with pytest.raises(QueryError):
            TimeInterval(100, 50)


class TestMatching:
    def test_title_query_finds_the_movie(self, engine, tiny_dataset):
        items = engine.matching_items('title:"Toy Story"')
        assert [item.title for item in items] == ["Toy Story"]

    def test_substring_query_finds_the_trilogy(self, engine):
        items = engine.matching_items('"Lord of the Rings"')
        assert len(items) == 3

    def test_genre_query(self, engine):
        items = engine.matching_items("genre:Animation")
        assert items
        assert all("Animation" in item.genres for item in items)

    def test_director_and_genre_conjunction(self, engine):
        items = engine.matching_items('genre:Thriller AND director:"Steven Spielberg"')
        titles = {item.title for item in items}
        assert titles >= {"Jurassic Park", "Jaws", "Minority Report"}
        assert all("Thriller" in item.genres for item in items)

    def test_actor_disjunction(self, engine):
        items = engine.matching_items('actor:"Tom Hanks" OR director:"Woody Allen"')
        titles = {item.title for item in items}
        assert "Forrest Gump" in titles
        assert "Annie Hall" in titles

    def test_matching_item_ids_are_sorted(self, engine):
        ids = engine.matching_item_ids("genre:Drama")
        assert ids == sorted(ids)

    def test_no_match_returns_empty_list(self, engine):
        assert engine.matching_items('title:"Absolutely Nothing"') == []


class TestCompile:
    def test_compile_string_keeps_the_raw_text(self, engine):
        compiled = engine.compile('title:"Toy Story"')
        assert compiled.raw == 'title:"Toy Story"'
        assert compiled.time_interval is None

    def test_compile_attaches_the_time_interval(self, engine):
        interval = TimeInterval.for_year(2001)
        compiled = engine.compile('title:"Toy Story"', interval)
        assert compiled.time_interval == interval
        assert "@[" in compiled.describe()

    def test_compile_accepts_predicates_and_item_queries(self, engine):
        predicate = AttributePredicate("genre", "Drama")
        compiled = engine.compile(predicate)
        assert compiled.predicate is predicate
        recompiled = engine.compile(compiled)
        assert recompiled is compiled

    def test_compile_rejects_unsupported_objects(self, engine):
        with pytest.raises(QueryError):
            engine.compile(12345)


class TestCatalogueHelpers:
    def test_title_suggestions_are_prefix_matches(self, engine):
        suggestions = engine.suggest_titles("Toy")
        assert "Toy Story" in suggestions
        assert engine.suggest_titles("") == []

    def test_suggestion_limit(self, engine):
        assert len(engine.suggest_titles("S", limit=3)) <= 3

    def test_suggestions_match_a_catalogue_scan(self, engine, tiny_dataset):
        """The cached lowered-title index must agree with a full naive scan."""
        for prefix in ("t", "To", "toy story", "S", "zzz-nothing", "  Toy  "):
            wanted = prefix.strip().lower()
            expected = sorted(
                {
                    item.title
                    for item in tiny_dataset.items()
                    if item.title.lower().startswith(wanted)
                }
            )[:10] if wanted else []
            assert engine.suggest_titles(prefix) == expected

    def test_suggestion_index_is_cached(self, engine):
        engine.suggest_titles("Toy")
        first = engine._title_index
        engine.suggest_titles("S")
        assert engine._title_index is first

    def test_distinct_attribute_values(self, engine):
        genres = engine.distinct_attribute_values("genre")
        assert "Drama" in genres
        assert genres == sorted(genres)
        directors = engine.distinct_attribute_values("director", limit=5)
        assert len(directors) <= 5
