"""Tests for the MovieLens-1M .dat reader/writer."""

from pathlib import Path

import numpy as np
import pytest

from repro.data.movielens import (
    load_movielens_directory,
    load_movies_file,
    load_ratings_file,
    load_users_file,
    parse_title,
    write_movielens_directory,
)
from repro.data.synthetic import SyntheticConfig, SyntheticMovieLens
from repro.errors import DatasetFormatError


@pytest.fixture(scope="module")
def movielens_dir(tmp_path_factory):
    """A MovieLens-format directory written from a small synthetic dataset."""
    dataset = SyntheticMovieLens(
        SyntheticConfig(num_reviewers=40, num_movies=25, ratings_per_reviewer=10, seed=3)
    ).generate(name="roundtrip")
    directory = tmp_path_factory.mktemp("ml")
    write_movielens_directory(dataset, directory)
    return dataset, directory


class TestTitleParsing:
    def test_title_with_year(self):
        assert parse_title("Toy Story (1995)") == ("Toy Story", 1995)

    def test_title_without_year(self):
        assert parse_title("Untitled Project") == ("Untitled Project", 0)

    def test_title_with_parenthetical_and_year(self):
        assert parse_title("Sabrina (a.k.a. Remake) (1995)") == (
            "Sabrina (a.k.a. Remake)",
            1995,
        )


class TestRoundTrip:
    def test_directory_contains_the_three_files(self, movielens_dir):
        _, directory = movielens_dir
        for name in ("users.dat", "movies.dat", "ratings.dat"):
            assert (directory / name).exists()

    def test_roundtrip_preserves_counts(self, movielens_dir):
        original, directory = movielens_dir
        loaded = load_movielens_directory(directory)
        assert loaded.num_reviewers == original.num_reviewers
        assert loaded.num_items == original.num_items
        assert loaded.num_ratings == original.num_ratings

    def test_roundtrip_preserves_reviewer_demographics(self, movielens_dir):
        original, directory = movielens_dir
        loaded = load_movielens_directory(directory)
        for reviewer in original.reviewers():
            twin = loaded.reviewer(reviewer.reviewer_id)
            assert twin.gender == reviewer.gender
            assert twin.age == reviewer.age
            assert twin.occupation == reviewer.occupation
            assert twin.zipcode == reviewer.zipcode
            assert twin.state == reviewer.state

    def test_roundtrip_preserves_ratings(self, movielens_dir):
        original, directory = movielens_dir
        loaded = load_movielens_directory(directory)
        original_triples = sorted(
            (r.reviewer_id, r.item_id, r.score, r.timestamp) for r in original.ratings()
        )
        loaded_triples = sorted(
            (r.reviewer_id, r.item_id, r.score, r.timestamp) for r in loaded.ratings()
        )
        assert original_triples == loaded_triples

    def test_roundtrip_preserves_titles_and_genres(self, movielens_dir):
        original, directory = movielens_dir
        loaded = load_movielens_directory(directory)
        for item in original.items():
            twin = loaded.item(item.item_id)
            assert twin.title == item.title
            assert twin.genres == item.genres

    def test_enrichment_can_be_disabled(self, movielens_dir):
        _, directory = movielens_dir
        plain = load_movielens_directory(directory, enrich=False)
        assert all(not item.actors for item in plain.items())


class TestErrorHandling:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_movielens_directory(tmp_path)

    def test_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "users.dat"
        path.write_text("1::M::25\n", encoding="latin-1")
        with pytest.raises(DatasetFormatError):
            load_users_file(path)

    def test_bad_occupation_code_raises(self, tmp_path):
        path = tmp_path / "users.dat"
        path.write_text("1::M::25::banana::94110\n", encoding="latin-1")
        with pytest.raises(DatasetFormatError):
            load_users_file(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::10::4::1000\n\n2::10::3::2000\n", encoding="latin-1")
        item_ids, reviewer_ids, scores, timestamps = load_ratings_file(path)
        assert item_ids.tolist() == [10, 10]
        assert reviewer_ids.tolist() == [1, 2]
        assert scores.tolist() == [4.0, 3.0]
        assert timestamps.tolist() == [1000, 2000]
        assert [column.dtype for column in (item_ids, reviewer_ids, scores, timestamps)] == [
            np.int64, np.int64, np.float64, np.int64
        ]

    def test_ratings_field_count_error_names_the_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::10::4::1000\n\n2::10::3\n", encoding="latin-1")
        with pytest.raises(DatasetFormatError, match=r"^ratings\.dat:3: expected 4 fields, got 3$"):
            load_ratings_file(path)

    def test_movies_parse_genres(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text("7::Example (1990)::Drama|War\n", encoding="latin-1")
        items = load_movies_file(path, enrich=False)
        assert items[0].genres == ("Drama", "War")
        assert items[0].year == 1990
