"""Tests for the RatingMiner façade (the Rating Mining module of §2.3)."""

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.core.miner import RatingMiner
from repro.errors import EmptyRatingSetError, MiningError
from repro.query.engine import TimeInterval


class TestExplainTitle:
    def test_produces_similarity_and_diversity(self, tiny_miner):
        result = tiny_miner.explain_title("Toy Story")
        assert result.similarity.groups
        assert result.diversity.groups
        assert result.similarity.task == "similarity"
        assert result.diversity.task == "diversity"

    def test_groups_are_geo_anchored_by_default(self, tiny_miner):
        result = tiny_miner.explain_title("Toy Story")
        for explanation in result.explanations():
            assert all(group.state for group in explanation.groups)

    def test_coverage_meets_the_configured_minimum(self, tiny_miner, mining_config):
        result = tiny_miner.explain_title("Toy Story")
        assert result.similarity.coverage >= mining_config.min_coverage - 1e-9
        assert result.similarity.feasible

    def test_group_count_respects_the_configuration(self, tiny_miner, mining_config):
        result = tiny_miner.explain_title("Toy Story")
        assert len(result.similarity.groups) <= mining_config.max_groups
        assert len(result.diversity.groups) <= mining_config.max_groups

    def test_unknown_title_raises(self, tiny_miner):
        with pytest.raises(EmptyRatingSetError):
            tiny_miner.explain_title("A Movie That Does Not Exist")

    def test_diversity_groups_actually_disagree(self, tiny_miner):
        result = tiny_miner.explain_title("Toy Story")
        assert result.diversity.disagreement > 0.2


class TestExplainItems:
    def test_multi_item_selection(self, tiny_miner, tiny_dataset):
        item_ids = [
            item.item_id
            for item in tiny_dataset.items()
            if "Lord of the Rings" in item.title
        ]
        assert len(item_ids) >= 2
        result = tiny_miner.explain_items(item_ids, description="LOTR trilogy")
        assert result.query.num_ratings > 0
        assert result.query.description == "LOTR trilogy"

    def test_time_interval_restricts_the_ratings(self, tiny_miner, tiny_dataset):
        item_ids = [i.item_id for i in tiny_dataset.items_by_title("Toy Story")]
        full = tiny_miner.explain_items(item_ids)
        interval = TimeInterval.for_year(2001).as_tuple()
        restricted = tiny_miner.explain_items(item_ids, time_interval=interval)
        assert restricted.query.num_ratings < full.query.num_ratings
        assert restricted.query.time_interval == interval

    def test_config_override_changes_group_budget(self, tiny_miner, tiny_dataset):
        item_ids = [i.item_id for i in tiny_dataset.items_by_title("Toy Story")]
        override = MiningConfig(max_groups=2, min_group_support=3, min_coverage=0.1)
        result = tiny_miner.explain_items(item_ids, config=override)
        assert len(result.similarity.groups) <= 2

    def test_impossible_support_raises_mining_error(self, tiny_miner, tiny_dataset):
        item_ids = [i.item_id for i in tiny_dataset.items_by_title("Toy Story")]
        impossible = MiningConfig(min_group_support=100_000, min_coverage=0.1)
        with pytest.raises(MiningError):
            tiny_miner.explain_items(item_ids, config=impossible)


class TestMinePair:
    @staticmethod
    def _payload(explanation):
        payload = explanation.to_dict()
        payload.pop("elapsed_seconds")  # wall clock: the one legitimate delta
        return payload

    def test_equals_separate_similarity_and_diversity(
        self, tiny_miner, toy_story_slice
    ):
        similarity, diversity = tiny_miner.mine_pair(toy_story_slice)
        assert (similarity.task, diversity.task) == ("similarity", "diversity")
        assert self._payload(similarity) == self._payload(
            tiny_miner.mine_similarity(toy_story_slice)
        )
        assert self._payload(diversity) == self._payload(
            tiny_miner.mine_diversity(toy_story_slice)
        )

    def test_empty_slice_and_no_candidates_raise(self, tiny_miner, toy_story_slice):
        empty = toy_story_slice.restrict(np.zeros(len(toy_story_slice), dtype=bool))
        with pytest.raises(EmptyRatingSetError):
            tiny_miner.mine_pair(empty)
        impossible = MiningConfig(min_group_support=100_000, min_coverage=0.1)
        with pytest.raises(MiningError):
            tiny_miner.mine_pair(toy_story_slice, impossible)


class TestConstruction:
    def test_for_dataset_builds_store_with_location_columns(self, tiny_dataset, mining_config):
        miner = RatingMiner.for_dataset(tiny_dataset, mining_config)
        rating_slice = miner.store.slice_all()
        assert "city" in rating_slice.attribute_columns
        assert "state" in rating_slice.attribute_columns

    def test_slice_for_items_matches_dataset_counts(self, tiny_miner, tiny_dataset):
        item = next(iter(tiny_dataset.items()))
        rating_slice = tiny_miner.slice_for_items([item.item_id])
        assert len(rating_slice) == len(tiny_dataset.ratings_for_items([item.item_id]))
