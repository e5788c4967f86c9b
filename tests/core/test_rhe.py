"""Tests for the Randomized Hill Exploration solver."""

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.core import rhe
from repro.core.baselines import RandomSolver
from repro.core.groups import Group, GroupDescriptor
from repro.core.problems import DiversityProblem, SimilarityProblem
from repro.core.rhe import RandomizedHillExploration, SelectionState
from repro.errors import InfeasibleProblemError


@pytest.fixture(scope="module")
def similarity_problem(toy_story_slice, toy_story_candidates, mining_config):
    return SimilarityProblem(toy_story_slice, toy_story_candidates, mining_config)


@pytest.fixture(scope="module")
def diversity_problem(toy_story_slice, toy_story_candidates, mining_config):
    return DiversityProblem(toy_story_slice, toy_story_candidates, mining_config)


class TestSolve:
    def test_returns_at_most_k_groups(self, similarity_problem, mining_config):
        result = RandomizedHillExploration(seed=1).solve(similarity_problem)
        assert 1 <= len(result.groups) <= mining_config.max_groups

    def test_solution_is_feasible_on_this_instance(self, similarity_problem):
        result = RandomizedHillExploration(restarts=8, seed=1).solve(similarity_problem)
        assert result.feasible
        assert similarity_problem.is_feasible(result.groups)

    def test_selected_groups_come_from_the_candidate_set(self, similarity_problem):
        result = RandomizedHillExploration(seed=1).solve(similarity_problem)
        candidate_descriptors = {c.descriptor for c in similarity_problem.candidates}
        assert all(g.descriptor in candidate_descriptors for g in result.groups)

    def test_no_duplicate_groups_in_the_selection(self, similarity_problem):
        result = RandomizedHillExploration(seed=3).solve(similarity_problem)
        descriptors = [g.descriptor for g in result.groups]
        assert len(descriptors) == len(set(descriptors))

    def test_deterministic_for_a_fixed_seed(self, similarity_problem):
        first = RandomizedHillExploration(seed=11).solve(similarity_problem)
        second = RandomizedHillExploration(seed=11).solve(similarity_problem)
        assert [g.descriptor for g in first.groups] == [g.descriptor for g in second.groups]
        assert first.objective == pytest.approx(second.objective)

    def test_objective_matches_problem_evaluation(self, similarity_problem):
        result = RandomizedHillExploration(seed=5).solve(similarity_problem)
        assert result.objective == pytest.approx(similarity_problem.objective(result.groups))

    def test_diversity_solution_disagrees(self, diversity_problem):
        result = RandomizedHillExploration(restarts=8, seed=1).solve(diversity_problem)
        means = [g.mean for g in result.groups]
        assert max(means) - min(means) > 0.3

    def test_rhe_beats_or_matches_a_random_selection(self, similarity_problem):
        rhe = RandomizedHillExploration(restarts=8, seed=1).solve(similarity_problem)
        random_result = RandomSolver(seed=1, attempts=1).solve(similarity_problem)
        rhe_score = similarity_problem.penalized_objective(rhe.groups)
        random_score = similarity_problem.penalized_objective(random_result.groups)
        assert rhe_score >= random_score

    def test_more_restarts_never_hurt(self, similarity_problem):
        few = RandomizedHillExploration(restarts=1, max_iterations=50, seed=9).solve(
            similarity_problem
        )
        many = RandomizedHillExploration(restarts=8, max_iterations=50, seed=9).solve(
            similarity_problem
        )
        assert similarity_problem.penalized_objective(many.groups) >= (
            similarity_problem.penalized_objective(few.groups) - 1e-9
        )

    def test_trace_records_one_entry_per_restart(self, similarity_problem):
        solver = RandomizedHillExploration(restarts=4, seed=2)
        result = solver.solve(similarity_problem)
        assert len(result.trace) == 4
        assert result.restarts == 4
        assert result.iterations > 0
        assert result.elapsed_seconds >= 0

    def test_groups_sorted_largest_first(self, similarity_problem):
        result = RandomizedHillExploration(seed=4).solve(similarity_problem)
        sizes = [g.size for g in result.groups]
        assert sizes == sorted(sizes, reverse=True)

    def test_describe_and_labels(self, similarity_problem):
        result = RandomizedHillExploration(seed=4).solve(similarity_problem)
        info = result.describe()
        assert info["solver"] == "rhe"
        assert len(result.labels()) == len(result.groups)


class TestConfiguration:
    def test_from_config_copies_solver_knobs(self):
        config = MiningConfig(rhe_restarts=3, rhe_max_iterations=77, seed=123)
        solver = RandomizedHillExploration.from_config(config)
        assert solver.restarts == 3
        assert solver.max_iterations == 77
        assert solver.seed == 123

    def test_problem_without_candidates_raises(self, toy_story_slice, mining_config):
        problem = SimilarityProblem(toy_story_slice, [], mining_config)
        with pytest.raises(InfeasibleProblemError):
            RandomizedHillExploration(seed=1).solve(problem)

    def test_solver_clamps_invalid_knobs(self):
        solver = RandomizedHillExploration(restarts=0, max_iterations=0, neighborhood_sample=0)
        assert solver.restarts == 1
        assert solver.max_iterations == 1
        assert solver.neighborhood_sample == 1


class TestUnreachableCoverageCost:
    """A solve whose coverage constraint cannot be met pays per touched
    candidate: the start repair and the mask table do not grow with the
    candidate count."""

    CANDIDATES = 1000

    @pytest.fixture(scope="class")
    def problem(self, tiny_store):
        rating_slice = tiny_store.slice_all()
        total = len(rating_slice)
        rng = np.random.default_rng(0)
        groups = []
        for index in range(self.CANDIDATES):
            size = int(rng.integers(5, total // 20))
            positions = np.sort(rng.choice(total, size=size, replace=False))
            descriptor = GroupDescriptor((("occupation", f"o{index}"), ("state", "CA")))
            groups.append(Group.from_positions(descriptor, rating_slice, positions))
        config = MiningConfig()
        largest = sorted(group.size for group in groups)[-config.max_groups :]
        assert sum(largest) < config.min_coverage * total
        return SimilarityProblem(rating_slice, groups, config)

    def test_repair_computes_a_constant_number_of_exact_coverages(self, problem):
        solver = RandomizedHillExploration()
        rng = np.random.default_rng(1)
        for _ in range(8):
            state = SelectionState.for_problem(problem)
            calls = []
            exact = state.coverage
            state.coverage = lambda indices: calls.append(1) or exact(indices)
            start = rng.choice(self.CANDIDATES, size=problem.max_groups, replace=False)
            solver._repair_coverage(problem, state, [int(i) for i in start])
            assert len(calls) <= problem.max_groups + 1

    def test_solve_converts_fewer_masks_than_candidates(self, problem, monkeypatch):
        conversions = []
        convert = rhe.to_int_mask
        monkeypatch.setattr(
            rhe, "to_int_mask", lambda bits: conversions.append(1) or convert(bits)
        )
        result = RandomizedHillExploration().solve(problem)
        assert not result.feasible
        assert 0 < len(conversions) < self.CANDIDATES
