"""Equivalence properties of the integer-coded mining kernel.

The optimized pipeline has three layers of machinery that must be *exactly*
(bit-for-bit) equivalent to the naive reference implementations kept in-tree:

* cube enumeration over integer codes + bincount segments
  (``CandidateEnumerator(use_kernel=True)``) vs the boolean-mask DFS
  (``use_kernel=False``),
* packed-bitset coverage (OR + popcount) vs ``np.unique`` over position
  arrays,
* the delta-evaluated ``SelectionState`` (compiled and generic stats paths)
  vs ``MiningProblem.penalized_objective`` on rebuilt group lists,
* whole RHE solves with ``use_fast_eval=True`` vs ``use_fast_eval=False``
  for a fixed seed, and
* the bounded coverage repair vs the full largest-first walk it replaced
  (:func:`_reference_repair_coverage`), alone and inside whole solves.

Every comparison below uses ``==`` on floats deliberately: the fast paths are
specified to replay the naive arithmetic exactly, not approximately.
"""

import functools
import random
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.bitset import pack_positions, popcount, to_int_mask, union_rows
from repro.core.cube import CandidateEnumerator
from repro.core.groups import Group, GroupDescriptor
from repro.core.measures import covered_positions
from repro.core.miner import RatingMiner
from repro.core.problems import DiversityProblem, SimilarityProblem
from repro.core.rhe import (
    RandomizedHillExploration,
    SelectionState,
    make_selection_state,
)
from repro.data.model import Item, Rating, RatingDataset, Reviewer
from repro.data.storage import RatingStore
from repro.errors import MiningError
from repro.server.pool import MiningWorkerPool

ATTRIBUTES = ("gender", "age_group", "state")
VALUES: Dict[str, List[str]] = {
    "gender": ["M", "F"],
    "age_group": ["Under 18", "25-34"],
    "state": ["CA", "NY", "TX"],
}


def _store(rows):
    """A store of one rating of item 1 per ``(attribute values, score)`` row."""
    reviewers, ratings = [], []
    for index, (values, score) in enumerate(rows):
        reviewers.append(
            Reviewer(
                reviewer_id=index + 1,
                gender=values["gender"],
                age=1 if values["age_group"] == "Under 18" else 25,
                occupation="other",
                zipcode="00000",
                state=values["state"],
                city=values["state"],
            )
        )
        ratings.append(Rating(1, index + 1, score, timestamp=1_000 + index))
    dataset = RatingDataset(reviewers, [Item(1, "Movie")], ratings, validate=False)
    return RatingStore(dataset, grouping_attributes=ATTRIBUTES)


@st.composite
def rating_stores(draw, min_size=3, max_size=40):
    """A store whose ratings all belong to item 1."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return _store(
        (
            {name: draw(st.sampled_from(VALUES[name])) for name in ATTRIBUTES},
            float(draw(st.integers(1, 5))),
        )
        for _ in range(size)
    )


@functools.lru_cache(maxsize=None)
def _plain_slice(size):
    """A slice of ``size`` ratings for tests that read only its length."""
    values = {name: options[0] for name, options in VALUES.items()}
    return _store((values, float(1 + index % 5)) for index in range(size)).slice_for_items(
        [1]
    )


def rating_slices(min_size=3, max_size=40):
    return rating_stores(min_size, max_size).map(
        lambda store: store.slice_for_items([1])
    )


@st.composite
def mining_configs(draw):
    return MiningConfig(
        max_groups=draw(st.integers(2, 4)),
        min_coverage=draw(st.sampled_from([0.0, 0.2, 0.5])),
        max_description_length=draw(st.integers(1, 3)),
        min_group_support=draw(st.integers(1, 4)),
        require_geo_anchor=draw(st.booleans()),
        grouping_attributes=ATTRIBUTES,
        rhe_restarts=2,
        rhe_max_iterations=40,
    )


def _enumerate(rating_slice, config, use_kernel):
    enumerator = CandidateEnumerator.from_config(rating_slice, config)
    enumerator.use_kernel = use_kernel
    groups, stats = enumerator.enumerate_with_stats()
    return stats, groups


#: Descriptors the enumerator never emits together under one config: some
#: lack the geo anchor, some are longer than any drawn description limit.
HAND_DESCRIPTORS = [
    GroupDescriptor((("state", "CA"),)),
    GroupDescriptor((("gender", "M"),)),
    GroupDescriptor((("gender", "F"), ("state", "NY"))),
    GroupDescriptor((("age_group", "Under 18"), ("occupation", "other"))),
    GroupDescriptor((("age_group", "25-34"), ("gender", "M"), ("state", "TX"))),
    GroupDescriptor(
        (("age_group", "25-34"), ("gender", "F"), ("occupation", "other"), ("state", "CA"))
    ),
]


def _hand_built_group(rating_slice, descriptor, positions):
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    return Group.from_positions(descriptor, rating_slice, positions)


@st.composite
def hand_built_candidates(draw, rating_slice, max_count=12):
    """Candidate groups over drawn positions, with descriptors that incur the
    description, support and geo penalties the enumerator filters out."""
    total = len(rating_slice)
    count = draw(st.integers(1, max_count))
    return [
        _hand_built_group(
            rating_slice,
            draw(st.sampled_from(HAND_DESCRIPTORS)),
            draw(st.permutations(range(total)))[: draw(st.integers(1, total))],
        )
        for _ in range(count)
    ]


@st.composite
def repair_cases(draw):
    """A problem and a random start for the coverage repair.

    Sizes come from a pool of at most four values, so size ties are common;
    descriptors are distinct or drawn from a pool of three (repeated
    descriptors switch the solver to descriptor identity); ``k`` runs from
    1 to 4 and ``min_coverage`` covers 0, 0.3, 1.0, drawn values and the
    fractions ``count / total`` a selection can meet exactly.
    """
    total = draw(st.integers(1, 30))
    rating_slice = _plain_slice(total)
    count = draw(st.integers(1, 40))
    largest = draw(st.integers(1, total))  # small groups keep coverage unreachable
    size_pool = draw(st.lists(st.integers(1, largest), min_size=1, max_size=4))
    distinct = draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2**32)))
    candidates = [
        _hand_built_group(
            rating_slice,
            GroupDescriptor((("state", f"S{index if distinct else rnd.randrange(3)}"),)),
            rnd.sample(range(total), rnd.choice(size_pool)),
        )
        for index in range(count)
    ]
    k = draw(st.integers(1, min(4, count)))
    config = MiningConfig(
        max_groups=k,
        min_coverage=draw(
            st.one_of(
                st.sampled_from([0.0, 0.3, 1.0]),
                st.floats(0.0, 1.0),
                st.integers(0, total).map(lambda count: count / total),
            )
        ),
        min_group_support=1,
        grouping_attributes=ATTRIBUTES,
        rhe_restarts=2,
        rhe_max_iterations=40,
    )
    problem_class = draw(st.sampled_from([SimilarityProblem, DiversityProblem]))
    return problem_class(rating_slice, candidates, config), rnd.sample(range(count), k)


def _reference_repair_coverage(problem, state, selection):
    """The full largest-first repair walk, verbatim from before the bounds."""
    required = getattr(problem.config, "min_coverage", 0.0)
    if state.coverage(selection) >= required:
        return selection
    sizes = state.sizes
    repaired = list(selection)
    selected_keys = {state.key(i) for i in repaired}
    for big in state.by_size():
        if state.coverage(repaired) >= required:
            break
        if state.key(big) in selected_keys:
            continue
        smallest_index = min(
            range(len(repaired)), key=lambda i: sizes[repaired[i]]
        )
        selected_keys.discard(state.key(repaired[smallest_index]))
        repaired[smallest_index] = big
        selected_keys.add(state.key(big))
    return repaired


class _ReferenceRepairRHE(RandomizedHillExploration):
    """RHE whose random starts are repaired by the full reference walk."""

    def _repair_coverage(self, problem, state, selection):
        return _reference_repair_coverage(problem, state, selection)


def _assert_same_solve(left, right):
    assert [g.descriptor for g in left.groups] == [g.descriptor for g in right.groups]
    assert left.objective == right.objective
    assert left.iterations == right.iterations
    assert left.trace == right.trace
    assert left.feasible == right.feasible


class TestEnumerationParity:
    @given(rating_slices(), mining_configs())
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_naive_bit_for_bit(self, rating_slice, config):
        kernel_stats, kernel_groups = _enumerate(rating_slice, config, True)
        naive_stats, naive_groups = _enumerate(rating_slice, config, False)
        assert [g.descriptor for g in kernel_groups] == [
            g.descriptor for g in naive_groups
        ]
        for fast, slow in zip(kernel_groups, naive_groups):
            assert np.array_equal(fast.positions, slow.positions)
            assert fast.size == slow.size
            assert fast.mean == slow.mean
            assert fast.error == slow.error
        assert kernel_stats == naive_stats

    @given(rating_slices(), mining_configs())
    @settings(max_examples=25, deadline=None)
    def test_stats_candidates_is_the_emitted_count(self, rating_slice, config):
        for use_kernel in (True, False):
            stats, groups = _enumerate(rating_slice, config, use_kernel)
            assert stats.candidates == len(groups)
            assert stats.explored >= stats.pruned_by_support

    def test_stats_are_per_run_not_shared_state(self, tiny_store):
        # Two runs on one shared enumerator must produce independent stats
        # objects (ISSUE 9): nothing accumulates on the instance between runs.
        enumerator = CandidateEnumerator(tiny_store.slice_all(), min_support=3)
        _, first = enumerator.enumerate_with_stats()
        _, second = enumerator.enumerate_with_stats()
        assert first == second
        assert first.explored > 0
        assert not hasattr(enumerator, "_explored")

    def test_concurrent_runs_never_interleave_counters(self, tiny_store):
        import threading

        enumerator = CandidateEnumerator(tiny_store.slice_all(), min_support=3)
        _, expected = enumerator.enumerate_with_stats()
        results = []

        def run():
            results.append(enumerator.enumerate_with_stats()[1])

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(stats == expected for stats in results)


class TestCoverageParity:
    @given(rating_slices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bitset_union_counts_match_position_union(self, rating_slice, data):
        config = MiningConfig(
            min_coverage=0.0,
            min_group_support=1,
            require_geo_anchor=False,
            grouping_attributes=ATTRIBUTES,
        )
        _, groups = _enumerate(rating_slice, config, True)
        if not groups:
            return
        total = len(rating_slice)
        indices = data.draw(
            st.lists(
                st.integers(0, len(groups) - 1), min_size=1, max_size=5, unique=True
            )
        )
        selection = [groups[i] for i in indices]
        expected = covered_positions(selection).shape[0]
        matrix = np.stack([g.packed_bits(total) for g in selection])
        assert popcount(union_rows(matrix, range(len(selection)))) == expected
        union_int = 0
        for group in selection:
            union_int |= to_int_mask(group.packed_bits(total))
        assert union_int.bit_count() == expected
        assert popcount(pack_positions(selection[0].positions, total)) == selection[0].size


class TestObjectiveParity:
    @given(rating_slices(), mining_configs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_selection_state_equals_naive_penalized_objective(
        self, rating_slice, config, data
    ):
        _, candidates = _enumerate(rating_slice, config, True)
        if not candidates:
            return
        for problem_class in (SimilarityProblem, DiversityProblem):
            problem = problem_class(rating_slice, candidates, config)
            state = SelectionState.for_problem(problem)
            assert state is not None
            assert state._compiled is not None
            indices = data.draw(
                st.lists(
                    st.integers(0, len(candidates) - 1),
                    min_size=1,
                    max_size=min(4, len(candidates)),
                    unique=True,
                )
            )
            expected = problem.penalized_objective([candidates[i] for i in indices])
            assert state.evaluate(indices) == expected
            # The generic SelectionStats path must agree as well.
            state._compiled = None
            assert state.evaluate(indices) == expected
            # And the incremental trial must match a from-scratch rebuild.
            state = SelectionState.for_problem(problem)
            state.reset(indices)
            candidate = data.draw(st.integers(0, len(candidates) - 1))
            position = data.draw(st.integers(0, len(indices) - 1))
            swapped = list(indices)
            swapped[position] = candidate
            assert state.trial(position, candidate) == problem.penalized_objective(
                [candidates[i] for i in swapped]
            )

    @given(rating_slices(), mining_configs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_selections_longer_than_max_groups_fold_every_term(
        self, rating_slice, config, data
    ):
        _, candidates = _enumerate(rating_slice, config, True)
        if len(candidates) <= config.max_groups:
            return
        indices = data.draw(
            st.lists(
                st.integers(0, len(candidates) - 1),
                min_size=config.max_groups + 1,
                max_size=min(config.max_groups + 3, len(candidates)),
                unique=True,
            )
        )
        for problem_class in (SimilarityProblem, DiversityProblem):
            problem = problem_class(rating_slice, candidates, config)
            _assert_compiled_state_matches_naive(problem, indices, data)

    @given(rating_slices(), mining_configs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_candidates_with_description_support_and_geo_penalties(
        self, rating_slice, config, data
    ):
        candidates = data.draw(hand_built_candidates(rating_slice))
        indices = data.draw(
            st.lists(
                st.integers(0, len(candidates) - 1),
                min_size=1,
                max_size=min(config.max_groups + 2, len(candidates)),
            )
        )
        for problem_class in (SimilarityProblem, DiversityProblem):
            problem = problem_class(rating_slice, candidates, config)
            _assert_compiled_state_matches_naive(problem, indices, data)


def _assert_compiled_state_matches_naive(problem, indices, data):
    """``evaluate`` and an incremental ``trial`` on the compiled evaluator
    equal ``penalized_objective`` on the rebuilt group lists."""
    candidates = problem.candidates
    state = SelectionState.for_problem(problem)
    assert state._compiled is not None
    assert state.evaluate(indices) == problem.penalized_objective(
        [candidates[i] for i in indices]
    )
    state.reset(indices)
    candidate = data.draw(st.integers(0, len(candidates) - 1))
    position = data.draw(st.integers(0, len(indices) - 1))
    swapped = list(indices)
    swapped[position] = candidate
    assert state.trial(position, candidate) == problem.penalized_objective(
        [candidates[i] for i in swapped]
    )


class TestSolverEquivalence:
    @given(rating_slices(min_size=6), mining_configs(), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_fixed_seed_rhe_selections_identical_fast_vs_naive(
        self, rating_slice, config, seed
    ):
        _, candidates = _enumerate(rating_slice, config, True)
        if not candidates:
            return
        for problem_class in (SimilarityProblem, DiversityProblem):
            problem = problem_class(rating_slice, candidates, config)
            fast = RandomizedHillExploration(
                restarts=2, max_iterations=40, seed=seed, use_fast_eval=True
            ).solve(problem)
            naive = RandomizedHillExploration(
                restarts=2, max_iterations=40, seed=seed, use_fast_eval=False
            ).solve(problem)
            assert [g.descriptor for g in fast.groups] == [
                g.descriptor for g in naive.groups
            ]
            assert fast.objective == naive.objective
            assert fast.trace == naive.trace
            assert fast.iterations == naive.iterations
            assert fast.feasible == naive.feasible

    @given(rating_slices(min_size=6), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_iteration_budget_is_exact(self, rating_slice, seed):
        config = MiningConfig(
            max_groups=3,
            min_coverage=0.3,
            min_group_support=1,
            require_geo_anchor=False,
            grouping_attributes=ATTRIBUTES,
        )
        _, candidates = _enumerate(rating_slice, config, True)
        if not candidates:
            return
        problem = SimilarityProblem(rating_slice, candidates, config)
        for budget in (1, 3, 10):
            solver = RandomizedHillExploration(
                restarts=2, max_iterations=budget, seed=seed
            )
            result = solver.solve(problem)
            assert 0 < result.iterations <= solver.restarts * budget


class TestRepairOracle:
    """The bounded repair returns exactly what the full walk returns."""

    @given(repair_cases())
    @settings(max_examples=400, deadline=None)
    def test_repair_matches_the_reference_walk_position_for_position(self, case):
        problem, start = case
        solver = RandomizedHillExploration()
        for use_fast_eval in (True, False):
            state = make_selection_state(problem, use_fast_eval)
            expected = _reference_repair_coverage(problem, state, list(start))
            assert solver._repair_coverage(problem, state, list(start)) == expected

    @given(repair_cases(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_solves_match_a_solver_running_the_reference_walk(self, case, seed):
        problem, _ = case
        for use_fast_eval in (True, False):
            kwargs = dict(
                restarts=2, max_iterations=40, seed=seed, use_fast_eval=use_fast_eval
            )
            _assert_same_solve(
                RandomizedHillExploration(**kwargs).solve(problem),
                _ReferenceRepairRHE(**kwargs).solve(problem),
            )

    @given(
        rating_slices(min_size=6),
        mining_configs(),
        st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_enumerated_solves_match_the_reference_walk(
        self, rating_slice, config, min_coverage, seed
    ):
        config = config.with_overrides(min_coverage=min_coverage)
        _, candidates = _enumerate(rating_slice, config, True)
        if not candidates:
            return
        for problem_class in (SimilarityProblem, DiversityProblem):
            problem = problem_class(rating_slice, candidates, config)
            kwargs = dict(restarts=2, max_iterations=40, seed=seed)
            _assert_same_solve(
                RandomizedHillExploration(**kwargs).solve(problem),
                _ReferenceRepairRHE(**kwargs).solve(problem),
            )


def _explanation_fingerprint(explanation):
    """Every mined field that must survive parallelisation bit-for-bit."""
    return (
        tuple(
            (g.label, tuple(sorted(g.pairs.items())), g.size, g.average_rating, g.coverage)
            for g in explanation.groups
        ),
        explanation.objective,
        explanation.coverage,
        explanation.feasible,
        explanation.solver_iterations,
        explanation.within_error,
        explanation.disagreement,
    )


class _RecordingSolver(RandomizedHillExploration):
    """RHE that keeps every :class:`SolveResult` it returns, in call order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.results = []

    def solve(self, problem):
        result = super().solve(problem)
        self.results.append(result)
        return result


def _assert_pair_matches_separate(store, rating_slice, config):
    """``mine_pair`` == ``mine_similarity`` + ``mine_diversity``, bit for bit.

    Compares the solver results (groups, objective, iterations, restart
    trace) and the explanations, serially and with the pair mined on a
    parallel thread pool.
    """
    solver = _RecordingSolver.from_config(config)
    miner = RatingMiner(store, config, solver=solver)
    try:
        separate = (
            miner.mine_similarity(rating_slice),
            miner.mine_diversity(rating_slice),
        )
    except MiningError:
        with pytest.raises(MiningError):
            miner.mine_pair(rating_slice)
        return
    paired = miner.mine_pair(rating_slice)
    separate_results, paired_results = solver.results[:2], solver.results[2:]
    assert len(paired_results) == 2
    for left, right in zip(separate_results, paired_results):
        assert [g.descriptor for g in left.groups] == [
            g.descriptor for g in right.groups
        ]
        assert left.objective == right.objective
        assert left.iterations == right.iterations
        assert left.trace == right.trace
        assert left.feasible == right.feasible
    with MiningWorkerPool(4) as pool:
        pooled = pool.gather(pool.submit(miner.mine_pair, rating_slice))
    for reference, explanation, pooled_explanation in zip(separate, paired, pooled):
        assert _explanation_fingerprint(explanation) == _explanation_fingerprint(
            reference
        )
        assert _explanation_fingerprint(pooled_explanation) == _explanation_fingerprint(
            reference
        )


class TestPoolParallelEquivalence:
    """Pool-parallel mining (workers>1) must be bit-identical to serial.

    Determinism under parallelism is a serving-layer invariant (ISSUE 2):
    every task seeds its own generator from the fixed config seed and results
    are gathered in submission order, so the thread schedule can never leak
    into selections or objectives.
    """

    @pytest.mark.parametrize("seed", [0, 7, 2012])
    def test_pool_parallel_explain_items_matches_serial(self, tiny_dataset, seed):
        config = MiningConfig(
            min_group_support=3, min_coverage=0.2, rhe_restarts=3, seed=seed
        )
        miner = RatingMiner.for_dataset(tiny_dataset, config)
        item_ids = [
            item.item_id for item in tiny_dataset.items_by_title("Toy Story")
        ]
        serial = miner.explain_items(item_ids)
        with MiningWorkerPool(4) as pool:
            parallel = miner.explain_items(item_ids, pool=pool)
        assert _explanation_fingerprint(parallel.similarity) == _explanation_fingerprint(
            serial.similarity
        )
        assert _explanation_fingerprint(parallel.diversity) == _explanation_fingerprint(
            serial.diversity
        )

    def test_maprat_with_worker_pool_matches_inline_system(self, tiny_dataset, mining_config):
        from repro.server.api import MapRat

        def system_with(workers):
            return MapRat.for_dataset(
                tiny_dataset,
                PipelineConfig(
                    mining=mining_config, server=ServerConfig(mining_workers=workers)
                ),
            )

        inline = system_with(0).explain('title:"Toy Story"').to_dict()
        pooled = system_with(4).explain('title:"Toy Story"').to_dict()
        for payload in (inline, pooled):  # wall-clock is the one legitimate delta
            payload.pop("elapsed_seconds", None)
            payload["similarity"].pop("elapsed_seconds", None)
            payload["diversity"].pop("elapsed_seconds", None)
        assert pooled == inline

    @given(rating_stores(min_size=6), mining_configs(), st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_concurrent_sm_dm_solves_match_serial_on_random_slices(
        self, store, config, seed
    ):
        rating_slice = store.slice_for_items([1])
        # mine_pair's one shared enumeration == two separate enumerations, on
        # the item slice and on a whole-store slice.
        pair_config = config.with_overrides(seed=seed)
        for target in (rating_slice, store.slice_all()):
            _assert_pair_matches_separate(store, target, pair_config)
        _, candidates = _enumerate(rating_slice, config, True)
        if not candidates:
            return
        similarity = SimilarityProblem(rating_slice, candidates, config)
        diversity = DiversityProblem(rating_slice, candidates, config)
        solver = RandomizedHillExploration(restarts=2, max_iterations=40, seed=seed)
        serial = [solver.solve(similarity), solver.solve(diversity)]
        with MiningWorkerPool(4) as pool:
            futures = [pool.submit(solver.solve, p) for p in (similarity, diversity)]
            parallel = [future.result() for future in futures]
        for serial_result, parallel_result in zip(serial, parallel):
            assert [g.descriptor for g in serial_result.groups] == [
                g.descriptor for g in parallel_result.groups
            ]
            assert parallel_result.objective == serial_result.objective
            assert parallel_result.trace == serial_result.trace
            assert parallel_result.iterations == serial_result.iterations
            assert parallel_result.feasible == serial_result.feasible


class TestProcessBackendEquivalence:
    """The process-backend spec path must match serial mining bit-for-bit.

    Mirrors :class:`TestPoolParallelEquivalence` for ISSUE 5's backend: the
    same selections mined through :class:`ProcessMiningPool` spec tuples
    (inline mode — the identical executor the spawned workers run, without
    per-example process startup) must reproduce the serial explanations
    exactly.  The spawned-worker path is covered by
    ``tests/server/test_procpool.py`` and the golden process CI lane.
    """

    @pytest.mark.parametrize("seed", [0, 7, 2012])
    def test_process_spec_path_matches_serial_explain_items(self, tiny_dataset, seed):
        from repro.server.procpool import ProcessMiningPool

        config = MiningConfig(
            min_group_support=3, min_coverage=0.2, rhe_restarts=3, seed=seed
        )
        miner = RatingMiner.for_dataset(tiny_dataset, config)
        item_ids = [
            item.item_id for item in tiny_dataset.items_by_title("Toy Story")
        ]
        serial = miner.explain_items(item_ids)
        with ProcessMiningPool(workers=1) as pool:
            pool.publish(miner.store)
            processed = miner.explain_items(item_ids, pool=pool)
        assert _explanation_fingerprint(processed.similarity) == _explanation_fingerprint(
            serial.similarity
        )
        assert _explanation_fingerprint(processed.diversity) == _explanation_fingerprint(
            serial.diversity
        )

    @given(st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_process_spec_path_matches_serial_on_shm_attached_stores(
        self, tiny_dataset, seed
    ):
        from repro.data.shm import SharedStoreExport, attach_store, detach_store

        config = MiningConfig(
            min_group_support=3, min_coverage=0.2, rhe_restarts=2, seed=seed
        )
        miner = RatingMiner.for_dataset(tiny_dataset, config)
        item_ids = [
            item.item_id for item in tiny_dataset.items_by_title("Toy Story")
        ]
        serial = miner.explain_items(item_ids)
        export = SharedStoreExport(miner.store)
        attached = attach_store(export.manifest)
        try:
            shadow = RatingMiner(attached, config).explain_items(item_ids)
        finally:
            detach_store(attached)
            export.release()
        assert _explanation_fingerprint(shadow.similarity) == _explanation_fingerprint(
            serial.similarity
        )
        assert _explanation_fingerprint(shadow.diversity) == _explanation_fingerprint(
            serial.diversity
        )


class TestScoreHistogramParity:
    @given(rating_slices())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_histogram_matches_python_loop(self, rating_slice):
        expected = {float(b): 0 for b in (1, 2, 3, 4, 5)}
        for score in rating_slice.scores.tolist():
            key = float(round(score))
            expected[key] = expected.get(key, 0) + 1
        assert rating_slice.score_histogram() == expected
