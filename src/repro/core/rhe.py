"""Randomized Hill Exploration (RHE): the solver MapRat uses (§2.2, §2.3).

"Each of the sub-problems is modeled as an optimization problem ... the
optimization problems are solved using Randomized Hill Exploration (RHE)
algorithm."  The problems are NP-hard, so RHE trades optimality for speed:

1. **Randomized start** — sample ``k`` distinct candidate groups; a greedy
   repair pass walks the candidates largest-first, swapping each into the
   smallest slot, until the coverage constraint is met (or the walk ends).
   The repair is bounded: it computes an exact coverage only once the
   selection's summed sizes could reach ``min_coverage``, and on a slice
   whose ``k`` largest groups cannot, it returns the walk's end state (the
   ``k - 1`` largest groups and the smallest candidate) after about ``k + 1``
   steps.
2. **Hill exploration** — repeatedly try replacing one selected group with one
   unselected candidate; accept the swap when it improves the *penalised*
   objective (objective minus a large constraint-violation penalty).  The
   neighbourhood is sampled randomly, first-improvement style.
3. **Restarts** — repeat from a fresh random start and keep the best feasible
   selection found across restarts.

The inner loop is **delta-evaluated** through :class:`SelectionState`: the
state caches each candidate's scalar statistics, its membership bitset (built
on the candidate's first use, so a solve pays only for the candidates it
touches) and the selection's leave-one-out bitset unions, so one swap trial
costs a single bitwise OR + popcount over ``ceil(n/8)`` words plus O(k²)
scalar work — instead of re-unioning all position arrays and rebuilding every
constraint from the group lists (O(n·k) per trial).  The delta path replays
the naive arithmetic exactly (see :mod:`repro.core.measures` and
:mod:`repro.core.constraints`), so for a fixed seed the solver returns
bit-identical selections and objectives either way; ``use_fast_eval=False``
forces the naive path, which the equivalence property tests and the kernel
benchmark compare against.

The solver is deterministic for a fixed seed and exposes per-run statistics
(iterations, restarts, improvement trace) used by the ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InfeasibleProblemError
from .bitset import leave_one_out_masks, to_int_mask
from .constraints import (
    DescriptionLengthConstraint,
    GeoAnchorConstraint,
    MaxGroupsConstraint,
    MinCoverageConstraint,
    MinSupportConstraint,
    SelectionStats,
)
from .groups import Group
from .measures import coverage, coverage_from_count
from .problems import (
    PENALTY_WEIGHT,
    DiversityProblem,
    MiningProblem,
    SimilarityProblem,
)


class SelectionState:
    """Incremental evaluation state for swap-based selection solvers.

    Caches, per candidate group: size, error, mean, descriptor and the packed
    membership bitset as a Python int, converted on the candidate's first
    use.  For the current selection it maintains the leave-one-out OR
    bitsets, so evaluating "replace the group at ``position`` with
    ``candidate``" needs one OR + popcount and O(k) scalar gathers.

    Every float produced here is bit-identical to
    ``problem.penalized_objective`` on the equivalent group list: coverage
    counts are exact set cardinalities, and the scalar objective/penalty twins
    replay the naive summation order.
    """

    def __init__(self, problem: MiningProblem) -> None:
        candidates = problem.candidates
        self.problem = problem
        self.total = problem.total_ratings
        self.sizes = [int(g.size) for g in candidates]
        self.errors = [float(g.error) for g in candidates]
        self.means = [float(g.mean) for g in candidates]
        self.descriptors = [g.descriptor for g in candidates]
        self.unique_descriptors = len(set(self.descriptors)) == len(self.descriptors)
        self._candidates = candidates
        self._masks: List[Optional[int]] = [None] * len(candidates)
        self._by_size: Optional[List[int]] = None
        self._sel: List[int] = []
        self._loo: List[int] = []
        self.value = float("-inf")
        self._compiled = self._compile(problem)

    def key(self, index: int):
        """Identity used for 'already selected' checks.

        The seed semantics compare *descriptors*; when every candidate has a
        distinct descriptor (always true for enumerated cubes) comparing the
        candidate indices is equivalent and avoids hashing descriptor tuples.
        """
        return index if self.unique_descriptors else self.descriptors[index]

    def by_size(self) -> List[int]:
        """Candidate indices ordered largest-first (stable), cached per solve."""
        if self._by_size is None:
            sizes = self.sizes
            self._by_size = sorted(range(len(sizes)), key=lambda i: -sizes[i])
        return self._by_size

    @classmethod
    def for_problem(cls, problem: MiningProblem) -> Optional["SelectionState"]:
        """Build a state when the problem supports exact delta evaluation."""
        if not getattr(problem, "supports_fast_objective", False):
            return None
        if not problem.constraints.supports_fast_eval():
            return None
        return cls(problem)

    def mask(self, index: int) -> int:
        """Membership bitset of one candidate as an int, converted on first use."""
        mask = self._masks[index]
        if mask is None:
            mask = to_int_mask(self._candidates[index].packed_bits(self.total))
            self._masks[index] = mask
        return mask

    # -- full (non-incremental) evaluation ----------------------------------------

    def covered_count(self, indices: Sequence[int]) -> int:
        """Distinct covered positions of an arbitrary candidate-index selection."""
        union = 0
        for index in indices:
            union |= self.mask(index)
        return union.bit_count()

    def coverage(self, indices: Sequence[int]) -> float:
        """Mirror of :func:`repro.core.measures.coverage` on candidate indices."""
        return coverage_from_count(self.covered_count(indices), self.total)

    def evaluate(self, indices: Sequence[int]) -> float:
        """Penalised objective of an arbitrary selection (no cached state)."""
        return self._penalized(list(indices), self.covered_count(indices))

    # -- incremental protocol ------------------------------------------------------

    def reset(self, indices: Sequence[int]) -> None:
        """Adopt a selection: cache its leave-one-out bitsets and value."""
        self._sel = list(indices)
        self._loo = leave_one_out_masks([self.mask(i) for i in self._sel])
        self.value = self._penalized(self._sel, self.covered_count(self._sel))

    def trial(self, position: int, candidate: int) -> float:
        """Penalised objective after swapping ``candidate`` into ``position``.

        O(words + k): the covered count of the hypothetical selection is
        ``loo[position] | mask(candidate)`` — no position arrays are touched.
        """
        covered = (self._loo[position] | self.mask(candidate)).bit_count()
        indices = list(self._sel)
        indices[position] = candidate
        return self._penalized(indices, covered)

    def commit(self, position: int, candidate: int, value: float) -> None:
        """Apply an accepted swap and refresh the leave-one-out cache."""
        self._sel[position] = candidate
        self._loo = leave_one_out_masks([self.mask(i) for i in self._sel])
        self.value = value

    # -- internals ----------------------------------------------------------------

    def _penalized(self, indices: List[int], covered: int) -> float:
        if not indices:
            return float("-inf")
        if self._compiled is not None:
            return self._compiled(indices, covered)
        stats = SelectionStats(
            covered=covered,
            total=self.total,
            sizes=tuple([self.sizes[i] for i in indices]),
            descriptors=tuple([self.descriptors[i] for i in indices]),
            errors=tuple([self.errors[i] for i in indices]),
            means=tuple([self.means[i] for i in indices]),
        )
        penalty = self.problem.constraints.penalty_fast(stats)
        return self.problem.objective_from_stats(stats) - PENALTY_WEIGHT * penalty

    def _compile(self, problem: MiningProblem):
        """Specialise the penalised objective for the stock problem shape.

        When the constraint set consists exactly of the built-in constraint
        classes (exact types, any order/multiplicity) and the problem is one
        of the two paper tasks, return a closure over precomputed
        per-candidate scalars that replays the naive arithmetic exactly:
        integer partial sums (description excess, support shortfalls, geo
        misses) are order-free, float folds keep selection order.  Returns
        ``None`` otherwise — the generic :class:`SelectionStats` path then
        handles custom subclasses through their own ``penalty_fast``.

        Selections of at most ``max_groups`` groups — every selection the
        solver builds — skip the terms that are +0.0 for them: the max-groups
        term, and each per-candidate term that no candidate of the problem
        incurs.  The penalties are non-negative, so adding +0.0 to the left
        fold changes nothing and the remaining terms keep their order.
        Longer selections fold the full term list.
        """
        total = self.total
        sizes = self.sizes
        errors = self.errors
        means = self.means
        descriptors = self.descriptors

        penalty_fns = []
        live_fns = []  # the terms that can be non-zero while k <= limit
        limit = float("inf")
        for constraint in problem.constraints.constraints:
            ctype = type(constraint)
            if ctype is MaxGroupsConstraint:
                max_groups = constraint.max_groups
                limit = min(limit, max_groups)
                live = False

                def fn(indices, k, covered, _mg=max_groups):
                    return max(0, k - _mg) / _mg

            elif ctype is MinCoverageConstraint:
                min_coverage = constraint.min_coverage
                live = True

                def fn(indices, k, covered, _mc=min_coverage):
                    cov = covered / total if total > 0 else 0.0
                    return max(0.0, _mc - cov)

            elif ctype is DescriptionLengthConstraint:
                max_length = constraint.max_length
                excess = [max(0, len(d) - max_length) for d in descriptors]
                live = any(excess)

                def fn(indices, k, covered, _excess=excess):
                    e = 0
                    for i in indices:
                        e += _excess[i]
                    return e / k

            elif ctype is MinSupportConstraint:
                min_support = constraint.min_support
                short = [1 if s < min_support else 0 for s in sizes]
                live = any(short)

                def fn(indices, k, covered, _short=short):
                    n = 0
                    for i in indices:
                        n += _short[i]
                    return n / k

            elif ctype is GeoAnchorConstraint:
                missing = [
                    0 if d.has_attribute(constraint.geo_attribute) else 1
                    for d in descriptors
                ]
                live = any(missing)

                def fn(indices, k, covered, _missing=missing):
                    n = 0
                    for i in indices:
                        n += _missing[i]
                    return n / k

            else:
                return None
            penalty_fns.append(fn)
            if live:
                live_fns.append(fn)

        problem_type = type(problem)
        if problem_type is SimilarityProblem:

            def objective(indices):
                covered_size = 0
                for i in indices:
                    covered_size += sizes[i]
                if covered_size == 0:
                    return -0.0
                error_sum = 0
                for i in indices:
                    error_sum = error_sum + errors[i]
                return -(float(error_sum) / covered_size)

        elif problem_type is DiversityProblem:
            diversity_penalty = problem.config.diversity_penalty

            def objective(indices):
                k = len(indices)
                if k < 2:
                    disagreement = 0.0
                else:  # pairs in combinations() order, left-fold like sum()
                    delta_sum = 0
                    pairs = 0
                    for a in range(k):
                        mean_a = means[indices[a]]
                        for b in range(a + 1, k):
                            delta_sum = delta_sum + abs(mean_a - means[indices[b]])
                            pairs += 1
                    disagreement = float(delta_sum / pairs)
                covered_size = 0
                for i in indices:
                    covered_size += sizes[i]
                if covered_size == 0:
                    normalized = 0.0
                else:
                    error_sum = 0
                    for i in indices:
                        error_sum = error_sum + errors[i]
                    normalized = float(error_sum) / covered_size
                return disagreement - diversity_penalty * normalized

        else:
            return None

        def penalized(indices, covered):
            k = len(indices)
            penalty = 0
            for fn in live_fns if k <= limit else penalty_fns:
                penalty = penalty + fn(indices, k, covered)
            return objective(indices) - PENALTY_WEIGHT * float(penalty)

        return penalized


class _NaiveSelectionState:
    """Reference evaluator with the same protocol, no caching, no bitsets.

    Every query rebuilds the group list and calls the problem's Group-based
    evaluation — exactly what the seed implementation did per swap trial.
    Used when a custom problem/constraint lacks the fast path, and by the
    equivalence tests/benchmarks as ground truth.
    """

    def __init__(self, problem: MiningProblem) -> None:
        self.problem = problem
        self._candidates = problem.candidates
        self.sizes = [int(g.size) for g in self._candidates]
        self.descriptors = [g.descriptor for g in self._candidates]
        self.unique_descriptors = len(set(self.descriptors)) == len(self.descriptors)
        self._by_size: Optional[List[int]] = None
        self._sel: List[int] = []
        self.value = float("-inf")

    key = SelectionState.key
    by_size = SelectionState.by_size

    def _groups(self, indices: Sequence[int]) -> List[Group]:
        return [self._candidates[i] for i in indices]

    def coverage(self, indices: Sequence[int]) -> float:
        return coverage(self._groups(indices), self.problem.total_ratings)

    def evaluate(self, indices: Sequence[int]) -> float:
        return self.problem.penalized_objective(self._groups(indices))

    def reset(self, indices: Sequence[int]) -> None:
        self._sel = list(indices)
        self.value = self.evaluate(self._sel)

    def trial(self, position: int, candidate: int) -> float:
        indices = list(self._sel)
        indices[position] = candidate
        return self.evaluate(indices)

    def commit(self, position: int, candidate: int, value: float) -> None:
        self._sel[position] = candidate
        self.value = value


def make_selection_state(problem: MiningProblem, use_fast_eval: bool = True):
    """Pick the delta-evaluated state when the problem supports it, else naive."""
    state = SelectionState.for_problem(problem) if use_fast_eval else None
    return state if state is not None else _NaiveSelectionState(problem)


@dataclass
class SolveResult:
    """Outcome of one solver run.

    Attributes:
        groups: the selected groups, sorted by size (largest first).
        objective: plain (unpenalised) objective of the selection.
        feasible: whether the selection satisfies every constraint.
        iterations: total accepted + rejected swap evaluations (never exceeds
            ``restarts × max_iterations``).
        restarts: number of random restarts actually executed.
        elapsed_seconds: wall-clock solve time.
        solver: name of the solver that produced the result.
        trace: best penalised objective after each restart (ablation data).
    """

    groups: List[Group]
    objective: float
    feasible: bool
    iterations: int
    restarts: int
    elapsed_seconds: float
    solver: str = "rhe"
    trace: List[float] = field(default_factory=list)

    def labels(self) -> List[str]:
        return [g.label() for g in self.groups]

    def describe(self) -> dict:
        return {
            "solver": self.solver,
            "objective": round(self.objective, 6),
            "feasible": self.feasible,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "groups": [g.label() for g in self.groups],
        }


class RandomizedHillExploration:
    """Swap-based randomized hill climbing over candidate group selections."""

    name = "rhe"

    def __init__(
        self,
        restarts: int = 8,
        max_iterations: int = 200,
        neighborhood_sample: int = 64,
        seed: int = 2012,
        use_fast_eval: bool = True,
    ) -> None:
        self.restarts = max(1, restarts)
        self.max_iterations = max(1, max_iterations)
        self.neighborhood_sample = max(1, neighborhood_sample)
        self.seed = seed
        self.use_fast_eval = use_fast_eval

    @classmethod
    def from_config(cls, config) -> "RandomizedHillExploration":
        """Build a solver from a :class:`~repro.config.MiningConfig`."""
        return cls(
            restarts=config.rhe_restarts,
            max_iterations=config.rhe_max_iterations,
            seed=config.seed,
        )

    # -- public API -------------------------------------------------------------

    def solve(self, problem: MiningProblem) -> SolveResult:
        """Solve one mining problem, returning the best selection found."""
        start_time = time.perf_counter()
        candidates = problem.candidates
        k = min(problem.max_groups, len(candidates))
        if k == 0:
            raise InfeasibleProblemError("the problem has no candidate groups")
        rng = np.random.default_rng(self.seed)
        state = make_selection_state(problem, self.use_fast_eval)

        best_selection: Optional[List[int]] = None
        best_penalized = float("-inf")
        total_iterations = 0
        trace: List[float] = []

        for _ in range(self.restarts):
            selection = self._random_start(problem, state, k, rng)
            selection, iterations = self._hill_climb(problem, state, selection, rng)
            total_iterations += iterations
            penalized = state.evaluate(selection)
            trace.append(penalized)
            if penalized > best_penalized:
                best_penalized = penalized
                best_selection = selection

        assert best_selection is not None
        elapsed = time.perf_counter() - start_time
        chosen = [candidates[i] for i in best_selection]
        ordered = sorted(chosen, key=lambda g: (-g.size, g.descriptor))
        return SolveResult(
            groups=ordered,
            objective=problem.objective(ordered),
            feasible=problem.is_feasible(ordered),
            iterations=total_iterations,
            restarts=self.restarts,
            elapsed_seconds=elapsed,
            solver=self.name,
            trace=trace,
        )

    # -- internals ---------------------------------------------------------------

    def _random_start(
        self,
        problem: MiningProblem,
        state,
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Sample k distinct candidates, then greedily repair coverage."""
        indices = rng.choice(len(problem.candidates), size=k, replace=False)
        selection = [int(i) for i in indices]
        return self._repair_coverage(problem, state, selection)

    def _repair_coverage(
        self,
        problem: MiningProblem,
        state,
        selection: List[int],
    ) -> List[int]:
        """Swap smallest groups for large candidates until coverage is met.

        Walks the candidates largest-first: each one not yet selected replaces
        the selection's smallest member (the first one, on ties) until the
        selection covers ``min_coverage``.  Two exact shortcuts return the
        list the full walk would, in O(k) steps when coverage is out of reach:

        * the exact bitset coverage is computed only once the selection's
          summed sizes reach ``min_coverage`` — a union never outgrows the
          sum of its parts, and ``count / total`` is monotone;
        * once the swapped-in group is strictly smaller than every other
          member and the summed sizes fall short, every later step would swap
          that same slot (later candidates are no larger, the other members
          come earlier in the walk) without meeting coverage, so the slot
          takes the walk's last candidate at once.  Size ties and repeated
          descriptors keep stepping.

        On a slice whose ``k`` largest groups cannot reach ``min_coverage``
        the walk thus ends, as the full walk does, holding the ``k - 1``
        largest groups and the smallest candidate — after about ``k + 1``
        steps and no exact coverage.
        """
        required = getattr(problem.config, "min_coverage", 0.0)
        total = problem.total_ratings
        sizes = state.sizes

        def met(indices, summed):
            return (
                coverage_from_count(summed, total) >= required
                and state.coverage(indices) >= required
            )

        summed = sum(sizes[i] for i in selection)
        if met(selection, summed):
            return selection
        order = state.by_size()
        repaired = list(selection)
        selected_keys = {state.key(i) for i in repaired}
        for big in order:
            if met(repaired, summed):
                break
            if state.key(big) in selected_keys:
                continue
            slot = min(range(len(repaired)), key=lambda i: sizes[repaired[i]])
            selected_keys.discard(state.key(repaired[slot]))
            summed += sizes[big] - sizes[repaired[slot]]
            repaired[slot] = big
            selected_keys.add(state.key(big))
            if (
                state.unique_descriptors
                and coverage_from_count(summed, total) < required
                and all(
                    sizes[big] < sizes[m] for p, m in enumerate(repaired) if p != slot
                )
            ):
                repaired[slot] = order[-1]
                break
        return repaired

    def _hill_climb(
        self,
        problem: MiningProblem,
        state,
        selection: List[int],
        rng: np.random.Generator,
    ) -> Tuple[List[int], int]:
        """First-improvement swap hill climbing on the penalised objective.

        The swap budget is exact: precisely ``min(max_iterations, trials
        attempted)`` evaluations happen and are counted — the budget check
        runs *before* each evaluation, so the count never overshoots and no
        evaluated trial is ever discarded.
        """
        candidates = problem.candidates
        current = list(selection)
        state.reset(current)
        current_value = state.value
        iterations = 0
        improved = True
        while improved and iterations < self.max_iterations:
            improved = False
            selected_keys = {state.key(i) for i in current}
            sample_size = min(self.neighborhood_sample, len(candidates))
            neighbor_indices = rng.choice(len(candidates), size=sample_size, replace=False)
            for candidate in neighbor_indices.tolist():
                if state.key(candidate) in selected_keys:
                    continue
                for position in range(len(current)):
                    if iterations >= self.max_iterations:
                        return current, iterations
                    iterations += 1
                    trial_value = state.trial(position, candidate)
                    if trial_value > current_value + 1e-12:
                        state.commit(position, candidate, trial_value)
                        current[position] = candidate
                        current_value = trial_value
                        improved = True
                        break
                if improved:
                    break
        return current, iterations
