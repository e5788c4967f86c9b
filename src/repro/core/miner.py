"""RatingMiner: the "Rating Mining" architecture component of §2.3.

"This module accepts a set of items I from the front-end and collects all the
corresponding rating tuples R_I.  The set of groups that has at least one
rating tuple in R_I are then constructed.  The next step is to cast the
problem as an optimization task corresponding to each of the two sub-problems:
Similarity Mining and Diversity Mining.  For each of the two sub-problems, the
RHE algorithm is employed to retrieve the best set of reviewer groups that
provide meaningful rating interpretations."

:class:`RatingMiner` is exactly that pipeline, with the solver pluggable so the
benchmarks can swap in the baselines.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple

from ..config import MiningConfig
from ..data.model import Item, RatingDataset
from ..data.storage import RatingSlice, RatingStore
from ..errors import EmptyRatingSetError, MiningError
from .cube import enumerate_candidates
from .explanation import Explanation, MiningResult, QuerySummary
from .problems import DiversityProblem, MiningProblem, SimilarityProblem
from .rhe import RandomizedHillExploration, SolveResult


class RatingMiner:
    """End-to-end mining of meaningful explanations for an item selection."""

    def __init__(
        self,
        store: RatingStore,
        config: Optional[MiningConfig] = None,
        solver: Optional[RandomizedHillExploration] = None,
    ) -> None:
        self.store = store
        self.config = config or MiningConfig()
        self.solver = solver or RandomizedHillExploration.from_config(self.config)

    @classmethod
    def build_store(
        cls, dataset: RatingDataset, config: Optional[MiningConfig] = None
    ) -> RatingStore:
        """Build the indexed store :meth:`for_dataset` would mine over.

        Exposed separately so the recovery layer can rebuild a base store
        (when no snapshot exists yet) with the exact same grouping attributes
        a normal startup would use.
        """
        config = config or MiningConfig()
        grouping = tuple(
            dict.fromkeys(
                tuple(config.grouping_attributes) + ("state", "city", "zipcode")
            )
        )
        return RatingStore(dataset, grouping_attributes=grouping)

    @classmethod
    def for_dataset(
        cls, dataset: RatingDataset, config: Optional[MiningConfig] = None
    ) -> "RatingMiner":
        """Build a miner (and its indexed store) directly from a dataset."""
        config = config or MiningConfig()
        return cls(cls.build_store(dataset, config), config)

    # -- slicing ------------------------------------------------------------------

    def slice_for_items(
        self,
        item_ids: Iterable[int],
        time_interval: Optional[Tuple[int, int]] = None,
    ) -> RatingSlice:
        """Collect ``R_I`` for the item selection (optionally time-restricted)."""
        return self.store.slice_for_items(item_ids, time_interval=time_interval)

    # -- mining -------------------------------------------------------------------

    def mine_similarity(
        self, rating_slice: RatingSlice, config: Optional[MiningConfig] = None
    ) -> Explanation:
        """Run Similarity Mining on a prepared slice."""
        config = config or self.config
        candidates = self._candidates(rating_slice, config)
        return self._solve(SimilarityProblem, rating_slice, config, candidates)

    def mine_diversity(
        self, rating_slice: RatingSlice, config: Optional[MiningConfig] = None
    ) -> Explanation:
        """Run Diversity Mining on a prepared slice."""
        config = config or self.config
        candidates = self._candidates(rating_slice, config)
        return self._solve(DiversityProblem, rating_slice, config, candidates)

    def mine_pair(
        self, rating_slice: RatingSlice, config: Optional[MiningConfig] = None
    ) -> Tuple[Explanation, Explanation]:
        """Run SM then DM over one candidate enumeration of a prepared slice.

        The groups of ``R_I`` are built once (§2.3) and both solves read the
        same :class:`~repro.core.groups.Group` objects, so DM reuses the
        packed bitsets SM cached.  Each solve seeds its own generator from
        ``config.seed``, so the pair is bit-identical to separate
        :meth:`mine_similarity` and :meth:`mine_diversity` calls.
        """
        config = config or self.config
        candidates = self._candidates(rating_slice, config)
        return (
            self._solve(SimilarityProblem, rating_slice, config, candidates),
            self._solve(DiversityProblem, rating_slice, config, candidates),
        )

    @staticmethod
    def _candidates(rating_slice: RatingSlice, config: MiningConfig) -> List:
        if rating_slice.is_empty():
            raise EmptyRatingSetError("the item selection matches no rating tuples")
        candidates = enumerate_candidates(rating_slice, config)
        if not candidates:
            raise MiningError(
                "no candidate group meets the support/description constraints; "
                "lower min_group_support or relax the description limit"
            )
        return candidates

    def _solve(
        self,
        problem_class,
        rating_slice: RatingSlice,
        config: MiningConfig,
        candidates: List,
    ) -> Explanation:
        problem: MiningProblem = problem_class(rating_slice, candidates, config)
        solver = (
            self.solver
            if config is self.config
            else RandomizedHillExploration.from_config(config)
        )
        result: SolveResult = solver.solve(problem)
        return Explanation.from_solve_result(problem.task, result, rating_slice)

    # -- the one-call façade ---------------------------------------------------------

    def explain_items(
        self,
        item_ids: Sequence[int],
        description: str = "",
        time_interval: Optional[Tuple[int, int]] = None,
        config: Optional[MiningConfig] = None,
        pool=None,
    ) -> MiningResult:
        """Produce the SM + DM interpretations for an item selection.

        This is what the front-end's "Explain Ratings" button triggers: slice
        the ratings, mine both tasks over one candidate enumeration
        (:meth:`mine_pair`), and package the result for the visualization
        layer.

        Args:
            item_ids: the items selected by the query layer.
            description: human-readable query description for reports.
            time_interval: optional ``(start, end)`` timestamp restriction.
            config: per-call override of the mining configuration.
            pool: optional :class:`~repro.server.pool.MiningWorkerPool` or
                :class:`~repro.server.procpool.ProcessMiningPool`.  A thread
                pool receives the whole SM + DM pair as **one** task, so its
                gather deadline bounds the request's mining.  A process pool
                receives the two tasks as spec tuples — its workers re-slice
                the selection from the shared-memory snapshot of this
                store's epoch and mine there; the query summary is still
                assembled here, where the item catalogue lives.  Each solve
                seeds its own generator from ``config.seed``, so the result
                is bit-identical to the inline path for a fixed seed.  Never
                pass a parallel thread pool whose workers may already be
                executing this call (nested submission can exhaust the pool
                and deadlock); process-pool nesting is safe — worker
                processes never submit.
        """
        config = config or self.config
        started_at = time.perf_counter()
        rating_slice = self.slice_for_items(item_ids, time_interval=time_interval)
        items = [
            self.store.dataset.item(item_id)
            for item_id in item_ids
            if self.store.dataset.has_item(item_id)
        ]
        if pool is not None and getattr(pool, "kind", "thread") == "process":
            similarity, diversity = pool.mine_pair(
                self.store.epoch, list(item_ids), time_interval, config
            )
        elif pool is not None:
            similarity, diversity = pool.gather(
                pool.submit(self.mine_pair, rating_slice, config)
            )
        else:
            similarity, diversity = self.mine_pair(rating_slice, config)
        elapsed = time.perf_counter() - started_at
        query = QuerySummary.build(
            description or f"{len(items)} item(s)",
            items,
            rating_slice,
            time_interval,
        )
        return MiningResult(
            query=query,
            similarity=similarity,
            diversity=diversity,
            config=config,
            elapsed_seconds=elapsed,
        )

    def explain_title(
        self,
        title: str,
        time_interval: Optional[Tuple[int, int]] = None,
        config: Optional[MiningConfig] = None,
    ) -> MiningResult:
        """Convenience: explain the ratings of every item with a given title."""
        items = self.store.dataset.items_by_title(title)
        if not items:
            raise EmptyRatingSetError(f"no item titled {title!r}")
        return self.explain_items(
            [item.item_id for item in items],
            description=f'title:"{title}"',
            time_interval=time_interval,
            config=config,
        )
