"""Candidate group enumeration: the data cube over reviewer attributes (§2.1).

"The set of groups that has at least one rating tuple in R_I are then
constructed" (§2.3).  In practice MapRat restricts candidates to groups that

* are describable with at most ``max_description_length`` attribute/value
  pairs (so the label stays understandable),
* contain at least ``min_group_support`` rating tuples (support pruning —
  group support is anti-monotone in the description, so a DFS over the cube
  lattice can prune whole subtrees), and
* optionally include the geographic attribute so the group can be drawn on
  the map (§3.1).

:class:`CandidateEnumerator` performs that enumeration over one
:class:`~repro.data.storage.RatingSlice` and returns materialised
:class:`~repro.core.groups.Group` objects with cached statistics.

Two equivalent implementations are provided:

* the **integer-coded kernel** (default): lattice nodes carry the *positions*
  of their member tuples; expanding a node by one attribute is a single
  ``np.bincount`` over the node's code column (per-value supports for every
  value at once) plus one stable argsort that splits the node into per-value
  position segments.  No full-slice boolean mask is ever built.
* the **naive reference** (``use_kernel=False``): the seed implementation —
  one precomputed boolean mask per attribute/value pair, AND-combined per
  lattice node.  It is kept as the ground truth for the equivalence property
  tests and the ``BENCH_kernel.json`` before/after comparison.

Both walk the lattice in the same order and materialise groups through the
same :meth:`Group.from_positions`, so their outputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config import GEO_ATTRIBUTE, MiningConfig
from ..data.storage import RatingSlice
from ..errors import MiningError
from .groups import Group, GroupDescriptor


@dataclass(frozen=True)
class EnumerationStats:
    """Bookkeeping of one enumeration run (reported by benchmarks).

    Stats are **per-run values returned by**
    :meth:`CandidateEnumerator.enumerate_with_stats`, never stored on the
    enumerator: the warm pool and request threads share enumerator instances,
    and instance-level counters would interleave concurrent runs.

    Attributes:
        candidates: number of candidate groups returned by the run (after any
            geo filtering).
        explored: lattice nodes visited (support evaluations performed).
        pruned_by_support: nodes cut together with their subtrees.
    """

    candidates: int
    explored: int
    pruned_by_support: int


class _RunCounters:
    """Mutable explored/pruned tally threaded through one enumeration run."""

    __slots__ = ("explored", "pruned")

    def __init__(self) -> None:
        self.explored = 0
        self.pruned = 0


class CandidateEnumerator:
    """Enumerate candidate groups of one rating slice with support pruning."""

    def __init__(
        self,
        rating_slice: RatingSlice,
        grouping_attributes: Sequence[str] = ("gender", "age_group", "occupation", "state"),
        max_description_length: int = 3,
        min_support: int = 5,
        require_geo_anchor: bool = False,
        geo_attribute: str = GEO_ATTRIBUTE,
        use_kernel: bool = True,
    ) -> None:
        if max_description_length < 1:
            raise MiningError("max_description_length must be at least 1")
        if min_support < 1:
            raise MiningError("min_support must be at least 1")
        self.rating_slice = rating_slice
        self.grouping_attributes = tuple(grouping_attributes)
        self.max_description_length = max_description_length
        self.min_support = min_support
        self.require_geo_anchor = require_geo_anchor
        self.geo_attribute = geo_attribute
        self.use_kernel = use_kernel
        if require_geo_anchor and geo_attribute not in self.grouping_attributes:
            raise MiningError(
                f"geo anchoring requires {geo_attribute!r} among the grouping attributes"
            )

    @classmethod
    def from_config(
        cls, rating_slice: RatingSlice, config: MiningConfig
    ) -> "CandidateEnumerator":
        """Build an enumerator from a :class:`~repro.config.MiningConfig`."""
        return cls(
            rating_slice,
            grouping_attributes=config.grouping_attributes,
            max_description_length=config.max_description_length,
            min_support=config.min_group_support,
            require_geo_anchor=config.require_geo_anchor,
            geo_attribute=config.geo_anchor_attribute,
        )

    # -- enumeration -------------------------------------------------------------

    def enumerate(self) -> List[Group]:
        """Return all candidate groups satisfying support and description limits.

        The DFS walks attributes in a fixed order, extending the current
        partial group one attribute/value pair at a time.  A partial group
        that already falls below the support threshold is pruned together
        with all of its specialisations.
        """
        groups, _ = self.enumerate_with_stats()
        return groups

    def enumerate_with_stats(self) -> Tuple[List[Group], EnumerationStats]:
        """Like :meth:`enumerate`, additionally returning per-run statistics.

        The stats object is built from counters local to this call, so
        concurrent runs on one shared enumerator (warm pool + request thread)
        never interleave each other's ``explored``/``pruned_by_support``.
        """
        counters = _RunCounters()
        if self.rating_slice.is_empty():
            return [], EnumerationStats(0, 0, 0)
        if self.use_kernel:
            # The kernel applies the geo filter at emission time (skipping the
            # materialisation of groups the filter would drop); the naive
            # reference keeps the historical post-hoc filter.  Same output.
            groups = self._enumerate_kernel(counters)
        else:
            groups = self._enumerate_naive(counters)
            if self.require_geo_anchor:
                groups = [
                    g for g in groups if g.descriptor.has_attribute(self.geo_attribute)
                ]
        stats = EnumerationStats(
            candidates=len(groups),
            explored=counters.explored,
            pruned_by_support=counters.pruned,
        )
        return groups, stats

    # -- integer-coded kernel -----------------------------------------------------

    def _attribute_tables(self) -> List[Tuple[str, np.ndarray, np.ndarray, List[int]]]:
        """Per attribute: (name, codes, vocabulary, admissible value codes).

        A value code is admissible when the value is non-empty and its
        slice-level support already meets the threshold — the same filter the
        naive path applies when precomputing value masks, so both walks visit
        the exact same (attribute, value) sequence.
        """
        tables = []
        for attribute in self.grouping_attributes:
            codes = self.rating_slice.codes_for(attribute)
            vocabulary = self.rating_slice.vocabulary(attribute)
            counts = np.bincount(codes, minlength=vocabulary.shape[0])
            admissible = np.array(
                [
                    code
                    for code in np.flatnonzero(counts >= self.min_support).tolist()
                    if vocabulary[code]
                ],
                dtype=np.int64,
            )
            tables.append((attribute, codes, vocabulary, admissible))
        return tables

    def _enumerate_kernel(self, counters: _RunCounters) -> List[Group]:
        tables = self._attribute_tables()
        groups: List[Group] = []
        rows = np.arange(len(self.rating_slice), dtype=np.int64)
        self._extend_kernel(GroupDescriptor.empty(), rows, 0, tables, groups, counters)
        return groups

    def _extend_kernel(
        self,
        descriptor: GroupDescriptor,
        rows: np.ndarray,
        attribute_index: int,
        tables: List[Tuple[str, np.ndarray, np.ndarray, List[int]]],
        out: List[Group],
        counters: _RunCounters,
    ) -> None:
        if len(descriptor) >= self.max_description_length:
            return
        for next_index in range(attribute_index, len(tables)):
            attribute, codes, vocabulary, admissible = tables[next_index]
            if admissible.shape[0] == 0:
                continue
            node_codes = codes[rows]
            counts = np.bincount(node_codes, minlength=vocabulary.shape[0])
            admissible_counts = counts[admissible]
            viable = int((admissible_counts >= self.min_support).sum())
            counters.explored += admissible.shape[0]
            counters.pruned += admissible.shape[0] - viable
            if viable == 0:
                continue
            # Stable sort by code: per-value position segments, each ascending.
            order = np.argsort(node_codes, kind="stable")
            sorted_rows = rows[order]
            ends = np.cumsum(counts)
            for code, support in zip(
                admissible.tolist(), admissible_counts.tolist()
            ):
                if support < self.min_support:
                    continue
                end = int(ends[code])
                child_rows = sorted_rows[end - support : end]
                extended = descriptor.with_pair(attribute, vocabulary[code])
                if not self.require_geo_anchor or extended.has_attribute(
                    self.geo_attribute
                ):
                    out.append(
                        Group.from_positions(extended, self.rating_slice, child_rows)
                    )
                self._extend_kernel(
                    extended, child_rows, next_index + 1, tables, out, counters
                )

    # -- naive reference ----------------------------------------------------------

    def _enumerate_naive(self, counters: _RunCounters) -> List[Group]:
        value_masks = self._value_masks()
        groups: List[Group] = []
        all_mask = np.ones(len(self.rating_slice), dtype=bool)
        self._extend_naive(
            descriptor=GroupDescriptor.empty(),
            mask=all_mask,
            attribute_index=0,
            value_masks=value_masks,
            out=groups,
            counters=counters,
        )
        return groups

    def _value_masks(self) -> Dict[str, List[Tuple[str, np.ndarray]]]:
        """Precompute the boolean mask of every attribute/value pair."""
        masks: Dict[str, List[Tuple[str, np.ndarray]]] = {}
        for attribute in self.grouping_attributes:
            per_value: List[Tuple[str, np.ndarray]] = []
            for value in self.rating_slice.distinct_values(attribute):
                mask = self.rating_slice.mask_for(attribute, value)
                if int(mask.sum()) >= self.min_support:
                    per_value.append((value, mask))
            masks[attribute] = per_value
        return masks

    def _extend_naive(
        self,
        descriptor: GroupDescriptor,
        mask: np.ndarray,
        attribute_index: int,
        value_masks: Dict[str, List[Tuple[str, np.ndarray]]],
        out: List[Group],
        counters: _RunCounters,
    ) -> None:
        if len(descriptor) >= self.max_description_length:
            return
        for next_index in range(attribute_index, len(self.grouping_attributes)):
            attribute = self.grouping_attributes[next_index]
            for value, value_mask in value_masks[attribute]:
                counters.explored += 1
                combined = mask & value_mask
                support = int(combined.sum())
                if support < self.min_support:
                    counters.pruned += 1
                    continue
                extended = descriptor.with_pair(attribute, value)
                out.append(Group.from_mask(extended, self.rating_slice, combined))
                self._extend_naive(
                    extended, combined, next_index + 1, value_masks, out, counters
                )


def enumerate_candidates(
    rating_slice: RatingSlice, config: MiningConfig
) -> List[Group]:
    """Convenience wrapper: enumerate candidates under a mining configuration."""
    return CandidateEnumerator.from_config(rating_slice, config).enumerate()
