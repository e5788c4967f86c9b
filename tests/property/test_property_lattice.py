"""Differential battery: materialised-lattice enumeration ≡ the DFS reference.

For 50 randomized ingest/compact schedules, a lattice-carrying
:class:`~repro.data.ingest.LiveStore` replays appends and compactions (so the
lattice under test is the *delta-merged* one, not a fresh build), and at every
compaction point the three lattice fast-path modes are compared bit-for-bit
against ``use_lattice=False`` (the integer-coded DFS kernel, itself proven
equal to the naive reference in ``test_property_kernel.py``):

* **direct** — the whole-store slice (``slice_all``): candidates are read
  straight out of cuboid cells;
* **restrict** — a region slice cut through the attribute-index bitset path:
  cells come from the region-extended cuboid masked on the anchor code;
* **scan** — the fallback for a hinted slice that cannot use the cuboids
  (production item slices carry no hint — the DFS kernel wins on arbitrary
  subsets — so the battery manufactures the fallback explicitly).

Each comparison draws the enumerator parameters (description length, support
threshold, geo anchoring) from the schedule's RNG, so the battery sweeps the
parameter space across seeds.  Identity is exact: same descriptors in the
same (DFS pre-)order, same member positions, same sizes and averages.
``EnumerationStats.explored``/``pruned_by_support`` are intentionally *not*
compared — the lattice path counts cells, the DFS counts tree nodes.

A second class proves the equivalence end to end through both mining
backends: ``thread`` and ``process`` systems answer ``explain``
and ``geo_explain`` with identical (volatile-stripped) payloads whether the
lattice is on or off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.cube import CandidateEnumerator
from repro.core.miner import RatingMiner
from repro.data.ingest import LiveStore
from repro.data.lattice import CuboidLattice, LatticeHint
from repro.data.model import Rating, Reviewer
from repro.data.storage import RatingStore
from repro.geo.explorer import GeoExplorer
from repro.server.api import MapRat

#: Randomized schedules the battery replays (acceptance: at least 50).
NUM_SCHEDULES = 50

#: Unseen zip codes that grow the state/city vocabularies mid-schedule, so
#: the delta-merged lattice exercises the monotone key remaps.
FRESH_ZIPCODES = [
    "99501", "96801", "82001", "59001", "03031", "05001", "58001", "57001",
]

ATTRIBUTES = ("gender", "age_group", "occupation", "state")

MINING = MiningConfig(
    min_group_support=3,
    min_coverage=0.2,
    rhe_restarts=2,
    rhe_max_iterations=60,
)


@pytest.fixture(scope="module")
def lattice_base(tiny_dataset):
    """One frozen epoch-0 store with a built lattice, shared read-only."""
    store = RatingStore(tiny_dataset)
    store.attach_lattice(CuboidLattice.build(store))
    return store


def build_schedule(rng, dataset):
    """Randomized append/compact rounds; every round ends in a compaction."""
    item_ids = [item.item_id for item in dataset.items()]
    reviewer_ids = [reviewer.reviewer_id for reviewer in dataset.reviewers()]
    operations = []
    next_reviewer_id = 910_000
    for _ in range(int(rng.integers(1, 4))):
        for _ in range(int(rng.integers(5, 20))):
            if rng.random() < 0.2:
                reviewer = Reviewer(
                    reviewer_id=next_reviewer_id,
                    gender="F" if rng.random() < 0.5 else "M",
                    age=int(rng.choice([1, 18, 25, 35, 45, 50, 56])),
                    occupation="programmer",
                    zipcode=FRESH_ZIPCODES[int(rng.integers(0, len(FRESH_ZIPCODES)))],
                )
                next_reviewer_id += 1
                rating = Rating(
                    item_id=int(rng.choice(item_ids)),
                    reviewer_id=reviewer.reviewer_id,
                    score=float(rng.integers(1, 6)),
                    timestamp=int(rng.integers(0, 2_000_000_000)),
                )
                operations.append(("append", rating, reviewer))
            else:
                rating = Rating(
                    item_id=int(rng.choice(item_ids)),
                    reviewer_id=int(rng.choice(reviewer_ids)),
                    score=float(rng.integers(1, 6)),
                    timestamp=int(rng.integers(0, 2_000_000_000)),
                )
                operations.append(("append", rating, None))
        operations.append(("compact",))
    return operations


def assert_lattice_equals_dfs(rating_slice, rng, expected_mode):
    """One drawn-parameter comparison of the two enumeration paths."""
    params = dict(
        grouping_attributes=ATTRIBUTES,
        max_description_length=int(rng.integers(1, 4)),
        min_support=int(rng.integers(2, 6)),
        require_geo_anchor=bool(rng.random() < 0.4),
    )
    fast = CandidateEnumerator(rating_slice, use_lattice=True, **params)
    slow = CandidateEnumerator(rating_slice, use_lattice=False, **params)

    # The fast path must actually be the mode under test, not a silent
    # fallback to the DFS (which would make the comparison vacuous).
    hint = rating_slice.lattice_hint
    assert hint is not None
    assert fast._lattice_mode(hint, fast._lattice_subsets()) == expected_mode

    fast_groups, fast_stats = fast.enumerate_with_stats()
    slow_groups, slow_stats = slow.enumerate_with_stats()
    assert fast_stats.candidates == slow_stats.candidates
    assert [g.descriptor for g in fast_groups] == [g.descriptor for g in slow_groups]
    for left, right in zip(fast_groups, slow_groups):
        assert np.array_equal(left.positions, right.positions)
        assert left.size == right.size
        assert left.mean == right.mean  # == on floats: bit-identical
        assert left.error == right.error


def compare_all_modes(store, rng, mining_config):
    """Run the three-mode comparison against one compacted snapshot."""
    # direct: the whole-store slice reads cells straight out of the cuboids.
    assert_lattice_equals_dfs(store.slice_all(), rng, "direct")

    # restrict: a region slice through the attribute-index bitset path.
    explorer = GeoExplorer(RatingMiner(store, mining_config))
    region = explorer.top_regions(limit=1)[0]
    region_slice = explorer._region_slice(region, None, None)
    assert_lattice_equals_dfs(region_slice, rng, "restrict")

    # scan: the fallback when a hinted slice cannot use the cuboids.  Item
    # slices carry no hint in production (the kernel wins there), so the
    # fallback is manufactured explicitly to keep it proven bit-identical.
    item_id, _ = store.most_rated_items(limit=1)[0]
    item_slice = store.slice_for_items([item_id])
    assert item_slice.lattice_hint is None
    item_slice.lattice_hint = LatticeHint(store.lattice())
    assert_lattice_equals_dfs(item_slice, rng, "scan")


class TestLatticeDifferential:
    @pytest.mark.parametrize("seed", range(NUM_SCHEDULES))
    def test_lattice_equals_dfs_across_compactions(
        self, lattice_base, tiny_dataset, seed
    ):
        rng = np.random.default_rng(seed)
        live = LiveStore(lattice_base, use_incremental=True)
        for operation in build_schedule(rng, tiny_dataset):
            if operation[0] == "append":
                live.ingest(operation[1], operation[2])
                continue
            live.compact()
            snapshot = live.snapshot
            lattice = snapshot.lattice()
            assert lattice is not None, "compaction must carry the lattice"
            assert lattice.epoch == snapshot.epoch
            assert lattice.num_rows == len(snapshot)
            compare_all_modes(snapshot, rng, MINING)

    def test_epoch_zero_store_before_any_compaction(self, lattice_base):
        """The fresh build (no deltas) passes the same three-mode check."""
        compare_all_modes(lattice_base, np.random.default_rng(1234), MINING)

    def test_memoised_lookup_is_identical(self, tiny_dataset):
        """A repeat direct/restrict enumeration answers from the memo, identically."""
        store = RatingStore(tiny_dataset)
        store.attach_lattice(CuboidLattice.build(store))
        params = dict(
            grouping_attributes=ATTRIBUTES,
            max_description_length=3,
            min_support=3,
            require_geo_anchor=False,
        )
        first, first_stats = CandidateEnumerator(
            store.slice_all(), use_lattice=True, **params
        ).enumerate_with_stats()
        assert store.lattice().candidate_memo, "direct mode must memoise"
        again, again_stats = CandidateEnumerator(
            store.slice_all(), use_lattice=True, **params
        ).enumerate_with_stats()
        assert first_stats == again_stats
        assert [g.descriptor for g in first] == [g.descriptor for g in again]
        for left, right in zip(first, again):
            assert np.array_equal(left.positions, right.positions)
            assert left.mean == right.mean and left.error == right.error

    def test_stale_hint_falls_back_to_scan(self, lattice_base, tiny_dataset):
        """A hint whose lattice no longer matches the slice scans, identically."""
        live = LiveStore(lattice_base, use_incremental=True)
        reviewer = next(tiny_dataset.reviewers())
        item = next(tiny_dataset.items())
        live.ingest(Rating(item.item_id, reviewer.reviewer_id, 5.0, 77))
        live.compact()
        grown = live.snapshot.slice_all()
        # Re-point the hint at the *old* epoch's lattice: num_rows mismatch.
        grown.lattice_hint = LatticeHint(lattice_base.lattice(), whole_store=True)
        assert_lattice_equals_dfs(grown, np.random.default_rng(99), "scan")

    def test_lattice_matches_naive_reference(self, lattice_base):
        """Close the triangle: lattice == naive DFS (not just the kernel)."""
        rating_slice = lattice_base.slice_all()
        params = dict(
            grouping_attributes=ATTRIBUTES,
            max_description_length=2,
            min_support=3,
            require_geo_anchor=True,
        )
        fast = CandidateEnumerator(rating_slice, use_lattice=True, **params)
        naive = CandidateEnumerator(
            rating_slice, use_lattice=False, use_kernel=False, **params
        )
        fast_groups = fast.enumerate()
        naive_groups = naive.enumerate()
        assert [g.descriptor for g in fast_groups] == [
            g.descriptor for g in naive_groups
        ]
        for left, right in zip(fast_groups, naive_groups):
            assert np.array_equal(left.positions, right.positions)


def normalized(payload) -> dict:
    """JSON round-trip with every (volatile) elapsed_seconds removed."""
    payload = json.loads(json.dumps(payload))

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_seconds"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(payload)


def payload_bundle(system: MapRat) -> dict:
    """The served surfaces a lattice can influence, cache-bypassed (cold)."""
    region = GeoExplorer(system.miner).top_regions(limit=1)[0]
    return {
        "explain": normalized(
            system.explain('title:"Toy Story"', use_cache=False).to_dict()
        ),
        "geo_item": normalized(
            system.geo_explain('title:"Toy Story"', region, use_cache=False).to_dict()
        ),
        "geo_store": normalized(
            system.geo_explain_items(None, region, use_cache=False).to_dict()
        ),
    }


class TestBackendDifferential:
    """Both mining backends serve identical payloads with the lattice on."""

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 2),
        ("process", 2),
    ])
    def test_backend_payloads_identical(
        self, tiny_dataset, mining_config, backend, workers
    ):
        bundles = {}
        for use_lattice in (False, True):
            config = PipelineConfig(
                mining=mining_config,
                server=ServerConfig(
                    mining_backend=backend,
                    mining_workers=workers,
                    use_cuboid_lattice=use_lattice,
                ),
            )
            system = MapRat.for_dataset(tiny_dataset, config)
            try:
                assert (system.miner.store.lattice() is not None) == use_lattice
                bundles[use_lattice] = payload_bundle(system)
            finally:
                system.close()
        assert bundles[True] == bundles[False]
