"""Differential battery: the DFS kernel ≡ the naive reference on live stores.

The kernel properties in ``test_property_kernel.py`` draw small one-item
stores.  This battery runs the same comparison on the stores the server
actually mines: for 50 randomized ingest/compact schedules, a
:class:`~repro.data.ingest.LiveStore` replays appends and incremental
compactions (unseen zip codes grow the state/city vocabularies, so the code
columns under test are the remapped, delta-merged ones), and at every
compaction point the production enumeration (``use_kernel=True``) is compared
bit-for-bit against the boolean-mask reference (``use_kernel=False``) on the
three slice shapes the server builds:

* **whole store** — ``slice_all()``;
* **region** — one state's rows gathered through the attribute index's
  packed bitset (``GeoExplorer._region_slice`` with no selection), the slice
  whole-store geo mining reads;
* **item** — one item's rows (``slice_for_items``), the shape every HTTP
  mining endpoint builds from its query.

Each comparison draws the enumerator parameters (description length, support
threshold, geo anchoring) from the schedule's RNG, so the battery sweeps the
parameter space across seeds.  Identity is exact: same descriptors in the
same (DFS pre-)order, same member positions, same sizes and averages.

A second class runs whole-store region mining (``geo_explain_items(None,
region)``, which no HTTP endpoint reaches) end to end: the ``thread`` and
``process`` backends answer it, and ``explain``/``geo_explain``, with the
payloads of an inline system.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.cube import CandidateEnumerator
from repro.core.explanation import stable_payload
from repro.core.miner import RatingMiner
from repro.data.ingest import LiveStore
from repro.data.model import Rating, Reviewer
from repro.data.storage import RatingStore
from repro.geo.explorer import GeoExplorer
from repro.server.api import MapRat

#: Randomized schedules the battery replays (acceptance: at least 50).
NUM_SCHEDULES = 50

#: Unseen zip codes that grow the state/city vocabularies mid-schedule, so
#: incremental compaction remaps the codes the kernel reads.
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
def base_store(tiny_dataset):
    """One frozen epoch-0 store, shared read-only."""
    return RatingStore(tiny_dataset)


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


def assert_kernel_equals_naive(rating_slice, rng):
    """One drawn-parameter comparison of the two enumeration paths."""
    params = dict(
        grouping_attributes=ATTRIBUTES,
        max_description_length=int(rng.integers(1, 4)),
        min_support=int(rng.integers(2, 6)),
        require_geo_anchor=bool(rng.random() < 0.4),
    )
    fast_groups, fast_stats = CandidateEnumerator(
        rating_slice, **params
    ).enumerate_with_stats()
    slow_groups, slow_stats = CandidateEnumerator(
        rating_slice, use_kernel=False, **params
    ).enumerate_with_stats()
    assert fast_stats == slow_stats
    assert [g.descriptor for g in fast_groups] == [g.descriptor for g in slow_groups]
    for left, right in zip(fast_groups, slow_groups):
        assert np.array_equal(left.positions, right.positions)
        assert left.size == right.size
        assert left.mean == right.mean  # == on floats: bit-identical
        assert left.error == right.error
    return len(fast_groups)


def compare_all_slices(store, rng):
    """Run the three-slice comparison against one compacted snapshot."""
    # The whole store always has groups: the comparison is never vacuous.
    assert assert_kernel_equals_naive(store.slice_all(), rng) > 0

    # A drawn state with rows (fresh states join the draw once the schedule
    # has added them), gathered through the attribute index's bitset.
    explorer = GeoExplorer(RatingMiner(store, MINING))
    regions = [aggregate.region for aggregate in explorer.summary()]
    region = regions[int(rng.integers(0, len(regions)))]
    region_slice = explorer._region_slice(region, None, None)
    assert region_slice is not None and len(region_slice)
    assert_kernel_equals_naive(region_slice, rng)

    item_id, _ = store.most_rated_items(limit=1)[0]
    assert_kernel_equals_naive(store.slice_for_items([item_id]), rng)


class TestKernelDifferential:
    @pytest.mark.parametrize("seed", range(NUM_SCHEDULES))
    def test_kernel_equals_naive_across_compactions(
        self, base_store, tiny_dataset, seed
    ):
        rng = np.random.default_rng(seed)
        live = LiveStore(base_store, use_incremental=True)
        for operation in build_schedule(rng, tiny_dataset):
            if operation[0] == "append":
                live.ingest(operation[1], operation[2])
                continue
            live.compact()
            compare_all_slices(live.snapshot, rng)

    def test_epoch_zero_store_before_any_compaction(self, base_store):
        """The starting store (no deltas) passes the same three-slice check."""
        compare_all_slices(base_store, np.random.default_rng(1234))


def payload_bundle(system: MapRat, region: str) -> dict:
    """Served mining payloads, cache-bypassed (cold), wall clock stripped."""
    return {
        "explain": stable_payload(
            system.explain('title:"Toy Story"', use_cache=False).to_dict()
        ),
        "geo_item": stable_payload(
            system.geo_explain('title:"Toy Story"', region, use_cache=False).to_dict()
        ),
        "geo_store": stable_payload(
            system.geo_explain_items(None, region, use_cache=False).to_dict()
        ),
    }


class TestBackendDifferential:
    """Both mining backends serve an inline system's payloads."""

    @pytest.fixture(scope="class")
    def inline_bundle(self, tiny_dataset, mining_config):
        config = PipelineConfig(
            mining=mining_config, server=ServerConfig(mining_workers=0)
        )
        with MapRat.for_dataset(tiny_dataset, config) as system:
            region = GeoExplorer(system.miner).top_regions(limit=1)[0]
            return region, payload_bundle(system, region)

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 2),
        ("process", 2),
    ])
    def test_backend_payloads_identical(
        self, tiny_dataset, mining_config, inline_bundle, backend, workers
    ):
        region, expected = inline_bundle
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(mining_backend=backend, mining_workers=workers),
        )
        with MapRat.for_dataset(tiny_dataset, config) as system:
            bundle = payload_bundle(system, region)
        assert bundle == expected
