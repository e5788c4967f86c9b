"""Differential battery: a live, cached MapRat ≡ fresh mining of its snapshot.

``MapRat.compact`` does not recompute its cache: entries whose item
selection the delta did not touch are **carried forward** to the new epoch
(their slices — hence results — are unchanged by construction), touched
anchors are dropped and, with ``rewarm``, re-mined against the new snapshot,
and the geo explorer keeps its region hierarchy across the swap.  This
battery checks that contract end to end: for randomized ingest/compact
schedules driven through the façade (``MapRat.ingest``/``compact``), after
every compaction each anchor the system had cached — carried, re-warmed or
recomputed on demand — must equal a from-scratch
:class:`~repro.core.miner.RatingMiner` / :class:`~repro.geo.explorer.GeoExplorer`
mine of the new snapshot, bit for bit (volatile timings stripped).

Schedules grow the vocabularies (fresh reviewers with unseen zip codes, some
in states the tiny dataset lacks), mix touched and untouched anchors, item,
region and timeline anchors, whole-period and time-window anchors, and
re-warming on and off.  A timeline anchor is compared year by year with a
fresh :class:`~repro.explore.timeline.TimelineExplorer`.  Untouched anchors
must be served as cache hits — every mined year of an untouched timeline
too: a carried entry is never silently recomputed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MiningConfig, PipelineConfig
from repro.core.miner import RatingMiner
from repro.errors import MapRatError
from repro.explore.timeline import TimelineExplorer
from repro.geo.explorer import GeoExplorer
from repro.server.api import MapRat

#: Randomized schedules the battery replays (acceptance: at least 50).
NUM_SCHEDULES = 50

#: Unseen zip codes (several in states absent from the tiny dataset).
FRESH_ZIPCODES = [
    "99501", "96801", "82001", "59001", "03031", "05001", "58001", "57001",
    "83201", "97035", "33101", "60601", "75201", "10118", "02108", "94105",
]

#: Timestamp span of the synthetic ratings (2000-01-01 .. 2003-12-31 UTC).
SYNTHETIC_SPAN = (946_684_800, 1_072_915_199)

MINING = MiningConfig(
    min_group_support=3,
    min_coverage=0.2,
    rhe_restarts=2,
    rhe_max_iterations=60,
)

#: ``min_ratings`` of the timeline anchors: most years of a tiny item mine.
TIMELINE_MIN_RATINGS = 5


def strip_volatile(payload):
    """Drop wall-clock fields recursively; everything else compares exactly."""
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value)
            for key, value in payload.items()
            if key != "elapsed_seconds"
        }
    if isinstance(payload, list):
        return [strip_volatile(value) for value in payload]
    return payload


def outcome(mine):
    """A volatile-stripped payload, or the error the selection raises."""
    try:
        result = mine()
    except MapRatError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, list):  # a timeline: one payload per year
        return [strip_volatile(year.to_dict()) for year in result]
    return strip_volatile(result.to_dict())


def ingest_round(system, rng, item_ids, reviewer_ids, next_reviewer_id) -> tuple:
    """Ingest one skewed burst; returns (items touched, next fresh id)."""
    touched = set()
    hot = [int(r) for r in rng.choice(reviewer_ids, size=3, replace=False)]
    for _ in range(int(rng.integers(4, 16))):
        roll = rng.random()
        reviewer = None
        if roll < 0.15:
            reviewer_id = next_reviewer_id
            next_reviewer_id += 1
            reviewer = {
                "reviewer_id": reviewer_id,
                "gender": "F" if rng.random() < 0.5 else "M",
                "age": int(rng.choice([1, 18, 25, 35, 45, 50, 56])),
                "occupation": "programmer",
                "zipcode": FRESH_ZIPCODES[int(rng.integers(0, len(FRESH_ZIPCODES)))],
            }
        else:
            reviewer_id = int(rng.choice(hot if roll < 0.7 else reviewer_ids))
        item_id = int(rng.choice(item_ids))
        system.ingest(
            item_id,
            reviewer_id,
            float(rng.integers(1, 6)),
            timestamp=int(rng.integers(*SYNTHETIC_SPAN)),
            reviewer=reviewer,
        )
        touched.add(item_id)
    return touched, next_reviewer_id


def draw_anchors(system, rng, item_ids) -> list:
    """Cache a random mix of explain and geo-explain anchors on ``system``."""
    anchors = []
    for _ in range(int(rng.integers(2, 5))):
        size = int(rng.integers(1, 3))
        drawn = rng.choice(item_ids, size=size, replace=False)
        ids = tuple(sorted(int(i) for i in drawn))
        interval = None
        if rng.random() < 0.25:
            window = 400 * 86_400
            start = int(rng.integers(SYNTHETIC_SPAN[0], SYNTHETIC_SPAN[1] - window))
            interval = (start, start + window)
        anchors.append(("explain", ids, interval))
    ids = tuple(sorted(int(i) for i in rng.choice(item_ids, size=2, replace=False)))
    region = system.geo.summary(list(ids))[0].region
    anchors.append(("geo", ids, region))
    query = f'title:"{system.dataset.item(int(rng.choice(item_ids))).title}"'
    anchors.append(("timeline", tuple(system.engine.matching_item_ids(query)), query))
    for anchor in anchors:
        outcome(lambda: serve(system, anchor))  # populate the cache
    return anchors


def serve(system, anchor):
    """Answer one anchor through the façade (cache and all)."""
    if anchor[0] == "explain":
        return system.explain_items(list(anchor[1]), time_interval=anchor[2])
    if anchor[0] == "timeline":
        return system.timeline(anchor[2], min_ratings=TIMELINE_MIN_RATINGS)
    return system.geo_explain_items(list(anchor[1]), anchor[2])


def mine_fresh(store, anchor):
    """Answer one anchor from scratch on ``store``: no cache, new explorers."""
    miner = RatingMiner(store, MINING)
    if anchor[0] == "explain":
        return miner.explain_items(list(anchor[1]), time_interval=anchor[2])
    if anchor[0] == "timeline":
        return TimelineExplorer(miner).interpretations_by_year(
            list(anchor[1]), min_ratings=TIMELINE_MIN_RATINGS
        )
    return GeoExplorer(miner).explain_region(list(anchor[1]), anchor[2])


def cached_reads(served) -> int:
    """Cache reads an answer took: one per anchor, one per mined year."""
    if isinstance(served, list):
        return sum(1 for year in served if year["result"] is not None)
    return 1


class TestLiveSystemEqualsFreshMining:
    @pytest.mark.parametrize("seed", range(NUM_SCHEDULES))
    def test_cached_answers_match_fresh_mining(self, tiny_dataset, seed):
        rng = np.random.default_rng(seed)
        system = MapRat.for_dataset(tiny_dataset, PipelineConfig(mining=MINING))
        item_ids = [item.item_id for item in tiny_dataset.items()]
        reviewer_ids = [reviewer.reviewer_id for reviewer in tiny_dataset.reviewers()]
        next_reviewer_id = 920_000
        try:
            for _ in range(int(rng.integers(1, 4))):
                anchors = draw_anchors(system, rng, item_ids)
                touched, next_reviewer_id = ingest_round(
                    system, rng, item_ids, reviewer_ids, next_reviewer_id
                )
                old_epoch = system.epoch
                payload = system.compact(rewarm=bool(rng.random() < 0.5))
                assert payload["compacted"] and system.epoch == old_epoch + 1
                for anchor in anchors:
                    untouched = not touched.intersection(anchor[1])
                    hits = system.cache.stats.hits
                    served = outcome(lambda: serve(system, anchor))
                    if untouched and not isinstance(served, tuple):
                        assert system.cache.stats.hits == hits + cached_reads(served), (
                            f"carried anchor {anchor} was recomputed"
                        )
                    assert served == outcome(
                        lambda: mine_fresh(system.store, anchor)
                    ), f"{anchor} drifted at epoch {system.epoch}"
            assert system.epoch > 0
        finally:
            system.close()
