"""Differential battery: the process mining backend ≡ serial mining.

For randomized ingest/compact schedules, every published snapshot is mined
twice — once serially on the calling thread (the reference path) and once
through a :class:`~repro.server.procpool.ProcessMiningPool`, which exports
each epoch into shared memory and mines from spec tuples.  Every payload
must be **bit-identical** (descriptors, positions, float-== means): SM + DM
explanations, within-region geo mining and the per-region fan-out at every
published epoch, and a time-window selection at the end of the schedule.

Schedules skew the reviewer distribution (a hot handful takes most appends),
grow the state/city vocabularies mid-schedule (fresh reviewers with unseen
zip codes, so attached workers see remapped codes) and interleave ingest
with compaction, so the epoch protocol runs under the battery:

* every third seed publishes the way ``MapRat.compact`` does — the new epoch with
  ``retire_previous=False``, a probe of the *previous* epoch while both are
  live, then ``retire_older`` — and check that the retired epoch refuses
  work with :class:`~repro.errors.StaleEpochError`;
* the other seeds publish with the default immediate retirement;
* every 10th seed runs two spawned worker processes (shared-memory attach,
  scatter-gather over queues); the rest run the inline executor, which is
  the same spec executor without process startup, keeping the battery fast.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.core.miner import RatingMiner
from repro.data.ingest import LiveStore
from repro.data.model import Rating, Reviewer
from repro.data.storage import RatingStore
from repro.errors import MapRatError, StaleEpochError
from repro.geo.explorer import GeoExplorer
from repro.server.procpool import ProcessMiningPool

#: Randomized schedules the battery replays (acceptance: at least 50).
NUM_SCHEDULES = 50

#: Every 10th seed drives real spawned workers; the rest run inline.
SPAWN_EVERY = 10

#: Zip codes spread over several states, all resolvable, none in the tiny
#: dataset — fresh reviewers grow the zipcode/city/state vocabularies.
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


@pytest.fixture(scope="module")
def base_store(tiny_dataset):
    """One frozen epoch-0 store shared (read-only) by every schedule."""
    return RatingStore(tiny_dataset)


def build_schedule(rng, dataset):
    """One randomized skewed append/compact schedule + the items it touches."""
    item_ids = [item.item_id for item in dataset.items()]
    reviewer_ids = [reviewer.reviewer_id for reviewer in dataset.reviewers()]
    hot = [int(r) for r in rng.choice(reviewer_ids, size=3, replace=False)]
    operations = []
    touched = set()
    next_reviewer_id = 910_000
    for _ in range(int(rng.integers(1, 4))):
        for _ in range(int(rng.integers(6, 20))):
            roll = rng.random()
            if roll < 0.12:
                reviewer = Reviewer(
                    reviewer_id=next_reviewer_id,
                    gender="F" if rng.random() < 0.5 else "M",
                    age=int(rng.choice([1, 18, 25, 35, 45, 50, 56])),
                    occupation="programmer",
                    zipcode=FRESH_ZIPCODES[int(rng.integers(0, len(FRESH_ZIPCODES)))],
                )
                next_reviewer_id += 1
                reviewer_id = reviewer.reviewer_id
            else:
                reviewer = None
                pool = hot if roll < 0.7 else reviewer_ids
                reviewer_id = int(rng.choice(pool))
            rating = Rating(
                item_id=int(rng.choice(item_ids)),
                reviewer_id=reviewer_id,
                score=float(rng.integers(1, 6)),
                timestamp=int(rng.integers(*SYNTHETIC_SPAN)),
            )
            operations.append(("append", rating, reviewer))
            touched.add(rating.item_id)
        operations.append(("compact",))
    return operations, sorted(touched)


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


def explain_payload(store, item_ids, time_interval=None, pool=None) -> dict:
    result = RatingMiner(store, MINING).explain_items(
        item_ids, time_interval=time_interval, pool=pool
    )
    return strip_volatile(result.to_dict())


def geo_payloads(store, item_ids, pool=None) -> list:
    """Within-region mining of the two most-rated regions."""
    explorer = GeoExplorer(RatingMiner(store, MINING))
    return strip_volatile(
        [
            explorer.explain_region(item_ids, region, pool=pool).to_dict()
            for region in explorer.top_regions(item_ids, limit=2)
        ]
    )


def outcome(mine, *args, **kwargs):
    """A payload, or the error a narrow selection raises (type + message)."""
    try:
        return mine(*args, **kwargs)
    except MapRatError as exc:
        return type(exc).__name__, str(exc)


def random_interval(rng):
    """A time window inside the synthetic span (may select few ratings)."""
    start = int(rng.integers(SYNTHETIC_SPAN[0], SYNTHETIC_SPAN[1] - 200 * 86_400))
    return start, start + int(rng.integers(200, 800)) * 86_400


class TestProcessEqualsSerial:
    @pytest.mark.parametrize("seed", range(NUM_SCHEDULES))
    def test_process_mining_matches_serial(self, base_store, tiny_dataset, seed):
        rng = np.random.default_rng(seed)
        spawned = seed % SPAWN_EVERY == 0
        staged_publish = seed % 3 == 0
        operations, probes = build_schedule(rng, tiny_dataset)
        live = LiveStore(base_store)
        pool = ProcessMiningPool(workers=2 if spawned else 1)
        segments = set()
        try:
            pool.publish(live.snapshot)
            previous = live.snapshot
            for operation in operations:
                if operation[0] == "append":
                    live.ingest(operation[1], operation[2])
                    continue
                live.compact()
                snapshot = live.snapshot
                probe = probes[int(rng.integers(0, len(probes)))]
                if staged_publish:
                    # MapRat.compact's order: publish, serve the old epoch
                    # until the swap, then retire everything older.
                    pool.publish(snapshot, retire_previous=False)
                    assert pool.to_dict()["live_epochs"] == sorted(
                        {previous.epoch, snapshot.epoch}
                    )
                    assert explain_payload(previous, [probe], pool=pool) == (
                        explain_payload(previous, [probe])
                    ), f"old-epoch drift while epoch {snapshot.epoch} is live"
                    pool.retire_older(snapshot.epoch)
                else:
                    pool.publish(snapshot)
                segments.update(pool.segment_names())
                assert pool.current_epoch == snapshot.epoch
                assert pool.to_dict()["live_epochs"] == [snapshot.epoch]
                if previous.epoch != snapshot.epoch:
                    with pytest.raises(StaleEpochError):
                        RatingMiner(previous, MINING).explain_items([probe], pool=pool)
                assert explain_payload(snapshot, [probe], pool=pool) == (
                    explain_payload(snapshot, [probe])
                ), f"SM/DM drift at epoch {snapshot.epoch}"
                selection = None if rng.random() < 0.5 else probes
                assert geo_payloads(snapshot, selection, pool=pool) == (
                    geo_payloads(snapshot, selection)
                ), f"geo drift at epoch {snapshot.epoch}"
                previous = snapshot
            snapshot = live.snapshot
            assert snapshot.epoch > 0, "every schedule must compact at least once"
            interval = random_interval(rng)
            assert outcome(
                explain_payload, snapshot, probes, time_interval=interval, pool=pool
            ) == outcome(explain_payload, snapshot, probes, time_interval=interval)
        finally:
            pool.shutdown()
        assert pool.segment_names() == []
        assert bool(segments) == spawned  # inline pools export nothing
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
