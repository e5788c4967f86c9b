"""Concurrency stress: writers ingest + compact while readers keep serving.

The serving contract under live ingestion:

* **no torn snapshots** — every response is computed against exactly one
  epoch's store (a mining result's rating count always matches a store state
  that actually existed),
* **monotone epochs** — a reader never observes the store going backwards,
* **zero stale-epoch reads** — once the final compaction lands, cached reads
  reflect the newest snapshot exactly,
* the cache invariant ``hits + misses == requests`` survives the churn.

The tier-1 variant keeps the thread counts and iteration budgets small; the
``slow`` variant scales them up for the long-haul lane.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.server.api import MapRat

#: The item every reader mines and every writer touches.
PROBE_ITEM = 1

MINING = MiningConfig(
    min_group_support=3, min_coverage=0.2, rhe_restarts=2, rhe_max_iterations=40
)


def build_system(tiny_dataset, workers: int = 2) -> MapRat:
    config = PipelineConfig(
        mining=MINING,
        server=ServerConfig(mining_workers=workers, cache_capacity=512),
    )
    return MapRat.for_dataset(tiny_dataset, config)


def run_stress(system, writers, readers, writes_per_writer, reads_per_reader,
               compact_every):
    reviewer_ids = [r.reviewer_id for r in system.dataset.reviewers()]
    item_ids = [i.item_id for i in system.dataset.items()][:10]
    errors = []
    # Per-epoch ground truth, recorded under a lock right after each swap.
    # ``compact_lock`` serialises the writers' compact-then-record sequence,
    # so every committed epoch is recorded before the next one can land
    # (compactions are serialised inside MapRat anyway).
    history_lock = threading.Lock()
    compact_lock = threading.Lock()
    probe_counts = {0: len(system.miner.slice_for_items([PROBE_ITEM]))}
    epochs_seen = [0]

    def writer(writer_index: int) -> None:
        try:
            for step in range(writes_per_writer):
                item = item_ids[(writer_index + step) % len(item_ids)]
                reviewer = reviewer_ids[(writer_index * 7 + step) % len(reviewer_ids)]
                # Distinct timestamps per (writer, step): no accidental dups.
                timestamp = 3_000_000_000 + writer_index * 1_000_000 + step
                system.ingest(item, reviewer, float(1 + step % 5), timestamp=timestamp)
                if (step + 1) % compact_every == 0:
                    with compact_lock:
                        payload = system.compact(rewarm=False)
                        if payload["compacted"]:
                            serving = system.serving
                            with history_lock:
                                epochs_seen.append(serving.epoch)
                                probe_counts[serving.epoch] = len(
                                    serving.miner.slice_for_items([PROBE_ITEM])
                                )
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    def reader(reader_index: int) -> None:
        try:
            last_epoch = -1
            last_count = -1
            for step in range(reads_per_reader):
                if step % 3 == 0:
                    stats = system.store_stats()
                    assert stats["epoch"] >= last_epoch, "epoch went backwards"
                    last_epoch = stats["epoch"]
                elif step % 3 == 1:
                    result = system.explain_items([PROBE_ITEM])
                    count = result.query.num_ratings
                    # A freshly swapped epoch may be observed a beat before
                    # the writer records it in the history map; give the
                    # recording a bounded moment before declaring a tear.
                    for _ in range(200):
                        with history_lock:
                            known = set(probe_counts.values())
                        if count in known:
                            break
                        time.sleep(0.005)
                    assert count in known, (
                        f"torn snapshot: observed {count} ratings for the probe "
                        f"item, never a committed epoch state {sorted(known)}"
                    )
                    assert count >= last_count, "reader observed the store shrinking"
                    last_count = count
                else:
                    payload = system.geo_drilldown(region="CA")
                    assert payload["by"] == "city"
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(index,)) for index in range(writers)
    ] + [
        threading.Thread(target=reader, args=(index,)) for index in range(readers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    # Monotone epochs overall, and a final compaction drains the buffer.
    assert epochs_seen == sorted(epochs_seen)
    system.compact(rewarm=False)
    final_epoch = system.epoch
    assert len(system.live.buffer) == system.live.buffer.pending_reviewers == 0

    # Zero stale-epoch reads: the cached post-ingest read reflects the newest
    # compacted snapshot bit-exactly (same count as an uncached recompute).
    cached = system.explain_items([PROBE_ITEM])
    fresh = system.explain_items([PROBE_ITEM], use_cache=False)
    assert cached.query.num_ratings == fresh.query.num_ratings
    assert cached.query.num_ratings == len(system.miner.slice_for_items([PROBE_ITEM]))
    assert system.epoch == final_epoch

    # Every request landed in exactly one of hits/misses.
    stats = system.cache.stats
    assert stats.hits + stats.misses == stats.requests


class TestIngestStress:
    def test_writers_and_readers_share_the_system(self, tiny_dataset):
        system = build_system(tiny_dataset)
        run_stress(
            system,
            writers=2,
            readers=2,
            writes_per_writer=18,
            reads_per_reader=15,
            compact_every=6,
        )

    @pytest.mark.slow
    def test_long_haul_stress(self, tiny_dataset):
        system = build_system(tiny_dataset, workers=4)
        run_stress(
            system,
            writers=4,
            readers=4,
            writes_per_writer=120,
            reads_per_reader=90,
            compact_every=10,
        )
