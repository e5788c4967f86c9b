"""Durability benchmark: WAL cost, snapshot recovery, warm-restart latency.

Measures what persistence costs on a synthetic 2,400-reviewer x 300-movie
dataset (~135k ratings) and records three scenarios into
``BENCH_durability.json``:

* **wal_throughput** — single-rating ingest rows/second without a journal
  (the in-memory baseline) and write-ahead logged under each fsync policy
  (``never`` / ``batch`` / ``always``; ``always`` runs fewer rows — it pays
  one fsync per record by design).
* **snapshot** — wall seconds to write the epoch snapshot, its size on
  disk, and recovery time from it (mmap + zero-copy re-slice) against the
  from-scratch store build it replaces.
* **warm_restart** — end-to-end restart latency: first start + cold explain
  vs a warm restart (snapshot recovery + warm-anchor replay) + the same
  explain served hot from the restored cache.

The store recovered from the snapshot must equal the compacted store it was
written from — columns, code columns, vocabularies and item index — or the
script exits 1.  The record carries the CPU count, Python, numpy, platform
and git sha of the run.

Run the writer (from the repository root)::

    python benchmarks/bench_durability.py            # writes BENCH_durability.json
    python benchmarks/bench_durability.py --quick    # fewer rows, same shape
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

# Make the src layout importable when the package is not installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np
from _record import environment

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.data.ingest import LiveStore
from repro.data.model import Rating
from repro.data.storage import RatingStore
from repro.data.synthetic import SyntheticConfig, SyntheticMovieLens
from repro.server.api import MapRat
from repro.server.recovery import DurabilityController

MINING_CONFIG = MiningConfig(max_groups=3, min_coverage=0.25, rhe_restarts=6)
DATASET_CONFIG = SyntheticConfig(
    num_reviewers=2400, num_movies=300, ratings_per_reviewer=50, seed=5
)


def build_dataset():
    return SyntheticMovieLens(DATASET_CONFIG).generate(name="bench-durability")


def make_ratings(dataset, count: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    item_ids = np.array([item.item_id for item in dataset.items()])
    reviewer_ids = np.array([r.reviewer_id for r in dataset.reviewers()])
    return [
        Rating(
            item_id=int(rng.choice(item_ids)),
            reviewer_id=int(rng.choice(reviewer_ids)),
            score=float(rng.integers(1, 6)),
            timestamp=int(4_000_000_000 + index),  # distinct: no dedup skew
        )
        for index in range(count)
    ]


def _ingest_rate(live: LiveStore, ratings) -> float:
    started = time.perf_counter()
    for rating in ratings:
        live.ingest(rating)
    return len(ratings) / (time.perf_counter() - started)


def bench_wal_throughput(dataset, store, rows: int) -> dict:
    results = {"rows": rows}
    results["no_journal_rows_per_second"] = round(
        _ingest_rate(LiveStore(store), make_ratings(dataset, rows)), 1
    )
    for policy in ("never", "batch", "always"):
        # One fsync per record: keep "always" short or the benchmark is
        # all disk latency.
        policy_rows = rows if policy != "always" else max(rows // 20, 100)
        with tempfile.TemporaryDirectory() as tmp:
            controller = DurabilityController(tmp, fsync=policy)
            live, _ = controller.recover(dataset, lambda _ds: store)
            rate = _ingest_rate(live, make_ratings(dataset, policy_rows))
            controller.close()
        results[f"wal_{policy}_rows_per_second"] = round(rate, 1)
        results[f"wal_{policy}_rows"] = policy_rows
    return results


def store_mismatches(left: RatingStore, right: RatingStore) -> list:
    """Names of the parts in which two stores differ (empty when identical)."""
    parts = [
        ("epoch", left.epoch == right.epoch),
        ("grouping_attributes", left.grouping_attributes == right.grouping_attributes),
    ]
    for name in ("_item_ids", "_reviewer_ids", "_scores", "_timestamps"):
        parts.append((name, np.array_equal(getattr(left, name), getattr(right, name))))
    for attribute in left.grouping_attributes:
        parts.append((
            f"codes.{attribute}",
            np.array_equal(left.codes_for(attribute), right.codes_for(attribute)),
        ))
        parts.append((
            f"vocabulary.{attribute}",
            np.array_equal(left.vocabulary_for(attribute), right.vocabulary_for(attribute)),
        ))
    same_items = set(left._positions_by_item) == set(right._positions_by_item)
    parts.append((
        "positions_by_item",
        same_items and all(
            np.array_equal(positions, right._positions_by_item[item_id])
            for item_id, positions in left._positions_by_item.items()
        ),
    ))
    return [name for name, same in parts if not same]


def bench_snapshot(dataset, store, delta_rows: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        controller = DurabilityController(tmp)
        live, _ = controller.recover(dataset, lambda _ds: store)
        live.ingest_batch([(r, None) for r in make_ratings(dataset, delta_rows)])
        started = time.perf_counter()
        live.compact()  # drains + writes snapshot-00000001.snap
        compact_and_snapshot_seconds = time.perf_counter() - started
        snapshot = controller.last_snapshot
        compacted = live.snapshot
        controller.close()

        started = time.perf_counter()
        recovered_controller = DurabilityController(tmp)
        recovered, report = recovered_controller.recover(
            dataset, lambda _ds: RatingStore(_ds)
        )
        recover_seconds = time.perf_counter() - started
        assert report.mode == "snapshot" and recovered.epoch == 1
        mismatches = store_mismatches(recovered.snapshot, compacted)
        recovered_controller.close()

    started = time.perf_counter()
    RatingStore(dataset)
    build_seconds = time.perf_counter() - started
    return {
        "store_rows": len(store) + delta_rows,
        "snapshot_bytes": snapshot["bytes"],
        "compact_and_snapshot_seconds": round(compact_and_snapshot_seconds, 4),
        "recover_from_snapshot_seconds": round(recover_seconds, 4),
        "cold_store_build_seconds": round(build_seconds, 4),
        "recovery_speedup_over_build": round(
            build_seconds / max(recover_seconds, 1e-9), 2
        ),
        "recovered_equals_compacted": not mismatches,
        "mismatches": mismatches,
    }


def bench_warm_restart(dataset) -> dict:
    config = PipelineConfig(
        mining=MINING_CONFIG,
        server=ServerConfig(
            mining_workers=0, warm_in_background=False, precompute_top_items=0
        ),
    )

    def timed(callable_):
        started = time.perf_counter()
        result = callable_()
        return result, time.perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        durable = PipelineConfig(
            mining=config.mining,
            server=ServerConfig(
                mining_workers=0,
                warm_in_background=False,
                precompute_top_items=0,
                data_dir=tmp,
            ),
        )
        system, first_start_seconds = timed(
            lambda: MapRat.for_dataset(dataset, durable)
        )
        top = system.precomputer.top_items(limit=1)[0].item_id
        _, cold_explain_seconds = timed(lambda: system.explain_items([top]))
        system.close()  # saves warm_anchors.json

        restarted, warm_restart_seconds = timed(
            lambda: MapRat.for_dataset(dataset, durable)
        )
        report = restarted.recovery_info()
        _, hot_explain_seconds = timed(lambda: restarted.explain_items([top]))
        restarted.close()

    return {
        "first_start_seconds": round(first_start_seconds, 4),
        "cold_explain_seconds": round(cold_explain_seconds, 4),
        "warm_restart_seconds": round(warm_restart_seconds, 4),
        "warm_anchors_replayed": report["recovery"]["warm_anchors_replayed"],
        "hot_explain_seconds": round(hot_explain_seconds, 6),
        "cold_over_hot_explain": round(
            cold_explain_seconds / max(hot_explain_seconds, 1e-9), 1
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_durability.json"
        ),
        help="where to write the JSON record (default: repo-root BENCH_durability.json)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer rows, same report shape"
    )
    args = parser.parse_args(argv)

    dataset = build_dataset()
    store = RatingStore(dataset)
    rows = 2000 if args.quick else 10000
    delta_rows = 200 if args.quick else 1000

    print(f"dataset: {dataset.num_ratings} ratings, store epoch {store.epoch}")
    throughput = bench_wal_throughput(dataset, store, rows)
    print(
        f"ingest rows/s: {throughput['no_journal_rows_per_second']} no journal, "
        f"{throughput['wal_never_rows_per_second']} wal=never, "
        f"{throughput['wal_batch_rows_per_second']} wal=batch, "
        f"{throughput['wal_always_rows_per_second']} wal=always"
    )
    snapshot = bench_snapshot(dataset, store, delta_rows)
    print(
        f"snapshot: {snapshot['snapshot_bytes']} bytes, recover "
        f"{snapshot['recover_from_snapshot_seconds']}s vs build "
        f"{snapshot['cold_store_build_seconds']}s "
        f"({snapshot['recovery_speedup_over_build']}x)"
    )
    warm = bench_warm_restart(dataset)
    print(
        f"warm restart: {warm['warm_restart_seconds']}s to serving with "
        f"{warm['warm_anchors_replayed']} anchor(s) hot; explain "
        f"{warm['hot_explain_seconds']}s hot vs {warm['cold_explain_seconds']}s cold"
    )

    report = {
        "benchmark": "durability",
        "environment": environment(),
        "dataset": {
            "reviewers": DATASET_CONFIG.num_reviewers,
            "movies": DATASET_CONFIG.num_movies,
            "ratings": dataset.num_ratings,
        },
        "quick": args.quick,
        "wal_throughput": throughput,
        "snapshot": snapshot,
        "warm_restart": warm,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    if snapshot["mismatches"]:
        print(
            "recovered store != compacted store: " + ", ".join(snapshot["mismatches"]),
            file=sys.stderr,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
