"""Crash battery: kill-and-recover ≡ the run that was never killed.

For randomized ingest/compact schedules, a durable
:class:`~repro.data.ingest.LiveStore` is killed mid-operation by a fault
injected at one of the four crash-critical points — during a WAL append
(optionally tearing the record), during the WAL rotation of a compaction,
during the snapshot write (optionally truncating the temp file), or right
before the atomic snapshot rename.  A fresh
:class:`~repro.server.recovery.DurabilityController` then crash-recovers the
data directory and the schedule is resumed from the killed operation
(inclusive — a killed op is, by construction, never durable *except* for a
completed compaction whose re-application is a no-op).

The recovered store must be bit-identical to a plain in-memory reference
that replayed the whole schedule without ever crashing: identical columns,
vocabularies, code columns and inverted index, identical pending buffer,
and — spot-checked across the battery — identical SM/DM mining and geo
payloads.  A final compaction on both sides verifies the buffered tail too.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_property_ingest import (
    FRESH_ZIPCODES,
    assert_stores_identical,
    geo_payloads,
    mining_payload,
)

from repro.data.ingest import LiveStore
from repro.data.model import Rating, Reviewer
from repro.data.storage import RatingStore
from repro.server.recovery import DurabilityController

#: Randomized kill-and-recover schedules (acceptance: at least 50).
NUM_SCHEDULES = 50


@pytest.fixture(scope="module")
def base_store(tiny_dataset):
    """One frozen epoch-0 store shared (read-only) by every schedule."""
    return RatingStore(tiny_dataset)

#: The four crash points, cycled across seeds so each gets equal coverage.
KILL_KINDS = ("wal.append", "wal.rotate", "snapshot.write", "snapshot.rename")


class SimulatedCrash(RuntimeError):
    """Raised by the injector in place of the process dying."""


class CrashInjector:
    """Fault hook that kills the process once, at an armed crash point.

    When armed with a ``partial`` fraction, the injector first writes that
    prefix of the pending bytes (a torn WAL record, a truncated snapshot
    temp file) through the handle the caller was about to use — simulating
    a crash landing mid-``write``.
    """

    def __init__(self) -> None:
        self.armed = None  # (point, partial_fraction_or_None)
        self.fired = False

    def arm(self, point: str, partial=None) -> None:
        self.armed = (point, partial)

    def __call__(self, point: str, **context) -> None:
        if self.armed is None or point != self.armed[0]:
            return
        _, partial = self.armed
        self.armed = None
        self.fired = True
        if partial is not None:
            data = context["data"]
            context["file"].write(data[: int(len(data) * partial)])
        raise SimulatedCrash(f"killed at {point}")


def build_crash_schedule(rng, dataset):
    """One randomized schedule plus the op indexes each kill kind may target.

    Returns ``(operations, ingest_indexes, compact_indexes)`` where
    ``operations`` mixes ``("ingest", rating, reviewer_or_None)`` and
    ``("compact",)``; ``ingest_indexes`` are guaranteed-accepted (fresh,
    non-duplicate) ingests — only those reach the ``wal.append`` fault point
    — and ``compact_indexes`` are compactions with a non-empty buffer, so a
    kill there always lands inside real drain/snapshot work.
    """
    item_ids = [item.item_id for item in dataset.items()]
    reviewer_ids = [reviewer.reviewer_id for reviewer in dataset.reviewers()]
    known_new = []
    operations, ingest_indexes, compact_indexes = [], [], []
    next_reviewer_id = 900_000
    appended = []
    for _ in range(int(rng.integers(2, 4))):
        for _ in range(int(rng.integers(4, 12))):
            roll = rng.random()
            reviewer = None
            if roll < 0.25:
                zipcode = FRESH_ZIPCODES[int(rng.integers(0, len(FRESH_ZIPCODES)))]
                reviewer = Reviewer(
                    reviewer_id=next_reviewer_id,
                    gender="F" if rng.random() < 0.5 else "M",
                    age=int(rng.choice([1, 18, 25, 35, 45, 50, 56])),
                    occupation="programmer",
                    zipcode=zipcode,
                )
                next_reviewer_id += 1
                known_new.append(reviewer.reviewer_id)
                reviewer_pool = [reviewer.reviewer_id]
            elif roll < 0.4 and appended:
                # Exact duplicate: absorbed, never write-ahead logged, so it
                # must not be a wal.append kill target.
                operations.append(
                    ("ingest", appended[int(rng.integers(0, len(appended)))], None)
                )
                continue
            else:
                reviewer_pool = reviewer_ids + known_new
            rating = Rating(
                item_id=int(rng.choice(item_ids)),
                reviewer_id=int(rng.choice(reviewer_pool)),
                score=float(rng.integers(1, 6)),
                timestamp=int(rng.integers(0, 2_000_000_000)),
            )
            ingest_indexes.append(len(operations))
            operations.append(("ingest", rating, reviewer))
            appended.append(rating)
        compact_indexes.append(len(operations))
        operations.append(("compact",))
    # A buffered tail after the last compaction, so recovery also has
    # pending rows to reconstruct from the active log.
    for _ in range(int(rng.integers(1, 6))):
        rating = Rating(
            item_id=int(rng.choice(item_ids)),
            reviewer_id=int(rng.choice(reviewer_ids + known_new)),
            score=float(rng.integers(1, 6)),
            timestamp=int(rng.integers(0, 2_000_000_000)),
        )
        ingest_indexes.append(len(operations))
        operations.append(("ingest", rating, None))
    return operations, ingest_indexes, compact_indexes


def choose_kill(rng, seed, ingest_indexes, compact_indexes):
    """Pick the crash point, the op it lands in, and an optional tear."""
    kind = KILL_KINDS[seed % len(KILL_KINDS)]
    if kind == "wal.append":
        kill_index = int(rng.choice(ingest_indexes))
    else:
        kill_index = int(rng.choice(compact_indexes))
    partial = None
    if kind in ("wal.append", "snapshot.write") and rng.random() < 0.5:
        partial = float(rng.uniform(0.1, 0.9))
    return kind, kill_index, partial


def apply_op(live: LiveStore, operation) -> None:
    if operation[0] == "ingest":
        live.ingest(operation[1], operation[2])
    else:
        live.compact()


class TestCrashRecoveryDifferential:
    @pytest.mark.parametrize("seed", range(NUM_SCHEDULES))
    def test_recovered_equals_never_killed(
        self, base_store, tiny_dataset, tmp_path, seed
    ):
        rng = np.random.default_rng(10_000 + seed)
        operations, ingest_indexes, compact_indexes = build_crash_schedule(
            rng, tiny_dataset
        )
        kind, kill_index, partial = choose_kill(
            rng, seed, ingest_indexes, compact_indexes
        )

        # -- the run that gets killed ------------------------------------
        injector = CrashInjector()
        crashed = DurabilityController(tmp_path, fault=injector)
        live, _ = crashed.recover(tiny_dataset, lambda dataset: base_store)
        with pytest.raises(SimulatedCrash):
            for index, operation in enumerate(operations):
                if index == kill_index:
                    injector.arm(kind, partial)
                apply_op(live, operation)
        assert injector.fired
        del crashed, live  # abandoned without close(), like a dead process

        # -- crash recovery + resume from the killed op ------------------
        controller = DurabilityController(tmp_path)
        recovered, report = controller.recover(
            tiny_dataset, lambda dataset: base_store
        )
        for operation in operations[kill_index:]:
            apply_op(recovered, operation)

        # -- the reference that never crashed ----------------------------
        reference = LiveStore(base_store)
        for operation in operations:
            apply_op(reference, operation)

        assert recovered.epoch == reference.epoch
        assert len(recovered.buffer) == len(reference.buffer)
        assert recovered.buffer.pending_reviewers == reference.buffer.pending_reviewers
        assert_stores_identical(recovered.snapshot, reference.snapshot)

        # Compact the buffered tail on both sides: the recovered WAL replay
        # and the in-memory buffer must drain to the same store.
        recovered.compact()
        reference.compact()
        assert_stores_identical(recovered.snapshot, reference.snapshot)

        # Spot-check the serving payloads across the battery.
        if seed % 10 == 0:
            touched = sorted(
                {op[1].item_id for op in operations if op[0] == "ingest"}
            )
            probe = touched[int(rng.integers(0, len(touched)))]
            assert mining_payload(recovered.snapshot, probe) == mining_payload(
                reference.snapshot, probe
            )
            assert geo_payloads(recovered.snapshot) == geo_payloads(
                reference.snapshot
            )
        assert report.torn_bytes_dropped == 0 or kind in (
            "wal.append",
            "snapshot.write",
        )
        controller.close()
