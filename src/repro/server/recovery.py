"""Crash recovery and the durability controller wiring WAL + snapshots.

:mod:`repro.data.durability` supplies the primitives (checksummed log
records, atomic mmap snapshots); this module composes them into the policy
the serving layer runs:

* :class:`DataDirLayout` — the on-disk contract.  One data directory holds
  ``wal/wal-<epoch>.log`` (one log per epoch; the log of epoch *E* records
  the ops ingested while the serving snapshot was at epoch *E*),
  ``snapshots/snapshot-<epoch>.snap`` (the compacted store of epoch *E*) and
  ``warm_anchors.json`` (the warm-restart anchor set).
* :class:`DurabilityController` — the journal a
  :class:`~repro.data.ingest.LiveStore` writes through.  Appends go to the
  active log before the buffer mutates; the log rotates atomically with the
  compaction drain; each compaction (optionally) writes a snapshot and prunes
  everything older than the new epoch.
* :meth:`DurabilityController.recover` — startup.  Load the newest snapshot
  (or rebuild the base store when none exists), replay every sealed log
  through the normal ingest + compact path — re-establishing the exact epoch
  sequence the crashed process had — then replay the active log into the
  buffer, dropping a torn tail if the crash hit mid-append.  Recovery is
  deliberately built *on* the ingest path rather than beside it: replay
  produces bit-identical stores because it runs the identical code.

Failure stance: a torn tail on the active log is expected and silently
dropped (its byte count is reported); anything else — checksum damage in
committed history, a gap in the epoch chain, an unreplayable record — raises
(:class:`~repro.errors.WalCorruptionError` /
:class:`~repro.errors.RecoveryError`) instead of guessing.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..data.durability import (
    FSYNC_POLICIES,
    WriteAheadLog,
    load_snapshot,
    read_wal,
    truncate_wal,
    write_snapshot,
)
from ..data.ingest import DUPLICATE, LiveStore
from ..data.model import Rating, RatingDataset, Reviewer
from ..data.storage import RatingStore
from ..errors import ConstraintError, IngestError, RecoveryError

__all__ = [
    "DataDirLayout",
    "DurabilityController",
    "RecoveryReport",
]

_WAL_PATTERN = re.compile(r"^wal-(\d{8})\.log$")
_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{8})\.snap$")


class DataDirLayout:
    """Paths and listings of one durability data directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.wal_dir = self.root / "wal"
        self.snapshot_dir = self.root / "snapshots"
        self.warm_anchor_path = self.root / "warm_anchors.json"

    def ensure(self) -> None:
        """Create the directory skeleton (idempotent)."""
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)

    def wal_path(self, epoch: int) -> Path:
        """Log file of one epoch."""
        return self.wal_dir / f"wal-{epoch:08d}.log"

    def snapshot_path(self, epoch: int) -> Path:
        """Snapshot file of one epoch."""
        return self.snapshot_dir / f"snapshot-{epoch:08d}.snap"

    @staticmethod
    def _listed(directory: Path, pattern: re.Pattern) -> List[Tuple[int, Path]]:
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = pattern.match(entry.name)
            if match:  # tmp files and strangers are ignored
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def list_wals(self) -> List[Tuple[int, Path]]:
        """All log files as ``(epoch, path)``, ascending by epoch."""
        return self._listed(self.wal_dir, _WAL_PATTERN)

    def list_snapshots(self) -> List[Tuple[int, Path]]:
        """All snapshot files as ``(epoch, path)``, ascending by epoch."""
        return self._listed(self.snapshot_dir, _SNAPSHOT_PATTERN)


@dataclass
class RecoveryReport:
    """What one startup recovery did (the ``recovery_info`` payload)."""

    mode: str = "fresh"  # "fresh" | "snapshot"
    snapshot_epoch: Optional[int] = None
    wal_files: int = 0
    records_replayed: int = 0
    duplicates: int = 0
    compactions_replayed: int = 0
    torn_bytes_dropped: int = 0
    recovered_epoch: int = 0
    pending_rows: int = 0
    elapsed_seconds: float = 0.0
    warm_anchors_replayed: int = 0

    def to_dict(self) -> dict:
        """JSON-ready payload (all values deterministic except elapsed)."""
        return {
            "mode": self.mode,
            "snapshot_epoch": self.snapshot_epoch,
            "wal_files": self.wal_files,
            "records_replayed": self.records_replayed,
            "duplicates": self.duplicates,
            "compactions_replayed": self.compactions_replayed,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "recovered_epoch": self.recovered_epoch,
            "pending_rows": self.pending_rows,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "warm_anchors_replayed": self.warm_anchors_replayed,
        }


class DurabilityController:
    """The journal side of a durable :class:`~repro.data.ingest.LiveStore`.

    One controller owns one data directory: the active write-ahead log, the
    snapshot files, and the recovery procedure that reconciles them with a
    base dataset at startup.  All journal entry points
    (:meth:`log_append`, :meth:`commit`, :meth:`rotate`) are serialized by an
    internal lock; the buffer lock of the owning store is always taken first
    (append and rotate run under it), so the lock order is fixed.

    Args:
        data_dir: directory for logs, snapshots and the warm-anchor set.
        fsync: WAL fsync policy (``"always"`` | ``"batch"`` | ``"never"``).
        snapshot_on_compact: write (and prune to) a snapshot at each
            compaction; with ``False`` recovery replays the full log chain.
        fault: optional fault-injection hook passed through to the WAL and
            snapshot writer (crash simulation in tests; ``None`` in
            production).
    """

    def __init__(
        self,
        data_dir,
        fsync: str = "batch",
        snapshot_on_compact: bool = True,
        fault=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConstraintError(
                f"unknown wal_fsync policy {fsync!r}; use one of {FSYNC_POLICIES}"
            )
        self.layout = DataDirLayout(data_dir)
        self.fsync_policy = fsync
        self.snapshot_on_compact = snapshot_on_compact
        self._fault = fault
        self._lock = threading.RLock()
        self._wal: Optional[WriteAheadLog] = None
        self._base_rows = 0
        self._base_reviewers = 0
        self._closed = False
        self.last_snapshot: Optional[dict] = None
        self.report: Optional[RecoveryReport] = None

    # -- recovery ---------------------------------------------------------------

    def recover(
        self,
        base_dataset: RatingDataset,
        build_store: Callable[[RatingDataset], RatingStore],
        auto_compact_threshold: int = 0,
    ) -> Tuple[LiveStore, RecoveryReport]:
        """Reconcile the data directory into a ready-to-serve live store.

        Procedure: load the newest snapshot (``build_store(base_dataset)``
        when none exists), then replay the logs in epoch order through a
        journal-less live store — every *sealed* log (one with a successor)
        is replayed and compacted, recreating the exact epoch its rotation
        sealed; the newest log is the active one, replayed into the buffer
        only.  A torn tail on the active log is truncated away.  Finally the
        controller attaches itself as the store's journal, reopens the active
        log for append, and (under ``snapshot_on_compact``) backfills a
        snapshot the crash may have prevented.

        Returns the live store and a :class:`RecoveryReport`.
        """
        started = time.perf_counter()
        report = RecoveryReport()
        self.layout.ensure()
        self._base_rows = base_dataset.num_ratings
        self._base_reviewers = base_dataset.num_reviewers

        snapshots = self.layout.list_snapshots()
        if snapshots:
            epoch, path = snapshots[-1]
            store = load_snapshot(path, base_dataset)
            report.mode = "snapshot"
            report.snapshot_epoch = epoch
        else:
            store = build_store(base_dataset)

        live = LiveStore(store, auto_compact_threshold=auto_compact_threshold)

        wals = [(epoch, path) for epoch, path in self.layout.list_wals() if epoch >= store.epoch]
        report.wal_files = len(wals)
        if wals:
            expected = list(range(store.epoch, store.epoch + len(wals)))
            if [epoch for epoch, _ in wals] != expected:
                raise RecoveryError(
                    f"write-ahead log chain has a gap: snapshot epoch {store.epoch}, "
                    f"logs present for epochs {[epoch for epoch, _ in wals]}"
                )
        for index, (epoch, path) in enumerate(wals):
            active = index == len(wals) - 1
            scan = read_wal(path)
            report.torn_bytes_dropped += scan.torn_bytes
            if scan.torn:
                truncate_wal(path, scan.valid_bytes)
            self._replay_ops(live, scan.ops, path, report)
            if not active:
                result = live.compact()
                if live.epoch != epoch + 1:
                    raise RecoveryError(
                        f"replaying {path.name} did not advance the store to "
                        f"epoch {epoch + 1} (got {live.epoch}): the log chain "
                        "does not match the snapshot"
                    )
                if result.compacted:
                    report.compactions_replayed += 1

        with self._lock:
            self._wal = WriteAheadLog(
                self.layout.wal_path(live.epoch), fsync=self.fsync_policy, fault=self._fault
            )
        live.attach_journal(self)

        if (
            self.snapshot_on_compact
            and live.epoch > 0
            and not self.layout.snapshot_path(live.epoch).exists()
        ):
            # The crash landed between a compaction and its snapshot (or the
            # snapshot write itself died): backfill it now that the epoch has
            # been re-established.
            self.write_snapshot(live.snapshot)

        report.recovered_epoch = live.epoch
        report.pending_rows = len(live.buffer)
        report.elapsed_seconds = time.perf_counter() - started
        self.report = report
        return live, report

    def _replay_ops(
        self,
        live: LiveStore,
        ops: List[Tuple[Rating, Optional[Reviewer]]],
        path: Path,
        report: RecoveryReport,
    ) -> None:
        """Feed logged ops back through the normal ingest path."""
        for rating, reviewer in ops:
            try:
                outcome = live.ingest(rating, reviewer)
            except IngestError as exc:
                raise RecoveryError(
                    f"unreplayable record in {path.name}: {exc}"
                ) from exc
            report.records_replayed += 1
            if outcome == DUPLICATE:
                report.duplicates += 1

    # -- journal interface (called by LiveStore / AppendBuffer) ------------------

    def log_append(self, rating: Rating, reviewer: Optional[Reviewer] = None) -> None:
        """Write one accepted op to the active log (write-ahead of the buffer)."""
        with self._lock:
            self._wal.append(rating, reviewer)

    def commit(self) -> None:
        """Durability point of one ingest call (fsync under policy ``"batch"``)."""
        with self._lock:
            if self._wal is not None and not self._closed:
                self._wal.commit()

    def rotate(self, next_epoch: int) -> None:
        """Seal the active log and open the next epoch's (at compaction drain).

        Runs under the buffer lock (see
        :meth:`repro.data.ingest.AppendBuffer.drain`) so no append can land
        between the seal and the new log.
        """
        with self._lock:
            if self._fault is not None:
                self._fault("wal.rotate", epoch=next_epoch)
            if self._wal is not None:
                self._wal.close()
            self._wal = WriteAheadLog(
                self.layout.wal_path(next_epoch), fsync=self.fsync_policy, fault=self._fault
            )

    def on_compacted(self, store: RatingStore) -> None:
        """Post-compaction hook: persist the new epoch (when configured)."""
        if self.snapshot_on_compact:
            self.write_snapshot(store)

    # -- snapshots ---------------------------------------------------------------

    def write_snapshot(self, store: RatingStore) -> dict:
        """Write the snapshot of ``store`` and prune everything older."""
        with self._lock:
            info = write_snapshot(
                store,
                self.layout.snapshot_path(store.epoch),
                base_rows=self._base_rows,
                base_reviewers=self._base_reviewers,
                fault=self._fault,
            )
            self._prune(store.epoch)
            self.last_snapshot = info
            return info

    def _prune(self, epoch: int) -> None:
        """Delete snapshots/logs of epochs before ``epoch`` (and stale tmps)."""
        for old_epoch, path in self.layout.list_snapshots():
            if old_epoch < epoch:
                path.unlink(missing_ok=True)
        for old_epoch, path in self.layout.list_wals():
            if old_epoch < epoch:
                path.unlink(missing_ok=True)
        for directory in (self.layout.snapshot_dir, self.layout.wal_dir):
            for stray in directory.glob("*.tmp"):
                stray.unlink(missing_ok=True)

    # -- reporting / lifecycle ----------------------------------------------------

    def info(self) -> dict:
        """Status payload for the ``recovery_info`` endpoint."""
        with self._lock:
            wal = self._wal
            return {
                "data_dir": str(self.layout.root),
                "wal_fsync": self.fsync_policy,
                "snapshot_on_compact": self.snapshot_on_compact,
                "active_wal_epoch": None if wal is None else int(
                    _WAL_PATTERN.match(wal.path.name).group(1)
                ),
                "active_wal_records": 0 if wal is None else wal.records_appended,
                "snapshot_epochs": [epoch for epoch, _ in self.layout.list_snapshots()],
                "wal_epochs": [epoch for epoch, _ in self.layout.list_wals()],
                "last_snapshot": self.last_snapshot,
            }

    def close(self) -> None:
        """Seal the active log (idempotent; safe after partial failures)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                self._wal.close()
                self._wal = None
