"""Durability primitives: write-ahead log records and mmap'd store snapshots.

The live-ingestion subsystem (:mod:`repro.data.ingest`) is purely in-memory:
a crash loses every buffered rating and every compacted epoch past the base
dataset.  This module supplies the two on-disk primitives the recovery layer
(:mod:`repro.server.recovery`) composes into crash safety:

* **Write-ahead log** — every accepted ingest op (rating + optional
  new-reviewer record) is appended to a per-epoch log file *before* the
  in-memory buffer mutates.  Records are length-prefixed and
  CRC32-checksummed (``[u32 length][u32 crc32][payload]``, little-endian);
  the payload is a deterministic compact JSON encoding, so two logs of the
  same op sequence are byte-identical.  The fsync policy is configurable:
  ``"always"`` (fsync per record), ``"batch"`` (fsync once per
  ingest/ingest_batch call) or ``"never"`` (leave flushing to the OS).
* **Snapshot files** — one compacted store serialized through the exact same
  pack format the shared-memory export uses
  (:func:`repro.data.shm._pack_store` + :class:`~repro.data.shm.StoreManifest`
  with an empty segment name), prefixed by a small checksummed header and the
  pickled manifest.  :func:`load_snapshot` maps the file read-only with
  ``mmap`` and rebuilds the store as **zero-copy views over the mapping** via
  :meth:`~repro.data.storage.RatingStore._from_parts` — a warm restart pays
  page-cache faults, not an array copy.  Snapshots are written atomically:
  the bytes go to a ``.tmp`` sibling, are fsynced, and ``os.replace`` makes
  the snapshot visible in one step (a crash mid-write leaves only ignorable
  tmp garbage, never a half-visible snapshot).

Failure vocabulary (see :mod:`repro.errors`): a *torn tail* — an incomplete
or checksum-failing record that runs to the exact end of a log — is the
expected signature of a crash mid-append and is reported, not raised;
corruption anywhere before the tail raises
:class:`~repro.errors.WalCorruptionError` because silently truncating
committed history is worse than refusing to start.  Snapshot files that fail
their magic, version, size or CRC checks raise
:class:`~repro.errors.SnapshotFormatError`; a snapshot that does not match
the base dataset it is being recovered against raises
:class:`~repro.errors.RecoveryError`.

Fault injection: the WAL and the snapshot writer accept an optional
``fault(point, **context)`` hook invoked at the four crash-critical points
(``"wal.append"``, ``"wal.rotate"``, ``"snapshot.write"``,
``"snapshot.rename"``).  The production default is ``None``; the
kill-and-recover property harness raises from the hook (optionally after
writing a partial record itself) to simulate a process death at that exact
byte.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..errors import RecoveryError, SnapshotFormatError, WalCorruptionError
from .model import Rating, RatingDataset, Reviewer
from .shm import (
    StoreManifest,
    _aligned,
    _dataset_over_buffer,
    _Layout,
    _pack_store,
    _store_from_buffer,
)
from .storage import RatingStore

__all__ = [
    "FSYNC_POLICIES",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "WalScan",
    "WriteAheadLog",
    "decode_ingest_op",
    "encode_ingest_op",
    "frame_record",
    "load_snapshot",
    "read_wal",
    "truncate_wal",
    "write_snapshot",
]

#: Framing of one WAL record: payload length, CRC32 of the payload.
_RECORD_HEADER = struct.Struct("<II")

#: Magic bytes opening every snapshot file.
SNAPSHOT_MAGIC = b"MAPRSNAP"

#: Current snapshot format version; readers reject anything newer.
SNAPSHOT_VERSION = 1

#: Snapshot header: magic, version, flags, epoch, meta length, data length,
#: CRC32 of the pickled meta block, CRC32 of the array region (48 bytes).
_SNAPSHOT_HEADER = struct.Struct("<8sIIQQQII")

#: Allowed fsync policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "never")

#: Type of the fault-injection hook (``None`` in production).
FaultHook = Optional[Callable[..., None]]


# -- WAL record encoding ----------------------------------------------------------


def encode_ingest_op(rating: Rating, reviewer: Optional[Reviewer] = None) -> bytes:
    """Serialize one accepted ingest op as a deterministic JSON payload.

    The encoding is canonical (sorted keys, no whitespace) so identical op
    sequences produce byte-identical logs; floats use ``repr`` round-tripping,
    so the decoded score is bit-equal to the ingested one.
    """
    op = {
        "rating": [
            rating.item_id,
            rating.reviewer_id,
            float(rating.score),
            rating.timestamp,
        ],
        "reviewer": None
        if reviewer is None
        else {
            "reviewer_id": reviewer.reviewer_id,
            "gender": reviewer.gender,
            "age": reviewer.age,
            "occupation": reviewer.occupation,
            "zipcode": reviewer.zipcode,
            "state": reviewer.state,
            "city": reviewer.city,
        },
    }
    return json.dumps(op, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_ingest_op(payload: bytes) -> Tuple[Rating, Optional[Reviewer]]:
    """Inverse of :func:`encode_ingest_op` (raises ``ValueError``-family on garbage)."""
    op = json.loads(payload.decode("utf-8"))
    item_id, reviewer_id, score, timestamp = op["rating"]
    rating = Rating(
        item_id=int(item_id),
        reviewer_id=int(reviewer_id),
        score=float(score),
        timestamp=int(timestamp),
    )
    record = op.get("reviewer")
    reviewer = None if record is None else Reviewer(**record)
    return rating, reviewer


def frame_record(payload: bytes) -> bytes:
    """Wrap a payload in the ``[length][crc32]`` record framing."""
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# -- WAL scanning -----------------------------------------------------------------


@dataclass
class WalScan:
    """Result of scanning one write-ahead log file.

    Attributes:
        ops: the decoded ``(rating, reviewer-or-None)`` ops, in log order.
        valid_bytes: length of the valid prefix (records before any torn tail).
        torn_bytes: bytes of torn tail after the valid prefix (0 when clean).
    """

    ops: List[Tuple[Rating, Optional[Reviewer]]]
    valid_bytes: int
    torn_bytes: int

    @property
    def torn(self) -> bool:
        """True when the log ends in an incomplete or checksum-failing record."""
        return self.torn_bytes > 0


def read_wal(path) -> WalScan:
    """Scan a write-ahead log, tolerating a torn tail but nothing else.

    A record that cannot complete — too few bytes for its header, a length
    running past EOF, or a CRC failure on the **final** record — is a torn
    tail: the crash signature the log design expects.  Its bytes are counted
    in ``torn_bytes`` and the valid prefix is returned.  A CRC or decode
    failure on any record *before* the tail raises
    :class:`~repro.errors.WalCorruptionError`: committed history was damaged
    after the fact, and recovery must not silently drop it.  A missing file
    reads as an empty log (a crash can land before the first append).
    """
    path = Path(path)
    if not path.exists():
        return WalScan(ops=[], valid_bytes=0, torn_bytes=0)
    data = path.read_bytes()
    total = len(data)
    ops: List[Tuple[Rating, Optional[Reviewer]]] = []
    offset = 0
    torn = 0
    while offset < total:
        if total - offset < _RECORD_HEADER.size:
            torn = total - offset
            break
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        start = offset + _RECORD_HEADER.size
        end = start + length
        if end > total:
            torn = total - offset
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            if end == total:
                torn = total - offset
                break
            raise WalCorruptionError(
                f"checksum mismatch in {Path(path).name} at byte {offset} "
                f"(record {len(ops)}): the record is not the final one, so this "
                "is damage to committed history, not a crash tail"
            )
        try:
            ops.append(decode_ingest_op(payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise WalCorruptionError(
                f"undecodable record {len(ops)} in {Path(path).name} "
                f"at byte {offset}: {exc}"
            ) from exc
        offset = end
    return WalScan(ops=ops, valid_bytes=offset, torn_bytes=torn)


def truncate_wal(path, valid_bytes: int) -> None:
    """Drop a torn tail by truncating the log to its valid prefix (fsynced)."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


# -- WAL writing ------------------------------------------------------------------


class WriteAheadLog:
    """Appender over one per-epoch log file.

    The file is opened unbuffered (``buffering=0``) so every ``write()``
    reaches the file object's OS-level file immediately — the only layer that
    can hold back bytes is the kernel page cache, which the fsync policy
    controls.  That also makes simulated crashes deterministic: what the
    fault hook sees on disk is exactly what was appended.

    Args:
        path: log file path (created/appended; parent directory must exist).
        fsync: ``"always"`` | ``"batch"`` | ``"never"`` — when to fsync.
        fault: optional fault-injection hook (see module docstring).
    """

    def __init__(self, path, fsync: str = "batch", fault: FaultHook = None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; use one of {FSYNC_POLICIES}")
        self.path = Path(path)
        self.fsync_policy = fsync
        self._fault = fault
        self._file = open(self.path, "ab", buffering=0)
        self._dirty = False
        self._closed = False
        self.records_appended = 0

    def append(self, rating: Rating, reviewer: Optional[Reviewer] = None) -> None:
        """Append one framed op record (fsyncs under the ``"always"`` policy)."""
        record = frame_record(encode_ingest_op(rating, reviewer))
        if self._fault is not None:
            self._fault("wal.append", path=self.path, file=self._file, data=record)
        self._file.write(record)
        self.records_appended += 1
        if self.fsync_policy == "always":
            os.fsync(self._file.fileno())
        else:
            self._dirty = True

    def commit(self) -> None:
        """Durability point of one ingest call (fsync under ``"batch"``)."""
        if self._closed or not self._dirty:
            return
        if self.fsync_policy == "batch":
            os.fsync(self._file.fileno())
        self._dirty = False

    @property
    def nbytes(self) -> int:
        """Current size of the log file in bytes."""
        return self.path.stat().st_size

    def close(self) -> None:
        """Seal the log: final fsync (unless policy ``"never"``) and close.

        Idempotent — the rotation path and ``MapRat.close()`` may both reach
        the same log.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.fsync_policy != "never":
                os.fsync(self._file.fileno())
        finally:
            self._file.close()


# -- snapshots --------------------------------------------------------------------


def write_snapshot(
    store: RatingStore,
    path,
    base_rows: int,
    base_reviewers: int,
    fault: FaultHook = None,
) -> dict:
    """Atomically write one compacted store to ``path``.

    The array region reuses the shared-memory pack byte-for-byte
    (:func:`~repro.data.shm._pack_store`); the meta block additionally records
    how the store's dataset relates to the *base* dataset (the one loaded at
    startup): ``base_rows``/``base_reviewers`` count the base prefix, and the
    reviewers registered since then travel in the snapshot so the catalogue
    can be reconstructed without replaying history.

    The write is atomic: bytes land in ``<path>.tmp``, are fsynced, and
    ``os.replace`` publishes the snapshot in one step (the directory is
    fsynced after, so the rename itself is durable).  Returns a small stats
    dict (``path``, ``bytes``, ``epoch``).
    """
    path = Path(path)
    layout = _Layout()
    fields = _pack_store(store, layout)
    manifest = StoreManifest(segment="", epoch=store.epoch, **fields)
    appended_reviewers = list(store.dataset.reviewers())[base_reviewers:]
    meta = pickle.dumps(
        {
            "manifest": manifest,
            "base_rows": int(base_rows),
            "base_reviewers": int(base_reviewers),
            "appended_reviewers": appended_reviewers,
            "dataset_name": store.dataset.name,
            "num_items": store.dataset.num_items,
        },
        protocol=4,
    )
    data_offset = _aligned(_SNAPSHOT_HEADER.size + len(meta))
    blob = bytearray(data_offset + layout.total)
    blob[_SNAPSHOT_HEADER.size : _SNAPSHOT_HEADER.size + len(meta)] = meta
    layout.copy_into(memoryview(blob)[data_offset:])
    _SNAPSHOT_HEADER.pack_into(
        blob,
        0,
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        0,
        store.epoch,
        len(meta),
        layout.total,
        zlib.crc32(meta),
        zlib.crc32(memoryview(blob)[data_offset:]),
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        if fault is not None:
            fault("snapshot.write", path=tmp, file=handle, data=blob)
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    if fault is not None:
        fault("snapshot.rename", tmp=tmp, path=path)
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return {"path": str(path), "bytes": len(blob), "epoch": store.epoch}


def _fsync_dir(directory: Path) -> None:
    """Make a rename/create in ``directory`` durable (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(path, base_dataset: RatingDataset) -> RatingStore:
    """Map a snapshot file and rebuild its store zero-copy.

    Every column of the returned store is a read-only view into the
    ``mmap``-ed file (kept alive through ``store._mmap_handle``), and the
    store's dataset wraps the same rating views; only the reviewer and item
    catalogue is materialised as Python objects, because the dataset layer
    needs it for lookups and later compactions.

    Raises:
        SnapshotFormatError: bad magic, newer format version, truncation or
            checksum mismatch — the file is not a usable snapshot.
        RecoveryError: a structurally valid snapshot that was not produced
            on top of ``base_dataset``.
    """
    path = Path(path)
    handle = open(path, "rb")
    try:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:
            raise SnapshotFormatError(f"snapshot {path.name} is empty") from exc
        try:
            if len(mapped) < _SNAPSHOT_HEADER.size:
                raise SnapshotFormatError(
                    f"snapshot {path.name} is truncated inside its header"
                )
            magic, version, _flags, epoch, meta_len, data_len, meta_crc, data_crc = (
                _SNAPSHOT_HEADER.unpack_from(mapped, 0)
            )
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotFormatError(f"{path.name} is not a MapRat snapshot")
            if version > SNAPSHOT_VERSION:
                raise SnapshotFormatError(
                    f"snapshot {path.name} uses format version {version}; this "
                    f"build reads versions up to {SNAPSHOT_VERSION} — upgrade the "
                    "server before loading it"
                )
            data_offset = _aligned(_SNAPSHOT_HEADER.size + meta_len)
            if len(mapped) < data_offset + data_len:
                raise SnapshotFormatError(
                    f"snapshot {path.name} is truncated: header promises "
                    f"{data_offset + data_len} bytes, file has {len(mapped)}"
                )
            view = memoryview(mapped)
            meta_bytes = bytes(view[_SNAPSHOT_HEADER.size : _SNAPSHOT_HEADER.size + meta_len])
            if zlib.crc32(meta_bytes) != meta_crc:
                raise SnapshotFormatError(
                    f"snapshot {path.name}: meta block checksum mismatch"
                )
            if zlib.crc32(view[data_offset : data_offset + data_len]) != data_crc:
                raise SnapshotFormatError(
                    f"snapshot {path.name}: array region checksum mismatch"
                )
            meta = pickle.loads(meta_bytes)
            _check_fingerprint(meta, base_dataset, path)
            manifest: StoreManifest = meta["manifest"]
            dataset = _rebuild_dataset(meta, manifest, view[data_offset:], base_dataset)
            store = _store_from_buffer(manifest, view[data_offset:], dataset)
            store._mmap_handle = (mapped, handle)
            return store
        except BaseException:
            try:
                mapped.close()
            except BufferError:
                # A zero-copy view escaped before the failure (e.g. a
                # fingerprint mismatch after arrays were built); the mapping
                # is reclaimed with the views by the garbage collector.
                pass
            raise
    except BaseException:
        handle.close()
        raise


def _check_fingerprint(meta: dict, base_dataset: RatingDataset, path: Path) -> None:
    """Refuse to recover a snapshot written over a different base dataset."""
    mismatches = []
    if meta["dataset_name"] != base_dataset.name:
        mismatches.append(
            f"dataset name {meta['dataset_name']!r} != {base_dataset.name!r}"
        )
    if meta["base_rows"] != base_dataset.num_ratings:
        mismatches.append(
            f"base rows {meta['base_rows']} != {base_dataset.num_ratings}"
        )
    if meta["base_reviewers"] != base_dataset.num_reviewers:
        mismatches.append(
            f"base reviewers {meta['base_reviewers']} != {base_dataset.num_reviewers}"
        )
    if meta["num_items"] != base_dataset.num_items:
        mismatches.append(f"items {meta['num_items']} != {base_dataset.num_items}")
    if mismatches:
        raise RecoveryError(
            f"snapshot {path.name} was not written over this base dataset: "
            + "; ".join(mismatches)
        )


def _rebuild_dataset(
    meta: dict,
    manifest: StoreManifest,
    data: memoryview,
    base_dataset: RatingDataset,
) -> RatingDataset:
    """The full catalogue (base + snapshot-carried reviewers) over the mapped columns.

    The snapshot's columns already hold every row — the base prefix and the
    tail past ``base_rows`` — so the dataset wraps them as zero-copy views
    and the catalogue matches the arrays exactly even if the WAL that
    produced the tail is long gone.
    """
    return _dataset_over_buffer(
        manifest,
        data,
        reviewers=list(base_dataset.reviewers()) + list(meta["appended_reviewers"]),
        items=list(base_dataset.items()),
        schema=base_dataset.schema,
        name=meta["dataset_name"],
    )
