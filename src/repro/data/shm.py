"""Zero-copy export of a :class:`RatingStore` into shared memory.

The process-parallel mining backend (:mod:`repro.server.procpool`) needs every
worker process to see the same immutable store snapshot without paying a
per-task pickle of hundreds of thousands of rating rows.  This module is the
data half of that subsystem:

* :class:`SharedStoreExport` packs **every numpy part** of one store — the
  base columns (item ids, reviewer ids, scores, timestamps), the per-attribute
  ``int32`` code columns, the per-item inverted index (encoded as one
  ``(item_id, start, length)`` table over a concatenated positions array) and
  any built :class:`~repro.data.storage.AttributeIndex` arrays — into a
  **single** ``multiprocessing.shared_memory`` segment, 64-byte aligned, and
  describes the layout in a small picklable :class:`StoreManifest`.
* :func:`attach_store` maps that segment in another process and rebuilds the
  store through :class:`~repro.data.storage.RatingStore._from_parts`; every
  array is a **read-only view over the mapped buffer** — no row is copied on
  attach, and attaching costs O(number of arrays), not O(rows).

Vocabularies travel inside the manifest (they are small string lists, not
per-row data), and the attached store's dataset wraps the mapped rating
columns under an empty catalogue: the mining kernel operates purely on the
columnar parts, so workers never need the Python-object catalogue.

Lifecycle: the **creator** owns the segment.  Workers attach, use, and
``close()``; only the creator ``unlink()``s, and only once every in-flight
task of the epoch has drained (:class:`~repro.server.procpool.ProcessMiningPool`
enforces that ordering).  On Python < 3.13 an attach also registers the name
with the ``resource_tracker`` — harmless, because the tracker process is
shared by the whole process tree and de-duplicates by name, so the creator's
``unlink()`` clears the single entry (see :func:`_attach_segment`); 3.13+
attaches with ``track=False`` and never registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import DataError
from .model import RatingDataset
from .storage import AttributeIndex, RatingStore

__all__ = [
    "ArrayRef",
    "SharedStoreExport",
    "StoreManifest",
    "attach_store",
    "detach_store",
]

#: Alignment of every array inside the segment (cache-line friendly).
_ALIGN = 64

#: Names of the four base row-aligned columns, in layout order.
_BASE_COLUMNS = ("item_ids", "reviewer_ids", "scores", "timestamps")

#: Names of the per-attribute index arrays, in layout order.
_INDEX_ARRAYS = ("counts", "sums", "positives", "negatives", "joint", "bits")


@dataclass(frozen=True)
class ArrayRef:
    """Location of one numpy array inside the shared segment.

    Attributes:
        offset: byte offset of the array's first element (64-byte aligned).
        dtype: numpy dtype string (``"int64"``, ``"float64"``, ``"uint8"`` …).
        shape: array shape; multi-dimensional arrays are C-contiguous.
    """

    offset: int
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Total byte size of the referenced array."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class StoreManifest:
    """Everything a worker needs to re-assemble one store from shared memory.

    The manifest is small (array locations, vocabularies, attribute names) and
    picklable; the row data itself never travels through a pipe.  It is sent
    to each worker exactly once per epoch (the worker keeps an epoch-tagged
    attach cache).  Durability snapshots pickle it too: one written by an
    earlier release may carry fields this class no longer declares, which
    unpickling restores into the instance ``__dict__`` and nothing reads
    (``tests/server/test_one_copy.py::TestOldDataDirectory``).

    Attributes:
        segment: name of the shared-memory segment holding every array.
        epoch: the store epoch this snapshot belongs to.
        num_rows: number of rating tuples.
        grouping_attributes: the store's factorized attribute names.
        base: layout of the four base columns, keyed by column name.
        codes: layout of the per-attribute ``int32`` code columns.
        vocabularies: per-attribute sorted value lists (``vocab[code]``
            decodes); carried by value — vocabularies are small.
        item_table: layout of the ``(item_id, start, length)`` inverted-index
            table (``int64``, shape ``(n_items, 3)``).
        item_positions: layout of the concatenated per-item position runs the
            table's ``start``/``length`` pairs slice into.
        indexes: layout of every built
            :class:`~repro.data.storage.AttributeIndex` (six arrays each),
            keyed by attribute name.
        index_rows: ``num_rows`` recorded by each exported attribute index.
    """

    segment: str
    epoch: int
    num_rows: int
    grouping_attributes: Tuple[str, ...]
    base: Dict[str, ArrayRef] = field(default_factory=dict)
    codes: Dict[str, ArrayRef] = field(default_factory=dict)
    vocabularies: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    item_table: Optional[ArrayRef] = None
    item_positions: Optional[ArrayRef] = None
    indexes: Dict[str, Dict[str, ArrayRef]] = field(default_factory=dict)
    index_rows: Dict[str, int] = field(default_factory=dict)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class _Layout:
    """Two-pass segment builder: reserve every array, then copy into place."""

    def __init__(self) -> None:
        self.total = 0
        self._reserved: list[Tuple[int, np.ndarray]] = []

    def reserve(self, array: np.ndarray) -> ArrayRef:
        """Claim an aligned span for ``array`` and return its reference."""
        array = np.ascontiguousarray(array)
        offset = _aligned(self.total)
        self.total = offset + array.nbytes
        self._reserved.append((offset, array))
        return ArrayRef(offset=offset, dtype=str(array.dtype), shape=tuple(array.shape))

    def copy_into(self, buffer: memoryview) -> None:
        """Copy every reserved array into the segment buffer."""
        for offset, array in self._reserved:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=buffer, offset=offset)
            view[...] = array


def _pack_item_index(
    positions_by_item: Dict[int, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode the per-item inverted index as (table, concatenated positions).

    Items are laid out in ascending id order, so the encoding is a pure
    function of the index contents — two exports of the same store are
    byte-identical.
    """
    items = sorted(positions_by_item)
    table = np.zeros((len(items), 3), dtype=np.int64)
    runs = []
    start = 0
    for row, item_id in enumerate(items):
        positions = np.asarray(positions_by_item[item_id], dtype=np.int64)
        table[row] = (item_id, start, positions.shape[0])
        runs.append(positions)
        start += positions.shape[0]
    positions = (
        np.concatenate(runs) if runs else np.array([], dtype=np.int64)
    )
    return table, positions


def _pack_store(store: RatingStore, layout: _Layout) -> Dict[str, object]:
    """Reserve every numpy part of ``store`` in ``layout``.

    Returns the :class:`StoreManifest` field values that describe the packed
    arrays (everything except ``segment`` and ``epoch``, which depend on where
    the bytes land).  Shared by the shm export and the on-disk snapshot writer
    (:mod:`repro.data.durability`) so both serialize the exact same layout.
    """
    base = {
        "item_ids": layout.reserve(store._item_ids),
        "reviewer_ids": layout.reserve(store._reviewer_ids),
        "scores": layout.reserve(store._scores),
        "timestamps": layout.reserve(store._timestamps),
    }
    codes = {
        name: layout.reserve(column)
        for name, column in store._attribute_codes.items()
    }
    vocabularies = {
        name: tuple(str(value) for value in vocabulary.tolist())
        for name, vocabulary in store._vocabularies.items()
    }
    table, positions = _pack_item_index(store._positions_by_item)
    item_table = layout.reserve(table)
    item_positions = layout.reserve(positions)
    indexes: Dict[str, Dict[str, ArrayRef]] = {}
    index_rows: Dict[str, int] = {}
    for name, index in store.built_indexes().items():
        indexes[name] = {
            array_name: layout.reserve(getattr(index, array_name))
            for array_name in _INDEX_ARRAYS
        }
        index_rows[name] = index.num_rows
    return {
        "num_rows": len(store),
        "grouping_attributes": tuple(store.grouping_attributes),
        "base": base,
        "codes": codes,
        "vocabularies": vocabularies,
        "item_table": item_table,
        "item_positions": item_positions,
        "indexes": indexes,
        "index_rows": index_rows,
    }


def _dataset_over_buffer(
    manifest: StoreManifest,
    buffer: memoryview,
    reviewers=(),
    items=(),
    schema=None,
    name: str = "dataset",
) -> RatingDataset:
    """A dataset whose rating columns are views of the packed base columns.

    Zero-copy: the four columns stay in ``buffer`` (shm segment or mmap'd
    snapshot), and :func:`_store_from_buffer` adopts the same views.
    """
    return RatingDataset.from_columns(
        reviewers,
        items,
        *(_view(buffer, manifest.base[column]) for column in _BASE_COLUMNS),
        schema=schema,
        name=name,
        validate=False,
    )


def _store_from_buffer(
    manifest: StoreManifest, buffer: memoryview, dataset: RatingDataset
) -> RatingStore:
    """Re-assemble a store from a packed buffer described by ``manifest``.

    ``dataset`` comes from :func:`_dataset_over_buffer` on the same buffer;
    its columns become the store's base columns.  Every column of the
    returned store is a read-only zero-copy view into ``buffer`` — the caller
    is responsible for keeping the backing mapping (shm segment or mmap'd
    snapshot file) alive for the store's lifetime.
    """
    table = _view(buffer, manifest.item_table)
    positions = _view(buffer, manifest.item_positions)
    positions_by_item = {
        int(item_id): positions[start : start + length]
        for item_id, start, length in table.tolist()
    }
    vocabularies = {
        name: np.array(values, dtype=object)
        for name, values in manifest.vocabularies.items()
    }
    indexes = {
        name: AttributeIndex(
            name,
            manifest.index_rows[name],
            *(_view(buffer, refs[array_name]) for array_name in _INDEX_ARRAYS),
        )
        for name, refs in manifest.indexes.items()
    }
    return RatingStore._from_parts(
        dataset=dataset,
        grouping_attributes=manifest.grouping_attributes,
        positions_by_item=positions_by_item,
        attribute_codes={
            name: _view(buffer, ref) for name, ref in manifest.codes.items()
        },
        vocabularies=vocabularies,
        epoch=manifest.epoch,
        indexes=indexes,
    )


class SharedStoreExport:
    """One store snapshot exported into one shared-memory segment.

    Created by the serving process when an epoch is published to the process
    pool; the export owns the segment and is the only object allowed to
    unlink it.  The source store is copied **once** at construction (the cost
    of one memcpy over the columns) and is not referenced afterwards, so the
    export's lifetime is independent of the store's.
    """

    def __init__(self, store: RatingStore) -> None:
        # Set before the segment exists so a mid-init failure (allocation or
        # copy error) leaves __del__ → release() a safe no-op instead of an
        # AttributeError that would leak the segment.
        self._released = True
        layout = _Layout()
        fields = _pack_store(store, layout)
        self._shm = shared_memory.SharedMemory(create=True, size=max(layout.total, 1))
        self._released = False
        layout.copy_into(self._shm.buf)
        self.manifest = StoreManifest(
            segment=self._shm.name,
            epoch=store.epoch,
            **fields,
        )

    @property
    def epoch(self) -> int:
        """The exported store's epoch."""
        return self.manifest.epoch

    @property
    def segment_name(self) -> str:
        """Name of the underlying shared-memory segment."""
        return self.manifest.segment

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._shm.size

    def release(self) -> None:
        """Close and unlink the segment (idempotent; creator side only).

        Call only after every consumer of the epoch has drained — a worker
        still holding the mapping keeps its attached views valid (POSIX
        keeps the memory alive until the last mapping closes), but no new
        attach can succeed once the name is unlinked.
        """
        if self._released:
            return
        self._released = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.release()
        except Exception:
            pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without adopting cleanup responsibility.

    Python 3.13+ supports ``track=False`` natively.  On older versions the
    attach re-registers the name with the (process-tree-wide, name-deduped)
    ``resource_tracker`` — a no-op beside the creator's own registration, and
    the creator's ``unlink()`` clears the single entry, so ownership
    effectively stays with the creator either way.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _view(buffer: memoryview, ref: ArrayRef) -> np.ndarray:
    """A read-only array view over one span of the segment (zero-copy)."""
    array = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=buffer, offset=ref.offset
    )
    array.flags.writeable = False
    return array


def attach_store(manifest: StoreManifest) -> RatingStore:
    """Re-assemble a read-only :class:`RatingStore` from a shared segment.

    Every column of the returned store is a zero-copy view into the mapped
    segment; the store keeps the mapping alive through ``_shm_handle`` (close
    it with :func:`detach_store`).  The store's dataset wraps the same
    column views under an **empty catalogue** — mining, slicing and geo
    exploration run purely on the columnar parts; catalogue lookups stay in
    the serving process.

    Raises:
        DataError: when the segment has disappeared (epoch already retired).
    """
    try:
        shm = _attach_segment(manifest.segment)
    except FileNotFoundError as exc:
        raise DataError(
            f"shared store segment {manifest.segment!r} (epoch {manifest.epoch}) "
            "is gone — the epoch was retired"
        ) from exc
    dataset = _dataset_over_buffer(
        manifest, shm.buf, name=f"shm-epoch-{manifest.epoch}"
    )
    store = _store_from_buffer(manifest, shm.buf, dataset)
    store._shm_handle = shm  # keeps the mapping alive with the store
    return store


def detach_store(store: RatingStore) -> None:
    """Close the shared mapping behind a store returned by :func:`attach_store`."""
    handle = getattr(store, "_shm_handle", None)
    if handle is not None:
        handle.close()
        store._shm_handle = None
