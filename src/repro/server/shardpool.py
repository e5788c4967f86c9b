"""Data-sharded scatter-gather mining pool (``mining_backend="sharded"``).

The process backend (:mod:`repro.server.procpool`) parallelises over
*anchors*: every worker attaches the whole store, so the dataset ceiling is
one box's RAM and one request's SM+DM fans out to at most two workers.  This
backend parallelises over *data*:

* **Publishing** an epoch partitions the store into K disjoint shard stores
  (:func:`~repro.data.sharding.partition_store`) and exports each as its own
  shared-memory segment with a picklable
  :class:`~repro.data.sharding.ShardManifest`; workers attach only the
  shards routed to them (shard ``s`` lives on worker ``s % workers``), so no
  worker ever maps the full dataset.
* **Mining** one selection is one round of stateless scatter-gather run by
  the coordinator (the serving process): build the global slice exactly as
  the serial path, compute the global admissible-value filter, scatter one
  ``("cells", ...)`` spec per non-empty shard, merge the returned partial
  bincount cubes (counts, rating sums, packed coverage bitsets) and replay
  the serial kernel's DFS over the merged counts
  (:mod:`repro.core.shardmerge`) — yielding the exact candidate list the
  unsharded enumerator produces.  RHE then runs over those merged candidates
  with the same fixed-seed generator, so SM/DM/geo results are
  **bit-identical** to every other backend.
* **Epoch protocol** is the procpool's, unchanged: publish-before-swap,
  drain-then-retire (a superseded epoch's K segments unlink only once its
  in-flight tasks hit zero), :class:`~repro.errors.StaleEpochError` on
  retired epochs (the façade retries once), a monitor thread that fails
  outstanding futures with :class:`~repro.errors.PoolError` when a worker
  dies, and per-task gather deadlines raising
  :class:`~repro.errors.MiningTimeoutError`.

``workers <= 1`` runs every shard task inline through the same executor over
the same partitioned shard stores — the scatter/merge/replay path is
exercised identically, without process startup.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.shardmerge import (
    admissible_codes,
    enumerate_shard_cells,
    merged_candidates,
    shard_slice,
)
from ..data.sharding import SHARD_SCHEMES, export_shards, partition_store, slice_shards
from ..errors import (
    EmptyRatingSetError,
    MiningTimeoutError,
    PoolError,
    StaleEpochError,
)
from .procpool import _explorer_for

__all__ = ["ShardedMiningPool"]

#: The one spec kind the shard workers execute.
_CELLS = "cells"


def _execute_shard_spec(spec: tuple, stores: Dict[Tuple[int, int], Any]):
    """Run one cell-enumeration spec against an attached shard store.

    The executor shared by worker processes and the inline path.  The spec is
    ``("cells", epoch, shard_id, item_ids, interval, region, attributes,
    admissible, max_length)``; the result is ``(local_rows, cells)`` where
    ``cells`` is the shard's partial cube from
    :func:`~repro.core.shardmerge.enumerate_shard_cells`.
    """
    kind = spec[0]
    if kind != _CELLS:
        raise PoolError(f"unknown sharded mining spec kind {kind!r}")
    (_, epoch, shard_id, item_ids, interval, region, attributes, admissible,
     max_length) = spec
    store = stores.get((int(epoch), int(shard_id)))
    if store is None:
        raise StaleEpochError(
            f"no store attached for epoch {epoch} shard {shard_id}"
        )
    local = shard_slice(store, item_ids, interval, region)
    return (
        len(local),
        enumerate_shard_cells(local, attributes, admissible, max_length),
    )


def _shard_worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Loop of one persistent shard worker process.

    Messages: ``("attach", epoch, shard_id, manifest)`` maps one shard's
    segment into the ``(epoch, shard)`` cache, ``("detach", epoch)`` unmaps
    every shard of that epoch, ``("task", task_id, spec)`` executes one
    spec, ``("stop",)`` exits.  As in the process pool, payloads are pickled
    in the worker (a pathological payload can never wedge the queue feeder)
    and an attach for an already-retired epoch is skipped, never fatal.
    """
    from ..data.shm import attach_store, detach_store
    from ..errors import DataError

    stores: Dict[Tuple[int, int], Any] = {}
    while True:
        message = task_queue.get()
        tag = message[0]
        if tag == "stop":
            break
        if tag == "attach":
            _, epoch, shard_id, manifest = message
            key = (int(epoch), int(shard_id))
            if key not in stores:
                try:
                    stores[key] = attach_store(manifest)
                except DataError:
                    pass  # epoch already retired before we got here
            continue
        if tag == "detach":
            epoch = int(message[1])
            for key in [key for key in stores if key[0] == epoch]:
                detach_store(stores.pop(key))
            continue
        _, task_id, spec = message
        try:
            payload: Any = _execute_shard_spec(spec, stores)
            ok = True
        except BaseException as exc:
            payload, ok = exc, False
        try:
            blob = pickle.dumps(payload)
        except Exception:
            blob = pickle.dumps(
                PoolError(
                    f"shard worker {worker_id}: unpicklable "
                    f"{'result' if ok else 'error'} "
                    f"{type(payload).__name__}: {payload}"
                )
            )
            ok = False
        result_queue.put(("done", worker_id, task_id, ok, blob))
    for store in stores.values():
        detach_store(store)


class ShardedMiningPool:
    """Scatter-gather mining over K per-shard shared-memory segments.

    Keeps the :class:`~repro.server.procpool.ProcessMiningPool` surface where
    the façades touch it (``publish``/``retire_older``/``mine_pair``/
    ``gather``/``shutdown``/``to_dict``/``segment_names``), so
    :class:`~repro.server.api.MapRat` wires it through the same epoch
    protocol; callers branch on ``pool.kind == "sharded"``.

    Args:
        workers: worker-process count; ``0``/``1`` executes every shard spec
            inline over the same partitioned stores (bit-identical by
            construction).  Shard ``s`` is served by worker ``s % workers``,
            so ``workers < shards`` simply co-locates several shards per
            worker.
        shards: partition count K (``>= 1``; ``1`` is the degenerate mode —
            same scatter/merge/replay path over one shard).
        scheme: ``"reviewer"`` (default) or ``"region"`` — see
            :mod:`repro.data.sharding`.
        start_method: multiprocessing start method (``"spawn"`` is safe under
            the serving layer's threads).
        timeout_s: per-task gather deadline in seconds (``None``: wait
            forever).
    """

    kind = "sharded"

    def __init__(
        self,
        workers: int = 0,
        shards: int = 2,
        scheme: str = "reviewer",
        start_method: str = "spawn",
        timeout_s: Optional[float] = None,
    ) -> None:
        workers = int(workers)
        shards = int(shards)
        if workers < 0:
            raise PoolError("workers must be non-negative")
        if shards < 1:
            raise PoolError("shards must be at least 1")
        if scheme not in SHARD_SCHEMES:
            raise PoolError(
                f"unknown shard scheme {scheme!r}; expected one of {SHARD_SCHEMES}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise PoolError("timeout_s must be positive (or None)")
        self.workers = workers
        self.shards = shards
        self.scheme = scheme
        self.timeout_s = timeout_s
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._shutdown = False
        self._submitted = 0
        self._next_task_id = 0
        self._procs: List[Any] = []
        self._task_queues: List[Any] = []
        self._result_queue: Optional[Any] = None
        self._collector: Optional[threading.Thread] = None
        self._futures: Dict[int, Future] = {}
        self._task_epochs: Dict[int, int] = {}
        self._inflight: Dict[int, int] = {}
        self._exports: Dict[int, List[Any]] = {}  # epoch -> per-shard exports
        self._manifests: Dict[int, Any] = {}  # epoch -> ShardManifest
        self._shard_stores: Dict[Tuple[int, int], Any] = {}  # inline mode
        self._full_stores: Dict[int, Any] = {}  # coordinator's live epochs
        self._explorers: Dict[int, Any] = {}  # coordinator region-slice cache
        self._retiring: set = set()
        self._current_epoch: Optional[int] = None
        self._broken: Optional[str] = None
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle / epochs -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when shard specs run on worker processes (``workers > 1``)."""
        return self.workers > 1

    @property
    def current_epoch(self) -> Optional[int]:
        """The most recently published epoch (None before the first publish)."""
        return self._current_epoch

    def _ensure_started_locked(self) -> None:
        if self._procs or not self.parallel:
            return
        self._result_queue = self._ctx.Queue()
        for worker_id in range(self.workers):
            queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=_shard_worker_main,
                args=(worker_id, queue, self._result_queue),
                name=f"maprat-shard-{worker_id}",
                daemon=True,
            )
            process.start()
            self._task_queues.append(queue)
            self._procs.append(process)
        self._collector = threading.Thread(
            target=self._collect,
            args=(self._result_queue,),
            name="maprat-shard-collector",
            daemon=True,
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._watch_workers,
            args=(list(self._procs),),
            name="maprat-shard-monitor",
            daemon=True,
        )
        self._monitor.start()

    def publish(self, store, retire_previous: bool = True) -> int:
        """Partition and export a store epoch; make it submittable.

        Same publish-before-swap contract as the process pool, but one epoch
        is K segments: the store is partitioned by the pool's scheme, each
        shard exported and attached only on its affine worker, and the
        coordinator keeps the full store (the serving snapshot — a
        reference, not a copy) for global slicing, merging and solving.
        The partition + export runs outside the pool lock.
        """
        epoch = int(store.epoch)
        with self._lock:
            if self._shutdown:
                raise PoolError("sharded mining pool is shut down")
            if epoch == self._current_epoch:
                return epoch
            parallel = self.parallel
        shard_stores = partition_store(store, self.shards, self.scheme)
        exports, manifest = (None, None)
        if parallel:
            exports, manifest = export_shards(shard_stores, self.scheme)
        with self._lock:
            if self._shutdown:
                if exports is not None:
                    for export in exports:
                        export.release()
                raise PoolError("sharded mining pool is shut down")
            if epoch == self._current_epoch:  # raced duplicate publish
                if exports is not None:
                    for export in exports:
                        export.release()
                return epoch
            if parallel:
                self._ensure_started_locked()
                self._exports[epoch] = exports
                self._manifests[epoch] = manifest
                for shard_id, export in enumerate(exports):
                    self._task_queues[shard_id % self.workers].put(
                        ("attach", epoch, shard_id, export.manifest)
                    )
            else:
                for shard_id, shard_store in enumerate(shard_stores):
                    self._shard_stores[(epoch, shard_id)] = shard_store
            self._full_stores[epoch] = store
            previous = self._current_epoch
            self._current_epoch = epoch
            if previous is not None and retire_previous:
                self._retiring.add(previous)
            self._drain_retired_locked()
            return epoch

    def retire_older(self, epoch: int) -> None:
        """Mark every live epoch older than ``epoch`` retiring; drain if idle."""
        with self._lock:
            for live in list(self._full_stores):
                if live < int(epoch):
                    self._retiring.add(live)
            self._drain_retired_locked()

    def _drain_retired_locked(self) -> None:
        """Unlink a retiring epoch's K segments once its tasks have drained."""
        for epoch in sorted(self._retiring):
            if self._inflight.get(epoch, 0) > 0:
                continue
            self._retiring.discard(epoch)
            self._full_stores.pop(epoch, None)
            self._explorers.pop(epoch, None)
            if self.parallel:
                exports = self._exports.pop(epoch, None) or []
                self._manifests.pop(epoch, None)
                for queue in self._task_queues:
                    queue.put(("detach", epoch))
                for export in exports:
                    export.release()
            else:
                for shard_id in range(self.shards):
                    self._shard_stores.pop((epoch, shard_id), None)

    def manifest_for(self, epoch: int) -> Any:
        """The :class:`~repro.data.sharding.ShardManifest` of a live epoch.

        Only parallel pools export segments; inline pools return ``None``.
        This is the seam a multi-host fleet would ship over a socket.
        """
        with self._lock:
            return self._manifests.get(int(epoch))

    # -- submission -------------------------------------------------------------------

    def submit(self, spec: tuple) -> Future:
        """Schedule one shard spec; returns a future resolving to its result.

        Shard affinity routing: the spec's shard id picks the worker queue,
        so a task always lands on the worker that attached its segment.
        Raises :class:`~repro.errors.PoolError` after shutdown or breakage
        and :class:`~repro.errors.StaleEpochError` when the epoch is no
        longer live.
        """
        future: Future = Future()
        with self._lock:
            if self._shutdown:
                raise PoolError("sharded mining pool is shut down")
            if self._broken is not None:
                raise PoolError(self._broken)
            epoch = int(spec[1])
            if epoch not in self._full_stores:
                raise StaleEpochError(
                    f"epoch {epoch} is not exported "
                    f"(current epoch: {self._current_epoch})"
                )
            self._submitted += 1
            if self.parallel:
                task_id = self._next_task_id
                self._next_task_id += 1
                self._futures[task_id] = future
                self._task_epochs[task_id] = epoch
                self._inflight[epoch] = self._inflight.get(epoch, 0) + 1
                shard_id = int(spec[2])
                self._task_queues[shard_id % self.workers].put(
                    ("task", task_id, spec)
                )
                return future
        # Inline mode executes outside the lock; the shard stores were
        # validated live above and stay referenced for the duration.
        try:
            future.set_result(_execute_shard_spec(spec, self._shard_stores))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def gather(self, future: Future) -> Any:
        """Resolve one future under the pool's deadline.

        Raises :class:`~repro.errors.MiningTimeoutError` when the shard task
        has not finished within ``timeout_s`` — the request fails typed and
        bounded instead of hanging on a stuck shard.
        """
        try:
            return future.result(timeout=self.timeout_s)
        except FutureTimeoutError as exc:
            raise MiningTimeoutError(
                f"mining task exceeded the {self.timeout_s:g}s deadline"
            ) from exc

    # -- the coordinator --------------------------------------------------------------

    def _store_for(self, epoch: int):
        """The coordinator's full store of a live epoch (or StaleEpochError)."""
        with self._lock:
            if self._shutdown:
                raise PoolError("sharded mining pool is shut down")
            if self._broken is not None:
                raise PoolError(self._broken)
            store = self._full_stores.get(epoch)
            if store is None:
                raise StaleEpochError(
                    f"epoch {epoch} is not exported "
                    f"(current epoch: {self._current_epoch})"
                )
            return store

    def _global_slice(self, store, epoch: int, ids, interval, region):
        """The global rating slice of one selection, with the serial errors."""
        if region is None:
            return store.slice_for_items(ids, time_interval=interval)
        explorer = self._explorers.get(epoch)
        if explorer is None:
            from ..config import MiningConfig

            explorer = _explorer_for(epoch, store, MiningConfig(), self._explorers)
        rating_slice = explorer._region_slice(
            region, None if ids is None else list(ids), interval
        )
        if rating_slice is None:
            raise EmptyRatingSetError(
                f"region {region!r} has no ratings for this selection"
            )
        return rating_slice

    def _scatter_candidates(self, gslice, epoch: int, ids, interval, region, config):
        """One scatter-gather round: global filter → shard cells → merged groups."""
        from ..core.cube import CandidateEnumerator

        enumerator = CandidateEnumerator.from_config(gslice, config)
        admissible = admissible_codes(enumerator)
        attributes = enumerator.grouping_attributes
        assignment = slice_shards(gslice, self.shards, self.scheme)
        localmaps = [
            np.flatnonzero(assignment == shard_id)
            for shard_id in range(self.shards)
        ]
        futures: Dict[int, Future] = {}
        for shard_id in range(self.shards):
            if localmaps[shard_id].shape[0] == 0:
                continue  # the shard holds no row of this slice
            futures[shard_id] = self.submit(
                (
                    _CELLS,
                    epoch,
                    shard_id,
                    ids,
                    interval,
                    region,
                    attributes,
                    admissible,
                    enumerator.max_description_length,
                )
            )
        shard_results = {
            shard_id: self.gather(future) for shard_id, future in futures.items()
        }
        return merged_candidates(gslice, config, shard_results, localmaps)

    def mine_pair(
        self,
        epoch: int,
        item_ids: Optional[Sequence[int]],
        time_interval: Optional[Tuple[int, int]],
        config,
        region: Optional[str] = None,
    ) -> Tuple[Any, Any]:
        """Mine one selection's SM + DM via sharded scatter-gather.

        The façade entry point (same signature as the process pool's).  One
        scatter round computes the merged candidate list, and
        :meth:`~repro.core.miner.RatingMiner.mine_pair` solves SM then DM
        over it on the coordinator, each with its own fixed-seed generator —
        the same one-enumeration shape as the in-process paths.  ``region``
        carries the canonical state code for within-region mining
        (``config`` is then the region-adapted configuration, as with the
        process pool).
        """
        ids = None if item_ids is None else tuple(int(i) for i in item_ids)
        interval = (
            None
            if time_interval is None
            else (int(time_interval[0]), int(time_interval[1]))
        )
        epoch = int(epoch)
        store = self._store_for(epoch)
        gslice = self._global_slice(store, epoch, ids, interval, region)
        candidates = self._scatter_candidates(
            gslice, epoch, ids, interval, region, config
        )
        from ..core.miner import RatingMiner

        miner = RatingMiner(store, config)
        return miner.mine_pair(gslice, config, candidates=candidates)

    # -- gathering --------------------------------------------------------------------

    def _watch_workers(self, procs: List[Any]) -> None:
        """Fail outstanding futures if a shard worker dies unexpectedly.

        A dead shard would otherwise leave its cell task unresolved and the
        coordinator's gather blocked until (at best) the deadline; the
        monitor turns it into an immediate
        :class:`~repro.errors.PoolError`, marks the pool broken and refuses
        later submissions.
        """
        from multiprocessing.connection import wait as wait_sentinels

        while True:
            wait_sentinels([process.sentinel for process in procs])
            with self._lock:
                if self._shutdown:
                    return
                dead = [p for p in procs if not p.is_alive()]
                if not dead:
                    continue
                codes = sorted({p.exitcode for p in dead})
                self._broken = (
                    f"{len(dead)} shard worker process(es) died "
                    f"unexpectedly (exit codes {codes})"
                )
                futures = list(self._futures.values())
                self._futures.clear()
                self._task_epochs.clear()
                self._inflight.clear()
                message = self._broken
            for future in futures:
                future.set_exception(PoolError(message))
            return

    def _collect(self, result_queue) -> None:
        """Collector thread: resolve futures, drive epoch drain accounting."""
        while True:
            message = result_queue.get()
            if message[0] == "stop":
                break
            _, _worker_id, task_id, ok, blob = message
            try:
                payload: Any = pickle.loads(blob)
            except Exception as exc:  # pragma: no cover - defensive
                payload, ok = PoolError(f"undecodable worker payload: {exc}"), False
            with self._lock:
                future = self._futures.pop(task_id, None)
                epoch = self._task_epochs.pop(task_id, None)
                if epoch is not None:
                    remaining = self._inflight.get(epoch, 0) - 1
                    if remaining > 0:
                        self._inflight[epoch] = remaining
                    else:
                        self._inflight.pop(epoch, None)
                self._drain_retired_locked()
            if future is None:
                continue  # pool shut down while the task was in flight
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(
                    payload
                    if isinstance(payload, BaseException)
                    else PoolError(str(payload))
                )

    # -- shutdown / reporting -----------------------------------------------------------

    @property
    def tasks_submitted(self) -> int:
        """Number of shard specs accepted over the pool's lifetime."""
        with self._lock:
            return self._submitted

    def segment_names(self) -> List[str]:
        """Names of all currently linked shard segments (diagnostics)."""
        with self._lock:
            return sorted(
                export.segment_name
                for exports in self._exports.values()
                for export in exports
            )

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop the workers and unlink every shard segment (idempotent)."""
        with self._lock:
            already = self._shutdown
            self._shutdown = True
            futures = list(self._futures.values())
            self._futures.clear()
            self._task_epochs.clear()
            self._inflight.clear()
            self._retiring.clear()
            procs, self._procs = self._procs, []
            queues, self._task_queues = self._task_queues, []
            exports = [
                export
                for per_epoch in self._exports.values()
                for export in per_epoch
            ]
            self._exports.clear()
            self._manifests.clear()
            self._shard_stores.clear()
            self._full_stores.clear()
            self._explorers.clear()
            result_queue, self._result_queue = self._result_queue, None
            collector, self._collector = self._collector, None
        if already and not procs:
            return
        for future in futures:
            future.cancel()
        for queue in queues:
            queue.put(("stop",))
        for process in procs:
            process.join(timeout=10 if wait else 0.2)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5)
        if result_queue is not None:
            result_queue.put(("stop",))
        if collector is not None:
            collector.join(timeout=5)
        for queue in queues:
            queue.close()
        if result_queue is not None:
            result_queue.close()
        for export in exports:
            export.release()

    def __enter__(self) -> "ShardedMiningPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def to_dict(self) -> dict:
        """Status payload for the ``summary`` endpoint and diagnostics."""
        with self._lock:
            return {
                "backend": "sharded",
                "workers": self.workers,
                "shards": self.shards,
                "scheme": self.scheme,
                "parallel": self.parallel,
                "tasks_submitted": self._submitted,
                "current_epoch": self._current_epoch,
                "live_epochs": sorted(self._full_stores),
                "retiring_epochs": sorted(self._retiring),
                "broken": self._broken,
            }
