"""Process-parallel mining pool over shared-memory store snapshots.

:class:`~repro.server.pool.MiningWorkerPool` shards mining across threads,
which the mining kernel's hold on the GIL keeps to about one core.  This
module is the true-parallel backend behind
``ServerConfig.mining_backend="process"``:

* **Persistent workers.**  ``workers`` processes are spawned once (lazily, on
  the first :meth:`ProcessMiningPool.publish`) and live for the pool's
  lifetime; each runs :func:`_worker_main`, a loop over its private task
  queue.  ``workers <= 1`` runs every task inline in the serving process
  through the *same* spec executor, so the inline and parallel paths can
  never drift.
* **Epoch-tagged attach cache.**  Publishing a store epoch exports its numpy
  parts once into shared memory (:class:`~repro.data.shm.SharedStoreExport`)
  and broadcasts the manifest; each worker attaches zero-copy via
  ``RatingStore._from_parts`` and caches the attached store by epoch, so a
  task message carries only a tiny spec tuple — never row data.
* **Submission-ordered scatter-gather.**  Tasks are scattered round-robin
  over the per-worker queues and gathered through futures in submission
  order; every mining task seeds its own generator from the fixed seed of
  its :class:`~repro.config.MiningConfig` (batch drivers that need distinct
  streams reuse :func:`~repro.server.pool.split_seed` exactly as the thread
  backend does), so the process schedule can never leak into results —
  process, thread and serial paths are bit-identical for a fixed seed.
* **Drain-then-retire epochs.**  A compaction publishes the new epoch's
  segment *before* the serving state swaps; the superseded epoch keeps its
  segment until its in-flight tasks drain, then the segment is unlinked and
  workers detach.  A task submitted for a retired epoch raises
  :class:`~repro.errors.StaleEpochError`; the façade retries it once against
  the current epoch.  Readers therefore never see a torn store.

The pool is thread-safe: concurrent request threads (and the warm-up's
thread pool) submit specs freely; a dedicated collector thread resolves
futures from the shared result queue.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import EmptyRatingSetError, MiningTimeoutError, PoolError, StaleEpochError
from .pool import split_seed, split_seeds  # re-exported: one seed-splitting scheme

__all__ = ["ProcessMiningPool", "split_seed", "split_seeds"]

#: Mining-task spec kinds understood by the worker executor.
_MINE_KINDS = ("similarity", "diversity")

#: Module-level caches of one worker process (never used in the parent).
_worker_hierarchy = None


def _explorer_for(epoch: int, store, config, explorers: Dict[int, Any]):
    """The worker's per-epoch GeoExplorer (hierarchy shared across epochs)."""
    global _worker_hierarchy
    explorer = explorers.get(epoch)
    if explorer is None:
        from ..core.miner import RatingMiner
        from ..geo.explorer import GeoExplorer
        from ..geo.hierarchy import LocationHierarchy

        if _worker_hierarchy is None:
            _worker_hierarchy = LocationHierarchy()
        explorer = GeoExplorer(RatingMiner(store, config), hierarchy=_worker_hierarchy)
        explorers[epoch] = explorer
    return explorer


def _execute_spec(spec: tuple, stores: Dict[int, Any], explorers: Dict[int, Any]):
    """Run one mining spec against the attached store of its epoch.

    The one executor shared by worker processes and the inline (``workers <=
    1``) path.  Specs are small picklable tuples:

    * ``("similarity"|"diversity", epoch, item_ids, interval, region, config)``
      → an :class:`~repro.core.explanation.Explanation`; ``region`` restricts
      the slice to one state's tuples first (the geo-explain shape).
    """
    kind = spec[0]
    epoch = int(spec[1])
    store = stores.get(epoch)
    if store is None:
        raise StaleEpochError(f"no store attached for epoch {epoch}")
    if kind in _MINE_KINDS:
        _, _, item_ids, interval, region, config = spec
        from ..core.miner import RatingMiner

        miner = RatingMiner(store, config)
        if region is None:
            rating_slice = store.slice_for_items(item_ids, time_interval=interval)
        else:
            explorer = _explorer_for(epoch, store, config, explorers)
            rating_slice = explorer._region_slice(
                region, None if item_ids is None else list(item_ids), interval
            )
            if rating_slice is None:
                raise EmptyRatingSetError(
                    f"region {region!r} has no ratings for this selection"
                )
        if kind == "similarity":
            return miner.mine_similarity(rating_slice, config)
        return miner.mine_diversity(rating_slice, config)
    raise PoolError(f"unknown mining spec kind {kind!r}")


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Loop of one persistent worker process.

    Messages: ``("attach", manifest)`` maps an epoch's shared segment into
    the epoch cache, ``("detach", epoch)`` unmaps it, ``("task", task_id,
    spec)`` executes one spec, ``("stop",)`` exits.  Payloads are pickled
    **in the worker** and shipped as bytes, so serialization happens exactly
    once and a pathological payload can never wedge the queue's feeder
    thread and orphan the parent's future.

    An attach may arrive for an epoch that was already retired and unlinked
    (the parent drains a superseded epoch as soon as its in-flight count
    hits zero, without waiting for slow or still-booting workers to consume
    the earlier attach); that is benign — the segment is gone, no task for
    the epoch can be submitted anymore, and the queued detach that follows
    is a no-op — so a failed attach is skipped, never fatal.
    """
    from ..data.shm import attach_store, detach_store
    from ..errors import DataError

    stores: Dict[int, Any] = {}
    explorers: Dict[int, Any] = {}
    while True:
        message = task_queue.get()
        tag = message[0]
        if tag == "stop":
            break
        if tag == "attach":
            manifest = message[1]
            if manifest.epoch not in stores:
                try:
                    stores[manifest.epoch] = attach_store(manifest)
                except DataError:
                    pass  # epoch already retired before we got here
            continue
        if tag == "detach":
            store = stores.pop(message[1], None)
            explorers.pop(message[1], None)
            if store is not None:
                detach_store(store)
            continue
        _, task_id, spec = message
        try:
            payload: Any = _execute_spec(spec, stores, explorers)
            ok = True
        except BaseException as exc:
            payload, ok = exc, False
        try:
            blob = pickle.dumps(payload)
        except Exception:
            blob = pickle.dumps(
                PoolError(
                    f"worker {worker_id}: unpicklable "
                    f"{'result' if ok else 'error'} "
                    f"{type(payload).__name__}: {payload}"
                )
            )
            ok = False
        result_queue.put(("done", worker_id, task_id, ok, blob))
    for store in stores.values():
        detach_store(store)


class ProcessMiningPool:
    """Persistent worker processes mining over shared-memory snapshots.

    Mirrors the :class:`~repro.server.pool.MiningWorkerPool` contract where
    the two overlap (submission-ordered gathering, ``PoolError`` after
    shutdown, inline execution at ``workers <= 1``) but accepts **spec
    tuples** instead of closures — closures cannot cross a process boundary.
    Callers branch on ``pool.kind == "process"``.

    Args:
        workers: worker-process count; ``0``/``1`` executes every spec inline
            in the calling thread (bit-identical by construction — same
            executor, same store objects).
        start_method: multiprocessing start method; the default ``"spawn"``
            is safe under the serving layer's threads (``fork`` would clone
            lock state into children).
        timeout_s: per-task gather deadline in seconds (``None``: wait
            forever).  Only meaningful when ``workers > 1`` — inline pools
            resolve the future inside :meth:`submit`, before any gather.
    """

    kind = "process"

    def __init__(
        self,
        workers: int = 0,
        start_method: str = "spawn",
        timeout_s: Optional[float] = None,
    ) -> None:
        workers = int(workers)
        if workers < 0:
            raise PoolError("workers must be non-negative")
        if timeout_s is not None and timeout_s <= 0:
            raise PoolError("timeout_s must be positive (or None)")
        self.workers = workers
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
        self._exports: Dict[int, Any] = {}  # epoch -> SharedStoreExport
        self._stores: Dict[int, Any] = {}  # inline mode: epoch -> RatingStore
        self._explorers: Dict[int, Any] = {}  # inline mode explorer cache
        self._retiring: set = set()
        self._current_epoch: Optional[int] = None
        self._broken: Optional[str] = None
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle / epochs -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when specs run on worker processes (``workers > 1``)."""
        return self.workers > 1

    @property
    def current_epoch(self) -> Optional[int]:
        """The most recently published epoch (None before the first publish)."""
        return self._current_epoch

    def _live_epoch_map(self) -> Dict[int, Any]:
        return self._exports if self.parallel else self._stores

    def _ensure_started_locked(self) -> None:
        if self._procs or not self.parallel:
            return
        self._result_queue = self._ctx.Queue()
        for worker_id in range(self.workers):
            queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, queue, self._result_queue),
                name=f"maprat-proc-{worker_id}",
                daemon=True,
            )
            process.start()
            self._task_queues.append(queue)
            self._procs.append(process)
        self._collector = threading.Thread(
            target=self._collect,
            args=(self._result_queue,),
            name="maprat-proc-collector",
            daemon=True,
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._watch_workers,
            args=(list(self._procs),),
            name="maprat-proc-monitor",
            daemon=True,
        )
        self._monitor.start()

    def publish(self, store, retire_previous: bool = True) -> int:
        """Export a store epoch to the workers and make it submittable.

        The new epoch's segment is created and broadcast *before* this call
        returns, so the caller can atomically swap its serving state right
        after — a request grabbing the new state can submit immediately.
        With ``retire_previous`` (the default) every older epoch is marked
        retiring and its segment is unlinked (workers detach) as soon as its
        in-flight tasks drain.  A caller that still serves the old epoch
        between publish and its own state swap passes ``False`` and calls
        :meth:`retire_older` *after* the swap — otherwise a request could be
        told its epoch is stale while the current serving state still points
        at it, making the stale-epoch retry spin.  Publishing the current
        epoch again is a no-op (idempotent across no-op compactions).

        The segment export (a full-store memcpy) runs outside the pool lock,
        so concurrent submissions to live epochs are never blocked behind an
        epoch turnover.
        """
        epoch = int(store.epoch)
        with self._lock:
            if self._shutdown:
                raise PoolError("process mining pool is shut down")
            if epoch == self._current_epoch:
                return epoch
            parallel = self.parallel
        export = None
        if parallel:
            from ..data.shm import SharedStoreExport

            export = SharedStoreExport(store)
        with self._lock:
            if self._shutdown:
                if export is not None:
                    export.release()
                raise PoolError("process mining pool is shut down")
            if epoch == self._current_epoch:  # raced duplicate publish
                if export is not None:
                    export.release()
                return epoch
            if parallel:
                self._ensure_started_locked()
                self._exports[epoch] = export
                for queue in self._task_queues:
                    queue.put(("attach", export.manifest))
            else:
                self._stores[epoch] = store
            previous = self._current_epoch
            self._current_epoch = epoch
            if previous is not None and retire_previous:
                self._retiring.add(previous)
            self._drain_retired_locked()
            return epoch

    def retire_older(self, epoch: int) -> None:
        """Mark every live epoch older than ``epoch`` retiring; drain if idle.

        The second half of the publish-before-swap protocol: call after the
        serving-state swap so a stale-epoch rejection can only ever be
        answered by a retry that observes the *new* serving state.
        """
        with self._lock:
            for live in list(self._live_epoch_map()):
                if live < int(epoch):
                    self._retiring.add(live)
            self._drain_retired_locked()

    def _drain_retired_locked(self) -> None:
        """Unlink every retiring epoch whose in-flight tasks have drained."""
        for epoch in sorted(self._retiring):
            if self._inflight.get(epoch, 0) > 0:
                continue
            self._retiring.discard(epoch)
            if self.parallel:
                export = self._exports.pop(epoch, None)
                for queue in self._task_queues:
                    queue.put(("detach", epoch))
                if export is not None:
                    export.release()
            else:
                self._stores.pop(epoch, None)
                self._explorers.pop(epoch, None)

    # -- submission -------------------------------------------------------------------

    def submit(self, spec: tuple) -> Future:
        """Schedule one mining spec; returns a future resolving to its result.

        Raises :class:`~repro.errors.PoolError` after shutdown and
        :class:`~repro.errors.StaleEpochError` when the spec's epoch is no
        longer exported (superseded and drained) — callers holding a
        pre-compaction serving state retry against the current one.
        """
        future: Future = Future()
        with self._lock:
            if self._shutdown:
                raise PoolError("process mining pool is shut down")
            if self._broken is not None:
                raise PoolError(self._broken)
            epoch = int(spec[1])
            if epoch not in self._live_epoch_map():
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
                self._task_queues[task_id % self.workers].put(("task", task_id, spec))
                return future
        # Inline mode executes outside the lock; the store reference was
        # validated above and stays alive for the duration of the call even
        # if a publish retires the epoch concurrently.
        try:
            future.set_result(_execute_spec(spec, self._stores, self._explorers))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def gather(self, future: Future) -> Any:
        """Resolve one future under the pool's deadline.

        Raises :class:`~repro.errors.MiningTimeoutError` when the task has
        not finished within ``timeout_s``.  The worker keeps executing the
        task (its result is dropped by the abandoned future) — the gatherer
        just stops waiting, which is what bounds the *request's* latency.
        """
        try:
            return future.result(timeout=self.timeout_s)
        except FutureTimeoutError as exc:
            raise MiningTimeoutError(
                f"mining task exceeded the {self.timeout_s:g}s deadline"
            ) from exc

    def mine_pair(
        self,
        epoch: int,
        item_ids: Optional[Sequence[int]],
        time_interval: Optional[Tuple[int, int]],
        config,
        region: Optional[str] = None,
    ) -> Tuple[Any, Any]:
        """Scatter one selection's SM + DM as two tasks; gather both.

        The shape behind ``RatingMiner.explain_items`` and
        ``GeoExplorer.explain_region``: the two mining tasks of one request
        run on two workers concurrently.  ``region`` carries the canonical
        state code for within-region mining (``config`` must then already be
        the region-adapted configuration, exactly what the serial path
        mines with).
        """
        ids = None if item_ids is None else tuple(int(i) for i in item_ids)
        interval = (
            None
            if time_interval is None
            else (int(time_interval[0]), int(time_interval[1]))
        )
        similarity_future = self.submit(
            ("similarity", int(epoch), ids, interval, region, config)
        )
        diversity_future = self.submit(
            ("diversity", int(epoch), ids, interval, region, config)
        )
        return self.gather(similarity_future), self.gather(diversity_future)

    # -- gathering --------------------------------------------------------------------

    def _watch_workers(self, procs: List[Any]) -> None:
        """Fail outstanding futures if a worker process dies unexpectedly.

        Without this, a crashed worker (OOM-kill, a spawn that could not
        re-import the parent's ``__main__``) would leave its futures
        unresolved and every gatherer blocked forever.  An unexpected death
        marks the pool broken: outstanding futures fail with
        :class:`~repro.errors.PoolError` and later submissions are refused.
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
                    f"{len(dead)} mining worker process(es) died "
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
        """Collector thread: resolve futures, drive epoch drain accounting.

        The queue is bound at thread start — ``shutdown`` nulls the instance
        attribute while a result may still be in flight, and the collector
        must keep draining until it sees the stop sentinel.
        """
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
        """Number of specs accepted over the pool's lifetime."""
        with self._lock:
            return self._submitted

    def segment_names(self) -> List[str]:
        """Names of the currently linked shared-memory segments (diagnostics)."""
        with self._lock:
            return sorted(export.segment_name for export in self._exports.values())

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop the workers and unlink every shared segment (idempotent).

        Pending futures are cancelled (their gatherers see
        ``CancelledError``, as with the thread pool's drained shutdown);
        workers finish the task they are executing, then exit.  All exports
        are released here, so a closed pool leaves nothing in ``/dev/shm``.
        """
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
            exports = list(self._exports.values())
            self._exports.clear()
            self._stores.clear()
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

    def __enter__(self) -> "ProcessMiningPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def to_dict(self) -> dict:
        """Status payload for the ``summary`` endpoint and diagnostics."""
        with self._lock:
            return {
                "backend": "process",
                "workers": self.workers,
                "parallel": self.parallel,
                "tasks_submitted": self._submitted,
                "current_epoch": self._current_epoch,
                "live_epochs": sorted(self._live_epoch_map()),
                "retiring_epochs": sorted(self._retiring),
                "broken": self._broken,
            }
