"""Mining worker pool: run mining work on threads, under a deadline.

The serving layer hands the pool two shapes of work:

* one task per explain request: its Similarity + Diversity pair, solved
  one after the other over one candidate enumeration
  (:meth:`~repro.core.miner.RatingMiner.mine_pair`).  The request thread
  gathers it under ``timeout_s``, so the deadline bounds the request's whole
  mining;
* the per-anchor loops of :class:`~repro.server.precompute.Precomputer`
  (per-item aggregates, popular-item warm-up) and the per-region fan-out of
  :meth:`~repro.geo.explorer.GeoExplorer.explain_top_regions`, when a
  parallel pool is handed in.

:class:`MiningWorkerPool` wraps a ``ThreadPoolExecutor`` behind a small,
deterministic API.  Determinism-under-parallelism is an invariant the
property suite enforces: results are always gathered in **submission order**
(never completion order), and every mining task seeds its own generator from
the fixed seed of its :class:`~repro.config.MiningConfig`, so the schedule
can never leak into results.  A pool with ``workers <= 1`` runs every task
inline on the calling thread, so ``workers=1`` and ``workers=N`` are
bit-identical by construction.  For batch drivers that *do* need distinct
random streams per task (e.g. the serving benchmark's per-client request
generators), :func:`split_seed` derives one from ``(base_seed, task_index)``
alone — independent of worker count, chunking and completion order.

Threads share the read-only store and the single-flight cache in-process,
but the mining kernel holds the GIL for most of its time, so extra threads
add no mining throughput: the thread backend's warm pool is inline, and
multi-core mining is the process backend's job.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import MiningTimeoutError, PoolError


def split_seed(base_seed: int, index: int) -> int:
    """Deterministic per-task seed derived from a base seed and a task index.

    Built on ``np.random.SeedSequence([base_seed, index])`` so the value
    depends only on the two integers — not on how many workers run, in what
    order tasks complete, or how a batch is chunked.  Sharding a seeded batch
    N ways therefore reproduces the serial run bit-for-bit.
    """
    return int(
        np.random.SeedSequence([int(base_seed), int(index)]).generate_state(
            1, dtype=np.uint32
        )[0]
    )


def split_seeds(base_seed: int, count: int) -> List[int]:
    """The first ``count`` per-task seeds of a base seed (see :func:`split_seed`)."""
    return [split_seed(base_seed, index) for index in range(count)]


class MiningWorkerPool:
    """A bounded thread pool with deterministic, submission-ordered results.

    Args:
        workers: number of worker threads; ``0`` or ``1`` disables the
            executor and runs every task inline on the calling thread.
        thread_name_prefix: prefix of worker thread names (diagnostics).
        timeout_s: per-task gather deadline in seconds (``None``: wait
            forever).  Only meaningful when ``workers > 1`` — inline pools
            finish the task inside :meth:`submit`, before any gather.
    """

    #: Backend discriminator checked by the mining call sites (the process
    #: pool's is "process"; its tasks are spec tuples, not closures).
    kind = "thread"

    def __init__(
        self,
        workers: int = 0,
        thread_name_prefix: str = "maprat-miner",
        timeout_s: Optional[float] = None,
    ) -> None:
        workers = int(workers)
        if workers < 0:
            raise PoolError("workers must be non-negative")
        if timeout_s is not None and timeout_s <= 0:
            raise PoolError("timeout_s must be positive (or None)")
        self.workers = workers
        self.timeout_s = timeout_s
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix=thread_name_prefix)
            if workers > 1
            else None
        )
        self._submitted = 0
        self._shutdown = False
        self._lock = threading.Lock()

    # -- submission -----------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when tasks actually run on worker threads."""
        return self._executor is not None

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule one task; inline pools execute it before returning.

        Always returns a resolved-or-pending :class:`Future`, so callers are
        written once against the parallel shape and stay correct inline.
        Raises :class:`~repro.errors.PoolError` (not the executor's raw
        ``RuntimeError``) once the pool has been shut down.
        """
        with self._lock:
            if self._shutdown:
                raise PoolError("worker pool is shut down")
            self._submitted += 1
        if self._executor is None:
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:
                future.set_exception(exc)
            return future
        try:
            return self._executor.submit(fn, *args, **kwargs)
        except RuntimeError as exc:
            raise PoolError("worker pool is shut down") from exc

    def gather(self, future: Future) -> Any:
        """Resolve one future under the pool's deadline.

        Raises :class:`~repro.errors.MiningTimeoutError` when the task has
        not finished within ``timeout_s``.  The task itself keeps running on
        its worker thread (Python offers no safe preemption) — the gatherer
        just stops waiting, which is what bounds the *request's* latency.
        """
        try:
            return future.result(timeout=self.timeout_s)
        except FutureTimeoutError as exc:
            raise MiningTimeoutError(
                f"mining task exceeded the {self.timeout_s:g}s deadline"
            ) from exc

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item; results come back in submission order.

        The first task exception propagates (remaining tasks still run to
        completion — the executor is not cancelled mid-batch).
        """
        futures = [self.submit(fn, item) for item in items]
        return [self.gather(future) for future in futures]

    def map_outcomes(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> List[Tuple[Any, Optional[BaseException]]]:
        """Like :meth:`map` but captures per-task errors instead of raising.

        Returns ``(value, None)`` or ``(None, exception)`` per item, in
        submission order — the shape the pre-computation warm-up needs to
        count failures without abandoning the rest of the batch.  A pool shut
        down mid-batch yields ``CancelledError`` outcomes for the tasks that
        could no longer be submitted, matching the executor's treatment of
        queued-but-cancelled futures.
        """
        futures: List[Optional[Future]] = []
        for item in items:
            try:
                futures.append(self.submit(fn, item))
            except PoolError:
                futures.append(None)  # shut down mid-batch: same as cancelled
        outcomes: List[Tuple[Any, Optional[BaseException]]] = []
        for future in futures:
            if future is None:
                outcomes.append((None, CancelledError("pool shut down")))
                continue
            try:
                outcomes.append((future.result(), None))
            except BaseException as exc:
                outcomes.append((None, exc))
        return outcomes

    # -- lifecycle ------------------------------------------------------------------

    @property
    def tasks_submitted(self) -> int:
        """Number of tasks accepted over the pool's lifetime."""
        with self._lock:
            return self._submitted

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop the worker threads (idempotent; inline pools are a no-op).

        ``cancel_pending=True`` cancels queued-but-unstarted tasks, bounding
        shutdown time to the tasks already in flight; their futures raise
        ``CancelledError`` to whoever gathers them.  Inline pools honour the
        same contract: later :meth:`submit` calls raise ``PoolError``.
        """
        with self._lock:
            self._shutdown = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "MiningWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def to_dict(self) -> dict:
        """Status payload for the ``summary`` endpoint and diagnostics."""
        return {
            "backend": "thread",
            "workers": self.workers,
            "parallel": self.parallel,
            "tasks_submitted": self.tasks_submitted,
        }
