"""Result cache: single-flight LRU, keyed canonically.

Mining a popular movie involves enumerating thousands of candidate groups and
running two randomized searches; repeating that for every visitor would defeat
the "interactive" promise of the demo.  The cache keeps the most recent
results, evicts least-recently-used entries beyond the capacity, and records
hit/miss statistics that the latency benchmarks (claim §2.3) report.  Entries
never expire by age: every key ends with the store epoch, so a compaction
makes the entries of a superseded store unreachable instead.

Two serving-layer guarantees live here:

* **Single-flight computation** — when several threads miss on the same key
  at once (the classic cache stampede: concurrent visitors asking for the
  same uncached blockbuster), exactly one *leader* runs the computation
  while the other *waiters* block on the in-flight entry and receive the
  leader's value.  Every caller lands in exactly one of ``hits``/``misses``:
  a coalesced waiter counts as a hit (plus the ``coalesced`` stampede
  counter) when its leader succeeds, and as a miss when the leader fails.
  While computations succeed, ``misses`` therefore equals the number of
  computations performed; failed flights add their waiters on top.
* **Canonical keys** — :func:`canonical_explain_key` normalises an item
  selection, time interval and :class:`~repro.config.MiningConfig` into one
  hashable tuple (sorted unique ids, ordered config fields), so equivalent
  requests — a query string resolving to the same items, a warm-up
  pre-computation, a direct ``explain_items`` call, case variants of a title
  (item matching is case-insensitive) — all land on the same entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional, Tuple

from ..errors import CacheError


def canonical_explain_key(
    item_ids: Iterable[int],
    time_interval: Optional[Tuple[int, int]],
    config,
    epoch: int = 0,
) -> tuple:
    """Canonical cache key of one explain request.

    Every path that produces a :class:`~repro.core.explanation.MiningResult`
    (query strings, explicit item lists, warm-up pre-computation) must key its
    cache entry through this function so equivalent requests hit each other's
    results.  Item ids are de-duplicated and sorted, the interval collapses to
    a plain ``(start, end)`` tuple or ``None``, and the mining configuration
    contributes its ordered :meth:`~repro.config.MiningConfig.cache_key`
    fields.

    ``epoch`` is the store snapshot the result was computed on: a compaction
    bumps it, so every entry of a superseded snapshot becomes unreachable the
    instant new ratings land — a stale result can never serve a post-ingest
    read.  The epoch is always the **last** component, which the serving
    layer's cache-migration scan relies on.
    """
    ids = tuple(sorted({int(item_id) for item_id in item_ids}))
    interval = (
        (int(time_interval[0]), int(time_interval[1]))
        if time_interval is not None
        else None
    )
    return ("explain", ids, interval, config.cache_key(), int(epoch))


def canonical_geo_key(
    kind: str,
    item_ids: Optional[Iterable[int]],
    time_interval: Optional[Tuple[int, int]],
    region: str = "",
    by: str = "",
    task: str = "",
    min_size: int = 0,
    config=None,
    epoch: int = 0,
) -> tuple:
    """Canonical cache key of one geo endpoint request.

    Mirrors :func:`canonical_explain_key` for the geo serving surface:
    ``item_ids=None`` (the whole-store view) is distinct from any explicit
    selection, region codes are upper-cased so ``ca`` and ``CA`` share an
    entry, and the mining configuration contributes its ordered fields only
    for the kinds that actually mine (``geo_explain``/``choropleth``) —
    aggregate-only kinds pass ``config=None`` so a config change never
    invalidates cheap summaries.  ``epoch`` (always last, see
    :func:`canonical_explain_key`) ties the entry to one store snapshot.
    """
    ids = (
        None
        if item_ids is None
        else tuple(sorted({int(item_id) for item_id in item_ids}))
    )
    interval = (
        (int(time_interval[0]), int(time_interval[1]))
        if time_interval is not None
        else None
    )
    return (
        "geo",
        kind,
        ids,
        interval,
        str(region).strip().upper(),
        by,
        task,
        int(min_size),
        config.cache_key() if config is not None else None,
        int(epoch),
    )


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance.

    Every request increments exactly one of ``hits``/``misses``, even under
    single-flight (``requests`` is the derived sum): coalesced waiters count
    as hits plus the ``coalesced`` counter when their leader succeeds, and as
    misses when it fails.  So while computations succeed, ``misses`` equals
    the number of computations performed — the stress tests pin this down
    against an independent computation counter.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (the derived sum ``hits + misses``)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any request)."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """The counters as a JSON-ready dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "coalesced": self.coalesced,
            "hit_rate": round(self.hit_rate, 4),
        }


#: Sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


class _InFlight:
    """One in-progress computation that waiters block on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class ResultCache:
    """Thread-safe LRU cache with single-flight computation.

    Values are opaque to the cache; the MapRat façade stores
    :class:`~repro.core.explanation.MiningResult` objects, the pre-computation
    layer stores aggregates.

    Args:
        capacity: maximum number of entries kept.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise CacheError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._inflight: dict = {}
        self._lock = threading.Lock()

    # -- core operations ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, record_stats=False) is not None

    def _lookup_locked(self, key: Hashable) -> Any:
        """Value of ``key`` or ``_MISSING``; caller holds the lock.

        Refreshes LRU order on a hit.  Hit/miss counters are the caller's
        responsibility.
        """
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self._entries.move_to_end(key)
        return value

    def get(self, key: Hashable, default: Any = None, record_stats: bool = True) -> Any:
        """Return the cached value or ``default``; refreshes LRU order on hit.

        ``record_stats=False`` leaves the counters alone: untracked scans such
        as ``__contains__`` and the epoch-migration pass are not lookups.
        """
        with self._lock:
            value = self._lookup_locked(key)
            if value is _MISSING:
                if record_stats:
                    self.stats.misses += 1
                return default
            if record_stats:
                self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU entry beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss.

        Concurrent misses on the same key block on one in-flight
        computation: the leader's value is stored once and handed to every
        waiter; a leader's exception propagates to its waiters.  ``compute``
        runs outside the cache lock, so computations for distinct keys
        proceed concurrently.  ``compute`` must not re-enter
        ``get_or_compute`` with the same key (it would wait on itself).
        """
        with self._lock:
            value = self._lookup_locked(key)
            if value is not _MISSING:
                self.stats.hits += 1
                return value
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                self.stats.misses += 1
                flight = _InFlight()
                self._inflight[key] = flight
        if not leader:
            flight.event.wait()
            with self._lock:
                if flight.error is None:
                    # coalesced counts only duplicate computations actually
                    # avoided; a failed flight served no value to its
                    # waiters (they re-raise the leader's error below), so
                    # they are plain misses.
                    self.stats.coalesced += 1
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
            if flight.error is not None:
                # The same exception instance is re-raised to every waiter —
                # the semantics of concurrent.futures.Future.result().
                raise flight.error
            return flight.value
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                flight.error = exc
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        try:
            self.put(key, value)
        finally:
            # Resolve the flight even if storing raised (e.g. MemoryError):
            # waiters get the computed value; nothing may strand them.
            with self._lock:
                flight.value = value
                self._inflight.pop(key, None)
            flight.event.set()
        return value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns True when it existed."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        """Snapshot of the live keys (drives the epoch migration pass)."""
        with self._lock:
            return list(self._entries.keys())

    def inflight_count(self) -> int:
        """Number of computations currently in flight (diagnostics)."""
        with self._lock:
            return len(self._inflight)
