"""Tests for the single-flight LRU result cache and its canonical keys."""

import random
import threading
import time

import pytest

from repro.config import MiningConfig
from repro.errors import CacheError
from repro.server.cache import ResultCache, canonical_explain_key


class TestBasicOperations:
    def test_get_after_put(self):
        cache = ResultCache(capacity=4)
        cache.put("key", "value")
        assert cache.get("key") == "value"
        assert "key" in cache
        assert len(cache) == 1

    def test_miss_returns_the_default(self):
        cache = ResultCache(capacity=4)
        assert cache.get("absent") is None
        assert cache.get("absent", default=42) == 42

    def test_put_refreshes_an_existing_key(self):
        cache = ResultCache(capacity=4)
        cache.put("key", 1)
        cache.put("key", 2)
        assert cache.get("key") == 2
        assert len(cache) == 1
        assert cache.stats.evictions == 0

    def test_invalidate_and_clear(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.clear()
        assert len(cache) == 0

    def test_invalid_configuration(self):
        with pytest.raises(CacheError):
            ResultCache(capacity=0)

    def test_invalidate_and_clear_keep_the_statistics(self):
        # Explicit drops are not evictions, and clearing the entries keeps
        # the counters the summary and /metrics report.
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("absent")
        cache.invalidate("a")
        cache.clear()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert cache.get("b") is None
        assert stats.misses == 2


class TestLruEviction:
    def test_capacity_is_never_exceeded(self):
        cache = ResultCache(capacity=3)
        for index in range(10):
            cache.put(index, index)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_least_recently_used_entry_is_evicted_first(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a" so "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_keys_reflect_insertion_and_access_order(self):
        cache = ResultCache(capacity=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ["b", "a"]


class TestStatsAndCompute:
    def test_hit_and_miss_counters(self):
        cache = ResultCache(capacity=4)
        cache.get("absent")
        cache.put("key", 1)
        cache.get("key")
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.requests == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.to_dict()["hit_rate"] == pytest.approx(0.5)

    def test_get_or_compute_only_computes_on_miss(self):
        cache = ResultCache(capacity=4)
        calls = []

        def compute():
            calls.append(1)
            return "expensive"

        assert cache.get_or_compute("key", compute) == "expensive"
        assert cache.get_or_compute("key", compute) == "expensive"
        assert len(calls) == 1

    def test_contains_does_not_inflate_the_statistics(self):
        cache = ResultCache(capacity=4)
        cache.put("key", 1)
        _ = "key" in cache
        assert "absent" not in cache
        assert cache.get("absent", record_stats=False) is None
        assert cache.stats.requests == 0

    def test_a_cached_none_is_a_hit(self):
        # An entry is its value, so a cached None must stay distinct from an
        # absent key: it is served, not recomputed.
        cache = ResultCache(capacity=4)
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.get_or_compute("key", compute) is None
        assert cache.get_or_compute("key", compute) is None
        assert len(calls) == 1
        assert cache.get("key", default="absent") is None
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    def test_eviction_during_get_or_compute_keeps_the_invariant(self):
        cache = ResultCache(capacity=2)
        assert cache.get_or_compute("key", lambda: "v1") == "v1"
        cache.put("other-1", 1)
        cache.put("other-2", 2)     # evicts "key", the LRU entry
        assert cache.get_or_compute("key", lambda: "v2") == "v2"
        stats = cache.stats
        assert stats.requests == stats.hits + stats.misses == 2
        assert stats.misses == 2            # both calls computed
        assert stats.evictions == 2         # "key", then "other-1" for its return
        assert cache.keys() == ["other-2", "key"]

    def test_invariant_sweep_over_interleaved_operations(self):
        # Every lookup lands in exactly one of hits/misses, and with no
        # explicit invalidate/clear every entry that left the cache was
        # counted as an eviction: live entries + evictions == insertions.
        cache = ResultCache(capacity=4)
        rng = random.Random(9)
        insertions = 0
        for step in range(200):
            key, operation = rng.randrange(6), rng.randrange(3)
            absent = key not in cache.keys()  # keys() leaves the LRU order alone
            if operation == 0:
                cache.put(key, step)
                insertions += absent
            elif operation == 1:
                cache.get(key)
            else:
                cache.get_or_compute(key, lambda: step)
                insertions += absent
            stats = cache.stats
            assert stats.requests == stats.hits + stats.misses
            assert len(cache) + stats.evictions == insertions
            assert len(cache) <= cache.capacity
        stats = cache.stats
        assert stats.evictions > 0
        assert stats.hits > 0 and stats.misses > 0


class TestThreadSafety:
    def test_concurrent_puts_and_gets_do_not_corrupt_the_cache(self):
        cache = ResultCache(capacity=64)

        def worker(offset):
            for index in range(200):
                cache.put((offset, index % 32), index)
                cache.get((offset, (index + 1) % 32))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64


def _run_threads(workers, timeout=30.0):
    """Start, then join with a bound; any thread still alive is a deadlock."""
    threads = [threading.Thread(target=worker, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "threads deadlocked"


class TestSingleFlight:
    def test_concurrent_misses_on_one_key_run_one_computation(self):
        cache = ResultCache(capacity=8)
        calls = []
        results = []
        results_lock = threading.Lock()
        clients = 6
        barrier = threading.Barrier(clients)

        def compute():
            calls.append(1)
            time.sleep(0.05)
            return "expensive"

        def worker():
            barrier.wait()
            value = cache.get_or_compute("key", compute)
            with results_lock:
                results.append(value)

        _run_threads([worker] * clients)
        assert len(calls) == 1
        assert results == ["expensive"] * clients
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == clients - 1
        assert stats.coalesced == clients - 1
        assert stats.requests == clients
        assert cache.inflight_count() == 0

    def test_leader_error_propagates_to_coalesced_waiters(self):
        cache = ResultCache(capacity=8)
        clients = 4
        barrier = threading.Barrier(clients)
        errors = []
        errors_lock = threading.Lock()

        def compute():
            time.sleep(0.05)
            raise CacheError("boom")

        def worker():
            barrier.wait()
            try:
                cache.get_or_compute("key", compute)
            except CacheError as exc:
                with errors_lock:
                    errors.append(exc)

        _run_threads([worker] * clients)
        assert len(errors) == clients
        # One counter increment per caller: the leader's miss plus one miss
        # per waiter whose flight failed (requests is the derived sum).
        assert cache.stats.requests == clients
        assert cache.stats.hits == 0
        assert cache.inflight_count() == 0
        # The failure left nothing cached; the next call recomputes cleanly.
        assert cache.get_or_compute("key", lambda: "recovered") == "recovered"

    def test_sequential_get_or_compute_still_counts_hits(self):
        cache = ResultCache(capacity=8)
        assert cache.get_or_compute("key", lambda: 41) == 41
        assert cache.get_or_compute("key", lambda: 42) == 41
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.coalesced == 0


class TestSingleFlightStress:
    """N threads hammering overlapping keys, with eviction on.

    Invariants under single-flight, whatever the interleaving:
    * every computation corresponds to exactly one counted miss
      (no duplicated work while an entry is cached or in flight),
    * every request increments exactly one of hits/misses — checked as
      ``requests == clients × iterations`` since ``requests`` is the
      derived sum of the two counters,
    * every value returned belongs to the requested key,
    * the run finishes within the join bound (no deadlocks).
    """

    @staticmethod
    def _hammer(clients, iterations, keyspace):
        cache = ResultCache(capacity=keyspace - 2)
        compute_counts = {key: 0 for key in range(keyspace)}
        counts_lock = threading.Lock()
        mismatches = []

        def compute_for(key):
            with counts_lock:
                compute_counts[key] += 1
            time.sleep(0.001)
            return ("value", key)

        def worker(worker_id):
            rng = random.Random(worker_id)
            for _ in range(iterations):
                key = rng.randrange(keyspace)
                value = cache.get_or_compute(key, lambda k=key: compute_for(k))
                if value != ("value", key):
                    mismatches.append((key, value))

        _run_threads([lambda i=i: worker(i) for i in range(clients)])
        assert not mismatches
        stats = cache.stats
        # requests is derived (hits + misses), so this checks that every
        # call incremented exactly one counter — no double/zero counting.
        assert stats.requests == clients * iterations
        total_computations = sum(compute_counts.values())
        assert total_computations == stats.misses
        assert stats.hits > 0  # the workload overlaps heavily
        assert total_computations < stats.requests
        assert cache.inflight_count() == 0
        assert len(cache) <= cache.capacity

    def test_hammering_overlapping_keys_with_eviction(self):
        self._hammer(clients=8, iterations=120, keyspace=8)

    @pytest.mark.slow
    def test_sustained_high_contention_hammering(self):
        """Longer, wider run of the same invariants (tier-2: ``-m slow``)."""
        self._hammer(clients=16, iterations=500, keyspace=12)


class TestCanonicalKeys:
    def test_item_order_and_duplicates_do_not_change_the_key(self):
        config = MiningConfig()
        assert canonical_explain_key([3, 1, 2], None, config) == canonical_explain_key(
            (2, 3, 1, 1), None, config
        )

    def test_interval_forms_normalise(self):
        config = MiningConfig()
        assert canonical_explain_key([1], (10, 20), config) == canonical_explain_key(
            [1], [10, 20], config
        )
        assert canonical_explain_key([1], (10, 20), config) != canonical_explain_key(
            [1], None, config
        )

    def test_equal_configs_share_a_key_and_different_configs_do_not(self):
        base = MiningConfig()
        twin = MiningConfig()  # distinct instance, identical fields
        other = MiningConfig(max_groups=2)
        assert canonical_explain_key([1], None, base) == canonical_explain_key(
            [1], None, twin
        )
        assert canonical_explain_key([1], None, base) != canonical_explain_key(
            [1], None, other
        )

    def test_key_is_hashable(self):
        key = canonical_explain_key([5, 3], (0, 1), MiningConfig())
        assert key in {key}
