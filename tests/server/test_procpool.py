"""Process-parallel mining backend: equivalence, epochs, lifecycle.

The contract under test (ISSUE 5): the process backend is **bit-identical**
to the serial and thread paths on the same selections; compactions publish a
new shared-memory epoch and retire the superseded one only after its
in-flight tasks drain (no stale-epoch reads, monotone epochs); a worker that
dies or stops fails its gatherers typed and bounded (``PoolError`` from the
monitor, ``MiningTimeoutError`` from the deadline), never a hang; and closing
the system reclaims every worker, thread and shared-memory segment.

The inline pool (``workers<=1``) exercises the exact spec-executor path
without process startup, so most equivalence checks are cheap; a smaller set
of checks runs against real spawned workers.
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing import shared_memory

import pytest

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.miner import RatingMiner
from repro.errors import (
    EmptyRatingSetError,
    MiningTimeoutError,
    PoolError,
    StaleEpochError,
)
from repro.geo.explorer import GeoExplorer
from repro.server.api import MapRat
from repro.server.procpool import ProcessMiningPool


def normalized(payload) -> dict:
    """JSON round-trip with every (volatile) elapsed_seconds removed."""
    payload = json.loads(json.dumps(payload))

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_seconds"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(payload)


def build_system(dataset, mining_config, backend, workers, **server_kwargs) -> MapRat:
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            mining_backend=backend, mining_workers=workers, **server_kwargs
        ),
    )
    return MapRat.for_dataset(dataset, config)


def toy_story_spec(dataset, store, config) -> tuple:
    """One real SM mining spec for the Toy Story selection of ``store``."""
    item_ids = tuple(item.item_id for item in dataset.items_by_title("Toy Story"))
    return ("similarity", store.epoch, item_ids, None, None, config)


def resume(process) -> None:
    """SIGCONT a parked worker, shrugging off one that already exited.

    Used in ``finally`` blocks: a worker the monitor already reaped raises
    ``ProcessLookupError`` on the signal, and letting that propagate would
    skip the remaining resumes and the pool shutdown, leaving SIGSTOPped
    processes behind.
    """
    try:
        os.kill(process.pid, signal.SIGCONT)
    except (ProcessLookupError, OSError):
        pass


@pytest.fixture(scope="module")
def spawned_system(tiny_dataset, mining_config):
    """One spawned-worker system shared by the read-only spawn checks."""
    system = build_system(tiny_dataset, mining_config, "process", 2)
    yield system
    system.close()


class TestProcessBackendEquivalence:
    """Serial == thread == process (inline and spawned), bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self, tiny_dataset, mining_config):
        system = build_system(tiny_dataset, mining_config, "thread", 0)
        payloads = {
            "explain": normalized(system.explain('title:"Toy Story"').to_dict()),
            "geo": normalized(
                system.geo_explain('title:"Toy Story"', "CA").to_dict()
            ),
        }
        system.close()
        return payloads

    def test_inline_process_backend_matches_serial(
        self, tiny_dataset, mining_config, reference
    ):
        system = build_system(tiny_dataset, mining_config, "process", 1)
        try:
            assert (
                normalized(system.explain('title:"Toy Story"').to_dict())
                == reference["explain"]
            )
            assert (
                normalized(system.geo_explain('title:"Toy Story"', "CA").to_dict())
                == reference["geo"]
            )
        finally:
            system.close()

    def test_spawned_process_backend_matches_serial(self, spawned_system, reference):
        assert (
            normalized(spawned_system.explain('title:"Toy Story"').to_dict())
            == reference["explain"]
        )
        assert (
            normalized(
                spawned_system.geo_explain('title:"Toy Story"', "CA").to_dict()
            )
            == reference["geo"]
        )

    def test_region_fanout_matches_serial(self, tiny_miner, mining_config):
        explorer = GeoExplorer(tiny_miner)
        serial = [
            normalized(result.to_dict())
            for result in explorer.explain_top_regions(limit=2)
        ]
        pool = ProcessMiningPool(workers=1)
        try:
            pool.publish(tiny_miner.store)
            fanned = [
                normalized(result.to_dict())
                for result in explorer.explain_top_regions(limit=2, pool=pool)
            ]
        finally:
            pool.shutdown()
        assert fanned == serial

    def test_mining_error_types_cross_the_process_boundary(self, spawned_system):
        # WY has no ratings for this selection in the tiny dataset; the
        # worker-side EmptyRatingSetError must reach the caller as-is so the
        # JSON layer keeps mapping it to the same 400 payload.
        with pytest.raises(EmptyRatingSetError):
            spawned_system.geo_explain('title:"Toy Story"', "WY")


class TestEpochLifecycle:
    """Publish-before-swap, drain-then-retire, stale-epoch handling."""

    def test_publish_retires_drained_epochs(self, tiny_dataset, tiny_store, mining_config):
        pool = ProcessMiningPool(workers=1)
        try:
            pool.publish(tiny_store)
            config = mining_config
            miner = RatingMiner(tiny_store, config)
            item_ids = [
                item.item_id for item in tiny_dataset.items_by_title("Toy Story")
            ]
            first = miner.explain_items(item_ids, pool=pool)
            # A "new epoch": same rows re-tagged via the compaction entry point.
            from repro.data.ingest import compact_snapshot

            rating = next(iter(tiny_dataset.ratings()))
            bumped, _ = compact_snapshot(tiny_store, [rating], use_incremental=False)
            assert bumped.epoch == tiny_store.epoch + 1
            pool.publish(bumped)
            assert pool.current_epoch == bumped.epoch
            assert pool.to_dict()["live_epochs"] == [bumped.epoch]
            # The retired epoch refuses new submissions...
            with pytest.raises(StaleEpochError):
                miner.explain_items(item_ids, pool=pool)
            # ...while the published epoch serves the same selection.
            second = RatingMiner(bumped, config).explain_items(item_ids, pool=pool)
            assert normalized(second.to_dict()) == normalized(first.to_dict())
        finally:
            pool.shutdown()

    def test_publish_without_retire_keeps_old_epoch_until_retire_older(
        self, tiny_dataset, tiny_store, mining_config
    ):
        # The compaction protocol: publish(retire_previous=False) must leave
        # the previous epoch submittable (the serving state still points at
        # it until the swap); retire_older() then closes it.
        pool = ProcessMiningPool(workers=1)
        try:
            pool.publish(tiny_store)
            from repro.data.ingest import compact_snapshot

            rating = next(iter(tiny_dataset.ratings()))
            bumped, _ = compact_snapshot(tiny_store, [rating], use_incremental=False)
            pool.publish(bumped, retire_previous=False)
            assert sorted(pool.to_dict()["live_epochs"]) == [
                tiny_store.epoch, bumped.epoch
            ]
            old_miner = RatingMiner(tiny_store, mining_config)
            item_ids = [
                item.item_id for item in tiny_dataset.items_by_title("Toy Story")
            ]
            old_miner.explain_items(item_ids, pool=pool)  # old epoch still live
            pool.retire_older(bumped.epoch)
            assert pool.to_dict()["live_epochs"] == [bumped.epoch]
            with pytest.raises(StaleEpochError):
                old_miner.explain_items(item_ids, pool=pool)
        finally:
            pool.shutdown()

    def test_facade_retries_stale_serving_state(self, tiny_dataset, mining_config):
        system = build_system(tiny_dataset, mining_config, "process", 1)
        try:
            stale = system.serving  # grabbed before the compaction
            system.ingest(item_id=1, reviewer_id=1, score=5, timestamp=424242)
            assert system.compact()["compacted"]
            assert system.pool.to_dict()["live_epochs"] == [system.epoch]
            # Direct mining against the stale bundle fails fast...
            with pytest.raises(StaleEpochError):
                stale.miner.explain_items([1], pool=system.pool)
            # ...but the façade's retry serves the request from the current
            # epoch (this is the narrow race a compaction can expose).
            result = system.explain_items([1], use_cache=False)
            assert result.query.num_ratings >= 1
        finally:
            system.close()

    def test_worker_survives_attach_of_already_retired_epoch(
        self, tiny_dataset, tiny_store, mining_config
    ):
        # Two publishes in quick succession: epoch 0's attach is still queued
        # behind worker startup when epoch 1 retires and unlinks it.  The
        # stale attach must be skipped in the worker (its segment is gone),
        # never crash it — a dead worker would mark the whole pool broken.
        from repro.data.ingest import compact_snapshot

        pool = ProcessMiningPool(workers=2)
        try:
            pool.publish(tiny_store)
            rating = next(iter(tiny_dataset.ratings()))
            bumped, _ = compact_snapshot(tiny_store, [rating], use_incremental=False)
            pool.publish(bumped)  # retires + unlinks epoch 0 immediately
            item_ids = [
                item.item_id for item in tiny_dataset.items_by_title("Toy Story")
            ]
            result = RatingMiner(bumped, mining_config).explain_items(
                item_ids, pool=pool
            )
            assert result.query.num_ratings > 0
            assert pool.to_dict()["broken"] is None
        finally:
            pool.shutdown()

    def test_ingest_and_compact_while_spawned_pool_is_live(
        self, tiny_dataset, mining_config
    ):
        system = build_system(tiny_dataset, mining_config, "process", 2)
        try:
            before = system.explain('title:"Toy Story"', use_cache=False)
            epochs = [system.epoch]
            for step in range(2):
                system.ingest(
                    item_id=before.query.item_ids[0],
                    reviewer_id=1 + step,
                    score=5,
                    timestamp=1_700_000_000 + step,
                )
                assert system.compact()["compacted"]
                epochs.append(system.epoch)
                after = system.explain('title:"Toy Story"', use_cache=False)
                # No stale-epoch read: each post-compaction explain sees the
                # appended rows of *its* epoch.
                assert after.query.num_ratings == before.query.num_ratings + step + 1
                assert system.pool.to_dict()["live_epochs"] == [system.epoch]
            assert epochs == sorted(epochs) and len(set(epochs)) == 3  # monotone
        finally:
            system.close()


class TestWorkerFaults:
    """A dead or stuck worker fails typed and bounded — never a hang."""

    def test_killed_worker_fails_gather_with_pool_error(
        self, tiny_dataset, tiny_store, mining_config
    ):
        pool = ProcessMiningPool(workers=2, timeout_s=60)
        try:
            pool.publish(tiny_store)
            victim = pool._procs[0]  # task 0 goes to worker 0's queue
            os.kill(victim.pid, signal.SIGSTOP)  # park it so the task queues
            try:
                future = pool.submit(
                    toy_story_spec(tiny_dataset, tiny_store, mining_config)
                )
            finally:
                try:
                    os.kill(victim.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
            # The monitor must fail the outstanding future long before the
            # 60s deadline: PoolError, not MiningTimeoutError, not a hang.
            started = time.monotonic()
            with pytest.raises(PoolError, match="died unexpectedly"):
                pool.gather(future)
            assert time.monotonic() - started < 30
            # The pool is broken: later submissions fail fast and say why.
            assert "died unexpectedly" in pool.to_dict()["broken"]
            with pytest.raises(PoolError, match="died unexpectedly"):
                pool.submit(toy_story_spec(tiny_dataset, tiny_store, mining_config))
        finally:
            pool.shutdown()

    def test_stuck_worker_trips_the_gather_deadline(
        self, tiny_dataset, tiny_store, mining_config
    ):
        pool = ProcessMiningPool(workers=2, timeout_s=0.2)
        stopped = []
        try:
            pool.publish(tiny_store)
            for process in pool._procs:
                os.kill(process.pid, signal.SIGSTOP)
                stopped.append(process)
            spec = toy_story_spec(tiny_dataset, tiny_store, mining_config)
            future = pool.submit(spec)
            started = time.monotonic()
            with pytest.raises(MiningTimeoutError, match="0.2s deadline"):
                pool.gather(future)
            assert time.monotonic() - started < 5  # the deadline, not a hang
            assert pool.to_dict()["broken"] is None  # slow is not dead
        finally:
            try:
                for process in stopped:
                    resume(process)
            finally:
                pool.shutdown()

    def test_server_config_timeout_reaches_the_pool(self, tiny_dataset, mining_config):
        system = build_system(
            tiny_dataset, mining_config, "process", 1, mining_timeout_s=7.5
        )
        try:
            assert system.pool.timeout_s == 7.5
        finally:
            system.close()

    def test_superseded_segment_unlinks_only_after_drain(
        self, tiny_dataset, tiny_store, mining_config
    ):
        # Retire-while-inflight: epoch 0's segment must survive until its
        # last task resolves, then unlink (drain-then-retire).
        from repro.data.ingest import compact_snapshot

        pool = ProcessMiningPool(workers=2)
        try:
            pool.publish(tiny_store)
            old_segments = pool.segment_names()
            assert len(old_segments) == 1
            victim = pool._procs[0]
            os.kill(victim.pid, signal.SIGSTOP)  # hold the task in flight
            try:
                future = pool.submit(
                    toy_story_spec(tiny_dataset, tiny_store, mining_config)
                )
                rating = next(iter(tiny_dataset.ratings()))
                bumped, _ = compact_snapshot(
                    tiny_store, [rating], use_incremental=False
                )
                pool.publish(bumped)  # retires epoch 0, but must not drop it yet
                assert pool.to_dict()["retiring_epochs"] == [tiny_store.epoch]
                assert set(old_segments) <= set(pool.segment_names())
                for name in old_segments:  # still linked while in flight
                    shared_memory.SharedMemory(name=name).close()
            finally:
                resume(victim)
            assert pool.gather(future).objective is not None
            assert pool.to_dict()["retiring_epochs"] == []
            assert set(pool.segment_names()).isdisjoint(old_segments)
            for name in old_segments:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
        finally:
            pool.shutdown()


class TestShutdownAndReclamation:
    def test_close_reclaims_every_segment(self, tiny_dataset, mining_config):
        system = build_system(tiny_dataset, mining_config, "process", 2)
        system.explain('title:"Toy Story"', use_cache=False)
        segments = set(system.pool.segment_names())
        system.ingest(item_id=1, reviewer_id=1, score=4, timestamp=99)
        system.compact()
        segments |= set(system.pool.segment_names())
        assert segments  # at least the two epochs' exports existed
        system.close()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_submit_after_shutdown_raises_pool_error(self, tiny_store):
        pool = ProcessMiningPool(workers=1)
        pool.publish(tiny_store)
        pool.shutdown()
        with pytest.raises(PoolError):
            pool.submit(("similarity", tiny_store.epoch, (1,), None, None, None))

    def test_close_is_idempotent(self, tiny_dataset, mining_config):
        system = build_system(tiny_dataset, mining_config, "process", 1)
        system.close()
        system.close()

    def test_negative_workers_rejected(self):
        with pytest.raises(PoolError):
            ProcessMiningPool(workers=-1)

    def test_non_positive_timeout_rejected(self):
        for timeout_s in (0, -1.0):
            with pytest.raises(PoolError):
                ProcessMiningPool(timeout_s=timeout_s)

    def test_shutdown_stops_every_worker_and_thread(
        self, tiny_dataset, tiny_store, mining_config
    ):
        pool = ProcessMiningPool(workers=2)
        pool.publish(tiny_store)
        spec = toy_story_spec(tiny_dataset, tiny_store, mining_config)
        pool.gather(pool.submit(spec))
        procs = list(pool._procs)
        threads = [pool._collector, pool._monitor]
        segments = pool.segment_names()
        pool.shutdown()
        pool.shutdown()  # idempotent
        assert [process.is_alive() for process in procs] == [False, False]
        assert [process.exitcode for process in procs] == [0, 0]  # clean stop
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(PoolError):
            pool.submit(spec)
