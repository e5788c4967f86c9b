"""Integration tests of crash recovery, warm restart and request deadlines."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.miner import RatingMiner
from repro.data.ingest import LiveStore
from repro.data.model import Rating, Reviewer
from repro.errors import (
    ConstraintError,
    MiningTimeoutError,
    RecoveryError,
    ServerError,
)
from repro.server.api import JsonApi, MapRat
from repro.server.recovery import DataDirLayout, DurabilityController


def _reviewer(n):
    return Reviewer(
        reviewer_id=900000 + n,
        gender="F" if n % 2 else "M",
        age=20 + n,
        occupation="artist",
        zipcode="94110",
    )


def _ops(count, items, start=0):
    """A deterministic op sequence: every third rating registers a reviewer."""
    ops = []
    for n in range(start, start + count):
        reviewer = _reviewer(n) if n % 3 == 0 else None
        reviewer_id = 900000 + n if n % 3 == 0 else 1 + (n % 5)
        rating = Rating(
            item_id=items[n % len(items)],
            reviewer_id=reviewer_id,
            score=float(1 + n % 5),
            timestamp=1000 + n,
        )
        ops.append((rating, reviewer))
    return ops


def _scrub(payload):
    """Drop wall-clock fields so payloads compare on behaviour alone."""
    if isinstance(payload, dict):
        return {
            key: _scrub(value)
            for key, value in payload.items()
            if key != "elapsed_seconds"
        }
    if isinstance(payload, list):
        return [_scrub(value) for value in payload]
    return payload


def assert_stores_identical(left, right):
    """Bit-level equality of two stores: columns, codes, vocabs, positions."""
    assert left.epoch == right.epoch
    for name in ("_item_ids", "_reviewer_ids", "_scores", "_timestamps"):
        np.testing.assert_array_equal(getattr(left, name), getattr(right, name))
    assert left.grouping_attributes == right.grouping_attributes
    for attribute in left.grouping_attributes:
        np.testing.assert_array_equal(
            left.codes_for(attribute), right.codes_for(attribute)
        )
        np.testing.assert_array_equal(
            left.vocabulary_for(attribute), right.vocabulary_for(attribute)
        )
    assert set(left._positions_by_item) == set(right._positions_by_item)
    for item_id, positions in left._positions_by_item.items():
        np.testing.assert_array_equal(positions, right._positions_by_item[item_id])


def _pending(live):
    """Buffered rows and pending reviewer registrations of a live store."""
    return len(live.buffer), live.buffer.pending_reviewers


def _build_store(dataset):
    return RatingMiner.build_store(dataset, MiningConfig())


def _reference_live(dataset, ops, compact_at=()):
    """The never-killed run: same ops, same compaction points, no journal."""
    live = LiveStore(_build_store(dataset))
    for index, (rating, reviewer) in enumerate(ops):
        live.ingest(rating, reviewer)
        if index in compact_at:
            live.compact()
    return live


class TestDurabilityController:
    def test_fresh_start(self, tmp_path, tiny_dataset):
        controller = DurabilityController(tmp_path)
        live, report = controller.recover(tiny_dataset, _build_store)
        assert report.mode == "fresh" and report.recovered_epoch == 0
        assert live.epoch == 0 and _pending(live) == (0, 0)
        controller.close()

    def test_crash_with_pending_rows(self, tmp_path, tiny_dataset):
        items = [item.item_id for item in list(tiny_dataset.items())[:4]]
        ops = _ops(6, items)
        controller = DurabilityController(tmp_path, fsync="never")
        live, _ = controller.recover(tiny_dataset, _build_store)
        for rating, reviewer in ops:
            live.ingest(rating, reviewer)
        del live, controller  # simulated crash: no close, no compact

        recovered_ctl = DurabilityController(tmp_path, fsync="never")
        recovered, report = recovered_ctl.recover(tiny_dataset, _build_store)
        assert report.records_replayed == len(ops)
        reference = _reference_live(tiny_dataset, ops)
        assert _pending(recovered) == _pending(reference)
        assert_stores_identical(recovered.snapshot, reference.snapshot)
        # The buffers converge too: compacting both yields identical epochs.
        recovered.compact()
        reference.compact()
        assert_stores_identical(recovered.snapshot, reference.snapshot)
        recovered_ctl.close()

    def test_crash_after_compaction_recovers_from_snapshot(
        self, tmp_path, tiny_dataset
    ):
        items = [item.item_id for item in list(tiny_dataset.items())[:4]]
        ops = _ops(8, items)
        controller = DurabilityController(tmp_path)
        live, _ = controller.recover(tiny_dataset, _build_store)
        for index, (rating, reviewer) in enumerate(ops):
            live.ingest(rating, reviewer)
            if index == 4:
                live.compact()
        del live, controller

        recovered_ctl = DurabilityController(tmp_path)
        recovered, report = recovered_ctl.recover(tiny_dataset, _build_store)
        assert report.mode == "snapshot" and report.snapshot_epoch == 1
        reference = _reference_live(tiny_dataset, ops, compact_at={4})
        assert recovered.epoch == 1 and _pending(recovered) == _pending(reference)
        assert_stores_identical(recovered.snapshot, reference.snapshot)
        recovered_ctl.close()

    def test_full_log_chain_without_snapshots(self, tmp_path, tiny_dataset):
        items = [item.item_id for item in list(tiny_dataset.items())[:4]]
        ops = _ops(9, items)
        controller = DurabilityController(tmp_path, snapshot_on_compact=False)
        live, _ = controller.recover(tiny_dataset, _build_store)
        for index, (rating, reviewer) in enumerate(ops):
            live.ingest(rating, reviewer)
            if index in (2, 5):
                live.compact()
        assert live.epoch == 2
        del live, controller

        recovered_ctl = DurabilityController(tmp_path, snapshot_on_compact=False)
        recovered, report = recovered_ctl.recover(tiny_dataset, _build_store)
        assert report.mode == "fresh"  # no snapshot existed, only logs
        assert report.compactions_replayed == 2
        reference = _reference_live(tiny_dataset, ops, compact_at={2, 5})
        assert recovered.epoch == 2 and _pending(recovered) == _pending(reference)
        assert_stores_identical(recovered.snapshot, reference.snapshot)
        recovered_ctl.close()

    def test_log_chain_gap_fails_loudly(self, tmp_path, tiny_dataset):
        items = [item.item_id for item in list(tiny_dataset.items())[:4]]
        controller = DurabilityController(tmp_path, snapshot_on_compact=False)
        live, _ = controller.recover(tiny_dataset, _build_store)
        for index, (rating, reviewer) in enumerate(_ops(6, items)):
            live.ingest(rating, reviewer)
            if index in (1, 3):
                live.compact()
        del live, controller
        layout = DataDirLayout(tmp_path)
        os.unlink(layout.wal_path(1))
        with pytest.raises(RecoveryError, match="gap"):
            DurabilityController(tmp_path, snapshot_on_compact=False).recover(
                tiny_dataset, _build_store
            )

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ConstraintError):
            DurabilityController(tmp_path, fsync="sometimes")

    def test_close_is_idempotent(self, tmp_path, tiny_dataset):
        controller = DurabilityController(tmp_path)
        controller.recover(tiny_dataset, _build_store)
        controller.close()
        controller.close()


@pytest.fixture()
def durable_config(tmp_path, mining_config):
    return PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            data_dir=str(tmp_path / "data"),
            mining_workers=0,
            warm_in_background=False,
            precompute_top_items=0,
        ),
    )


class TestMapRatDurability:
    def test_warm_restart_replays_anchors_and_matches_payloads(
        self, tiny_dataset, durable_config
    ):
        items = [item.item_id for item in list(tiny_dataset.items())[:2]]
        with MapRat(tiny_dataset, durable_config) as system:
            system.ingest(
                items[0], 900001, 4.0, timestamp=100,
                reviewer={
                    "reviewer_id": 900001, "gender": "F", "age": 30,
                    "occupation": "artist", "zipcode": "94110",
                },
            )
            system.compact()
            system.ingest(items[1], 900001, 3.0, timestamp=200)
            before = system.explain_items(items).to_dict()
            epoch_before, pending_before = system.epoch, _pending(system.live)

        restarted = MapRat(tiny_dataset, durable_config)
        try:
            info = restarted.recovery_info()
            assert info["configured"] and info["recovery"]["mode"] == "snapshot"
            assert info["recovery"]["warm_anchors_replayed"] == 1
            assert restarted.epoch == epoch_before
            assert _pending(restarted.live) == pending_before
            assert len(restarted.cache) == 1  # the anchor set pre-filled it
            after = restarted.explain_items(items).to_dict()
            assert _scrub(json.loads(json.dumps(before))) == _scrub(
                json.loads(json.dumps(after))
            )
        finally:
            restarted.close()

    def test_crash_recovery_without_clean_close(self, tiny_dataset, durable_config):
        items = [item.item_id for item in list(tiny_dataset.items())[:3]]
        system = MapRat(tiny_dataset, durable_config)
        system.ingest(items[0], 1, 5.0, timestamp=50)
        system.ingest(items[1], 2, 2.0, timestamp=60)
        # Simulated crash: abandon the system without close(); the WAL was
        # written ahead of each accepted ingest, so nothing is lost.
        system.pool.shutdown(cancel_pending=True)
        system.warm_pool.shutdown(cancel_pending=True)
        del system

        recovered = MapRat(tiny_dataset, durable_config)
        try:
            assert _pending(recovered.live) == (2, 0)
            assert recovered.store_stats()["accepted_total"] == 2
        finally:
            recovered.close()

    def test_recovery_counts_pending_rows_not_registrations(
        self, tiny_dataset, durable_config
    ):
        item = next(iter(tiny_dataset.items())).item_id
        with MapRat(tiny_dataset, durable_config) as system:
            system.ingest(
                item, 900101, 4.0, timestamp=100,
                reviewer={"gender": "F", "age": 30, "occupation": "artist",
                          "zipcode": "94110"},
            )
            system.ingest(item, 1, 3.0, timestamp=101)

        with MapRat(tiny_dataset, durable_config) as restarted:
            report = restarted.recovery_info()["recovery"]
            stats = restarted.store_stats()
            assert report["records_replayed"] == 2
            assert report["pending_rows"] == stats["buffered"] == 2
            assert stats["buffered_reviewers"] == 1

    def test_replay_keeps_a_state_the_request_check_rejects(
        self, tiny_dataset, durable_config
    ):
        # Requests must name a USPS state code, but WAL replay does not
        # re-check what it journaled: a log written before that check
        # recovers as written instead of failing the restart.
        item = next(iter(tiny_dataset.items())).item_id
        legacy = Reviewer(900201, "F", 30, "artist", "94110", state="ZZ")
        with MapRat(tiny_dataset, durable_config) as system:
            # LiveStore.ingest journals below the request boundary's check.
            system.live.ingest(Rating(item, 900201, 4.0, timestamp=100), legacy)

        with MapRat(tiny_dataset, durable_config) as recovered:
            assert recovered.recovery_info()["recovery"]["records_replayed"] == 1
            assert _pending(recovered.live) == (1, 1)
            recovered.compact()
            assert recovered.dataset.reviewer(900201).state == "ZZ"

    def test_snapshot_endpoint_writes_file(self, tiny_dataset, durable_config):
        with MapRat(tiny_dataset, durable_config) as system:
            api = JsonApi(system)
            payload = api.dispatch("snapshot", {})
            assert payload["epoch"] == 0 and os.path.exists(payload["path"])
            info = api.dispatch("recovery_info", {})
            assert info["snapshot_epochs"] == [0]

    def test_unconfigured_system_surfaces(self, tiny_dataset, mining_config):
        config = PipelineConfig(
            mining=mining_config, server=ServerConfig(mining_workers=0)
        )
        with MapRat(tiny_dataset, config) as system:
            api = JsonApi(system)
            assert api.dispatch("recovery_info", {}) == {"configured": False}
            with pytest.raises(ServerError) as excinfo:
                api.dispatch("snapshot", {})
            assert excinfo.value.status == 400

    def test_close_is_idempotent_and_leaves_no_shm(self, tiny_dataset, mining_config):
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(
                mining_backend="process", mining_workers=2, precompute_top_items=0
            ),
        )
        system = MapRat(tiny_dataset, config)
        segments = system.pool.segment_names()
        assert segments  # the startup publish exported epoch 0
        system.close()
        system.close()  # idempotent
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_close_idempotent_with_durability(self, tiny_dataset, durable_config):
        system = MapRat(tiny_dataset, durable_config)
        system.close()
        system.close()


class TestMiningTimeout:
    def test_timeout_maps_to_503(self, tiny_dataset, mining_config, monkeypatch):
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(mining_workers=0, mining_timeout_s=0.001),
        )
        with MapRat(tiny_dataset, config) as system:
            api = JsonApi(system)

            def slow_explain(*args, **kwargs):
                raise MiningTimeoutError("mining task exceeded the 0.001s deadline")

            monkeypatch.setattr(system, "explain", slow_explain)
            with pytest.raises(ServerError) as excinfo:
                api.dispatch("explain", {"q": 'title:"Toy Story"'})
            assert excinfo.value.status == 503
            assert "deadline" in str(excinfo.value)

    def test_pool_timeout_raises_mining_timeout(self):
        import time

        from repro.server.pool import MiningWorkerPool

        pool = MiningWorkerPool(2, timeout_s=0.02)
        try:
            future = pool.submit(time.sleep, 0.5)
            with pytest.raises(MiningTimeoutError):
                pool.gather(future)
        finally:
            pool.shutdown()

    def test_inline_pool_never_times_out(self):
        import time

        from repro.server.pool import MiningWorkerPool

        pool = MiningWorkerPool(0, timeout_s=0.001)
        future = pool.submit(time.sleep, 0.01)
        assert pool.gather(future) is None
        pool.shutdown()

    def test_timeout_validation(self):
        with pytest.raises(ConstraintError):
            ServerConfig(mining_timeout_s=0)
        with pytest.raises(ConstraintError):
            ServerConfig(mining_timeout_s=-1.5)

    def test_wal_fsync_validation(self):
        with pytest.raises(ConstraintError):
            ServerConfig(wal_fsync="sometimes")
