"""The ratings live in one place: the dataset's four numpy columns.

* Loading keeps no per-rating Python object (retained bytes per rating).
* A store shares its base columns with its dataset — after a build, after a
  compaction and after a crash recovery.
* Once a compaction replaces the columns, nothing keeps the starting
  dataset alive.
* Data directories written by earlier releases (same snapshot format,
  version 1) still recover, to the store a never-stopped system holds: one
  from before the columnar dataset, and one whose snapshot carries the
  arrays of the since-removed materialised cuboid lattice.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from test_recovery import assert_stores_identical

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.core.miner import RatingMiner
from repro.data.durability import _SNAPSHOT_HEADER
from repro.data.model import Item, Rating, RatingDataset, Reviewer
from repro.data.movielens import load_movielens_directory, write_movielens_directory
from repro.data.shm import StoreManifest
from repro.data.storage import RatingStore
from repro.data.synthetic import generate_dataset
from repro.errors import DataError
from repro.server.api import MapRat
from repro.server.recovery import DurabilityController

COLUMNS = ("item_ids", "reviewer_ids", "scores", "timestamps")

FIXTURES = Path(__file__).parent / "fixtures"

#: Data directories written by earlier releases (snapshot format 1).  Never
#: regenerate them with the current code — their point is that older bytes
#: still recover.
#:
#: * ``datadir_v1``: written by :func:`write_data_dir` while the dataset
#:   still held one ``Rating`` object per row.
#: * ``datadir_lattice_v1``: written by :func:`write_data_dir` at commit
#:   ``cf3edd7``, the last with the materialised cuboid lattice, with
#:   ``use_cuboid_lattice=True`` added to the ``ServerConfig`` of
#:   :func:`_old_dir_config`.  Its pickled ``StoreManifest`` carries the
#:   since-removed lattice fields and its snapshot the 29 cuboids' arrays;
#:   recovery must ignore both.
OLD_DATA_DIRS = ("datadir_v1", "datadir_lattice_v1")

#: ``StoreManifest`` fields of the lattice era that the class no longer has.
LATTICE_FIELDS = {"lattice_meta", "lattice_cuboids", "lattice_dims"}


def assert_one_copy(store: RatingStore) -> None:
    """The store's base columns are its dataset's columns, not copies."""
    for name in COLUMNS:
        column = getattr(store.dataset, name)
        assert np.shares_memory(getattr(store, f"_{name}"), column), name
        assert not column.flags.writeable, name


class TestRetainedMemory:
    def test_load_keeps_no_per_rating_objects(self, tmp_path):
        write_movielens_directory(generate_dataset("small", seed=3), tmp_path)
        load_movielens_directory(tmp_path)  # first load fills module caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dataset = load_movielens_directory(tmp_path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 32 bytes of columns per rating plus the catalogue; a Rating object
        # per row alone costs more than this bound.
        assert retained / dataset.num_ratings <= 64

    def test_no_dataset_field_holds_rows(self, small_dataset):
        rows = small_dataset.num_ratings
        for name, value in vars(small_dataset).items():
            if name in COLUMNS:
                assert isinstance(value, np.ndarray) and value.shape == (rows,)
            else:
                assert not (hasattr(value, "__len__") and len(value) == rows), name


class TestOneCopy:
    def test_after_build(self, tiny_dataset):
        assert_one_copy(RatingStore(tiny_dataset))

    def test_after_compaction(self, tiny_dataset, mining_config):
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(mining_workers=0, precompute_top_items=0),
        )
        with MapRat(tiny_dataset, config) as system:
            item_id = next(tiny_dataset.items()).item_id
            system.ingest(item_id, 1, 5.0, timestamp=123)
            system.compact()
            assert system.epoch == 1
            assert_one_copy(system.store)

    @pytest.mark.parametrize("warm_up", [0, 3])
    def test_starting_dataset_is_released_after_compaction(self, mining_config, warm_up):
        dataset = generate_dataset("tiny")
        item_id = next(dataset.items()).item_id
        starting = weakref.ref(dataset)
        config = PipelineConfig(
            mining=mining_config,
            server=ServerConfig(mining_workers=0, precompute_top_items=0),
        )
        with MapRat.for_dataset(dataset, config) as system:
            del dataset
            if warm_up:  # as ``serve --warm-up`` does; the summary keeps the warmer
                assert system.start_warmer(limit=warm_up).wait(60).results_precomputed
            system.ingest(item_id, 1, 5.0, timestamp=123)
            system.compact()
            gc.collect()
            assert starting() is None
            assert system.suggest_titles("Toy")

    def test_after_recovery(self, tmp_path, tiny_dataset):
        build = lambda dataset: RatingMiner.build_store(dataset, MiningConfig())
        controller = DurabilityController(tmp_path)
        live, _ = controller.recover(tiny_dataset, build)
        live.ingest(Rating(next(tiny_dataset.items()).item_id, 1, 4.0, timestamp=7))
        live.compact()
        controller.close()
        recovered_ctl = DurabilityController(tmp_path)
        recovered, report = recovered_ctl.recover(tiny_dataset, build)
        try:
            assert report.mode == "snapshot"
            assert_one_copy(recovered.snapshot)
        finally:
            recovered_ctl.close()


class TestRowContract:
    def test_ratings_are_built_with_python_scalars(self, tiny_dataset):
        first = next(tiny_dataset.ratings())
        assert type(first.item_id) is int and type(first.reviewer_id) is int
        assert type(first.score) is float and type(first.timestamp) is int
        assert sum(1 for _ in tiny_dataset.ratings()) == tiny_dataset.num_ratings

    def test_from_columns_round_trips_the_rows(self, tiny_dataset):
        twin = RatingDataset.from_columns(
            tiny_dataset.reviewers(),
            tiny_dataset.items(),
            *(getattr(tiny_dataset, name) for name in COLUMNS),
        )
        assert list(twin.ratings()) == list(tiny_dataset.ratings())

    def test_validation_reports_the_first_bad_row(self):
        reviewers = [Reviewer(1, "M", 25, "artist", "94110")]
        items = [Item(10, "Alpha")]
        rows = [Rating(10, 1, 3.0), Rating(10, 1, 9.0), Rating(99, 1, 3.0)]
        with pytest.raises(DataError, match=r"^rating 9\.0 outside scale \[1, 5\]$"):
            RatingDataset(reviewers, items, rows)
        # Within one row: item, then reviewer, then score.
        with pytest.raises(DataError, match=r"^rating references unknown reviewer 7$"):
            RatingDataset(reviewers, items, [Rating(10, 7, 0.0)])

    def test_columns_must_align(self):
        with pytest.raises(DataError, match="differ in length"):
            RatingDataset.from_columns((), (), [1], [1, 2], [3.0], [0])


class TestHelpersMatchTheRowWalks:
    """Each column helper returns what the row-by-row walk it replaced did."""

    def test_lookups_and_statistics(self, tiny_dataset):
        rows = list(tiny_dataset.ratings())
        items = [item.item_id for item in tiny_dataset.items()][:5]
        wanted = set(items)
        assert tiny_dataset.ratings_for_items(items) == [
            r for r in rows if r.item_id in wanted
        ]
        assert tiny_dataset.ratings_for_reviewer(3) == [
            r for r in rows if r.reviewer_id == 3
        ]
        counts = {}
        for rating in rows:
            counts[rating.item_id] = counts.get(rating.item_id, 0) + 1
        assert list(tiny_dataset.rating_counts_by_item().items()) == list(counts.items())
        stamps = [r.timestamp for r in rows]
        assert tiny_dataset.time_range() == (min(stamps), max(stamps))
        assert tiny_dataset.global_average() == sum(r.score for r in rows) / len(rows)
        for item_id in items:
            scores = [r.score for r in rows if r.item_id == item_id]
            assert tiny_dataset.item_average(item_id) == sum(scores) / len(scores)

    def test_restrictions_keep_rows_and_catalogue_order(self, tiny_dataset):
        rows = list(tiny_dataset.ratings())
        wanted = {item.item_id for item in tiny_dataset.items()} - {1, 2}
        picked = [r for r in rows if r.item_id in wanted]
        sub = tiny_dataset.restricted_to_items(wanted)
        assert list(sub.ratings()) == picked
        assert [r.reviewer_id for r in sub.reviewers()] == list(
            {r.reviewer_id for r in picked}
        )
        assert [i.item_id for i in sub.items()] == [
            iid for iid in wanted if tiny_dataset.has_item(iid)
        ]
        lo, hi = 1000000000, 1050000000
        inside = [r for r in rows if lo <= r.timestamp <= hi]
        sub = tiny_dataset.restricted_to_interval(lo, hi)
        assert list(sub.ratings()) == inside
        assert [r.reviewer_id for r in sub.reviewers()] == list(
            {r.reviewer_id for r in inside}
        )
        assert [i.item_id for i in sub.items()] == list({r.item_id for r in inside})


# -- a data directory from before the columnar dataset --------------------------------


def _old_dir_dataset() -> RatingDataset:
    """A hand-built site: 3 items, 8 reviewers in 3 states, 40 ratings."""
    places = [("94110", "CA"), ("10001", "NY"), ("60601", "IL")]
    reviewers = [
        Reviewer(
            reviewer_id=n,
            gender="F" if n % 2 else "M",
            age=(18, 25, 35, 45)[n % 4],
            occupation=("artist", "programmer", "writer")[n % 3],
            zipcode=places[n % 3][0],
            state=places[n % 3][1],
            city=("San Francisco", "New York", "Chicago")[n % 3],
        )
        for n in range(1, 9)
    ]
    items = [Item(10, "Alpha", 1999), Item(20, "Beta", 2001), Item(30, "Gamma", 1995)]
    ratings = [
        Rating(
            item_id=(10, 20, 30)[n % 3],
            reviewer_id=1 + n % 8,
            score=float(1 + (n * 7) % 5),
            timestamp=978307200 + 86400 * n,
        )
        for n in range(40)
    ]
    return RatingDataset(reviewers, items, ratings, name="old-data-dir")


def _old_dir_config(data_dir) -> PipelineConfig:
    return PipelineConfig(
        mining=MiningConfig(min_group_support=2, max_groups=2, min_coverage=0.2),
        server=ServerConfig(
            data_dir=None if data_dir is None else str(data_dir),
            mining_workers=0,
            warm_in_background=False,
            precompute_top_items=0,
        ),
    )


def _old_dir_history(system: MapRat) -> None:
    """Epoch 0 -> 1 with a new reviewer, then two rows left in the WAL."""
    system.ingest(
        10, 900, 4.5, timestamp=1000000000,
        reviewer={"reviewer_id": 900, "gender": "F", "age": 30,
                  "occupation": "artist", "zipcode": "98101"},
    )
    system.ingest(20, 3, 2.0, timestamp=1000000100)
    system.compact()
    system.ingest(30, 900, 5.0, timestamp=1000000200)
    system.ingest(10, 4, 1.5, timestamp=1000000300)


def write_data_dir(directory) -> None:
    """Write the ``datadir_v1`` fixture (how the checked-in copy was made)."""
    with MapRat(_old_dir_dataset(), _old_dir_config(directory)) as system:
        _old_dir_history(system)
        system.explain_items([10, 20])


def _dataset_summary(system: MapRat) -> dict:
    summary = system.summary()
    ingest = summary["serving"]["ingest"]
    return {
        "dataset": {key: value for key, value in summary.items() if key not in (
            "cache", "cache_entries", "serving")},
        "ingest": {key: ingest[key] for key in (
            "epoch", "rows", "reviewers", "items", "buffered", "buffered_reviewers")},
    }


class TestOldDataDirectory:
    @pytest.mark.parametrize("fixture", OLD_DATA_DIRS)
    def test_recovers_to_the_never_stopped_store(self, tmp_path, fixture):
        data_dir = tmp_path / "data"
        shutil.copytree(FIXTURES / fixture, data_dir)
        dataset = _old_dir_dataset()
        reference = MapRat(dataset, _old_dir_config(None))
        recovered = MapRat(dataset, _old_dir_config(data_dir))
        try:
            _old_dir_history(reference)
            report = recovered.recovery_info()["recovery"]
            assert report["mode"] == "snapshot" and report["snapshot_epoch"] == 1
            assert report["pending_rows"] == 2
            assert report["warm_anchors_replayed"] == 1
            assert_stores_identical(recovered.store, reference.store)
            assert_one_copy(recovered.store)
            assert _dataset_summary(recovered) == _dataset_summary(reference)
            recovered.compact()
            reference.compact()
            assert_stores_identical(recovered.store, reference.store)
            assert _dataset_summary(recovered) == _dataset_summary(reference)
        finally:
            recovered.close()
            reference.close()

    def test_lattice_fixture_manifest_carries_the_removed_fields(self):
        raw = (
            FIXTURES / "datadir_lattice_v1" / "snapshots" / "snapshot-00000001.snap"
        ).read_bytes()
        meta_len = _SNAPSHOT_HEADER.unpack_from(raw, 0)[4]
        start = _SNAPSHOT_HEADER.size
        manifest = pickle.loads(raw[start : start + meta_len])["manifest"]
        assert isinstance(manifest, StoreManifest)
        fields = {field.name for field in dataclasses.fields(StoreManifest)}
        assert set(vars(manifest)) - fields == LATTICE_FIELDS
        assert vars(manifest)["lattice_meta"] is not None
        assert len(vars(manifest)["lattice_cuboids"]) == 29
