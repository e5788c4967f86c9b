"""The benchmark's input is pinned: same generator draws, same ``.dat`` bytes.

``perfbench`` generates its dataset in every checkout it measures, so two
checkouts only benchmark the same data if generation and the MovieLens
writer produce identical bytes.  This test fixes those bytes and checks that
loading them back yields exactly the generated rating columns.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.data.movielens import load_movielens_directory, write_movielens_directory
from repro.data.synthetic import generate_dataset

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: sha256 of each file for ``generate_dataset(PRESET, seed=DATASET_SEED)``.
PINNED_SHA256 = {
    "users.dat": "e314efb3fa55ed80314ed79ccd11337aa410e740e98523603ecc70ec5c5e0ef4",
    "movies.dat": "c028fa36a985d9f0acb6e81287500a17e14f918a73bbecd813cf63c23ac19fdf",
    "ratings.dat": "f8aa5fcf892134933b0b124f6735f863d38219bb1a5c5f8900cddbd2e421b13f",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses resolve their module while executing.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_dataset_bytes_and_columns_are_pinned(tmp_path):
    workloads = _workloads()
    generated = generate_dataset(workloads.PRESET, seed=workloads.DATASET_SEED)
    write_movielens_directory(generated, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_SHA256
    }
    assert digests == PINNED_SHA256
    loaded = load_movielens_directory(tmp_path)
    for column in ("item_ids", "reviewer_ids", "scores", "timestamps"):
        expected, actual = getattr(generated, column), getattr(loaded, column)
        assert actual.dtype == expected.dtype, column
        np.testing.assert_array_equal(actual, expected, err_msg=column)
